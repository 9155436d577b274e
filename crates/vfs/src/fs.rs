//! The filesystem proper: an inode arena plus permission-checked
//! operations.
//!
//! Policy/mechanism split: every operation here enforces *classic POSIX
//! DAC* (path-walk search permission, read/write checks, sticky-bit delete
//! rules) against the provided [`Access`] snapshot. Namespace-aware policy
//! (who may chown what to whom) is the simulated kernel's job; the
//! corresponding operations here (`set_owner`, `set_perm`, …) are
//! mechanical.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::access::{permitted, Access, Want};
use crate::blob::Blob;
use crate::inode::{FileKind, Ino, Inode, Metadata, Stat};
use crate::path::{normal, normalize, valid_name};
use zr_digest::{FieldDigest, Sha256};
use zr_syscalls::Errno;

/// Symlink-chase limit (`MAXSYMLINKS`).
const MAX_SYMLINKS: u32 = 40;

/// Inode slots per copy-on-write page. Small enough that the first
/// write after a snapshot copies little; large enough that a snapshot
/// of a big image clones thousands of pointers, not millions.
const PAGE_SLOTS: usize = 64;

/// One copy-on-write page of the inode arena.
type Page = Vec<Option<Inode>>;

/// Injectable nondeterminism sources — the audit mode's forcing
/// functions.
///
/// A real kernel leaks wall-clock time, RNG output, on-disk directory
/// order and default ownership into build outputs; the simulated kernel
/// is deterministic by construction, which would make a reproducibility
/// auditor vacuously green. This config re-introduces each leak *on
/// purpose*, one knob per divergence class from the Docker
/// reproducibility literature, so tests can force a class and assert
/// the auditor names it — and, with the default (all-off) config,
/// assert the normalizing exporter suppresses it.
///
/// All sources are seeded/deterministic themselves: two builds under the
/// *same* `Nondeterminism` agree, two builds under different ones
/// diverge. That keeps every forced-divergence test replayable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Nondeterminism {
    /// Added to every fresh mtime the logical clock hands out — a
    /// skewed build clock (class: tar mtime).
    pub clock_skew: u64,
    /// Seed for the kernel's `getrandom` stream. `None` = the fixed
    /// default stream every builder agrees on; `Some(seed)` = a
    /// machine-local RNG (class: payload content via generated files).
    pub gen_seed: Option<u64>,
    /// Seed for shuffling `read_dir` results — on-disk directory order
    /// instead of the sorted canonical order (class: tar ordering, for
    /// exporters that pack in readdir order).
    pub shuffle_readdir: Option<u64>,
    /// Override the uid/gid newly created files receive, modelling a
    /// builder whose default identity mapping differs (class: owner).
    pub default_ids: Option<(u32, u32)>,
}

impl Nondeterminism {
    /// Is every source disabled (the deterministic default)?
    pub fn is_clean(&self) -> bool {
        *self == Nondeterminism::default()
    }
}

/// Whether the final path component follows symlinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowMode {
    /// `stat`-like: resolve a trailing symlink.
    Follow,
    /// `lstat`/`unlink`-like: operate on the symlink itself.
    NoFollow,
}

/// The filesystem.
///
/// Paths follow the crate's path contract: each op walks its path once
/// (a create-or-replace such as [`write_file`](Fs::write_file) too),
/// borrowing an absolute normal path and normalizing any other path
/// lexically once.
///
/// The inode arena is split into fixed-size pages, each behind an
/// `Arc`: `Fs::clone` — the per-instruction build snapshot — clones one
/// pointer per page plus the small bookkeeping fields, **O(pages)**
/// instead of O(inodes × bytes). The first mutation of a page after a
/// snapshot copies just that page (`Arc::make_mut`), so between two
/// snapshots the work done is proportional to the pages actually
/// touched. File payloads are [`Blob`]s, shared the same way.
#[derive(Debug)]
pub struct Fs {
    /// Copy-on-write inode pages; slot = ino - 1, `PAGE_SLOTS` per page
    /// (the last page may be partial).
    pages: Vec<Arc<Page>>,
    /// Total slots allocated across all pages.
    slots: usize,
    next_free: Vec<usize>,
    clock: u64,
    /// Content version: bumped on every mutation. Keys the tree-digest
    /// memo — within one `Fs` value's lifetime a version uniquely
    /// identifies a tree state (clones copy the memo *value* and then
    /// diverge on their own counters).
    version: u64,
    /// Memoized `(version, tree_digest)` of the last digest computed.
    tree_memo: Mutex<Option<(u64, String)>>,
    /// Injected nondeterminism sources (all off by default).
    nondet: Nondeterminism,
}

impl Clone for Fs {
    fn clone(&self) -> Fs {
        Fs {
            pages: self.pages.clone(),
            slots: self.slots,
            next_free: self.next_free.clone(),
            clock: self.clock,
            version: self.version,
            // Copy the memo value, not the cell: the clone keeps the
            // warm digest but diverges independently from here on.
            tree_memo: Mutex::new(self.memo_value()),
            nondet: self.nondet.clone(),
        }
    }
}

impl Default for Fs {
    fn default() -> Fs {
        Fs::new()
    }
}

impl Fs {
    /// A filesystem containing only a root directory owned by kernel uid 0,
    /// mode 0755.
    pub fn new() -> Fs {
        let root = Inode {
            ino: 1,
            kind: FileKind::Dir {
                entries: Arc::new(BTreeMap::new()),
                parent: 1,
            },
            meta: Metadata::new(0, 0, 0o755, 0),
        };
        Fs {
            pages: vec![Arc::new(vec![Some(root)])],
            slots: 1,
            next_free: Vec::new(),
            clock: 0,
            version: 0,
            tree_memo: Mutex::new(None),
            nondet: Nondeterminism::default(),
        }
    }

    /// Root inode number.
    pub const fn root(&self) -> Ino {
        1
    }

    /// Install injected nondeterminism sources (audit mode). The
    /// default-constructed value restores full determinism.
    pub fn set_nondeterminism(&mut self, nondet: Nondeterminism) {
        self.nondet = nondet;
    }

    /// The currently installed nondeterminism config.
    pub fn nondeterminism(&self) -> &Nondeterminism {
        &self.nondet
    }

    /// Advance and return the logical clock (each mutation ticks it).
    /// An injected `clock_skew` shifts the *observed* time — the
    /// counter itself stays monotonic and un-skewed so two builds
    /// under different skews still tick in lockstep.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock + self.nondet.clock_skew
    }

    /// The uid/gid a newly created inode receives: the caller's
    /// fsuid/fsgid, unless an alternate default identity is injected.
    fn create_ids(&self, access: &Access) -> (u32, u32) {
        self.nondet
            .default_ids
            .unwrap_or((access.fsuid, access.fsgid))
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Count of live inodes (diagnostics, tests, image statistics).
    pub fn inode_count(&self) -> usize {
        self.inodes().count()
    }

    // ---- inode plumbing ---------------------------------------------------

    /// Borrow an inode.
    pub fn inode(&self, ino: Ino) -> Result<&Inode, Errno> {
        let slot = (ino as usize).checked_sub(1).ok_or(Errno::ENOENT)?;
        self.pages
            .get(slot / PAGE_SLOTS)
            .and_then(|p| p.get(slot % PAGE_SLOTS))
            .and_then(Option::as_ref)
            .ok_or(Errno::ENOENT)
    }

    /// Mutable inode access: bumps the content version and copies the
    /// containing page first if it is shared with a snapshot.
    fn inode_mut(&mut self, ino: Ino) -> Result<&mut Inode, Errno> {
        let slot = (ino as usize).checked_sub(1).ok_or(Errno::ENOENT)?;
        let page = self.pages.get_mut(slot / PAGE_SLOTS).ok_or(Errno::ENOENT)?;
        self.version += 1;
        Arc::make_mut(page)
            .get_mut(slot % PAGE_SLOTS)
            .and_then(Option::as_mut)
            .ok_or(Errno::ENOENT)
    }

    fn alloc(&mut self, kind: FileKind, meta: Metadata) -> Ino {
        self.version += 1;
        if let Some(slot) = self.next_free.pop() {
            let ino = slot as Ino + 1;
            Arc::make_mut(&mut self.pages[slot / PAGE_SLOTS])[slot % PAGE_SLOTS] =
                Some(Inode { ino, kind, meta });
            ino
        } else {
            let slot = self.slots;
            let ino = slot as Ino + 1;
            if slot.is_multiple_of(PAGE_SLOTS) {
                self.pages.push(Arc::new(Vec::with_capacity(PAGE_SLOTS)));
            }
            let page = self.pages.last_mut().expect("page ensured above");
            Arc::make_mut(page).push(Some(Inode { ino, kind, meta }));
            self.slots += 1;
            ino
        }
    }

    fn free(&mut self, ino: Ino) {
        let slot = ino as usize - 1;
        self.version += 1;
        Arc::make_mut(&mut self.pages[slot / PAGE_SLOTS])[slot % PAGE_SLOTS] = None;
        self.next_free.push(slot);
    }

    /// Iterate every live inode in slot order.
    pub fn inodes(&self) -> impl Iterator<Item = &Inode> {
        self.pages
            .iter()
            .flat_map(|p| p.iter().filter_map(Option::as_ref))
    }

    // ---- snapshot/digest observability ------------------------------------

    /// Content version: monotone within this value's lifetime, bumped
    /// by every mutation. Two reads returning the same version saw the
    /// same tree.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of copy-on-write pages backing the arena.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages currently shared with at least one other snapshot. Right
    /// after a clone this equals [`page_count`](Self::page_count); each
    /// first-write since then peels one page off.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Every regular file's blob, in slot order (one entry per inode,
    /// however many hard links point at it).
    pub fn blobs(&self) -> impl Iterator<Item = &Arc<Blob>> {
        self.inodes().filter_map(|inode| match &inode.kind {
            FileKind::File(blob) => Some(blob),
            _ => None,
        })
    }

    /// Total file payload bytes (each inode's blob counted once).
    pub fn content_bytes(&self) -> u64 {
        self.blobs().map(|b| b.len() as u64).sum()
    }

    fn memo_value(&self) -> Option<(u64, String)> {
        self.tree_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Deterministic content digest of the whole tree: every reachable
    /// path's name, type, permissions and ownership, plus symlink
    /// targets and file payload digests, in sorted pre-order.
    /// Timestamps are excluded (they encode execution order, not
    /// content).
    ///
    /// The digest is memoized per content [`version`](Self::version),
    /// and file payloads contribute their blob's memoized SHA-256 — so
    /// a warm digest after a k-file change hashes O(k) file bytes plus
    /// O(paths) metadata, and an unchanged tree answers from the memo
    /// without walking at all.
    pub fn tree_digest(&self) -> String {
        if let Some((version, digest)) = self.memo_value() {
            if version == self.version {
                return digest;
            }
        }
        let digest = self.tree_digest_with(|blob| *blob.sha_bytes());
        *self
            .tree_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some((self.version, digest.clone()));
        digest
    }

    /// Reference implementation of [`tree_digest`](Self::tree_digest):
    /// byte-identical output, but every file payload is re-hashed from
    /// its raw bytes and no memo is consulted or updated. The paper
    /// report's `P-snap` gate compares the two to pin that memoization
    /// never changes an observable digest.
    pub fn tree_digest_uncached(&self) -> String {
        self.tree_digest_with(|blob| Sha256::digest(blob.data()))
    }

    fn tree_digest_with(&self, blob_sha: impl Fn(&Arc<Blob>) -> [u8; 32]) -> String {
        let mut d = FieldDigest::new("zr-tree-v1");
        self.walk(&Access::root(), None, |path, _, node| {
            d.field(path.as_bytes())
                .field(&node.st_mode().to_be_bytes())
                .field(&node.meta.uid.to_be_bytes())
                .field(&node.meta.gid.to_be_bytes());
            match &node.kind {
                FileKind::Symlink(target) => {
                    d.field(target.as_bytes());
                }
                FileKind::File(blob) => {
                    d.field(&blob_sha(blob));
                }
                _ => {}
            }
        });
        d.finish()
    }

    fn dir_entries(&self, ino: Ino) -> Result<&BTreeMap<String, Ino>, Errno> {
        match &self.inode(ino)?.kind {
            FileKind::Dir { entries, .. } => Ok(entries),
            _ => Err(Errno::ENOTDIR),
        }
    }

    /// Mutable entry-map access. The map sits behind its own `Arc`:
    /// a directory still shared with a snapshot is deep-copied here —
    /// and only here — so mutating one directory never pays for its
    /// page neighbors, and an untouched directory is never copied at
    /// all (the PR-4 "whole directory clones on first page touch"
    /// amplification is capped to the directory actually written).
    fn dir_entries_mut(&mut self, ino: Ino) -> Result<&mut BTreeMap<String, Ino>, Errno> {
        match &mut self.inode_mut(ino)?.kind {
            FileKind::Dir { entries, .. } => Ok(Arc::make_mut(entries)),
            _ => Err(Errno::ENOTDIR),
        }
    }

    // ---- path walking -------------------------------------------------------

    /// Resolve `path` to an inode, enforcing search permission on every
    /// traversed directory and chasing symlinks (bounded by
    /// `MAX_SYMLINKS`). The path is normalized lexically first, unless
    /// it already is absolute and normal.
    pub fn resolve(&self, path: &str, access: &Access, follow: FollowMode) -> Result<Ino, Errno> {
        self.resolve_normal(&normal(path), access, follow, &mut 0)
    }

    /// The one path walk, nameidata-style, over an absolute normal path
    /// (or `""`, the root): from `/` one component at a time, with no
    /// copy of the path unless a symlink replaces part of it. `depth`
    /// counts the symlinks chased so far.
    fn resolve_normal(
        &self,
        path: &str,
        access: &Access,
        follow: FollowMode,
        depth: &mut u32,
    ) -> Result<Ino, Errno> {
        let mut cur = self.root();
        let mut rest = path;
        while let Some((name, tail)) = next_component(rest) {
            match self.step(cur, name, access)? {
                (_, Some(target)) if !tail.is_empty() || follow == FollowMode::Follow => {
                    return self.follow_link(cur, target, tail, access, follow, depth);
                }
                (child, _) => cur = child,
            }
            rest = tail;
        }
        Ok(cur)
    }

    /// One step of a walk: search directory `dir` for `name`. Returns
    /// the entry and, when it is a symlink, the link's target.
    fn step(&self, dir: Ino, name: &str, access: &Access) -> Result<(Ino, Option<&str>), Errno> {
        let node = self.inode(dir)?;
        let FileKind::Dir { entries, .. } = &node.kind else {
            return Err(Errno::ENOTDIR);
        };
        if !permitted(
            access,
            node.meta.uid,
            node.meta.gid,
            node.meta.perm,
            Want::X,
        ) {
            return Err(Errno::EACCES);
        }
        let &child = entries.get(name).ok_or(Errno::ENOENT)?;
        match &self.inode(child)?.kind {
            FileKind::Symlink(target) => Ok((child, Some(target))),
            _ => Ok((child, None)),
        }
    }

    /// Continue a walk through a symlink found in `dir`: its target
    /// replaces the link's component, `tail` (the rest of the path, `""`
    /// or `/…`) is appended, and the result is walked from `/`. A
    /// relative target is taken from the link's directory.
    fn follow_link(
        &self,
        dir: Ino,
        target: &str,
        tail: &str,
        access: &Access,
        follow: FollowMode,
        depth: &mut u32,
    ) -> Result<Ino, Errno> {
        *depth += 1;
        if *depth > MAX_SYMLINKS {
            return Err(Errno::ELOOP);
        }
        let mut rebuilt = if target.starts_with('/') {
            target.to_string()
        } else {
            format!("{}/{target}", self.path_of(dir)?)
        };
        rebuilt.push_str(tail);
        self.resolve_normal(&normalize(&rebuilt), access, follow, depth)
    }

    /// Reconstruct the absolute path of a directory inode (used for
    /// relative symlink resolution and getcwd). O(depth × siblings).
    pub fn path_of(&self, ino: Ino) -> Result<String, Errno> {
        if ino == self.root() {
            return Ok("/".to_string());
        }
        let mut parts: Vec<String> = Vec::new();
        let mut cur = ino;
        let mut guard = 0u32;
        while cur != self.root() {
            guard += 1;
            if guard > 4096 {
                return Err(Errno::ELOOP);
            }
            let parent = match &self.inode(cur)?.kind {
                FileKind::Dir { parent, .. } => *parent,
                _ => return Err(Errno::ENOTDIR),
            };
            let name = self
                .dir_entries(parent)?
                .iter()
                .find(|(_, &i)| i == cur)
                .map(|(n, _)| n.clone())
                .ok_or(Errno::ENOENT)?;
            parts.push(name);
            cur = parent;
        }
        parts.reverse();
        Ok(format!("/{}", parts.join("/")))
    }

    /// Walk to the directory that holds the last component of `path`
    /// (absolute and normal), following symlinks on the way, and look
    /// that component up there. The root has no parent: `EEXIST`, as
    /// create-like ops report it.
    fn walk_parent<'p>(&self, path: &'p str, access: &Access) -> Result<Parent<'p>, Errno> {
        let (dirs, name) = split_last(path).ok_or(Errno::EEXIST)?;
        if !valid_name(name) {
            return Err(Errno::EINVAL);
        }
        let dir = self.resolve_normal(dirs, access, FollowMode::Follow, &mut 0)?;
        let child = self.dir_entries(dir)?.get(name).copied();
        Ok(Parent { dir, name, child })
    }

    fn check_write_dir(&self, dir: Ino, access: &Access) -> Result<(), Errno> {
        let d = self.inode(dir)?;
        if !permitted(access, d.meta.uid, d.meta.gid, d.meta.perm, Want::W) {
            return Err(Errno::EACCES);
        }
        Ok(())
    }

    // ---- creation -----------------------------------------------------------

    /// The tail of every create-like op: with write permission on the
    /// directory a walk ended in, link a new `kind` inode under the
    /// walked name, unless that name exists.
    fn create_at(
        &mut self,
        at: &Parent<'_>,
        kind: FileKind,
        perm: u32,
        access: &Access,
    ) -> Result<Ino, Errno> {
        self.check_write_dir(at.dir, access)?;
        if at.child.is_some() {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        let (uid, gid) = self.create_ids(access);
        let ino = self.alloc(kind, Metadata::new(uid, gid, perm, now));
        self.dir_entries_mut(at.dir)?
            .insert(at.name.to_string(), ino);
        Ok(ino)
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, perm: u32, access: &Access) -> Result<Ino, Errno> {
        let path = normal(path);
        let at = self.walk_parent(&path, access)?;
        let kind = FileKind::Dir {
            entries: Arc::new(BTreeMap::new()),
            parent: at.dir,
        };
        self.create_at(&at, kind, perm, access)
    }

    /// Create a regular file (`open(O_CREAT|O_EXCL)` path). Fails if the
    /// name exists.
    pub fn create_file(
        &mut self,
        path: &str,
        perm: u32,
        data: Vec<u8>,
        access: &Access,
    ) -> Result<Ino, Errno> {
        self.create_file_blob(path, perm, Blob::new(data), access)
    }

    /// [`create_file`](Self::create_file) with an already-shared blob
    /// (content-addressed copies: no bytes move, the digest memo rides
    /// along).
    pub fn create_file_blob(
        &mut self,
        path: &str,
        perm: u32,
        blob: Arc<Blob>,
        access: &Access,
    ) -> Result<Ino, Errno> {
        let path = normal(path);
        let at = self.walk_parent(&path, access)?;
        self.create_at(&at, FileKind::File(blob), perm, access)
    }

    /// `open(O_CREAT|O_TRUNC)`-style write of a whole file: create or
    /// replace contents (permission checks on dir for create, on file for
    /// overwrite).
    pub fn write_file(
        &mut self,
        path: &str,
        perm: u32,
        data: Vec<u8>,
        access: &Access,
    ) -> Result<Ino, Errno> {
        self.write_file_blob(path, perm, Blob::new(data), access)
    }

    /// [`write_file`](Self::write_file) with an already-shared blob —
    /// what COPY/ADD use so a context file's bytes (and digest memo)
    /// are shared between the build context and every snapshot, never
    /// duplicated.
    ///
    /// One walk: to the parent directory, then the last component is
    /// looked up (and a trailing symlink chased) as `resolve` would; a
    /// missing name is created in the directory the walk already holds.
    pub fn write_file_blob(
        &mut self,
        path: &str,
        perm: u32,
        blob: Arc<Blob>,
        access: &Access,
    ) -> Result<Ino, Errno> {
        let path = normal(path);
        let Some((dirs, name)) = split_last(&path) else {
            return Err(Errno::EISDIR); // the root
        };
        let mut depth = 0;
        let dir = match self.resolve_normal(dirs, access, FollowMode::Follow, &mut depth) {
            Err(Errno::ENOENT) if !valid_name(name) => return Err(Errno::EINVAL),
            walked => walked?,
        };
        // The name's entry, if it exists, and the file it leads to.
        let (entry, found) = match self.step(dir, name, access) {
            Ok((link, Some(target))) => (
                Some(link),
                self.follow_link(dir, target, "", access, FollowMode::Follow, &mut depth),
            ),
            Ok((ino, None)) => (Some(ino), Ok(ino)),
            Err(e) => (None, Err(e)),
        };
        match found {
            Ok(ino) => self.overwrite(ino, blob, access),
            // A missing name — or a dangling symlink, which `create_at`
            // then refuses as existing.
            Err(Errno::ENOENT) => {
                if !valid_name(name) {
                    return Err(Errno::EINVAL);
                }
                let at = Parent {
                    dir,
                    name,
                    child: entry,
                };
                self.create_at(&at, FileKind::File(blob), perm, access)
            }
            Err(e) => Err(e),
        }
    }

    /// Replace the contents of the existing file `ino` with `blob`.
    fn overwrite(&mut self, ino: Ino, blob: Arc<Blob>, access: &Access) -> Result<Ino, Errno> {
        let node = self.inode(ino)?;
        if node.is_dir() {
            return Err(Errno::EISDIR);
        }
        if !permitted(
            access,
            node.meta.uid,
            node.meta.gid,
            node.meta.perm,
            Want::W,
        ) {
            return Err(Errno::EACCES);
        }
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        match &mut node.kind {
            FileKind::File(existing) => *existing = blob,
            _ => return Err(Errno::EINVAL),
        }
        node.meta.mtime = now;
        Ok(ino)
    }

    /// Append to an existing file. The file gets a fresh blob (old
    /// bytes + suffix); snapshots sharing the old blob are untouched.
    pub fn append_file(&mut self, path: &str, data: &[u8], access: &Access) -> Result<(), Errno> {
        let ino = self.resolve(path, access, FollowMode::Follow)?;
        self.append_ino(ino, data, access)
    }

    /// [`append_file`](Self::append_file) once the path is resolved.
    fn append_ino(&mut self, ino: Ino, data: &[u8], access: &Access) -> Result<(), Errno> {
        let node = self.inode(ino)?;
        if !permitted(
            access,
            node.meta.uid,
            node.meta.gid,
            node.meta.perm,
            Want::W,
        ) {
            return Err(Errno::EACCES);
        }
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        match &mut node.kind {
            FileKind::File(existing) => {
                let mut grown = Vec::with_capacity(existing.len() + data.len());
                grown.extend_from_slice(existing.data());
                grown.extend_from_slice(data);
                *existing = Blob::new(grown);
            }
            FileKind::Dir { .. } => return Err(Errno::EISDIR),
            _ => return Err(Errno::EINVAL),
        }
        node.meta.mtime = now;
        Ok(())
    }

    /// `symlink(2)`.
    pub fn symlink(&mut self, target: &str, path: &str, access: &Access) -> Result<Ino, Errno> {
        let path = normal(path);
        let at = self.walk_parent(&path, access)?;
        // Symlinks are created 0777 like Linux.
        self.create_at(&at, FileKind::Symlink(target.to_string()), 0o777, access)
    }

    /// `mknod(2)` mechanics: create a device/fifo/socket/regular node.
    /// The *privilege* decision (CAP_MKNOD vs userns) is the kernel's.
    pub fn mknod(
        &mut self,
        path: &str,
        kind: FileKind,
        perm: u32,
        access: &Access,
    ) -> Result<Ino, Errno> {
        if matches!(kind, FileKind::Dir { .. } | FileKind::Symlink(_)) {
            return Err(Errno::EINVAL);
        }
        let path = normal(path);
        let at = self.walk_parent(&path, access)?;
        self.create_at(&at, kind, perm, access)
    }

    /// `link(2)`: new hard link to an existing non-directory.
    pub fn link(&mut self, existing: &str, newpath: &str, access: &Access) -> Result<(), Errno> {
        let ino = self.resolve(existing, access, FollowMode::NoFollow)?;
        if self.inode(ino)?.is_dir() {
            return Err(Errno::EPERM);
        }
        let newpath = normal(newpath);
        let at = self.walk_parent(&newpath, access)?;
        self.link_at(&at, ino, access)
    }

    /// [`link`](Self::link) once both paths are walked: `ino` gets the
    /// walked name as well.
    fn link_at(&mut self, at: &Parent<'_>, ino: Ino, access: &Access) -> Result<(), Errno> {
        self.check_write_dir(at.dir, access)?;
        if at.child.is_some() {
            return Err(Errno::EEXIST);
        }
        self.dir_entries_mut(at.dir)?
            .insert(at.name.to_string(), ino);
        self.inode_mut(ino)?.meta.nlink += 1;
        Ok(())
    }

    // ---- reading ------------------------------------------------------------

    /// Whole-file read.
    pub fn read_file(&self, path: &str, access: &Access) -> Result<Vec<u8>, Errno> {
        let ino = self.resolve(path, access, FollowMode::Follow)?;
        let node = self.inode(ino)?;
        if !permitted(
            access,
            node.meta.uid,
            node.meta.gid,
            node.meta.perm,
            Want::R,
        ) {
            return Err(Errno::EACCES);
        }
        match &node.kind {
            FileKind::File(blob) => Ok(blob.data().to_vec()),
            FileKind::Dir { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Whole-file read returning the shared blob — an O(1) handle, no
    /// byte copy (the read-side twin of
    /// [`write_file_blob`](Self::write_file_blob)).
    pub fn read_file_blob(&self, path: &str, access: &Access) -> Result<Arc<Blob>, Errno> {
        let ino = self.resolve(path, access, FollowMode::Follow)?;
        let node = self.inode(ino)?;
        if !permitted(
            access,
            node.meta.uid,
            node.meta.gid,
            node.meta.perm,
            Want::R,
        ) {
            return Err(Errno::EACCES);
        }
        match &node.kind {
            FileKind::File(blob) => Ok(Arc::clone(blob)),
            FileKind::Dir { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// `readlink(2)`.
    pub fn readlink(&self, path: &str, access: &Access) -> Result<String, Errno> {
        let ino = self.resolve(path, access, FollowMode::NoFollow)?;
        match &self.inode(ino)?.kind {
            FileKind::Symlink(t) => Ok(t.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    /// The shared payload blob of a regular-file inode — the by-inode
    /// twin of [`read_file_blob`](Self::read_file_blob), with no path
    /// resolution and no permission regime (serializer use: a tree walk
    /// already holds the inode numbers, re-resolving every path would
    /// make the walk O(paths·depth)).
    pub fn file_blob(&self, ino: Ino) -> Result<Arc<Blob>, Errno> {
        match &self.inode(ino)?.kind {
            FileKind::File(blob) => Ok(Arc::clone(blob)),
            FileKind::Dir { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// The target of a symlink inode (by-inode `readlink`).
    pub fn symlink_target(&self, ino: Ino) -> Result<String, Errno> {
        match &self.inode(ino)?.kind {
            FileKind::Symlink(t) => Ok(t.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Directory listing (requires read permission on the directory).
    ///
    /// Entries come back sorted — unless a `shuffle_readdir` seed is
    /// injected, in which case they arrive in a deterministic but
    /// non-sorted "on-disk" order, the way a real `getdents64` makes no
    /// ordering promise. Canonical consumers (tree digests, normalized
    /// exports) use [`read_dir_sorted`](Self::read_dir_sorted) and are
    /// immune.
    pub fn read_dir(&self, path: &str, access: &Access) -> Result<Vec<(String, Ino)>, Errno> {
        let mut entries = self.read_dir_sorted(path, access)?;
        if let Some(seed) = self.nondet.shuffle_readdir {
            shuffle_entries(&mut entries, seed);
        }
        Ok(entries)
    }

    /// Directory listing in canonical sorted order, bypassing any
    /// injected readdir shuffle.
    pub fn read_dir_sorted(
        &self,
        path: &str,
        access: &Access,
    ) -> Result<Vec<(String, Ino)>, Errno> {
        let ino = self.resolve(path, access, FollowMode::Follow)?;
        let node = self.inode(ino)?;
        if !permitted(
            access,
            node.meta.uid,
            node.meta.gid,
            node.meta.perm,
            Want::R,
        ) {
            return Err(Errno::EACCES);
        }
        Ok(self
            .dir_entries(ino)?
            .iter()
            .map(|(n, &i)| (n.clone(), i))
            .collect())
    }

    /// `stat`/`lstat`.
    pub fn stat(&self, path: &str, access: &Access, follow: FollowMode) -> Result<Stat, Errno> {
        let ino = self.resolve(path, access, follow)?;
        Ok(self.stat_ino(ino))
    }

    /// Stat by inode (no permission check — matches fstat semantics).
    pub fn stat_ino(&self, ino: Ino) -> Stat {
        stat_of(ino, self.inode(ino).expect("stat_ino on live inode"))
    }

    // ---- removal -------------------------------------------------------------

    /// Sticky-bit rule: in a sticky directory you may only remove entries
    /// you own (or the directory), absent CAP_FOWNER.
    fn may_delete(&self, dir: Ino, victim: Ino, access: &Access) -> Result<(), Errno> {
        self.check_write_dir(dir, access)?;
        let d = self.inode(dir)?;
        if d.meta.perm & zr_syscalls::mode::S_ISVTX != 0 {
            let v = self.inode(victim)?;
            if !access.owns(v.meta.uid) && !access.owns(d.meta.uid) {
                return Err(Errno::EPERM);
            }
        }
        Ok(())
    }

    /// `unlink(2)` (not for directories).
    pub fn unlink(&mut self, path: &str, access: &Access) -> Result<(), Errno> {
        let path = normal(path);
        let at = self.walk_parent(&path, access)?;
        self.unlink_at(&at, access)
    }

    /// [`unlink`](Self::unlink) once the path is walked.
    fn unlink_at(&mut self, at: &Parent<'_>, access: &Access) -> Result<(), Errno> {
        let victim = at.child.ok_or(Errno::ENOENT)?;
        if self.inode(victim)?.is_dir() {
            return Err(Errno::EISDIR);
        }
        self.may_delete(at.dir, victim, access)?;
        self.dir_entries_mut(at.dir)?.remove(at.name);
        self.drop_link(victim)
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str, access: &Access) -> Result<(), Errno> {
        let path = normal(path);
        let at = self.walk_parent(&path, access)?;
        self.rmdir_at(&at, access)
    }

    /// [`rmdir`](Self::rmdir) once the path is walked.
    fn rmdir_at(&mut self, at: &Parent<'_>, access: &Access) -> Result<(), Errno> {
        let victim = at.child.ok_or(Errno::ENOENT)?;
        if !self.inode(victim)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if !self.dir_entries(victim)?.is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        self.may_delete(at.dir, victim, access)?;
        self.dir_entries_mut(at.dir)?.remove(at.name);
        self.free(victim);
        Ok(())
    }

    /// One fewer name for the non-directory `ino`; the last one frees it.
    fn drop_link(&mut self, ino: Ino) -> Result<(), Errno> {
        let node = self.inode_mut(ino)?;
        node.meta.nlink -= 1;
        if node.meta.nlink == 0 {
            self.free(ino);
        }
        Ok(())
    }

    /// `rename(2)` within this filesystem. Every check runs before the
    /// first change, so a refused rename leaves the tree as it was.
    pub fn rename(&mut self, old: &str, new: &str, access: &Access) -> Result<(), Errno> {
        let (old, new) = (normal(old), normal(new));
        let from = self.walk_parent(&old, access)?;
        let moving = from.child.ok_or(Errno::ENOENT)?;
        self.may_delete(from.dir, moving, access)?;
        let to = self.walk_parent(&new, access)?;
        self.check_write_dir(to.dir, access)?;
        self.rename_at(&from, moving, &to)
    }

    /// [`rename`](Self::rename) once both paths are walked and the
    /// caller may unlink `moving` from `from` and write `to`'s
    /// directory: the checks on what moves where, then the move.
    fn rename_at(&mut self, from: &Parent<'_>, moving: Ino, to: &Parent<'_>) -> Result<(), Errno> {
        if to.child == Some(moving) {
            return Ok(());
        }
        let moving_dir = self.inode(moving)?.is_dir();

        // Moving a directory under its own descendant would orphan it.
        if moving_dir {
            let mut cur = to.dir;
            loop {
                if cur == moving {
                    return Err(Errno::EINVAL);
                }
                if cur == self.root() {
                    break;
                }
                cur = match &self.inode(cur)?.kind {
                    FileKind::Dir { parent, .. } => *parent,
                    _ => return Err(Errno::ENOTDIR),
                };
            }
        }

        // Replace-target semantics: a directory replaces only an empty
        // directory, a non-directory only a non-directory.
        if let Some(target) = to.child {
            let target_dir = self.inode(target)?.is_dir();
            if moving_dir && !target_dir {
                return Err(Errno::ENOTDIR);
            }
            if !moving_dir && target_dir {
                return Err(Errno::EISDIR);
            }
            if target_dir && !self.dir_entries(target)?.is_empty() {
                return Err(Errno::ENOTEMPTY);
            }
            if target_dir {
                self.free(target);
            } else {
                self.drop_link(target)?;
            }
            self.dir_entries_mut(to.dir)?.remove(to.name);
        }

        self.dir_entries_mut(from.dir)?.remove(from.name);
        self.dir_entries_mut(to.dir)?
            .insert(to.name.to_string(), moving);
        if let FileKind::Dir { parent, .. } = &mut self.inode_mut(moving)?.kind {
            *parent = to.dir;
        }
        Ok(())
    }

    // ---- metadata mutation (mechanical; policy lives in zr-kernel) -----------

    /// Set owner/group. Clears setuid/setgid like a real chown by an
    /// unprivileged caller would (we always clear; the kernel model keeps
    /// it simple and conservative).
    pub fn set_owner(&mut self, ino: Ino, uid: u32, gid: u32) -> Result<(), Errno> {
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.meta.uid = uid;
        node.meta.gid = gid;
        if !node.is_dir() {
            node.meta.perm &= !(zr_syscalls::mode::S_ISUID | zr_syscalls::mode::S_ISGID);
        }
        node.meta.mtime = now;
        Ok(())
    }

    /// Set permission bits.
    pub fn set_perm(&mut self, ino: Ino, perm: u32) -> Result<(), Errno> {
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        node.meta.perm = perm & 0o7777;
        node.meta.mtime = now;
        Ok(())
    }

    /// Set modification time explicitly (utimensat).
    pub fn set_mtime(&mut self, ino: Ino, mtime: u64) -> Result<(), Errno> {
        self.inode_mut(ino)?.meta.mtime = mtime;
        Ok(())
    }

    /// Truncate a regular file (fresh blob; snapshots keep the old one).
    pub fn truncate(&mut self, ino: Ino, size: u64) -> Result<(), Errno> {
        let now = self.tick();
        let node = self.inode_mut(ino)?;
        match &mut node.kind {
            FileKind::File(blob) => {
                let mut data = blob.data().to_vec();
                data.resize(size as usize, 0);
                *blob = Blob::new(data);
                node.meta.mtime = now;
                Ok(())
            }
            FileKind::Dir { .. } => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    // ---- xattrs ---------------------------------------------------------------

    /// Set an extended attribute.
    pub fn set_xattr(&mut self, ino: Ino, name: &str, value: &[u8]) -> Result<(), Errno> {
        self.inode_mut(ino)?
            .meta
            .xattrs
            .insert(name.to_string(), value.to_vec());
        Ok(())
    }

    /// Get an extended attribute.
    pub fn get_xattr(&self, ino: Ino, name: &str) -> Result<Vec<u8>, Errno> {
        self.inode(ino)?
            .meta
            .xattrs
            .get(name)
            .cloned()
            .ok_or(Errno::ENODATA)
    }

    /// List extended attribute names.
    pub fn list_xattr(&self, ino: Ino) -> Result<Vec<String>, Errno> {
        Ok(self.inode(ino)?.meta.xattrs.keys().cloned().collect())
    }

    /// Remove an extended attribute.
    pub fn remove_xattr(&mut self, ino: Ino, name: &str) -> Result<(), Errno> {
        self.inode_mut(ino)?
            .meta
            .xattrs
            .remove(name)
            .map(|_| ())
            .ok_or(Errno::ENODATA)
    }

    // ---- bulk helpers (image materialization) ----------------------------------

    /// Depth-first pre-order walk of every path reachable from `/`,
    /// symlinks not followed, as `access`. Directory entries are read
    /// in canonical sorted order (immune to an injected readdir
    /// shuffle), so the visit order is deterministic — consumers build
    /// reproducible digests and size accounting on top of this one
    /// walk instead of each hand-rolling their own.
    pub fn walk_paths(&self, access: &Access) -> Vec<(String, Stat)> {
        self.walk_paths_with(access, None)
    }

    /// [`walk_paths`](Self::walk_paths), but honoring the *observed*
    /// `read_dir` order — what a naive exporter that packs entries in
    /// on-disk order would traverse. Identical to `walk_paths` unless a
    /// readdir shuffle is injected.
    pub fn walk_paths_readdir(&self, access: &Access) -> Vec<(String, Stat)> {
        self.walk_paths_with(access, self.nondet.shuffle_readdir)
    }

    fn walk_paths_with(&self, access: &Access, shuffle: Option<u64>) -> Vec<(String, Stat)> {
        let mut out = Vec::new();
        self.walk(access, shuffle, |path, ino, node| {
            out.push((path.to_string(), stat_of(ino, node)));
        });
        out
    }

    /// [`walk_paths`](Self::walk_paths) without collecting: calls
    /// `visit(path, ino, inode)` for each path in the same order, with
    /// the path borrowed for the call only. For serializers that read
    /// the inode anyway and would otherwise look it up again per path.
    pub fn for_each_path(&self, access: &Access, visit: impl FnMut(&str, Ino, &Inode)) {
        self.walk(access, None, visit);
    }

    /// The one tree walk under [`walk_paths`](Self::walk_paths),
    /// [`for_each_path`](Self::for_each_path) and
    /// [`tree_digest`](Self::tree_digest): depth-first pre-order from
    /// `/`, symlinks not followed.
    ///
    /// It visits exactly what resolving each path from `/` as `access`
    /// would reach — a directory's entries appear only if `access` may
    /// both list it (r) and search it (x) — but walks the inodes
    /// directly: each directory's entry map is already sorted, and one
    /// path string grows and shrinks in place, so nothing is
    /// re-resolved from `/` or re-sorted. `shuffle` reorders each
    /// directory the way an injected readdir shuffle does.
    fn walk(
        &self,
        access: &Access,
        shuffle: Option<u64>,
        mut visit: impl FnMut(&str, Ino, &Inode),
    ) {
        let mut path = String::new();
        let mut children: Vec<(&str, Ino)> = Vec::new();
        // (length of the parent's path, entry name, inode); the root
        // has no parent path and an empty name.
        let mut stack: Vec<(usize, &str, Ino)> = vec![(0, "", self.root())];
        while let Some((parent_len, name, ino)) = stack.pop() {
            let Ok(node) = self.inode(ino) else {
                continue;
            };
            path.truncate(parent_len);
            if !path.ends_with('/') {
                path.push('/');
            }
            path.push_str(name);
            visit(&path, ino, node);
            let FileKind::Dir { entries, .. } = &node.kind else {
                continue;
            };
            let (uid, gid, perm) = (node.meta.uid, node.meta.gid, node.meta.perm);
            if !permitted(access, uid, gid, perm, Want::R)
                || !permitted(access, uid, gid, perm, Want::X)
            {
                continue;
            }
            children.clear();
            children.extend(entries.iter().map(|(n, &i)| (n.as_str(), i)));
            if let Some(seed) = shuffle {
                shuffle_entries(&mut children, seed);
            }
            // Reverse push keeps the pop order equal to the read order.
            stack.extend(children.iter().rev().map(|&(n, i)| (path.len(), n, i)));
        }
    }

    /// `mkdir -p` as filesystem-owner root: used when materializing image
    /// layers, outside any container's permission regime.
    pub fn mkdir_p(&mut self, path: &str, perm: u32) -> Result<Ino, Errno> {
        let root_access = Access::root();
        let norm = normal(path);
        let mut last = self.root();
        let mut rest: &str = &norm;
        while let Some((_, tail)) = next_component(rest) {
            // The path up to and including this component.
            let built = &norm[..norm.len() - tail.len()];
            last = match self.resolve(built, &root_access, FollowMode::Follow) {
                Ok(ino) => ino,
                Err(Errno::ENOENT) => self.mkdir(built, perm, &root_access)?,
                Err(e) => return Err(e),
            };
            rest = tail;
        }
        Ok(last)
    }
}

/// Where a parent walk ended: the directory that holds the last
/// component, that component (borrowed from the walked path) and its
/// entry there, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Parent<'p> {
    dir: Ino,
    name: &'p str,
    child: Option<Ino>,
}

/// The first component of an absolute normal path (or of the `""` a
/// walk ends on) and the rest of the path after it (`""` or `/…`);
/// `None` once nothing is left.
fn next_component(path: &str) -> Option<(&str, &str)> {
    let rest = path.strip_prefix('/').filter(|r| !r.is_empty())?;
    Some(rest.split_at(rest.find('/').unwrap_or(rest.len())))
}

/// An absolute normal path's directory part (`""` under the root) and
/// last component; `None` for the root itself.
fn split_last(path: &str) -> Option<(&str, &str)> {
    path.rsplit_once('/').filter(|(_, name)| !name.is_empty())
}

/// What `stat` reports for inode `ino`.
fn stat_of(ino: Ino, node: &Inode) -> Stat {
    Stat {
        ino,
        mode: node.st_mode(),
        uid: node.meta.uid,
        gid: node.meta.gid,
        size: node.kind.size(),
        nlink: node.meta.nlink,
        rdev: node.rdev(),
        mtime: node.meta.mtime,
    }
}

/// Deterministic "on-disk order": sort entries by a seeded hash of the
/// name. Different seeds give different permutations; the same seed
/// always gives the same one, so shuffled-readdir tests replay exactly.
fn shuffle_entries<S: AsRef<str>>(entries: &mut [(S, Ino)], seed: u64) {
    entries.sort_by_key(|(name, _)| {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for &b in name.as_ref().as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        }
        h
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{join, NAME_MAX};

    fn root() -> Access {
        Access::root()
    }

    #[test]
    fn fresh_fs_has_root_dir() {
        let fs = Fs::new();
        assert_eq!(fs.resolve("/", &root(), FollowMode::Follow), Ok(1));
        assert_eq!(fs.inode_count(), 1);
    }

    #[test]
    fn mkdir_and_resolve() {
        let mut fs = Fs::new();
        let etc = fs.mkdir("/etc", 0o755, &root()).unwrap();
        assert_eq!(fs.resolve("/etc", &root(), FollowMode::Follow), Ok(etc));
        assert_eq!(fs.resolve("/etc/", &root(), FollowMode::Follow), Ok(etc));
        assert_eq!(
            fs.resolve("/missing", &root(), FollowMode::Follow),
            Err(Errno::ENOENT)
        );
    }

    #[test]
    fn mkdir_requires_parent_write() {
        let mut fs = Fs::new();
        // Root dir is 0755 owned by uid 0: uid 1000 cannot create in it.
        let user = Access::user(1000, 1000);
        assert_eq!(fs.mkdir("/home", 0o755, &user), Err(Errno::EACCES));
        fs.mkdir("/home", 0o777, &root()).unwrap();
        assert!(fs.mkdir("/home/me", 0o755, &user).is_ok());
    }

    #[test]
    fn walk_paths_is_deterministic_and_complete() {
        let mut fs = Fs::new();
        fs.mkdir_p("/b/sub", 0o755).unwrap();
        fs.mkdir_p("/a", 0o755).unwrap();
        fs.write_file("/a/file", 0o644, b"x".to_vec(), &root())
            .unwrap();
        fs.symlink("/a/file", "/b/link", &root()).unwrap();
        // A deleted file leaves an inode-table hole; the walk, being
        // path-driven, neither lists it nor misses later entries.
        fs.write_file("/a/tmp", 0o644, b"y".to_vec(), &root())
            .unwrap();
        fs.unlink("/a/tmp", &root()).unwrap();
        let paths: Vec<String> = fs.walk_paths(&root()).into_iter().map(|(p, _)| p).collect();
        assert_eq!(
            paths,
            fs.walk_paths(&root())
                .into_iter()
                .map(|(p, _)| p)
                .collect::<Vec<_>>()
        );
        assert_eq!(paths, vec!["/", "/a", "/a/file", "/b", "/b/link", "/b/sub"]);
    }

    #[test]
    fn file_write_read_roundtrip() {
        let mut fs = Fs::new();
        fs.write_file("/hello", 0o644, b"world".to_vec(), &root())
            .unwrap();
        assert_eq!(fs.read_file("/hello", &root()), Ok(b"world".to_vec()));
        // Overwrite.
        fs.write_file("/hello", 0o644, b"again".to_vec(), &root())
            .unwrap();
        assert_eq!(fs.read_file("/hello", &root()), Ok(b"again".to_vec()));
        // Append.
        fs.append_file("/hello", b"+", &root()).unwrap();
        assert_eq!(fs.read_file("/hello", &root()), Ok(b"again+".to_vec()));
    }

    #[test]
    fn read_requires_permission() {
        let mut fs = Fs::new();
        fs.write_file("/secret", 0o600, b"k".to_vec(), &root())
            .unwrap();
        let user = Access::user(1000, 1000);
        assert_eq!(fs.read_file("/secret", &user), Err(Errno::EACCES));
    }

    #[test]
    fn search_permission_enforced_on_walk() {
        let mut fs = Fs::new();
        fs.mkdir("/locked", 0o700, &root()).unwrap();
        fs.write_file("/locked/file", 0o777, b"x".to_vec(), &root())
            .unwrap();
        let user = Access::user(1000, 1000);
        assert_eq!(fs.read_file("/locked/file", &user), Err(Errno::EACCES));
    }

    #[test]
    fn symlink_follow_and_nofollow() {
        let mut fs = Fs::new();
        fs.write_file("/target", 0o644, b"data".to_vec(), &root())
            .unwrap();
        fs.symlink("/target", "/link", &root()).unwrap();
        let followed = fs.stat("/link", &root(), FollowMode::Follow).unwrap();
        assert_eq!(
            followed.mode & zr_syscalls::mode::S_IFMT,
            zr_syscalls::mode::S_IFREG
        );
        let nofollow = fs.stat("/link", &root(), FollowMode::NoFollow).unwrap();
        assert_eq!(
            nofollow.mode & zr_syscalls::mode::S_IFMT,
            zr_syscalls::mode::S_IFLNK
        );
        assert_eq!(fs.readlink("/link", &root()), Ok("/target".to_string()));
        assert_eq!(fs.read_file("/link", &root()), Ok(b"data".to_vec()));
    }

    #[test]
    fn relative_symlinks_resolve_from_their_directory() {
        let mut fs = Fs::new();
        fs.mkdir_p("/usr/bin", 0o755).unwrap();
        fs.write_file("/usr/bin/real", 0o755, b"#!".to_vec(), &root())
            .unwrap();
        fs.symlink("real", "/usr/bin/alias", &root()).unwrap();
        assert_eq!(fs.read_file("/usr/bin/alias", &root()), Ok(b"#!".to_vec()));
    }

    #[test]
    fn symlink_loops_detected() {
        let mut fs = Fs::new();
        fs.symlink("/b", "/a", &root()).unwrap();
        fs.symlink("/a", "/b", &root()).unwrap();
        assert_eq!(
            fs.resolve("/a", &root(), FollowMode::Follow),
            Err(Errno::ELOOP)
        );
    }

    #[test]
    fn unlink_and_nlink_semantics() {
        let mut fs = Fs::new();
        fs.write_file("/f", 0o644, b"x".to_vec(), &root()).unwrap();
        fs.link("/f", "/g", &root()).unwrap();
        let st = fs.stat("/f", &root(), FollowMode::Follow).unwrap();
        assert_eq!(st.nlink, 2);
        fs.unlink("/f", &root()).unwrap();
        // Content still reachable through the second link.
        assert_eq!(fs.read_file("/g", &root()), Ok(b"x".to_vec()));
        fs.unlink("/g", &root()).unwrap();
        assert_eq!(fs.inode_count(), 1); // only root remains
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = Fs::new();
        fs.mkdir_p("/a/b", 0o755).unwrap();
        assert_eq!(fs.rmdir("/a", &root()), Err(Errno::ENOTEMPTY));
        fs.rmdir("/a/b", &root()).unwrap();
        fs.rmdir("/a", &root()).unwrap();
        assert_eq!(fs.inode_count(), 1);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = Fs::new();
        fs.mkdir_p("/a", 0o755).unwrap();
        fs.mkdir_p("/b", 0o755).unwrap();
        fs.write_file("/a/f", 0o644, b"1".to_vec(), &root())
            .unwrap();
        fs.write_file("/b/f", 0o644, b"2".to_vec(), &root())
            .unwrap();
        fs.rename("/a/f", "/b/f", &root()).unwrap();
        assert_eq!(fs.read_file("/b/f", &root()), Ok(b"1".to_vec()));
        assert_eq!(
            fs.resolve("/a/f", &root(), FollowMode::Follow),
            Err(Errno::ENOENT)
        );
    }

    #[test]
    fn rename_dir_updates_parent() {
        let mut fs = Fs::new();
        fs.mkdir_p("/a/sub", 0o755).unwrap();
        fs.mkdir_p("/b", 0o755).unwrap();
        fs.write_file("/a/sub/f", 0o644, b"x".to_vec(), &root())
            .unwrap();
        fs.rename("/a/sub", "/b/sub", &root()).unwrap();
        assert_eq!(fs.read_file("/b/sub/f", &root()), Ok(b"x".to_vec()));
        // ".." of the moved dir now points at /b.
        let ino = fs
            .resolve("/b/sub/..", &root(), FollowMode::Follow)
            .unwrap();
        assert_eq!(fs.path_of(ino).unwrap(), "/b");
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut fs = Fs::new();
        fs.mkdir_p("/a/b", 0o755).unwrap();
        assert_eq!(fs.rename("/a", "/a/b/c", &root()), Err(Errno::EINVAL));
        // Refused before anything changes: an existing target survives.
        fs.write_file("/a/b/x", 0o644, b"keep".to_vec(), &root())
            .unwrap();
        let before = fs.tree_digest();
        assert_eq!(fs.rename("/a", "/a/b/x", &root()), Err(Errno::EINVAL));
        assert_eq!(fs.read_file("/a/b/x", &root()), Ok(b"keep".to_vec()));
        assert_eq!(fs.tree_digest(), before);
    }

    #[test]
    fn rename_file_onto_directory_is_eisdir() {
        let mut fs = Fs::new();
        fs.mkdir("/empty", 0o755, &root()).unwrap();
        fs.write_file("/f", 0o644, b"1".to_vec(), &root()).unwrap();
        let before = fs.tree_digest();
        assert_eq!(fs.rename("/f", "/empty", &root()), Err(Errno::EISDIR));
        assert_eq!(fs.tree_digest(), before);
        assert!(fs
            .inode(fs.resolve("/empty", &root(), FollowMode::Follow).unwrap())
            .unwrap()
            .is_dir());
    }

    #[test]
    fn rename_directory_onto_file_is_enotdir() {
        let mut fs = Fs::new();
        fs.mkdir("/d", 0o755, &root()).unwrap();
        fs.write_file("/f", 0o644, b"1".to_vec(), &root()).unwrap();
        let before = fs.tree_digest();
        assert_eq!(fs.rename("/d", "/f", &root()), Err(Errno::ENOTDIR));
        assert_eq!(fs.tree_digest(), before);
        assert_eq!(fs.read_file("/f", &root()), Ok(b"1".to_vec()));
    }

    #[test]
    fn rename_directory_onto_empty_directory_replaces_it() {
        let mut fs = Fs::new();
        fs.mkdir_p("/d/inner", 0o755).unwrap();
        fs.mkdir("/empty", 0o755, &root()).unwrap();
        fs.mkdir_p("/full/x", 0o755).unwrap();
        assert_eq!(fs.rename("/d", "/full", &root()), Err(Errno::ENOTEMPTY));
        fs.rename("/d", "/empty", &root()).unwrap();
        assert!(fs
            .resolve("/empty/inner", &root(), FollowMode::Follow)
            .is_ok());
        assert_eq!(
            fs.resolve("/d", &root(), FollowMode::Follow),
            Err(Errno::ENOENT)
        );
    }

    #[test]
    fn sticky_bit_restricts_deletion() {
        let mut fs = Fs::new();
        fs.mkdir("/tmp", 0o1777, &root()).unwrap();
        let alice = Access::user(1000, 1000);
        let bob = Access::user(1001, 1001);
        fs.write_file("/tmp/alice.txt", 0o666, b"hi".to_vec(), &alice)
            .unwrap();
        assert_eq!(fs.unlink("/tmp/alice.txt", &bob), Err(Errno::EPERM));
        assert!(fs.unlink("/tmp/alice.txt", &alice).is_ok());
    }

    #[test]
    fn chown_clears_setuid() {
        let mut fs = Fs::new();
        let ino = fs
            .create_file("/sbin-su", 0o4755, b"elf".to_vec(), &root())
            .unwrap();
        fs.set_perm(ino, 0o4755).unwrap();
        fs.set_owner(ino, 500, 500).unwrap();
        let st = fs.stat_ino(ino);
        assert_eq!(st.mode & 0o7777, 0o755, "setuid must be cleared");
        assert_eq!((st.uid, st.gid), (500, 500));
    }

    #[test]
    fn mknod_devices_and_fifos() {
        let mut fs = Fs::new();
        let dev = zr_syscalls::mode::makedev(1, 3);
        fs.mknod("/dev-null", FileKind::CharDev(dev), 0o666, &root())
            .unwrap();
        let st = fs.stat("/dev-null", &root(), FollowMode::Follow).unwrap();
        assert_eq!(
            st.mode & zr_syscalls::mode::S_IFMT,
            zr_syscalls::mode::S_IFCHR
        );
        assert_eq!(st.rdev, dev);
        fs.mknod("/pipe", FileKind::Fifo, 0o644, &root()).unwrap();
        assert_eq!(
            fs.mknod("/pipe", FileKind::Fifo, 0o644, &root()),
            Err(Errno::EEXIST)
        );
    }

    #[test]
    fn xattr_roundtrip() {
        let mut fs = Fs::new();
        let ino = fs.create_file("/f", 0o644, vec![], &root()).unwrap();
        assert_eq!(fs.get_xattr(ino, "user.test"), Err(Errno::ENODATA));
        fs.set_xattr(ino, "security.capability", b"\x01").unwrap();
        fs.set_xattr(ino, "user.test", b"v").unwrap();
        assert_eq!(fs.get_xattr(ino, "user.test"), Ok(b"v".to_vec()));
        assert_eq!(
            fs.list_xattr(ino),
            Ok(vec![
                "security.capability".to_string(),
                "user.test".to_string()
            ])
        );
        fs.remove_xattr(ino, "user.test").unwrap();
        assert_eq!(fs.remove_xattr(ino, "user.test"), Err(Errno::ENODATA));
    }

    #[test]
    fn read_dir_lists_sorted() {
        let mut fs = Fs::new();
        fs.mkdir_p("/d", 0o755).unwrap();
        fs.write_file("/d/zeta", 0o644, vec![], &root()).unwrap();
        fs.write_file("/d/alpha", 0o644, vec![], &root()).unwrap();
        let names: Vec<String> = fs
            .read_dir("/d", &root())
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn injected_clock_skew_shifts_fresh_mtimes() {
        let mut a = Fs::new();
        let mut b = Fs::new();
        b.set_nondeterminism(Nondeterminism {
            clock_skew: 1000,
            ..Nondeterminism::default()
        });
        a.write_file("/f", 0o644, b"x".to_vec(), &root()).unwrap();
        b.write_file("/f", 0o644, b"x".to_vec(), &root()).unwrap();
        let ma = a.stat("/f", &root(), FollowMode::NoFollow).unwrap().mtime;
        let mb = b.stat("/f", &root(), FollowMode::NoFollow).unwrap().mtime;
        assert_eq!(mb, ma + 1000);
        // The skew is invisible to the (timestamp-free) tree digest.
        assert_eq!(a.tree_digest(), b.tree_digest());
    }

    #[test]
    fn injected_default_ids_own_new_files_only() {
        let mut fs = Fs::new();
        fs.write_file("/before", 0o644, vec![], &root()).unwrap();
        fs.set_nondeterminism(Nondeterminism {
            default_ids: Some((4242, 4343)),
            ..Nondeterminism::default()
        });
        fs.write_file("/after", 0o644, vec![], &root()).unwrap();
        let before = fs.stat("/before", &root(), FollowMode::NoFollow).unwrap();
        let after = fs.stat("/after", &root(), FollowMode::NoFollow).unwrap();
        assert_eq!((before.uid, before.gid), (0, 0));
        assert_eq!((after.uid, after.gid), (4242, 4343));
    }

    #[test]
    fn injected_shuffle_perturbs_read_dir_not_walk_paths() {
        let mut fs = Fs::new();
        fs.mkdir_p("/d", 0o755).unwrap();
        for name in ["alpha", "beta", "gamma", "delta", "epsilon"] {
            fs.write_file(&format!("/d/{name}"), 0o644, vec![], &root())
                .unwrap();
        }
        let sorted: Vec<String> = fs
            .read_dir("/d", &root())
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let canonical_walk = fs.walk_paths(&root());
        let digest = fs.tree_digest();

        fs.set_nondeterminism(Nondeterminism {
            shuffle_readdir: Some(7),
            ..Nondeterminism::default()
        });
        let shuffled: Vec<String> = fs
            .read_dir("/d", &root())
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_ne!(shuffled, sorted, "seed 7 must perturb five entries");
        let mut resorted = shuffled.clone();
        resorted.sort();
        assert_eq!(resorted, sorted, "same entries, different order");
        // Canonical surfaces are immune.
        assert_eq!(fs.walk_paths(&root()), canonical_walk);
        assert_eq!(fs.tree_digest(), digest);
        // The readdir-order walk is not.
        let raw: Vec<String> = fs
            .walk_paths_readdir(&root())
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let canonical: Vec<String> = canonical_walk.into_iter().map(|(p, _)| p).collect();
        assert_ne!(raw, canonical);
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let mut fs = Fs::new();
        let ino = fs
            .create_file("/f", 0o644, b"abcdef".to_vec(), &root())
            .unwrap();
        fs.truncate(ino, 3).unwrap();
        assert_eq!(fs.read_file("/f", &root()), Ok(b"abc".to_vec()));
        fs.truncate(ino, 5).unwrap();
        assert_eq!(fs.read_file("/f", &root()), Ok(b"abc\0\0".to_vec()));
    }

    #[test]
    fn dotdot_walks_up() {
        let mut fs = Fs::new();
        fs.mkdir_p("/a/b/c", 0o755).unwrap();
        let a = fs.resolve("/a", &root(), FollowMode::Follow).unwrap();
        assert_eq!(
            fs.resolve("/a/b/c/../..", &root(), FollowMode::Follow),
            Ok(a)
        );
        // .. above root stays at root.
        assert_eq!(fs.resolve("/../../a", &root(), FollowMode::Follow), Ok(a));
    }

    #[test]
    fn path_of_reconstructs() {
        let mut fs = Fs::new();
        let ino = fs.mkdir_p("/var/lib/rpm", 0o755).unwrap();
        assert_eq!(fs.path_of(ino), Ok("/var/lib/rpm".to_string()));
        assert_eq!(fs.path_of(fs.root()), Ok("/".to_string()));
    }

    #[test]
    fn ino_reuse_after_free() {
        let mut fs = Fs::new();
        let a = fs.create_file("/a", 0o644, vec![], &root()).unwrap();
        fs.unlink("/a", &root()).unwrap();
        let b = fs.create_file("/b", 0o644, vec![], &root()).unwrap();
        assert_eq!(a, b, "slot is recycled");
    }

    #[test]
    fn snapshots_are_isolated_both_ways() {
        let mut parent = Fs::new();
        parent
            .write_file("/shared", 0o644, b"base".to_vec(), &root())
            .unwrap();
        let mut child = parent.clone();
        child
            .write_file("/shared", 0o644, b"edited".to_vec(), &root())
            .unwrap();
        child
            .write_file("/child-only", 0o644, b"new".to_vec(), &root())
            .unwrap();
        assert_eq!(parent.read_file("/shared", &root()), Ok(b"base".to_vec()));
        assert_eq!(
            parent.resolve("/child-only", &root(), FollowMode::Follow),
            Err(Errno::ENOENT)
        );
        parent
            .write_file("/parent-only", 0o644, b"p".to_vec(), &root())
            .unwrap();
        assert_eq!(
            child.resolve("/parent-only", &root(), FollowMode::Follow),
            Err(Errno::ENOENT)
        );
        assert_eq!(child.read_file("/shared", &root()), Ok(b"edited".to_vec()));
    }

    #[test]
    fn clone_shares_pages_until_first_write() {
        let mut fs = Fs::new();
        // Enough files to span several pages.
        fs.mkdir_p("/d", 0o755).unwrap();
        for i in 0..(3 * PAGE_SLOTS) {
            fs.write_file(&format!("/d/f{i}"), 0o644, vec![b'x'; 8], &root())
                .unwrap();
        }
        let snap = fs.clone();
        assert!(fs.page_count() >= 3);
        assert_eq!(
            fs.shared_pages(),
            fs.page_count(),
            "a fresh snapshot shares every page"
        );
        // One write peels off only the touched pages: the file's page
        // and the directory's (for mtime-free content this is the
        // file's page plus possibly the dir entry's page).
        fs.write_file("/d/f0", 0o644, b"new".to_vec(), &root())
            .unwrap();
        let peeled = fs.page_count() - fs.shared_pages();
        assert!(
            (1..=2).contains(&peeled),
            "one write must touch at most the file and dir pages, peeled {peeled}"
        );
        drop(snap);
        assert_eq!(fs.shared_pages(), 0);
    }

    /// The entry-map `Arc` of a directory (white-box test plumbing).
    fn entries_ptr(fs: &Fs, path: &str) -> *const BTreeMap<String, Ino> {
        let ino = fs.resolve(path, &root(), FollowMode::Follow).unwrap();
        match &fs.inode(ino).unwrap().kind {
            FileKind::Dir { entries, .. } => Arc::as_ptr(entries),
            _ => panic!("{path} is not a directory"),
        }
    }

    #[test]
    fn untouched_directories_are_never_deep_copied() {
        // Two sibling directories share the first CoW page; mutating
        // the small one copies that page — but the big directory's
        // 512-entry map must ride along as a pointer clone, never a
        // deep copy (the PR-4 copy-amplification regression pin).
        let mut fs = Fs::new();
        fs.mkdir_p("/big", 0o755).unwrap();
        fs.mkdir_p("/small", 0o755).unwrap();
        for i in 0..512 {
            fs.write_file(&format!("/big/f{i}"), 0o644, vec![b'x'], &root())
                .unwrap();
        }
        let snap = fs.clone();
        fs.write_file("/small/new", 0o644, b"y".to_vec(), &root())
            .unwrap();
        assert_eq!(
            entries_ptr(&fs, "/big"),
            entries_ptr(&snap, "/big"),
            "a page-neighbor write must not deep-copy /big's entry map"
        );
        assert_ne!(
            entries_ptr(&fs, "/small"),
            entries_ptr(&snap, "/small"),
            "the mutated directory owns a private map"
        );
        // Isolation still holds once /big itself diverges.
        fs.write_file("/big/new", 0o644, b"z".to_vec(), &root())
            .unwrap();
        assert_ne!(entries_ptr(&fs, "/big"), entries_ptr(&snap, "/big"));
        assert!(snap
            .resolve("/big/new", &root(), FollowMode::Follow)
            .is_err());
    }

    #[test]
    fn blobs_are_shared_across_snapshots() {
        let mut fs = Fs::new();
        fs.write_file("/big", 0o644, vec![7u8; 4096], &root())
            .unwrap();
        let snap = fs.clone();
        let a = fs.read_file_blob("/big", &root()).unwrap();
        let b = snap.read_file_blob("/big", &root()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "snapshot shares the payload");
        // The digest memo computed through one handle is visible to all.
        assert!(!a.sha_is_cached());
        let _ = b.sha_hex();
        assert!(a.sha_is_cached());
    }

    #[test]
    fn tree_digest_is_memoized_and_tracks_content() {
        let mut fs = Fs::new();
        fs.write_file("/f", 0o644, b"one".to_vec(), &root())
            .unwrap();
        let d1 = fs.tree_digest();
        assert_eq!(d1, fs.tree_digest(), "memoized digest is stable");
        assert_eq!(d1, fs.tree_digest_uncached(), "memo matches full rehash");
        fs.write_file("/f", 0o644, b"two".to_vec(), &root())
            .unwrap();
        let d2 = fs.tree_digest();
        assert_ne!(d1, d2, "content change moves the digest");
        assert_eq!(d2, fs.tree_digest_uncached());
        // mtime-only changes do not move the digest (timestamps are
        // excluded by design).
        let ino = fs.resolve("/f", &root(), FollowMode::Follow).unwrap();
        fs.set_mtime(ino, 9999).unwrap();
        assert_eq!(fs.tree_digest(), d2);
    }

    /// The path walk as it was done before [`Fs::walk`]: every path
    /// re-resolved and re-stat'ed from `/`, every directory listed
    /// through `read_dir_sorted` (or `read_dir` when `readdir_order`).
    fn walk_by_resolving(fs: &Fs, access: &Access, readdir_order: bool) -> Vec<(String, Stat)> {
        let mut out = Vec::new();
        let mut stack = vec!["/".to_string()];
        while let Some(path) = stack.pop() {
            let Ok(st) = fs.stat(&path, access, FollowMode::NoFollow) else {
                continue;
            };
            if st.mode & zr_syscalls::mode::S_IFMT == zr_syscalls::mode::S_IFDIR {
                let listed = if readdir_order {
                    fs.read_dir(&path, access)
                } else {
                    fs.read_dir_sorted(&path, access)
                };
                if let Ok(entries) = listed {
                    for (name, _) in entries.iter().rev() {
                        stack.push(join(&path, name));
                    }
                }
            }
            out.push((path, st));
        }
        out
    }

    /// The tree digest as it was computed over that walk: symlink
    /// targets through `readlink`, payloads by path-resolved inode.
    fn tree_digest_by_resolving(fs: &Fs) -> String {
        use zr_syscalls::mode::{S_IFLNK, S_IFMT, S_IFREG};
        let mut d = FieldDigest::new("zr-tree-v1");
        for (path, st) in walk_by_resolving(fs, &root(), false) {
            d.field(path.as_bytes())
                .field(&st.mode.to_be_bytes())
                .field(&st.uid.to_be_bytes())
                .field(&st.gid.to_be_bytes());
            match st.mode & S_IFMT {
                S_IFLNK => {
                    if let Ok(target) = fs.readlink(&path, &root()) {
                        d.field(target.as_bytes());
                    }
                }
                S_IFREG => {
                    if let Ok(blob) = fs.file_blob(st.ino) {
                        d.field(blob.sha_bytes());
                    }
                }
                _ => {}
            }
        }
        d.finish()
    }

    /// A seeded random tree: nested directories (some not searchable),
    /// files, hard links, relative, absolute, dangling, looping and
    /// noisy symlinks, devices, fifos, renames, unlinks and ownership
    /// changes.
    fn random_tree(seed: u64) -> Fs {
        let mut rng = seed | 1;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut fs = Fs::new();
        let mut dirs = vec!["/".to_string()];
        let mut files: Vec<String> = Vec::new();
        let names = [
            "a", "b", "bin", "etc", "lib", "x.conf", "Z", "a-b", "a.b", "aa",
        ];
        for _ in 0..120 {
            let dir = dirs[next(dirs.len() as u64) as usize].clone();
            let name = names[next(names.len() as u64) as usize];
            let path = join(&dir, name);
            match next(9) {
                0 | 1 => {
                    if fs.mkdir(&path, 0o755, &root()).is_ok() {
                        dirs.push(path);
                    }
                }
                2 | 3 => {
                    let len = next(300) as usize;
                    let data = (0..len).map(|i| (i as u64 ^ seed) as u8).collect();
                    if fs.write_file(&path, 0o644, data, &root()).is_ok() {
                        files.push(path);
                    }
                }
                4 if !files.is_empty() => {
                    let target = &files[next(files.len() as u64) as usize];
                    let _ = fs.link(target, &path, &root());
                }
                5 => {
                    let other = names[next(names.len() as u64) as usize];
                    let target = match next(7) {
                        0 => "../etc".to_string(),
                        1 => format!("/{other}"),
                        2 => "dangling/nowhere".to_string(),
                        // Loops: the link names itself, relatively or
                        // absolutely.
                        3 => name.to_string(),
                        4 => path.clone(),
                        // Noisy targets: `.`, `//` and a trailing `/`.
                        5 => format!(".//{other}/./"),
                        _ => format!("{dir}/../{other}/"),
                    };
                    let _ = fs.symlink(&target, &path, &root());
                }
                6 => {
                    let kind = if next(2) == 0 {
                        FileKind::Fifo
                    } else {
                        FileKind::CharDev(next(1 << 16))
                    };
                    let _ = fs.mknod(&path, kind, 0o600, &root());
                }
                7 if !files.is_empty() => {
                    let victim = files[next(files.len() as u64) as usize].clone();
                    if next(2) == 0 {
                        let _ = fs.unlink(&victim, &root());
                    } else {
                        let _ = fs.rename(&victim, &path, &root());
                    }
                }
                _ => {
                    if let Ok(ino) = fs.resolve(&path, &root(), FollowMode::NoFollow) {
                        let _ = fs.set_owner(ino, next(3) as u32 * 1000, next(2) as u32);
                    }
                }
            }
        }
        // Permission changes last, so later creations were not blocked:
        // a directory without any x bit hides its entries from root's
        // walk, setuid/sticky bits ride along in the mode.
        for dir in dirs.iter().skip(1) {
            if let Ok(ino) = fs.resolve(dir, &root(), FollowMode::NoFollow) {
                let perm =
                    [0o755, 0o700, 0o1777, 0o644, 0o000, 0o4711, 0o751, 0o705][next(8) as usize];
                fs.set_perm(ino, perm).unwrap();
            }
        }
        fs
    }

    #[test]
    fn inode_walk_matches_resolving_walk() {
        let accesses = [root(), Access::user(1000, 1), Access::user(0, 0)];
        for seed in 0..64 {
            let mut fs = random_tree(seed * 0x9e37_79b9 + 1);
            let want = tree_digest_by_resolving(&fs);
            assert_eq!(fs.tree_digest_uncached(), want, "seed {seed}");
            assert_eq!(fs.tree_digest(), want, "seed {seed}");
            for access in &accesses {
                assert_eq!(
                    fs.walk_paths(access),
                    walk_by_resolving(&fs, access, false),
                    "seed {seed}, {access:?}"
                );
            }
            fs.set_nondeterminism(Nondeterminism {
                shuffle_readdir: Some(seed),
                ..Nondeterminism::default()
            });
            for access in &accesses {
                assert_eq!(
                    fs.walk_paths_readdir(access),
                    walk_by_resolving(&fs, access, true),
                    "seed {seed}, shuffled, {access:?}"
                );
            }
        }
        // The root itself losing its x bits hides everything below it.
        let mut fs = random_tree(3);
        fs.set_perm(fs.root(), 0o600).unwrap();
        assert_eq!(fs.tree_digest(), tree_digest_by_resolving(&fs));
        assert_eq!(fs.walk_paths(&root()).len(), 1);
    }

    #[test]
    fn content_bytes_counts_each_inode_once() {
        let mut fs = Fs::new();
        fs.write_file("/a", 0o644, vec![0u8; 100], &root()).unwrap();
        fs.link("/a", "/b", &root()).unwrap();
        assert_eq!(fs.content_bytes(), 100, "hard links do not double count");
        assert_eq!(fs.blobs().count(), 1);
    }

    #[test]
    fn write_file_blob_shares_the_handle() {
        let mut fs = Fs::new();
        let blob = Blob::new(b"ctx".to_vec());
        let _ = blob.sha_hex(); // warm the memo before insertion
        fs.write_file_blob("/etc-copy", 0o644, Arc::clone(&blob), &root())
            .unwrap();
        let stored = fs.read_file_blob("/etc-copy", &root()).unwrap();
        assert!(Arc::ptr_eq(&blob, &stored));
        assert!(stored.sha_is_cached(), "memo rode along");
    }

    // ---- the reference walk --------------------------------------------------

    /// The walk `resolve` ran before the borrowed one: normalize, collect
    /// the components into a `Vec`, walk them. Kept as the reference the
    /// borrowed walk must match.
    fn resolve_reference(
        fs: &Fs,
        path: &str,
        access: &Access,
        follow: FollowMode,
    ) -> Result<Ino, Errno> {
        resolve_reference_inner(fs, &normalize(path), access, follow, &mut 0)
    }

    fn resolve_reference_inner(
        fs: &Fs,
        path: &str,
        access: &Access,
        follow: FollowMode,
        depth: &mut u32,
    ) -> Result<Ino, Errno> {
        let comps: Vec<&str> = crate::path::components(path).collect();
        let mut cur = fs.root();
        let mut i = 0usize;
        while i < comps.len() {
            let comp = comps[i];
            let node = fs.inode(cur)?;
            let (entries, parent) = match &node.kind {
                FileKind::Dir { entries, parent } => (entries, *parent),
                _ => return Err(Errno::ENOTDIR),
            };
            if !permitted(
                access,
                node.meta.uid,
                node.meta.gid,
                node.meta.perm,
                Want::X,
            ) {
                return Err(Errno::EACCES);
            }
            if comp == ".." {
                cur = parent;
                i += 1;
                continue;
            }
            let &child = entries.get(comp).ok_or(Errno::ENOENT)?;
            let child_node = fs.inode(child)?;
            let last = i + 1 == comps.len();
            if let FileKind::Symlink(target) = &child_node.kind {
                if !last || follow == FollowMode::Follow {
                    *depth += 1;
                    if *depth > MAX_SYMLINKS {
                        return Err(Errno::ELOOP);
                    }
                    let mut rebuilt = if target.starts_with('/') {
                        target.clone()
                    } else {
                        let dir = fs.path_of(cur)?;
                        format!("{dir}/{target}")
                    };
                    for rest in &comps[i + 1..] {
                        rebuilt.push('/');
                        rebuilt.push_str(rest);
                    }
                    return resolve_reference_inner(
                        fs,
                        &normalize(&rebuilt),
                        access,
                        follow,
                        depth,
                    );
                }
            }
            cur = child;
            i += 1;
        }
        Ok(cur)
    }

    /// The parent walk before the borrowed one: normalize, split off the
    /// last component into a `String`, resolve the parent.
    fn walk_parent_reference(
        fs: &Fs,
        path: &str,
        access: &Access,
    ) -> Result<(Ino, String, Option<Ino>), Errno> {
        let norm = normalize(path);
        let (parent, name) = crate::path::split_parent(&norm).ok_or(Errno::EEXIST)?;
        if !valid_name(name) {
            return Err(Errno::EINVAL);
        }
        let dir = resolve_reference(fs, &parent, access, FollowMode::Follow)?;
        if !fs.inode(dir)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        let child = fs.dir_entries(dir)?.get(name).copied();
        Ok((dir, name.to_string(), child))
    }

    /// A mutating op on one or two probe paths.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Mkdir,
        Create,
        Write,
        Append,
        Symlink,
        Mknod,
        Link,
        Unlink,
        Rmdir,
        Rename,
    }

    const OPS: [Op; 10] = [
        Op::Mkdir,
        Op::Create,
        Op::Write,
        Op::Append,
        Op::Symlink,
        Op::Mknod,
        Op::Link,
        Op::Unlink,
        Op::Rmdir,
        Op::Rename,
    ];

    /// `op` through the public API (the borrowed walk).
    fn apply(fs: &mut Fs, op: Op, a: &str, b: &str, access: &Access) -> Result<(), Errno> {
        match op {
            Op::Mkdir => fs.mkdir(a, 0o750, access).map(drop),
            Op::Create => fs.create_file(a, 0o640, b"c".to_vec(), access).map(drop),
            Op::Write => fs.write_file(a, 0o640, b"w".to_vec(), access).map(drop),
            Op::Append => fs.append_file(a, b"+", access),
            Op::Symlink => fs.symlink(b, a, access).map(drop),
            Op::Mknod => fs.mknod(a, FileKind::Fifo, 0o600, access).map(drop),
            Op::Link => fs.link(b, a, access),
            Op::Unlink => fs.unlink(a, access),
            Op::Rmdir => fs.rmdir(a, access),
            Op::Rename => fs.rename(a, b, access),
        }
    }

    /// `op` through the reference walk and the same mechanics, in the
    /// order the ops ran before the borrowed walk.
    fn apply_reference(
        fs: &mut Fs,
        op: Op,
        a: &str,
        b: &str,
        access: &Access,
    ) -> Result<(), Errno> {
        // Create what `kind` makes of the walked parent directory.
        let create = |fs: &mut Fs, kind: &dyn Fn(Ino) -> FileKind, perm| {
            let (dir, name, child) = walk_parent_reference(fs, a, access)?;
            let at = Parent {
                dir,
                name: &name,
                child,
            };
            fs.create_at(&at, kind(dir), perm, access).map(drop)
        };
        let file = |bytes: &[u8]| FileKind::File(Blob::new(bytes.to_vec()));
        match op {
            Op::Mkdir => create(
                fs,
                &|parent| FileKind::Dir {
                    entries: Arc::new(BTreeMap::new()),
                    parent,
                },
                0o750,
            ),
            Op::Create => create(fs, &|_| file(b"c"), 0o640),
            Op::Write => match resolve_reference(fs, a, access, FollowMode::Follow) {
                Ok(ino) => fs
                    .overwrite(ino, Blob::new(b"w".to_vec()), access)
                    .map(drop),
                Err(Errno::ENOENT) => create(fs, &|_| file(b"w"), 0o640),
                Err(e) => Err(e),
            },
            Op::Append => {
                let ino = resolve_reference(fs, a, access, FollowMode::Follow)?;
                fs.append_ino(ino, b"+", access)
            }
            Op::Symlink => create(fs, &|_| FileKind::Symlink(b.to_string()), 0o777),
            Op::Mknod => create(fs, &|_| FileKind::Fifo, 0o600),
            Op::Link => {
                let ino = resolve_reference(fs, b, access, FollowMode::NoFollow)?;
                if fs.inode(ino)?.is_dir() {
                    return Err(Errno::EPERM);
                }
                let (dir, name, child) = walk_parent_reference(fs, a, access)?;
                let at = Parent {
                    dir,
                    name: &name,
                    child,
                };
                fs.link_at(&at, ino, access)
            }
            Op::Unlink | Op::Rmdir => {
                let (dir, name, child) = walk_parent_reference(fs, a, access)?;
                let at = Parent {
                    dir,
                    name: &name,
                    child,
                };
                if matches!(op, Op::Unlink) {
                    fs.unlink_at(&at, access)
                } else {
                    fs.rmdir_at(&at, access)
                }
            }
            Op::Rename => {
                let (odir, oname, moving) = walk_parent_reference(fs, a, access)?;
                let moving = moving.ok_or(Errno::ENOENT)?;
                fs.may_delete(odir, moving, access)?;
                let (ndir, nname, target) = walk_parent_reference(fs, b, access)?;
                fs.check_write_dir(ndir, access)?;
                let from = Parent {
                    dir: odir,
                    name: &oname,
                    child: Some(moving),
                };
                let to = Parent {
                    dir: ndir,
                    name: &nname,
                    child: target,
                };
                fs.rename_at(&from, moving, &to)
            }
        }
    }

    /// Probe paths for a tree: every reachable path as it is, and
    /// spelled with `.`, `..`, `//`, a trailing `/`, no leading `/`, a
    /// child below it (a file used as a directory), a missing name and
    /// a name too long to create.
    fn probes(fs: &Fs) -> Vec<String> {
        let long = "n".repeat(NAME_MAX + 1);
        let mut out = vec![
            String::new(),
            "/".into(),
            "//".into(),
            "/..".into(),
            format!("/nowhere/{long}"),
        ];
        for (path, _) in fs.walk_paths(&root()) {
            let bare = path.trim_start_matches('/');
            out.extend([
                format!("{path}/"),
                format!("{path}/."),
                format!("{path}/.."),
                format!("{path}/x"),
                format!("{path}/{long}"),
                format!("{path}/missing/.."),
                format!("/{bare}/../{bare}"),
                format!("//{bare}"),
                format!("/./{bare}"),
                bare.to_string(),
            ]);
            out.push(path);
        }
        out
    }

    #[test]
    fn borrowed_walk_matches_reference_resolve() {
        let accesses = [root(), Access::user(1000, 1), Access::user(0, 0)];
        for seed in 0..48 {
            let fs = random_tree(seed * 0x9e37_79b9 + 1);
            for path in probes(&fs) {
                for access in &accesses {
                    for follow in [FollowMode::Follow, FollowMode::NoFollow] {
                        assert_eq!(
                            fs.resolve(&path, access, follow),
                            resolve_reference(&fs, &path, access, follow),
                            "seed {seed}, {path:?}, {follow:?}, {access:?}"
                        );
                    }
                    let borrowed = normal(&path);
                    let walked = fs
                        .walk_parent(&borrowed, access)
                        .map(|at| (at.dir, at.name.to_string(), at.child));
                    assert_eq!(
                        walked,
                        walk_parent_reference(&fs, &path, access),
                        "seed {seed}, {path:?}, {access:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mutating_ops_match_the_reference_walk() {
        let accesses = [root(), Access::user(1000, 1)];
        for seed in 0..12 {
            let fs = random_tree(seed * 0x51_7cc1 + 7);
            let probes = probes(&fs);
            let mut rng = seed | 1;
            let mut pick = || {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                &probes[(rng >> 33) as usize % probes.len()]
            };
            for _ in 0..60 {
                let (a, b) = (pick().clone(), pick().clone());
                for access in &accesses {
                    for op in OPS {
                        let (mut new, mut old) = (fs.clone(), fs.clone());
                        let got = apply(&mut new, op, &a, &b, access);
                        let want = apply_reference(&mut old, op, &a, &b, access);
                        let what = format!("seed {seed}, {op:?} {a:?} {b:?}, {access:?}");
                        assert_eq!(got, want, "{what}");
                        assert_eq!(new.tree_digest(), old.tree_digest(), "{what}");
                        assert_eq!(new.walk_paths(&root()), old.walk_paths(&root()), "{what}");
                    }
                }
            }
        }
    }
}
