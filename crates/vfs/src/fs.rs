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
use crate::path::{components, normalize, split_parent, valid_name};
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
    /// `MAX_SYMLINKS`).
    pub fn resolve(&self, path: &str, access: &Access, follow: FollowMode) -> Result<Ino, Errno> {
        let mut depth = 0u32;
        self.resolve_inner(path, access, follow, &mut depth)
    }

    fn resolve_inner(
        &self,
        path: &str,
        access: &Access,
        follow: FollowMode,
        depth: &mut u32,
    ) -> Result<Ino, Errno> {
        let comps: Vec<&str> = components(path).collect();
        let mut cur = self.root();
        let mut i = 0usize;
        while i < comps.len() {
            let comp = comps[i];
            let node = self.inode(cur)?;
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
            let child_node = self.inode(child)?;
            let last = i + 1 == comps.len();
            if let FileKind::Symlink(target) = &child_node.kind {
                if !last || follow == FollowMode::Follow {
                    *depth += 1;
                    if *depth > MAX_SYMLINKS {
                        return Err(Errno::ELOOP);
                    }
                    // Re-resolve: target replaces this component; the rest
                    // of the path is appended.
                    let mut rebuilt = if target.starts_with('/') {
                        target.clone()
                    } else {
                        // Relative to the symlink's directory (`cur`).
                        let dir = self.path_of(cur)?;
                        format!("{dir}/{target}")
                    };
                    for rest in &comps[i + 1..] {
                        rebuilt.push('/');
                        rebuilt.push_str(rest);
                    }
                    return self.resolve_inner(&normalize(&rebuilt), access, follow, depth);
                }
            }
            cur = child;
            i += 1;
        }
        Ok(cur)
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

    /// Resolve the parent directory of `path` (following intermediate
    /// symlinks) and return it with the validated final component.
    fn walk_parent(&self, path: &str, access: &Access) -> Result<(Ino, String), Errno> {
        let norm = normalize(path);
        let (parent, name) = split_parent(&norm).ok_or(Errno::EEXIST)?; // root: EEXIST for create-like ops
        if !valid_name(name) {
            return Err(Errno::EINVAL);
        }
        let dir = self.resolve(&parent, access, FollowMode::Follow)?;
        if !self.inode(dir)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok((dir, name.to_string()))
    }

    fn check_write_dir(&self, dir: Ino, access: &Access) -> Result<(), Errno> {
        let d = self.inode(dir)?;
        if !permitted(access, d.meta.uid, d.meta.gid, d.meta.perm, Want::W) {
            return Err(Errno::EACCES);
        }
        Ok(())
    }

    // ---- creation -----------------------------------------------------------

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, perm: u32, access: &Access) -> Result<Ino, Errno> {
        let (dir, name) = self.walk_parent(path, access)?;
        self.check_write_dir(dir, access)?;
        if self.dir_entries(dir)?.contains_key(&name) {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        let (uid, gid) = self.create_ids(access);
        let meta = Metadata::new(uid, gid, perm, now);
        let ino = self.alloc(
            FileKind::Dir {
                entries: Arc::new(BTreeMap::new()),
                parent: dir,
            },
            meta,
        );
        self.dir_entries_mut(dir)?.insert(name, ino);
        Ok(ino)
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
        let (dir, name) = self.walk_parent(path, access)?;
        self.check_write_dir(dir, access)?;
        if self.dir_entries(dir)?.contains_key(&name) {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        let (uid, gid) = self.create_ids(access);
        let meta = Metadata::new(uid, gid, perm, now);
        let ino = self.alloc(FileKind::File(blob), meta);
        self.dir_entries_mut(dir)?.insert(name, ino);
        Ok(ino)
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
    pub fn write_file_blob(
        &mut self,
        path: &str,
        perm: u32,
        blob: Arc<Blob>,
        access: &Access,
    ) -> Result<Ino, Errno> {
        match self.resolve(path, access, FollowMode::Follow) {
            Ok(ino) => {
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
            Err(Errno::ENOENT) => self.create_file_blob(path, perm, blob, access),
            Err(e) => Err(e),
        }
    }

    /// Append to an existing file. The file gets a fresh blob (old
    /// bytes + suffix); snapshots sharing the old blob are untouched.
    pub fn append_file(&mut self, path: &str, data: &[u8], access: &Access) -> Result<(), Errno> {
        let ino = self.resolve(path, access, FollowMode::Follow)?;
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
        let (dir, name) = self.walk_parent(path, access)?;
        self.check_write_dir(dir, access)?;
        if self.dir_entries(dir)?.contains_key(&name) {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        // Symlinks are created 0777 like Linux.
        let (uid, gid) = self.create_ids(access);
        let meta = Metadata::new(uid, gid, 0o777, now);
        let ino = self.alloc(FileKind::Symlink(target.to_string()), meta);
        self.dir_entries_mut(dir)?.insert(name, ino);
        Ok(ino)
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
        let (dir, name) = self.walk_parent(path, access)?;
        self.check_write_dir(dir, access)?;
        if self.dir_entries(dir)?.contains_key(&name) {
            return Err(Errno::EEXIST);
        }
        let now = self.tick();
        let (uid, gid) = self.create_ids(access);
        let meta = Metadata::new(uid, gid, perm, now);
        let ino = self.alloc(kind, meta);
        self.dir_entries_mut(dir)?.insert(name, ino);
        Ok(ino)
    }

    /// `link(2)`: new hard link to an existing non-directory.
    pub fn link(&mut self, existing: &str, newpath: &str, access: &Access) -> Result<(), Errno> {
        let ino = self.resolve(existing, access, FollowMode::NoFollow)?;
        if self.inode(ino)?.is_dir() {
            return Err(Errno::EPERM);
        }
        let (dir, name) = self.walk_parent(newpath, access)?;
        self.check_write_dir(dir, access)?;
        if self.dir_entries(dir)?.contains_key(&name) {
            return Err(Errno::EEXIST);
        }
        self.dir_entries_mut(dir)?.insert(name, ino);
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
        let (dir, name) = self.walk_parent(path, access)?;
        let &victim = self.dir_entries(dir)?.get(&name).ok_or(Errno::ENOENT)?;
        if self.inode(victim)?.is_dir() {
            return Err(Errno::EISDIR);
        }
        self.may_delete(dir, victim, access)?;
        self.dir_entries_mut(dir)?.remove(&name);
        let node = self.inode_mut(victim)?;
        node.meta.nlink -= 1;
        if node.meta.nlink == 0 {
            self.free(victim);
        }
        Ok(())
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str, access: &Access) -> Result<(), Errno> {
        let (dir, name) = self.walk_parent(path, access)?;
        let &victim = self.dir_entries(dir)?.get(&name).ok_or(Errno::ENOENT)?;
        if !self.inode(victim)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if !self.dir_entries(victim)?.is_empty() {
            return Err(Errno::ENOTEMPTY);
        }
        self.may_delete(dir, victim, access)?;
        self.dir_entries_mut(dir)?.remove(&name);
        self.free(victim);
        Ok(())
    }

    /// `rename(2)` within this filesystem.
    pub fn rename(&mut self, old: &str, new: &str, access: &Access) -> Result<(), Errno> {
        let (odir, oname) = self.walk_parent(old, access)?;
        let &moving = self.dir_entries(odir)?.get(&oname).ok_or(Errno::ENOENT)?;
        self.may_delete(odir, moving, access)?;
        let (ndir, nname) = self.walk_parent(new, access)?;
        self.check_write_dir(ndir, access)?;

        // Replace-target semantics: an existing non-dir target is
        // replaced; an existing dir target must be empty.
        if let Some(&target) = self.dir_entries(ndir)?.get(&nname) {
            if target == moving {
                return Ok(());
            }
            let t = self.inode(target)?;
            if t.is_dir() {
                if !self.dir_entries(target)?.is_empty() {
                    return Err(Errno::ENOTEMPTY);
                }
                self.free(target);
            } else {
                let tm = self.inode_mut(target)?;
                tm.meta.nlink -= 1;
                if tm.meta.nlink == 0 {
                    self.free(target);
                }
            }
            self.dir_entries_mut(ndir)?.remove(&nname);
        }

        // Moving a directory under its own descendant would orphan it.
        if self.inode(moving)?.is_dir() {
            let mut cur = ndir;
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

        self.dir_entries_mut(odir)?.remove(&oname);
        self.dir_entries_mut(ndir)?.insert(nname, moving);
        if let FileKind::Dir { parent, .. } = &mut self.inode_mut(moving)?.kind {
            *parent = ndir;
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
        let norm = normalize(path);
        if norm == "/" {
            return Ok(self.root());
        }
        let mut built = String::new();
        let mut last = self.root();
        for comp in components(&norm) {
            built.push('/');
            built.push_str(comp);
            last = match self.resolve(&built, &root_access, FollowMode::Follow) {
                Ok(ino) => ino,
                Err(Errno::ENOENT) => self.mkdir(&built, perm, &root_access)?,
                Err(e) => return Err(e),
            };
        }
        Ok(last)
    }
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
    use crate::path::join;

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
    /// files, hard links, dangling and live symlinks, devices, fifos,
    /// renames, unlinks and ownership changes.
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
                    let target = match next(3) {
                        0 => "../etc".to_string(),
                        1 => format!("/{}", names[next(names.len() as u64) as usize]),
                        _ => "dangling/nowhere".to_string(),
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
}
