//! Serializing a `zr_vfs::Fs` to a canonical *tree record* and back.
//!
//! A tree record is the metadata skeleton of a filesystem — every
//! reachable path in sorted pre-order with its type, permissions,
//! ownership, timestamps, xattrs, device numbers and hard-link
//! structure — with file payloads referenced *by digest*. Payload bytes
//! live in the [`Cas`](crate::Cas) as ordinary blobs, so two snapshots
//! that share most files share most of their on-disk bytes, and the
//! tree record itself (stored as a blob too) dedups across identical
//! trees.
//!
//! The encoding is canonical: one filesystem state encodes to exactly
//! one byte string, so record digests double as tree identities.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use zr_syscalls::mode::{S_IFDIR, S_IFMT};
use zr_vfs::fs::{FollowMode, Fs};
use zr_vfs::{Access, Blob, FileKind, Ino};

use crate::codec::{Dec, Enc};
use crate::error::{Result, StoreError};

/// Tree record format version.
pub const TREE_MAGIC: &str = "zr-tree-rec-v1";

const KIND_DIR: u8 = 0;
const KIND_FILE: u8 = 1;
const KIND_SYMLINK: u8 = 2;
const KIND_CHARDEV: u8 = 3;
const KIND_BLOCKDEV: u8 = 4;
const KIND_FIFO: u8 = 5;
const KIND_SOCKET: u8 = 6;
/// A later hard link to an earlier entry (files and special nodes;
/// directories cannot be hard-linked).
const KIND_HARDLINK: u8 = 7;

/// One entry of a tree record, as exact bytes.
///
/// The bytes are the entry's full encoding *including* its leading
/// path string — concatenating entries (with the record header)
/// reproduces the canonical record byte-for-byte, which is what lets
/// delta records diff and patch at entry granularity without
/// re-deriving anything. Clones share the bytes, so a child layer's
/// entries reuse its parent's for every path whose encoding did not
/// change (see [`encode_tree_entries`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeEntry {
    bytes: Arc<[u8]>,
    /// End of the path string in `bytes` (it starts after its 8-byte
    /// length prefix).
    path_end: usize,
    /// Where a regular-file entry's payload digest sits in `bytes`.
    digest: Option<Range<usize>>,
}

impl TreeEntry {
    /// The entry's absolute path.
    pub fn path(&self) -> &str {
        std::str::from_utf8(&self.bytes[8..self.path_end])
            .expect("entry paths are UTF-8 by construction")
    }

    /// The entry's exact record bytes (path included).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// For regular-file entries, the payload blob digest recorded in
    /// the bytes (hard links carry `None`; their payload digest lives
    /// on the first path).
    pub fn file_digest(&self) -> Option<&str> {
        let range = self.digest.clone()?;
        Some(std::str::from_utf8(&self.bytes[range]).expect("digests are UTF-8 by construction"))
    }

    /// Do both entries share one allocation (and so one encoding)?
    pub(crate) fn shares_bytes_with(&self, other: &TreeEntry) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }
}

/// Encode `fs` as tree-record entries, file payloads referenced by
/// their memoized digest. `on_blob` sees each distinct file inode's
/// payload once (hard links reference the first path) — for callers
/// that store the payloads alongside the record.
///
/// `previous` is the walk-ordered entry list of a similar tree — a
/// child layer's parent, or empty. Each entry whose encoding is
/// byte-identical to the one `previous` holds for the same path
/// shares that entry's bytes instead of a fresh copy, so a layer that
/// changes k paths allocates O(k) entry bytes, not O(paths).
pub fn encode_tree_entries(
    fs: &Fs,
    previous: &[TreeEntry],
    mut on_blob: impl FnMut(&Arc<Blob>),
) -> Vec<TreeEntry> {
    let mut entries: Vec<TreeEntry> = Vec::with_capacity(previous.len());
    // Entry index of the first path seen for each non-directory inode
    // with more than one link: later occurrences are hard links to it.
    // (The VFS keeps `nlink` equal to the number of names an inode
    // has, so a single-link inode can never show up twice.)
    let mut first_entry: HashMap<Ino, usize> = HashMap::new();
    // Cursor into `previous`, which is in the same walk order.
    let mut prev = 0usize;
    // One scratch encoder for every entry: an entry only gets its own
    // allocation when `previous` has no identical one to share.
    let mut enc = Enc::raw();
    fs.for_each_path(&Access::root(), |path, ino, node| {
        enc.clear();
        let mut digest_at = None;
        enc.str(path);
        let path_end = enc.as_bytes().len();
        let hardlink = !matches!(node.kind, FileKind::Dir { .. }) && node.meta.nlink > 1;
        let earlier = if hardlink {
            first_entry.get(&ino).copied()
        } else {
            None
        };
        if let Some(earlier) = earlier {
            enc.u8(KIND_HARDLINK);
            enc.str(entries[earlier].path());
            // Metadata lives on the first entry.
        } else {
            if hardlink {
                first_entry.insert(ino, entries.len());
            }
            match &node.kind {
                FileKind::Dir { .. } => {
                    enc.u8(KIND_DIR);
                }
                FileKind::File(blob) => {
                    on_blob(blob);
                    enc.u8(KIND_FILE);
                    let at = enc.as_bytes().len() + 8;
                    enc.hex(blob.sha_bytes());
                    digest_at = Some(at..enc.as_bytes().len());
                    enc.u64(blob.len() as u64);
                }
                FileKind::Symlink(target) => {
                    enc.u8(KIND_SYMLINK);
                    enc.str(target);
                }
                FileKind::CharDev(rdev) => {
                    enc.u8(KIND_CHARDEV);
                    enc.u64(*rdev);
                }
                FileKind::BlockDev(rdev) => {
                    enc.u8(KIND_BLOCKDEV);
                    enc.u64(*rdev);
                }
                FileKind::Fifo => {
                    enc.u8(KIND_FIFO);
                }
                FileKind::Socket => {
                    enc.u8(KIND_SOCKET);
                }
            }
            enc.u32(node.meta.perm & 0o7777);
            enc.u32(node.meta.uid);
            enc.u32(node.meta.gid);
            enc.u64(node.meta.mtime);
            enc.u64(node.meta.xattrs.len() as u64);
            for (name, value) in &node.meta.xattrs {
                enc.str(name);
                enc.bytes(value);
            }
        }
        let shared = shared_entry(previous, &mut prev, path, enc.as_bytes());
        entries.push(shared.unwrap_or_else(|| TreeEntry {
            bytes: Arc::from(enc.as_bytes()),
            path_end,
            digest: digest_at,
        }));
    });
    entries
}

/// The entry of `previous` at `path` if its bytes equal `bytes`,
/// advancing the walk-order cursor `at` past everything up to `path`.
fn shared_entry(
    previous: &[TreeEntry],
    at: &mut usize,
    path: &str,
    bytes: &[u8],
) -> Option<TreeEntry> {
    while let Some(old) = previous.get(*at) {
        // Bytes include the path, so equal bytes mean the same path —
        // the common case, checked before any path comparison.
        if *old.bytes == *bytes {
            *at += 1;
            return Some(old.clone());
        }
        match walk_order(old.path(), path) {
            // Gone from the new tree.
            std::cmp::Ordering::Less => *at += 1,
            // Same path, changed encoding.
            std::cmp::Ordering::Equal => {
                *at += 1;
                return None;
            }
            // New in this tree.
            std::cmp::Ordering::Greater => return None,
        }
    }
    None
}

/// Frame entry bytes as a complete canonical tree record —
/// byte-identical to what [`encode_tree`] produces from the live
/// filesystem.
pub fn assemble_tree_record<'a>(entries: impl ExactSizeIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut enc = Enc::new(TREE_MAGIC);
    enc.u64(entries.len() as u64);
    let mut out = enc.finish();
    for bytes in entries {
        out.extend_from_slice(bytes);
    }
    out
}

/// Hex digest of the canonical tree record for `entries`, streamed —
/// hashes exactly the bytes [`assemble_tree_record`] would produce
/// without materializing the record.
pub fn hash_tree_record(entries: &[TreeEntry]) -> String {
    let mut enc = Enc::new(TREE_MAGIC);
    enc.u64(entries.len() as u64);
    let mut sha = zr_digest::Sha256::new();
    sha.update(&enc.finish());
    for entry in entries {
        sha.update(entry.bytes());
    }
    zr_digest::hex(&sha.finalize())
}

/// Split a tree record back into its exact per-entry byte slices (the
/// inverse of [`assemble_tree_record`]). Validates structure only —
/// payload digests are not fetched.
pub fn split_tree_record(bytes: &[u8]) -> Result<Vec<TreeEntry>> {
    let mut dec = Dec::new(bytes, TREE_MAGIC)?;
    let count = dec.u64()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        entries.push(next_entry(&mut dec)?);
    }
    dec.done()?;
    Ok(entries)
}

/// Parse one standalone entry (exactly [`TreeEntry::bytes`], nothing
/// before or after) — how a delta blob carries its upserted entries.
pub(crate) fn parse_tree_entry(bytes: &[u8]) -> Result<TreeEntry> {
    let mut dec = Dec::raw(bytes, "tree entry");
    let entry = next_entry(&mut dec)?;
    dec.done()?;
    Ok(entry)
}

/// Parse the entry at `dec`'s position, keeping its exact bytes.
fn next_entry(dec: &mut Dec<'_>) -> Result<TreeEntry> {
    let start = dec.pos();
    let path = dec.str_ref()?;
    let path_end = dec.pos() - start;
    let kind = dec.u8()?;
    let mut digest = None;
    let has_metadata = match kind {
        KIND_HARDLINK => {
            dec.str_ref()?;
            false
        }
        KIND_DIR | KIND_FIFO | KIND_SOCKET => true,
        KIND_FILE => {
            let at = dec.pos() + 8 - start;
            let len = dec.str_ref()?.len();
            digest = Some(at..at + len);
            dec.u64()?;
            true
        }
        KIND_SYMLINK => {
            dec.str_ref()?;
            true
        }
        KIND_CHARDEV | KIND_BLOCKDEV => {
            dec.u64()?;
            true
        }
        other => {
            return Err(StoreError::corrupt(format!(
                "{path}: unknown entry kind {other}"
            )));
        }
    };
    if has_metadata {
        dec.u32()?;
        dec.u32()?;
        dec.u32()?;
        dec.u64()?;
        let xattr_count = dec.u64()?;
        for _ in 0..xattr_count {
            dec.str_ref()?;
            dec.bytes()?;
        }
    }
    Ok(TreeEntry {
        bytes: Arc::from(dec.since(start)),
        path_end,
        digest,
    })
}

/// Order paths the way `Fs::walk_paths` emits them: depth-first
/// pre-order with sorted children. That is component-wise comparison,
/// *not* whole-string order — `/d/y` walks before `/d.x` even though
/// `'.' < '/'` byte-wise, because the walk descends into `/d` first.
/// For the walk's canonical absolute paths (no empty components),
/// component-wise order is byte order with `/` ranked below every
/// other byte, so one pass over the bytes decides it. Delta
/// reconstruction merges changed entries into the base entries in this
/// order, so the reassembled record is byte-identical to a fresh
/// encoding.
pub(crate) fn walk_order(a: &str, b: &str) -> std::cmp::Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => match (a[i], b[i]) {
            (b'/', _) => std::cmp::Ordering::Less,
            (_, b'/') => std::cmp::Ordering::Greater,
            (x, y) => x.cmp(&y),
        },
        None => a.len().cmp(&b.len()),
    }
}

/// Encode `fs` as a complete tree record (see [`encode_tree_entries`]).
pub fn encode_tree(fs: &Fs, on_blob: impl FnMut(&Arc<Blob>)) -> Vec<u8> {
    let entries = encode_tree_entries(fs, &[], on_blob);
    assemble_tree_record(entries.iter().map(TreeEntry::bytes))
}

/// One deferred metadata fix-up (applied after the whole structure
/// exists, in create order).
struct Fixup {
    ino: u64,
    perm: u32,
    uid: u32,
    gid: u32,
    mtime: u64,
    xattrs: Vec<(String, Vec<u8>)>,
}

/// Materialize a tree record into a fresh filesystem. `fetch` resolves
/// a payload digest to its (verified) blob, and is called once per
/// *distinct* digest: every file with the same payload shares the one
/// immutable `Arc<Blob>` — an image's many empty files cost one read.
pub fn decode_tree(bytes: &[u8], mut fetch: impl FnMut(&str) -> Result<Arc<Blob>>) -> Result<Fs> {
    let root = Access::root();
    let mut dec = Dec::new(bytes, TREE_MAGIC)?;
    let count = dec.u64()?;
    let mut fs = Fs::new();
    let mut fixups: Vec<Fixup> = Vec::new();
    let mut fetched: HashMap<&str, Arc<Blob>> = HashMap::new();
    for _ in 0..count {
        let path = dec.str_ref()?;
        let kind = dec.u8()?;
        let materialize =
            |e: zr_syscalls::Errno| StoreError::corrupt(format!("materialize {path}: {e}"));
        let ino = match kind {
            KIND_HARDLINK => {
                let earlier = dec.str_ref()?;
                fs.link(earlier, path, &root).map_err(materialize)?;
                continue; // metadata lives on the first entry
            }
            KIND_DIR => {
                if path == "/" {
                    fs.root()
                } else {
                    fs.mkdir(path, 0o755, &root).map_err(materialize)?
                }
            }
            KIND_FILE => {
                let digest = dec.str_ref()?;
                let len = dec.u64()?;
                let blob = match fetched.get(digest) {
                    Some(blob) => Arc::clone(blob),
                    None => {
                        let blob = fetch(digest)?;
                        fetched.insert(digest, Arc::clone(&blob));
                        blob
                    }
                };
                if blob.len() as u64 != len {
                    return Err(StoreError::corrupt(format!(
                        "{path}: blob {digest} is {} bytes, record says {len}",
                        blob.len()
                    )));
                }
                fs.create_file_blob(path, 0o644, blob, &root)
                    .map_err(materialize)?
            }
            KIND_SYMLINK => {
                let target = dec.str_ref()?;
                fs.symlink(target, path, &root).map_err(materialize)?
            }
            KIND_CHARDEV => {
                let rdev = dec.u64()?;
                fs.mknod(path, FileKind::CharDev(rdev), 0o644, &root)
                    .map_err(materialize)?
            }
            KIND_BLOCKDEV => {
                let rdev = dec.u64()?;
                fs.mknod(path, FileKind::BlockDev(rdev), 0o644, &root)
                    .map_err(materialize)?
            }
            KIND_FIFO => fs
                .mknod(path, FileKind::Fifo, 0o644, &root)
                .map_err(materialize)?,
            KIND_SOCKET => fs
                .mknod(path, FileKind::Socket, 0o644, &root)
                .map_err(materialize)?,
            other => {
                return Err(StoreError::corrupt(format!(
                    "{path}: unknown entry kind {other}"
                )));
            }
        };
        let perm = dec.u32()?;
        let uid = dec.u32()?;
        let gid = dec.u32()?;
        let mtime = dec.u64()?;
        let xattr_count = dec.u64()?;
        let mut xattrs = Vec::new();
        for _ in 0..xattr_count {
            let name = dec.str()?;
            let value = dec.bytes()?.to_vec();
            xattrs.push((name, value));
        }
        fixups.push(Fixup {
            ino,
            perm,
            uid,
            gid,
            mtime,
            xattrs,
        });
    }
    dec.done()?;
    // Metadata lands after the structure exists. Order matters:
    // ownership first (a real chown clears setuid), then permissions,
    // then xattrs, and the timestamp last (chmod ticks mtime).
    for f in fixups {
        let fixup =
            |e: zr_syscalls::Errno| StoreError::corrupt(format!("fixup ino {}: {e}", f.ino));
        fs.set_owner(f.ino, f.uid, f.gid).map_err(fixup)?;
        fs.set_perm(f.ino, f.perm).map_err(fixup)?;
        for (name, value) in &f.xattrs {
            fs.set_xattr(f.ino, name, value).map_err(fixup)?;
        }
        fs.set_mtime(f.ino, f.mtime).map_err(fixup)?;
    }
    Ok(fs)
}

/// Remove `path` and everything under it, as root (importer utility:
/// whiteout application and replace-by-other-type need `rm -r`).
pub(crate) fn remove_recursive(
    fs: &mut Fs,
    path: &str,
) -> std::result::Result<(), zr_syscalls::Errno> {
    let root = Access::root();
    let st = fs.stat(path, &root, FollowMode::NoFollow)?;
    if st.mode & S_IFMT == S_IFDIR {
        for (name, _) in fs.read_dir(path, &root)? {
            remove_recursive(fs, &zr_vfs::join(path, &name))?;
        }
        fs.rmdir(path, &root)
    } else {
        fs.unlink(path, &root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fs() -> Fs {
        let root = Access::root();
        let mut fs = Fs::new();
        fs.mkdir_p("/etc/conf.d", 0o755).unwrap();
        fs.write_file("/etc/passwd", 0o644, b"root:x:0:0\n".to_vec(), &root)
            .unwrap();
        fs.write_file("/etc/conf.d/app", 0o600, b"secret".to_vec(), &root)
            .unwrap();
        fs.symlink("../passwd", "/etc/conf.d/alias", &root).unwrap();
        fs.link("/etc/passwd", "/etc/passwd.bak", &root).unwrap();
        fs.mknod("/dev-null", FileKind::CharDev(259), 0o666, &root)
            .unwrap();
        fs.mknod("/fifo", FileKind::Fifo, 0o644, &root).unwrap();
        fs.mknod("/sock", FileKind::Socket, 0o755, &root).unwrap();
        let ino = fs
            .resolve("/etc/conf.d/app", &root, FollowMode::Follow)
            .unwrap();
        fs.set_owner(ino, 1000, 1000).unwrap();
        fs.set_xattr(ino, "user.note", b"hello").unwrap();
        let suid = fs
            .create_file("/sbin-su", 0o755, b"elf".to_vec(), &root)
            .unwrap();
        fs.set_perm(suid, 0o4755).unwrap();
        fs
    }

    #[test]
    fn roundtrip_preserves_digest_and_metadata() {
        let fs = sample_fs();
        let mut blobs: HashMap<String, Arc<Blob>> = HashMap::new();
        let record = encode_tree(&fs, |blob| {
            blobs.insert(blob.sha_hex(), Arc::clone(blob));
        });
        let rebuilt = decode_tree(&record, |digest| {
            blobs
                .get(digest)
                .cloned()
                .ok_or_else(|| StoreError::corrupt("missing blob"))
        })
        .unwrap();
        assert_eq!(fs.tree_digest(), rebuilt.tree_digest());
        let root = Access::root();
        // Hard link structure survives (not part of the tree digest).
        let a = rebuilt
            .stat("/etc/passwd", &root, FollowMode::Follow)
            .unwrap();
        let b = rebuilt
            .stat("/etc/passwd.bak", &root, FollowMode::Follow)
            .unwrap();
        assert_eq!(a.ino, b.ino);
        assert_eq!(a.nlink, 2);
        // So do xattrs, device numbers and setuid bits.
        let ino = rebuilt
            .resolve("/etc/conf.d/app", &root, FollowMode::Follow)
            .unwrap();
        assert_eq!(rebuilt.get_xattr(ino, "user.note").unwrap(), b"hello");
        let dev = rebuilt
            .stat("/dev-null", &root, FollowMode::Follow)
            .unwrap();
        assert_eq!(dev.rdev, 259);
        let su = rebuilt.stat("/sbin-su", &root, FollowMode::Follow).unwrap();
        assert_eq!(su.mode & 0o7777, 0o4755);
        // Timestamps round-trip exactly (they are excluded from the
        // digest, so pin them separately).
        let orig = fs.stat("/etc/passwd", &root, FollowMode::Follow).unwrap();
        assert_eq!(a.mtime, orig.mtime);
    }

    #[test]
    fn encoding_is_canonical() {
        let fs = sample_fs();
        let enc = |fs: &Fs| encode_tree(fs, |_| {});
        assert_eq!(enc(&fs), enc(&fs.clone()));
    }

    #[test]
    fn split_and_assemble_invert_each_other() {
        let fs = sample_fs();
        let entries = encode_tree_entries(&fs, &[], |_| {});
        let record = assemble_tree_record(entries.iter().map(TreeEntry::bytes));
        assert_eq!(record, encode_tree(&fs, |_| {}));
        let split = split_tree_record(&record).unwrap();
        assert_eq!(split, entries);
        assert_eq!(
            assemble_tree_record(split.iter().map(TreeEntry::bytes)),
            record
        );
        // The hardlink entry carries no digest; its first path does.
        let bak = split
            .iter()
            .find(|e| e.path() == "/etc/passwd.bak")
            .unwrap();
        assert!(bak.file_digest().is_none());
        let first = split.iter().find(|e| e.path() == "/etc/passwd").unwrap();
        let blob = fs.read_file_blob("/etc/passwd", &Access::root()).unwrap();
        assert_eq!(first.file_digest(), Some(blob.sha_hex().as_str()));
    }

    /// The entry encoding as it was done over `walk_paths`, through
    /// the path-and-ino accessors.
    fn encode_by_walk_paths(fs: &Fs) -> Vec<(String, Vec<u8>, Option<String>)> {
        use zr_syscalls::mode::{S_IFBLK, S_IFCHR, S_IFIFO, S_IFLNK, S_IFREG, S_IFSOCK};
        let root = Access::root();
        let mut entries: Vec<(String, Vec<u8>, Option<String>)> = Vec::new();
        let mut first_entry: HashMap<u64, usize> = HashMap::new();
        for (path, st) in fs.walk_paths(&root) {
            let mut enc = Enc::raw();
            let mut file_digest = None;
            enc.str(&path);
            let kind_bits = st.mode & S_IFMT;
            if kind_bits != S_IFDIR {
                if let Some(&earlier) = first_entry.get(&st.ino) {
                    enc.u8(KIND_HARDLINK);
                    enc.str(&entries[earlier].0);
                    entries.push((path, enc.finish(), None));
                    continue;
                }
                first_entry.insert(st.ino, entries.len());
            }
            match kind_bits {
                S_IFDIR => {
                    enc.u8(KIND_DIR);
                }
                S_IFREG => {
                    let blob = fs.file_blob(st.ino).unwrap();
                    enc.u8(KIND_FILE);
                    enc.str(&blob.sha_hex());
                    enc.u64(blob.len() as u64);
                    file_digest = Some(blob.sha_hex());
                }
                S_IFLNK => {
                    enc.u8(KIND_SYMLINK);
                    enc.str(&fs.symlink_target(st.ino).unwrap());
                }
                S_IFCHR => {
                    enc.u8(KIND_CHARDEV);
                    enc.u64(st.rdev);
                }
                S_IFBLK => {
                    enc.u8(KIND_BLOCKDEV);
                    enc.u64(st.rdev);
                }
                S_IFIFO => {
                    enc.u8(KIND_FIFO);
                }
                S_IFSOCK => {
                    enc.u8(KIND_SOCKET);
                }
                other => panic!("unexpected type {other:o}"),
            }
            enc.u32(st.mode & 0o7777);
            enc.u32(st.uid);
            enc.u32(st.gid);
            enc.u64(st.mtime);
            let xattrs = fs.list_xattr(st.ino).unwrap();
            enc.u64(xattrs.len() as u64);
            for name in xattrs {
                enc.str(&name);
                enc.bytes(&fs.get_xattr(st.ino, &name).unwrap());
            }
            entries.push((path, enc.finish(), file_digest));
        }
        entries
    }

    /// Encoder output in the reference's shape.
    fn triples(entries: &[TreeEntry]) -> Vec<(String, Vec<u8>, Option<String>)> {
        entries
            .iter()
            .map(|e| {
                let digest = e.file_digest().map(str::to_string);
                (e.path().to_string(), e.bytes().to_vec(), digest)
            })
            .collect()
    }

    #[test]
    fn encoder_matches_walk_paths_encoding() {
        let root = Access::root();
        for seed in 0..32u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut fs = sample_fs();
            let names = ["/etc/a", "/etc/conf.d/b", "/c", "/etc/passwd", "/d/e", "/d"];
            for step in 0..40 {
                let path = names[next(names.len() as u64) as usize];
                let other = names[next(names.len() as u64) as usize];
                let _ = match next(8) {
                    0 => fs.mkdir(path, 0o755, &root).map(|_| ()),
                    1 => fs
                        .write_file(path, 0o644, format!("{seed}-{step}").into_bytes(), &root)
                        .map(|_| ()),
                    2 => fs.link(other, path, &root),
                    3 => fs.unlink(path, &root),
                    4 => fs.rename(other, path, &root),
                    5 => fs.symlink(other, path, &root).map(|_| ()),
                    6 => fs
                        .resolve(path, &root, FollowMode::NoFollow)
                        .and_then(|ino| fs.set_xattr(ino, &format!("user.k{}", next(3)), b"v")),
                    _ => fs
                        .resolve(path, &root, FollowMode::NoFollow)
                        .and_then(|ino| fs.set_perm(ino, [0o755, 0o600, 0o000][next(3) as usize])),
                };
            }
            let want = encode_by_walk_paths(&fs);
            let fresh = encode_tree_entries(&fs, &[], |_| {});
            assert_eq!(triples(&fresh), want, "seed {seed}");
            // Sharing a similar tree's entries never changes the output,
            // and every shared entry really is byte-identical.
            let base = encode_tree_entries(&sample_fs(), &[], |_| {});
            let shared = encode_tree_entries(&fs, &base, |_| {});
            assert_eq!(triples(&shared), want, "seed {seed}, sharing");
            assert_eq!(split_tree_record(&encode_tree(&fs, |_| {})).unwrap(), fresh);
        }
    }

    #[test]
    fn unchanged_entries_share_the_previous_bytes() {
        let root = Access::root();
        let fs = sample_fs();
        let parent = encode_tree_entries(&fs, &[], |_| {});
        let mut child_fs = fs.clone();
        child_fs
            .write_file("/etc/conf.d/app", 0o600, b"changed".to_vec(), &root)
            .unwrap();
        child_fs.mkdir("/new", 0o755, &root).unwrap();
        child_fs.unlink("/fifo", &root).unwrap();
        let child = encode_tree_entries(&child_fs, &parent, |_| {});
        let fresh = encode_tree_entries(&child_fs, &[], |_| {});
        assert_eq!(child, fresh);
        for entry in &child {
            let before = parent.iter().find(|p| p.path() == entry.path());
            let same = before.is_some_and(|p| p.bytes() == entry.bytes());
            assert_eq!(
                before.is_some_and(|p| p.shares_bytes_with(entry)),
                same,
                "{}",
                entry.path()
            );
        }
        // The edited file (and its parent directory's mtime) changed;
        // the new directory is new; most entries are shared.
        let shared = child
            .iter()
            .filter(|e| parent.iter().any(|p| p.shares_bytes_with(e)))
            .count();
        assert!(shared >= child.len() - 4, "{shared} of {}", child.len());
    }

    #[test]
    fn walk_order_matches_walk_paths() {
        let root = Access::root();
        let mut fs = sample_fs();
        // The classic trap: '.' < '/' byte-wise, so plain string sort
        // would put "/etc.x" before "/etc/..." — the walk does not.
        fs.write_file("/etc.x", 0o644, b"x".to_vec(), &root)
            .unwrap();
        let walked: Vec<String> = fs.walk_paths(&root).into_iter().map(|(p, _)| p).collect();
        let mut sorted = walked.clone();
        sorted.sort_by(|a, b| walk_order(a, b));
        assert_eq!(sorted, walked);
        assert_ne!(sorted, {
            let mut s = walked.clone();
            s.sort();
            s
        });
    }

    /// The definition `walk_order` implements: component-wise order.
    fn component_order(a: &str, b: &str) -> std::cmp::Ordering {
        a.split('/')
            .filter(|c| !c.is_empty())
            .cmp(b.split('/').filter(|c| !c.is_empty()))
    }

    proptest::proptest! {
        /// Over the paths of random trees — names drawn from bytes on
        /// both sides of '/' (space, '!', '-', '.', '0', 'Z', '~',
        /// multi-byte UTF-8) — the one-pass byte comparison agrees with
        /// the component-wise definition on every pair, and sorting by
        /// it reproduces the walk.
        #[test]
        fn prop_walk_order_is_component_order(
            ops in proptest::prop::collection::vec((0usize..8, 0usize..8, 0usize..4), 1..40),
        ) {
            const NAMES: [&str; 8] = ["a", "a.b", "a-b", "a b", "a!", "0", "Z~", "é"];
            let root = Access::root();
            let mut fs = Fs::new();
            let mut dirs = vec!["/".to_string()];
            for (dir, name, kind) in ops {
                let path = zr_vfs::join(&dirs[dir % dirs.len()], NAMES[name]);
                if kind == 0 {
                    let _ = fs.write_file(&path, 0o644, Vec::new(), &root);
                } else if fs.mkdir(&path, 0o755, &root).is_ok() {
                    dirs.push(path);
                }
            }
            let walked: Vec<String> = fs.walk_paths(&root).into_iter().map(|(p, _)| p).collect();
            for a in &walked {
                for b in &walked {
                    proptest::prop_assert_eq!(walk_order(a, b), component_order(a, b), "{} vs {}", a, b);
                }
            }
            let mut sorted = walked.clone();
            sorted.reverse();
            sorted.sort_by(|a, b| walk_order(a, b));
            proptest::prop_assert_eq!(sorted, walked);
        }
    }

    #[test]
    fn remove_recursive_clears_subtrees() {
        let mut fs = sample_fs();
        remove_recursive(&mut fs, "/etc").unwrap();
        let root = Access::root();
        assert!(fs.stat("/etc", &root, FollowMode::NoFollow).is_err());
        assert!(fs.stat("/dev-null", &root, FollowMode::NoFollow).is_ok());
    }
}
