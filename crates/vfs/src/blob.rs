//! Shared, immutable file contents with a memoized content digest.
//!
//! Every regular file's payload lives in a [`Blob`] behind an `Arc`.
//! Cloning a filesystem — the per-instruction build snapshot — clones
//! pointers, never bytes; a write replaces the file's blob with a new
//! one and leaves every other snapshot untouched (whole-file
//! copy-on-write, the overlayfs copy-up model at file granularity).
//!
//! The blob also memoizes its own SHA-256: computed lazily on first
//! use, then shared by every snapshot holding the same `Arc`. This is
//! what makes warm image digests O(changed bytes) — unchanged files
//! contribute a precomputed 32-byte digest instead of being re-hashed.

use std::sync::{Arc, OnceLock};

use zr_digest::{hex, Sha256};

/// Immutable file contents plus a lazily computed SHA-256.
///
/// Blobs are always handled as `Arc<Blob>`; the type has no public
/// constructor returning a bare value. Equality is over the data bytes
/// (the digest memo is derived state).
#[derive(Default)]
pub struct Blob {
    data: Vec<u8>,
    sha: OnceLock<[u8; 32]>,
}

impl Blob {
    /// Wrap `data` in a shared blob.
    pub fn new(data: Vec<u8>) -> Arc<Blob> {
        Arc::new(Blob {
            data,
            sha: OnceLock::new(),
        })
    }

    /// An empty blob, as a fresh `Arc`. Empty files are common, not
    /// rare — `touch` targets, lock files, placeholders: 300 of the 318
    /// file entries in each perfbench dev-loop project are empty. A
    /// fresh one costs an allocation of no bytes and, once, a hash of
    /// nothing. Where a per-file cost would show — reloading a
    /// persisted tree — the store already hands every file with the
    /// same payload one shared blob (`zr_store::decode_tree`).
    pub fn empty() -> Arc<Blob> {
        Blob::new(Vec::new())
    }

    /// Rehydrate a blob from storage with its digest already known —
    /// the deserialization constructor the persistent store uses, so a
    /// reloaded filesystem starts with every payload memo warm and the
    /// first `tree_digest` after a cold open hashes no file bytes.
    ///
    /// The claimed digest is verified against the data: a corrupt or
    /// mislabeled payload comes back as `None` instead of poisoning
    /// every digest computed over it.
    pub fn with_sha(data: Vec<u8>, sha: [u8; 32]) -> Option<Arc<Blob>> {
        if Sha256::digest(&data) != sha {
            return None;
        }
        let cell = OnceLock::new();
        cell.set(sha).expect("fresh cell");
        Some(Arc::new(Blob { data, sha: cell }))
    }

    /// The contents.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the blob empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The SHA-256 of the contents, computed on first call and memoized
    /// for the lifetime of the allocation — every snapshot sharing this
    /// blob reuses the same digest.
    pub fn sha_bytes(&self) -> &[u8; 32] {
        self.sha.get_or_init(|| Sha256::digest(&self.data))
    }

    /// The memoized digest as 64 hex characters.
    pub fn sha_hex(&self) -> String {
        hex(self.sha_bytes())
    }

    /// Has the digest been computed yet? (Observability for tests and
    /// the dedup accounting: a "dirty" blob is one no digest consumer
    /// has seen.)
    pub fn sha_is_cached(&self) -> bool {
        self.sha.get().is_some()
    }
}

impl std::fmt::Debug for Blob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blob")
            .field("len", &self.data.len())
            .field("sha_cached", &self.sha_is_cached())
            .finish()
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Blob) -> bool {
        // Pointer-equal blobs (the common case after a snapshot) are
        // equal without touching the bytes.
        std::ptr::eq(self, other) || self.data == other.data
    }
}

impl Eq for Blob {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_memoized_and_correct() {
        let blob = Blob::new(b"abc".to_vec());
        assert!(!blob.sha_is_cached());
        assert_eq!(
            blob.sha_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert!(blob.sha_is_cached());
        // A clone of the Arc shares the memo.
        let alias = Arc::clone(&blob);
        assert!(alias.sha_is_cached());
        assert_eq!(alias.sha_bytes(), blob.sha_bytes());
    }

    #[test]
    fn with_sha_preseeds_the_memo_and_verifies() {
        let sha = *Blob::new(b"abc".to_vec()).sha_bytes();
        let blob = Blob::with_sha(b"abc".to_vec(), sha).expect("digest matches");
        assert!(blob.sha_is_cached(), "memo arrives warm");
        assert_eq!(*blob.sha_bytes(), sha);
        assert!(
            Blob::with_sha(b"abd".to_vec(), sha).is_none(),
            "a mislabeled payload is rejected"
        );
    }

    #[test]
    fn equality_is_over_data() {
        let a = Blob::new(b"x".to_vec());
        let b = Blob::new(b"x".to_vec());
        let _ = a.sha_hex(); // memo state must not affect equality
        assert_eq!(*a, *b);
        assert_ne!(*a, *Blob::new(b"y".to_vec()));
        assert!(Blob::empty().is_empty());
        assert_eq!(Blob::new(b"ab".to_vec()).len(), 2);
    }
}
