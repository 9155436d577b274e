//! The durable tier behind `zr_image::LayerStore` — what `--cache-dir`
//! opens.
//!
//! Each cached layer becomes one record under `layers/<cache key>`:
//! the replayable builder state (resolved ARGs, stage metadata, ENV,
//! SHELL, cwd) plus a reference to its filesystem tree. The tree
//! reference comes in two forms:
//!
//! * **Full** — the digest of a complete canonical tree record (a CAS
//!   blob), as parentless layers and deep chains use.
//! * **Delta** — the digest of a *delta blob* encoding only the entries
//!   added/modified/removed relative to the parent layer's record,
//!   plus the digest the reconstructed full record must hash to.
//!   Persisting a warm one-instruction layer then costs O(changes),
//!   not O(image): a handful of staged objects and one short pin
//!   instead of a 10k-entry record and a 10k-digest pin.
//!
//! Delta chains are bounded ([`MAX_DELTA_DEPTH`]): past the bound the
//! layer re-persists in full, so replay is O(chain·changes) and a full
//! record exists every few layers for chunk-level dedup to land on.
//! Reconstruction is digest-checked — the patched, re-framed record
//! must hash to exactly what a fresh full encoding would, or the layer
//! reads as corrupt (and therefore as a self-healing miss). So is every
//! delta's shape: its removed paths and upserts must each be in strict
//! walk order, a removal must name a path the tree has, and the root
//! is never removed.
//!
//! **Load cost.** Loading a layer reads and verifies, through the
//! [`Cas`]: its record file, each object of its chain (the delta blobs
//! and the base full record, at most `MAX_DELTA_DEPTH + 1`), and each
//! *distinct* payload digest of its tree once — files that share a
//! payload (an image's many empty files) share one read and one blob.
//! Replay folds the chain into one net change per path and merges those
//! into the base record's entries, every step a linear merge of lists
//! already in walk order: O(entries + depth·changes) CPU on top of
//! those reads, no re-sort of the record. A load never builds the
//! store's pin/census index (see [`Cas::open`]).
//!
//! Tree records, delta blobs and file payloads are ordinary [`Cas`]
//! objects — layers that share snapshots share bytes on disk exactly as
//! they do in memory — and every layer pins its *new* objects under a
//! root named by its key, with delta layers declaring a root dependency
//! on their parent so budget eviction never strands a chain suffix.
//!
//! Persistence failures are absorbed (a full disk must not fail a
//! build) but counted and kept: [`DiskLayers::error_count`] /
//! [`DiskLayers::last_error`] surface them to the CLI.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zr_digest::{hex, Sha256};
use zr_image::{CacheKey, Layer, LayerPersistence, LayerState, LayerStore, StageSnapshot};

use crate::cas::{valid_digest, Cas};
use crate::codec::{Dec, Enc};
use crate::error::{Result, StoreError};
use crate::meta::{decode_meta, encode_meta};
use crate::tree::{
    assemble_tree_record, decode_tree, encode_tree_entries, hash_tree_record, parse_tree_entry,
    split_tree_record, walk_order, TreeEntry,
};

/// Original layer record: full tree digest only.
const LAYER_MAGIC_V1: &str = "zr-layer-rec-v1";
/// Current layer record: tagged full/delta tree reference.
const LAYER_MAGIC_V2: &str = "zr-layer-rec-v2";
/// Delta blob: entry-level diff against the parent's tree record.
const DELTA_MAGIC: &str = "zr-tree-delta-v1";

/// Longest allowed delta chain before a layer re-persists in full.
/// Replay cost is O(depth · changes); 8 keeps that negligible while a
/// 1-file change on a 10k-file image still persists O(1) records in
/// the common case.
pub const MAX_DELTA_DEPTH: u64 = 8;

/// Recently persisted/loaded tree records this handle keeps split into
/// entries, so a child layer can diff against its parent without
/// re-reading or re-encoding anything.
const TREE_CACHE_CAP: usize = 8;

/// Counters for one [`DiskLayers`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskLayerStats {
    /// Layers written by this handle.
    pub persisted: u64,
    /// Of those, layers written as parent-relative deltas (the rest
    /// were full records: parentless, chain too deep, or parent
    /// unavailable).
    pub delta_persisted: u64,
    /// Layers loaded by this handle.
    pub loaded: u64,
    /// Persist/load operations that failed (absorbed, not raised).
    pub errors: u64,
}

impl std::fmt::Display for DiskLayerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} layers persisted ({} as deltas), {} loaded, {} errors",
            self.persisted, self.delta_persisted, self.loaded, self.errors
        )
    }
}

/// How a layer record references its filesystem tree.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TreeRef {
    /// Digest of the complete canonical tree record blob.
    Full { digest: String },
    /// Digest of a delta blob, the chain depth (1 = parent is full),
    /// and the digest the reconstructed full record must hash to.
    Delta {
        delta_digest: String,
        depth: u64,
        full_digest: String,
    },
}

/// A tree held split into entries for delta diffing.
#[derive(Debug, Clone)]
struct CachedTree {
    entries: Arc<Vec<TreeEntry>>,
    /// Digest of this layer's stored tree *object* (full record blob
    /// or delta blob) — what a child delta names as its parent.
    object_digest: String,
    /// 0 for a full record, else the delta chain depth.
    depth: u64,
}

#[derive(Debug, Default)]
struct TreeCache {
    order: VecDeque<CacheKey>,
    map: HashMap<CacheKey, CachedTree>,
}

impl TreeCache {
    fn get(&self, key: &CacheKey) -> Option<CachedTree> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: CacheKey, tree: CachedTree) {
        if self.map.insert(key.clone(), tree).is_none() {
            self.order.push_back(key);
            if self.order.len() > TREE_CACHE_CAP {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    fn remove(&mut self, key: &CacheKey) {
        if self.map.remove(key).is_some() {
            self.order.retain(|k| k != key);
        }
    }
}

/// The on-disk layer tier. Implements [`LayerPersistence`], so attach
/// it to a [`LayerStore`] (or use [`open_layer_store`]) and every
/// insert is written through, every miss consults disk.
#[derive(Debug)]
pub struct DiskLayers {
    cas: Cas,
    persisted: AtomicU64,
    delta_persisted: AtomicU64,
    loaded: AtomicU64,
    errors: AtomicU64,
    last_error: Mutex<Option<String>>,
    /// Directory-fsync failures are surfaced through `note_error` once
    /// per handle (they repeat on every write on filesystems that
    /// refuse dir fsync — one line, not a flood).
    dir_fsync_noted: AtomicBool,
    trees: Mutex<TreeCache>,
}

impl DiskLayers {
    /// The layer tier of an open store.
    pub fn new(cas: Cas) -> DiskLayers {
        DiskLayers {
            cas,
            persisted: AtomicU64::new(0),
            delta_persisted: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            dir_fsync_noted: AtomicBool::new(false),
            trees: Mutex::new(TreeCache::default()),
        }
    }

    /// The underlying content-addressed store.
    pub fn cas(&self) -> &Cas {
        &self.cas
    }

    /// Counters.
    pub fn stats(&self) -> DiskLayerStats {
        DiskLayerStats {
            persisted: self.persisted.load(Ordering::Relaxed),
            delta_persisted: self.delta_persisted.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Operations that failed since open.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The most recent absorbed error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn note_error(&self, context: &str, e: &StoreError) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        *self
            .last_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(format!("{context}: {e}"));
    }

    /// Surface directory-fsync failures (counted in [`Cas`] stats) as
    /// one absorbed error per handle — visible in `store stats`, not a
    /// flood in the log.
    fn note_dir_fsync_failures(&self) {
        let failures = self.cas.stats().dir_fsync_failures;
        if failures > 0 && !self.dir_fsync_noted.swap(true, Ordering::Relaxed) {
            let e = StoreError::from(std::io::Error::other(
                "directory fsync failed; content is intact but names may \
                 not survive a power cut (counted in store stats)",
            ));
            self.note_error("dir-fsync", &e);
        }
    }

    fn lock_trees(&self) -> std::sync::MutexGuard<'_, TreeCache> {
        self.trees
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Durably remove one layer: its record and its pin (blobs become
    /// collectable unless another layer shares them).
    pub fn remove(&self, key: &CacheKey) -> Result<bool> {
        let path = self.cas.layers_dir().join(key.as_hex());
        let existed = match std::fs::remove_file(path) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e.into()),
        };
        self.cas.unpin(key.as_hex())?;
        self.lock_trees().remove(key);
        Ok(existed)
    }

    /// The parent tree to delta against, if the delta route is open:
    /// cached entries, or re-derivable from the in-memory parent layer.
    fn parent_tree(&self, parent_key: &CacheKey, parent: Option<&Layer>) -> Option<CachedTree> {
        if let Some(cached) = self.lock_trees().get(parent_key) {
            return Some(cached);
        }
        let parent = parent?;
        // The parent is in memory but its split record is not cached:
        // re-encode its entries (pure — blob digests are memoized, no
        // I/O) and locate its stored tree object via its record.
        let entries = encode_tree_entries(&parent.fs, &[], |_| {});
        let parts = self.read_record(parent_key).ok().flatten()?;
        let (object_digest, depth) = match parts.tree_ref {
            TreeRef::Full { digest } => (digest, 0),
            TreeRef::Delta {
                delta_digest,
                depth,
                ..
            } => (delta_digest, depth),
        };
        let cached = CachedTree {
            entries: Arc::new(entries),
            object_digest,
            depth,
        };
        self.lock_trees().insert(parent_key.clone(), cached.clone());
        Some(cached)
    }

    /// Persist `layer`, as a delta against `parent` when possible.
    /// Returns whether a delta was written.
    fn persist_inner(&self, layer: &Layer, parent: Option<&Layer>) -> Result<bool> {
        // Route first: the delta path only ever touches the *changed*
        // payload blobs, so it must not pay for collecting all of them.
        let parent_tree = layer.parent.as_ref().and_then(|parent_key| {
            let tree = self.parent_tree(parent_key, parent)?;
            // The chain bound, and the eviction guard: a delta against
            // an object gc already collected would be unreadable.
            if tree.depth + 1 > MAX_DELTA_DEPTH || !self.cas.contains(&tree.object_digest) {
                return None;
            }
            Some((parent_key.clone(), tree))
        });

        let (tree_ref, entries, cached, delta) = match parent_tree {
            Some((parent_key, tree)) => {
                // Pure walk: blob digests are memoized, and every
                // entry the parent already has is shared, not copied.
                let entries = encode_tree_entries(&layer.fs, &tree.entries, |_| {});
                let tree_ref = self.persist_delta(layer, &parent_key, &tree, &entries)?;
                let depth = tree.depth + 1;
                (tree_ref, entries, depth, true)
            }
            None => {
                // The full path stores every payload, so capture the
                // blobs as the walk hands them out.
                let mut blobs_by_digest = HashMap::new();
                let entries = encode_tree_entries(&layer.fs, &[], |blob| {
                    blobs_by_digest.insert(blob.sha_hex(), Arc::clone(blob));
                });
                let tree_ref = self.persist_full(layer, &entries, &blobs_by_digest)?;
                (tree_ref, entries, 0, false)
            }
        };
        let object_digest = match &tree_ref {
            TreeRef::Full { digest } => digest.clone(),
            TreeRef::Delta { delta_digest, .. } => delta_digest.clone(),
        };
        self.lock_trees().insert(
            layer.id.clone(),
            CachedTree {
                entries: Arc::new(entries),
                object_digest,
                depth: cached,
            },
        );
        Ok(delta)
    }

    /// Write a full record: every payload blob, the assembled record,
    /// one pin over all of it, then the layer record.
    fn persist_full(
        &self,
        layer: &Layer,
        entries: &[TreeEntry],
        blobs: &HashMap<String, Arc<zr_vfs::Blob>>,
    ) -> Result<TreeRef> {
        let record = assemble_tree_record(entries.iter().map(TreeEntry::bytes));
        let mut batch = self.cas.batch();
        let mut digests: Vec<String> = Vec::new();
        for entry in entries {
            if let Some(digest) = entry.file_digest() {
                if let Some(blob) = blobs.get(digest) {
                    batch.put_blob(blob)?;
                }
                digests.push(digest.to_string());
            }
        }
        let tree_digest = batch.put(&record)?;
        digests.push(tree_digest.clone());
        digests.sort();
        digests.dedup();
        let tree_ref = TreeRef::Full {
            digest: tree_digest,
        };
        // Pin before the record lands: a record must never name blobs
        // gc could be collecting concurrently.
        batch.pin_with_deps(layer.id.as_hex(), &digests, &[])?;
        batch.write_record(
            self.cas.layers_dir().join(layer.id.as_hex()),
            &encode_layer_record(layer, &tree_ref),
        );
        batch.commit()?;
        Ok(tree_ref)
    }

    /// Write a delta record: only the changed payload blobs, one delta
    /// blob, a pin over the new objects (depending on the parent's
    /// root for everything unchanged), then the layer record.
    fn persist_delta(
        &self,
        layer: &Layer,
        parent_key: &CacheKey,
        parent: &CachedTree,
        entries: &[TreeEntry],
    ) -> Result<TreeRef> {
        // Both entry lists are in walk order, so one merge pass yields
        // both diff sides — no maps, no hashing of unchanged paths.
        let mut removed: Vec<&str> = Vec::new();
        let mut upserts: Vec<&TreeEntry> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < parent.entries.len() && j < entries.len() {
            if parent.entries[i].shares_bytes_with(&entries[j]) {
                // Shared by the encoder: same path, same bytes.
                i += 1;
                j += 1;
                continue;
            }
            match walk_order(parent.entries[i].path(), entries[j].path()) {
                std::cmp::Ordering::Less => {
                    removed.push(parent.entries[i].path());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    upserts.push(&entries[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if parent.entries[i].bytes() != entries[j].bytes() {
                        upserts.push(&entries[j]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        removed.extend(parent.entries[i..].iter().map(TreeEntry::path));
        upserts.extend(entries[j..].iter());

        // The digest the reconstructed record must reproduce —
        // computed from the same entries a full persist would write,
        // so delta and full encodings are provably interchangeable.
        let full_digest = hash_tree_record(entries);

        let parent_is_delta = parent.depth > 0;
        let mut enc = Enc::new(DELTA_MAGIC);
        enc.u8(u8::from(parent_is_delta));
        enc.str(&parent.object_digest);
        enc.u64(removed.len() as u64);
        for path in &removed {
            enc.str(path);
        }
        enc.u64(upserts.len() as u64);
        for entry in &upserts {
            enc.str(entry.path());
            enc.bytes(entry.bytes());
        }

        let mut batch = self.cas.batch();
        let mut digests: Vec<String> = Vec::new();
        let root_acc = zr_vfs::Access::root();
        for entry in &upserts {
            if let Some(digest) = entry.file_digest() {
                let blob = layer
                    .fs
                    .read_file_blob(entry.path(), &root_acc)
                    .map_err(|e| {
                        StoreError::corrupt(format!("{}: walked but unreadable: {e}", entry.path()))
                    })?;
                batch.put_blob(&blob)?;
                digests.push(digest.to_string());
            }
        }
        let delta_digest = batch.put(&enc.finish())?;
        digests.push(delta_digest.clone());
        digests.sort();
        digests.dedup();
        let tree_ref = TreeRef::Delta {
            delta_digest,
            depth: parent.depth + 1,
            full_digest,
        };
        // Pin (with the parent chain as a dependency) before the
        // record lands — same crash ordering as the full path.
        batch.pin_with_deps(
            layer.id.as_hex(),
            &digests,
            std::slice::from_ref(&parent_key.as_hex().to_string()),
        )?;
        batch.write_record(
            self.cas.layers_dir().join(layer.id.as_hex()),
            &encode_layer_record(layer, &tree_ref),
        );
        batch.commit()?;
        Ok(tree_ref)
    }

    /// Read and decode one layer record — everything but the
    /// filesystem, which lives behind the tree reference in the CAS.
    fn read_record(&self, key: &CacheKey) -> Result<Option<RecordParts>> {
        let path = self.cas.layers_dir().join(key.as_hex());
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        decode_layer_record(&bytes, key).map(Some)
    }

    /// Rebuild the complete canonical tree record behind a tree
    /// reference, as bytes and split into its walk-ordered entries.
    /// Full references verify through [`Cas::get`]. Delta references
    /// walk the chain to its base record, fold the deltas oldest-first
    /// into one walk-ordered net change per path, merge those into the
    /// base entries in one pass, re-frame, and verify the result hashes
    /// to exactly the recorded full digest.
    fn reconstruct_record(&self, tree_ref: &TreeRef) -> Result<(Vec<u8>, Vec<TreeEntry>)> {
        let (delta_digest, full_digest) = match tree_ref {
            TreeRef::Full { digest } => {
                let record = self.cas.get(digest)?;
                let entries = split_tree_record(&record)?;
                return Ok((record, entries));
            }
            TreeRef::Delta {
                delta_digest,
                full_digest,
                ..
            } => (delta_digest, full_digest),
        };
        // Walk down to the base full record, collecting deltas
        // newest-first. The depth bound doubles as a cycle guard.
        let mut deltas: Vec<DeltaParts> = Vec::new();
        let mut cursor = delta_digest.clone();
        let base = loop {
            if deltas.len() as u64 >= MAX_DELTA_DEPTH {
                return Err(StoreError::corrupt(format!(
                    "delta chain exceeds depth {MAX_DELTA_DEPTH} at {cursor}"
                )));
            }
            let delta = decode_delta(&self.cas.get(&cursor)?)?;
            let parent_is_delta = delta.parent_is_delta;
            let parent_digest = delta.parent_digest.clone();
            deltas.push(delta);
            if !parent_is_delta {
                break self.cas.get(&parent_digest)?;
            }
            cursor = parent_digest;
        };
        let changes = fold_deltas(deltas)?;
        // The base entries are in walk order too: one merge pass.
        let base = split_tree_record(&base)?;
        let mut entries = Vec::with_capacity(base.len() + changes.len());
        let mut base = base.into_iter().peekable();
        for (path, change) in changes {
            while let Some(kept) =
                base.next_if(|e| walk_order(e.path(), &path) == std::cmp::Ordering::Less)
            {
                entries.push(kept);
            }
            let replaced = base.next_if(|e| e.path() == path).is_some();
            if change.must_exist && !replaced {
                return Err(StoreError::corrupt(format!(
                    "delta chain removes {path}, which its base never had"
                )));
            }
            entries.extend(change.entry);
        }
        entries.extend(base);
        let record = assemble_tree_record(entries.iter().map(TreeEntry::bytes));
        let found = hex(&Sha256::digest(&record));
        if &found != full_digest {
            return Err(StoreError::corrupt(format!(
                "delta reconstruction hashes to {found}, record says {full_digest}"
            )));
        }
        Ok((record, entries))
    }

    fn load_inner(&self, key: &CacheKey) -> Result<Option<Layer>> {
        let Some(parts) = self.read_record(key)? else {
            return Ok(None);
        };
        let (record, entries) = self.reconstruct_record(&parts.tree_ref)?;
        let fs = decode_tree(&record, |digest| self.cas.get_blob(digest))?;
        // Cache the split record so a warm-replayed child persists as
        // a delta against this layer instead of a full record.
        let (object_digest, depth) = match &parts.tree_ref {
            TreeRef::Full { digest } => (digest.clone(), 0),
            TreeRef::Delta {
                delta_digest,
                depth,
                ..
            } => (delta_digest.clone(), *depth),
        };
        self.lock_trees().insert(
            key.clone(),
            CachedTree {
                entries: Arc::new(entries),
                object_digest,
                depth,
            },
        );
        Ok(Some(Layer {
            id: key.clone(),
            parent: parts.parent,
            fs,
            state: parts.state,
        }))
    }
}

/// The net effect of a delta chain on one path.
struct NetChange {
    /// The entry the path ends up with; `None` = removed.
    entry: Option<TreeEntry>,
    /// The chain removes the path before any delta upserts it, so the
    /// base record must have it.
    must_exist: bool,
}

/// Fold a chain's deltas (given newest-first) into one walk-ordered
/// net change per path, applying them oldest-first: each delta's
/// removals, then its upserts, the last word on a path winning. Every
/// list is already in walk order, so each step is one merge pass — no
/// map, no sort.
fn fold_deltas(deltas: Vec<DeltaParts>) -> Result<Vec<(String, NetChange)>> {
    let mut net = Vec::new();
    for delta in deltas.into_iter().rev() {
        net = apply_ops(net, delta.removed.into_iter().map(|path| (path, None)))?;
        let upserts = delta.upserts.into_iter();
        net = apply_ops(net, upserts.map(|e| (e.path().to_string(), Some(e))))?;
    }
    Ok(net)
}

/// Merge one walk-ordered list of path operations (`None` removes,
/// `Some` upserts) into the walk-ordered net changes so far. A removal
/// must name a path the tree has at that point of the chain: upserted
/// by an earlier delta, or untouched so far — then the base must have
/// it, which the merge into the base checks.
fn apply_ops(
    net: Vec<(String, NetChange)>,
    ops: impl Iterator<Item = (String, Option<TreeEntry>)>,
) -> Result<Vec<(String, NetChange)>> {
    let mut folded = Vec::with_capacity(net.len());
    let mut older = net.into_iter().peekable();
    for (path, entry) in ops {
        while let Some(kept) =
            older.next_if(|(p, _)| walk_order(p, &path) == std::cmp::Ordering::Less)
        {
            folded.push(kept);
        }
        let must_exist = match older.next_if(|(p, _)| *p == path) {
            Some((_, earlier)) if entry.is_none() && earlier.entry.is_none() => {
                return Err(StoreError::corrupt(format!(
                    "delta chain removes {path} twice"
                )));
            }
            Some((_, earlier)) => earlier.must_exist,
            None => entry.is_none(),
        };
        folded.push((path, NetChange { entry, must_exist }));
    }
    folded.extend(older);
    Ok(folded)
}

/// A decoded layer record, filesystem not yet materialized.
struct RecordParts {
    parent: Option<CacheKey>,
    state: LayerState,
    tree_ref: TreeRef,
}

/// A decoded delta blob.
struct DeltaParts {
    parent_is_delta: bool,
    parent_digest: String,
    /// Removed paths, in strict walk order.
    removed: Vec<String>,
    /// Added or changed entries, in strict walk order.
    upserts: Vec<TreeEntry>,
}

fn encode_layer_record(layer: &Layer, tree_ref: &TreeRef) -> Vec<u8> {
    let mut enc = Enc::new(LAYER_MAGIC_V2);
    enc.str(layer.id.as_hex());
    match &layer.parent {
        Some(parent) => {
            enc.u8(1);
            enc.str(parent.as_hex());
        }
        None => {
            enc.u8(0);
        }
    }
    enc.u64(layer.state.args.len() as u64);
    for (k, v) in &layer.state.args {
        enc.str(k);
        enc.str(v);
    }
    match &layer.state.stage {
        Some(stage) => {
            enc.u8(1);
            encode_meta(&mut enc, &stage.meta);
            enc.u64(stage.env.len() as u64);
            for (k, v) in &stage.env {
                enc.str(k);
                enc.str(v);
            }
            enc.u64(stage.shell.len() as u64);
            for s in &stage.shell {
                enc.str(s);
            }
            enc.str(&stage.cwd);
        }
        None => {
            enc.u8(0);
        }
    }
    match tree_ref {
        TreeRef::Full { digest } => {
            enc.u8(0);
            enc.str(digest);
        }
        TreeRef::Delta {
            delta_digest,
            depth,
            full_digest,
        } => {
            enc.u8(1);
            enc.str(delta_digest);
            enc.u64(*depth);
            enc.str(full_digest);
        }
    }
    enc.finish()
}

fn decode_layer_record(bytes: &[u8], key: &CacheKey) -> Result<RecordParts> {
    // Current records first; stores written by earlier builds still
    // open (their records are all full references).
    let (mut dec, v2) = match Dec::new(bytes, LAYER_MAGIC_V2) {
        Ok(dec) => (dec, true),
        Err(_) => (Dec::new(bytes, LAYER_MAGIC_V1)?, false),
    };
    let id_hex = dec.str()?;
    let id = CacheKey::from_hex(&id_hex)
        .ok_or_else(|| StoreError::corrupt(format!("bad layer key {id_hex:?}")))?;
    if &id != key {
        return Err(StoreError::corrupt(format!(
            "layer record {} claims key {}",
            key.as_hex(),
            id_hex
        )));
    }
    let parent = match dec.u8()? {
        0 => None,
        1 => {
            let hex = dec.str()?;
            Some(
                CacheKey::from_hex(&hex)
                    .ok_or_else(|| StoreError::corrupt(format!("bad parent key {hex:?}")))?,
            )
        }
        other => {
            return Err(StoreError::corrupt(format!("bad parent tag {other}")));
        }
    };
    let arg_count = dec.u64()?;
    let mut args = Vec::new();
    for _ in 0..arg_count {
        let k = dec.str()?;
        let v = dec.str()?;
        args.push((k, v));
    }
    let stage = match dec.u8()? {
        0 => None,
        1 => {
            let meta = decode_meta(&mut dec)?;
            let env_count = dec.u64()?;
            let mut env = Vec::new();
            for _ in 0..env_count {
                let k = dec.str()?;
                let v = dec.str()?;
                env.push((k, v));
            }
            let shell_count = dec.u64()?;
            let mut shell = Vec::new();
            for _ in 0..shell_count {
                shell.push(dec.str()?);
            }
            let cwd = dec.str()?;
            Some(StageSnapshot {
                meta,
                env,
                shell,
                cwd,
            })
        }
        other => {
            return Err(StoreError::corrupt(format!("bad stage tag {other}")));
        }
    };
    let tree_ref = if v2 {
        match dec.u8()? {
            0 => TreeRef::Full {
                digest: expect_digest(dec.str()?)?,
            },
            1 => {
                let delta_digest = expect_digest(dec.str()?)?;
                let depth = dec.u64()?;
                let full_digest = expect_digest(dec.str()?)?;
                TreeRef::Delta {
                    delta_digest,
                    depth,
                    full_digest,
                }
            }
            other => {
                return Err(StoreError::corrupt(format!("bad tree-ref tag {other}")));
            }
        }
    } else {
        TreeRef::Full {
            digest: expect_digest(dec.str()?)?,
        }
    };
    dec.done()?;
    Ok(RecordParts {
        parent,
        state: LayerState { args, stage },
        tree_ref,
    })
}

fn expect_digest(s: String) -> Result<String> {
    if valid_digest(&s) {
        Ok(s)
    } else {
        Err(StoreError::corrupt(format!("bad tree digest {s:?}")))
    }
}

fn decode_delta(bytes: &[u8]) -> Result<DeltaParts> {
    let mut dec = Dec::new(bytes, DELTA_MAGIC)?;
    let parent_is_delta = match dec.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(StoreError::corrupt(format!("bad delta parent tag {other}")));
        }
    };
    let parent_digest = expect_digest(dec.str()?)?;
    // The encoder emits both lists from one walk-order merge, so each
    // is strictly increasing: a duplicate or out-of-order path is
    // corruption, not something to patch around.
    let in_order = |prev: Option<&str>, path: &str| {
        if prev.is_some_and(|prev| walk_order(prev, path) != std::cmp::Ordering::Less) {
            return Err(StoreError::corrupt(format!(
                "delta lists {path} out of walk order or twice"
            )));
        }
        Ok(())
    };
    let removed_count = dec.u64()?;
    let mut removed: Vec<String> = Vec::new();
    for _ in 0..removed_count {
        let path = dec.str()?;
        if path == "/" {
            return Err(StoreError::corrupt("delta removes the root directory"));
        }
        in_order(removed.last().map(String::as_str), &path)?;
        removed.push(path);
    }
    let upsert_count = dec.u64()?;
    let mut upserts: Vec<TreeEntry> = Vec::new();
    for _ in 0..upsert_count {
        let path = dec.str_ref()?;
        let entry = parse_tree_entry(dec.bytes()?)?;
        if entry.path() != path {
            return Err(StoreError::corrupt(format!(
                "delta upsert {path} carries the entry for {}",
                entry.path()
            )));
        }
        in_order(upserts.last().map(TreeEntry::path), path)?;
        upserts.push(entry);
    }
    dec.done()?;
    Ok(DeltaParts {
        parent_is_delta,
        parent_digest,
        removed,
        upserts,
    })
}

impl LayerPersistence for DiskLayers {
    fn persist(&self, layer: &Layer) {
        self.persist_with_parent(layer, None);
    }

    fn persist_with_parent(&self, layer: &Layer, parent: Option<&Layer>) {
        match self.persist_inner(layer, parent) {
            Ok(delta) => {
                self.persisted.fetch_add(1, Ordering::Relaxed);
                if delta {
                    self.delta_persisted.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => self.note_error(&format!("persist {}", layer.id.short()), &e),
        }
        self.note_dir_fsync_failures();
    }

    fn load(&self, key: &CacheKey) -> Option<Layer> {
        match self.load_inner(key) {
            Ok(Some(layer)) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                Some(layer)
            }
            Ok(None) => None,
            Err(e) => {
                // Corruption reads as a miss: the build re-executes and
                // re-persists, healing the record.
                self.note_error(&format!("load {}", key.short()), &e);
                None
            }
        }
    }

    fn load_state(&self, key: &CacheKey) -> Option<zr_image::LayerState> {
        // The chain-walk fast path: record only, no tree fetch, no
        // payload blobs — a cold-open replay reads O(state) per
        // prefix layer and materializes one filesystem at the end.
        match self.read_record(key) {
            Ok(Some(parts)) => Some(parts.state),
            Ok(None) => None,
            Err(e) => {
                self.note_error(&format!("load {}", key.short()), &e);
                None
            }
        }
    }

    fn has(&self, key: &CacheKey) -> bool {
        self.cas.layers_dir().join(key.as_hex()).exists()
    }

    fn keys(&self) -> Vec<CacheKey> {
        let mut keys: Vec<CacheKey> = std::fs::read_dir(self.cas.layers_dir())
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| CacheKey::from_hex(&e.file_name().to_string_lossy()))
                    .collect()
            })
            .unwrap_or_default();
        keys.sort();
        keys
    }
}

/// Open (or create) a persistent layer store at `dir`: a fresh
/// in-memory [`LayerStore`] attached to the directory's durable tier.
/// This is the `--cache-dir` entry point — a second process opening
/// the same directory replays the first one's layers.
pub fn open_layer_store(dir: impl AsRef<Path>) -> Result<(LayerStore, Arc<DiskLayers>)> {
    let cas = Cas::open(dir)?;
    let disk = Arc::new(DiskLayers::new(cas));
    let store = LayerStore::new();
    store.set_persistence(disk.clone());
    Ok((store, disk))
}

#[cfg(test)]
mod tests {
    //! Adversarial delta chains: hand-made delta blobs that an honest
    //! encoder never writes must read as misses — never panics, never
    //! a patched-around tree — even when the layer record names the
    //! digest a lenient replay would produce.

    use super::*;
    use std::path::PathBuf;
    use zr_vfs::fs::Fs;
    use zr_vfs::Access;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "zr-store-unit-{name}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&path);
            Scratch(path)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn state() -> LayerState {
        LayerState {
            args: Vec::new(),
            stage: None,
        }
    }

    fn base_fs() -> Fs {
        let acc = Access::root();
        let mut fs = Fs::new();
        fs.mkdir_p("/etc", 0o755).unwrap();
        fs.mkdir_p("/var", 0o755).unwrap();
        fs.write_file("/etc/a", 0o644, b"a".to_vec(), &acc).unwrap();
        fs.write_file("/etc/b", 0o644, b"b".to_vec(), &acc).unwrap();
        fs.write_file("/var/log", 0o644, b"log".to_vec(), &acc)
            .unwrap();
        fs
    }

    /// `fs` plus one new file and a changed one (payloads stored in
    /// `cas`): at least two upserts, in two directories. Along a chain,
    /// odd steps also remove what the step before added, step 1
    /// removes a base file and step 3 brings it back.
    fn edit(fs: &Fs, cas: &Cas, step: usize) -> Fs {
        let acc = Access::root();
        let mut child = fs.clone();
        let mut writes = vec![
            (format!("/etc/new-{step}"), format!("new {step}")),
            ("/var/log".to_string(), format!("log {step}")),
        ];
        if step == 3 {
            writes.push(("/etc/a".to_string(), "a again".to_string()));
        }
        for (path, data) in writes {
            child
                .write_file(&path, 0o644, data.clone().into_bytes(), &acc)
                .unwrap();
            cas.put(data.as_bytes()).unwrap();
        }
        if step % 2 == 1 {
            child
                .unlink(&format!("/etc/new-{}", step - 1), &acc)
                .unwrap();
        }
        if step == 1 {
            child.unlink("/etc/a", &acc).unwrap();
        }
        child
    }

    fn entries(fs: &Fs) -> Vec<TreeEntry> {
        encode_tree_entries(fs, &[], |_| {})
    }

    /// An upsert as a delta blob files it: path, then entry.
    type Upsert = (String, TreeEntry);

    /// The honest diff between two walk-ordered entry lists.
    fn diff(parent: &[TreeEntry], child: &[TreeEntry]) -> (Vec<String>, Vec<Upsert>) {
        let removed = parent
            .iter()
            .filter(|p| !child.iter().any(|c| c.path() == p.path()))
            .map(|p| p.path().to_string())
            .collect();
        let upserts = child
            .iter()
            .filter(|c| !parent.iter().any(|p| p.bytes() == c.bytes()))
            .map(|c| (c.path().to_string(), c.clone()))
            .collect();
        (removed, upserts)
    }

    /// A store holding one full base layer.
    struct Store {
        dir: Scratch,
        disk: DiskLayers,
        base_key: CacheKey,
        base_object: String,
        base_fs: Fs,
    }

    fn store(name: &str) -> Store {
        let dir = Scratch::new(name);
        let disk = DiskLayers::new(Cas::open(&dir.0).unwrap());
        let base_key = CacheKey::compute(None, "FROM base", "", "none");
        let base_fs = base_fs();
        disk.persist(&Layer {
            id: base_key.clone(),
            parent: None,
            fs: base_fs.clone(),
            state: state(),
        });
        let base_object = match disk.read_record(&base_key).unwrap().unwrap().tree_ref {
            TreeRef::Full { digest } => digest,
            other => panic!("base persisted as {other:?}"),
        };
        Store {
            dir,
            disk,
            base_key,
            base_object,
            base_fs,
        }
    }

    /// One hand-made delta link: its delta blob and layer record.
    struct Link<'a> {
        parent_key: &'a CacheKey,
        parent_object: &'a str,
        parent_is_delta: bool,
        removed: Vec<String>,
        upserts: Vec<Upsert>,
        depth: u64,
        full_digest: String,
    }

    /// Write `link` as layer `name`; returns its key and delta digest.
    fn write_link(disk: &DiskLayers, name: &str, link: Link<'_>) -> (CacheKey, String) {
        let mut enc = Enc::new(DELTA_MAGIC);
        enc.u8(u8::from(link.parent_is_delta));
        enc.str(link.parent_object);
        enc.u64(link.removed.len() as u64);
        for path in &link.removed {
            enc.str(path);
        }
        enc.u64(link.upserts.len() as u64);
        for (path, entry) in &link.upserts {
            enc.str(path);
            enc.bytes(entry.bytes());
        }
        let delta_digest = disk.cas.put(&enc.finish()).unwrap();
        let key = CacheKey::compute(Some(link.parent_key), name, "", "none");
        let layer = Layer {
            id: key.clone(),
            parent: Some(link.parent_key.clone()),
            fs: Fs::new(),
            state: state(),
        };
        let tree_ref = TreeRef::Delta {
            delta_digest: delta_digest.clone(),
            depth: link.depth,
            full_digest: link.full_digest,
        };
        std::fs::write(
            disk.cas.layers_dir().join(key.as_hex()),
            encode_layer_record(&layer, &tree_ref),
        )
        .unwrap();
        (key, delta_digest)
    }

    /// Load `key` through a fresh handle: the layer, or the error that
    /// made it a miss.
    fn fresh_load(dir: &Scratch, key: &CacheKey) -> std::result::Result<Layer, String> {
        let disk = DiskLayers::new(Cas::open(&dir.0).unwrap());
        match disk.load(key) {
            Some(layer) => Ok(layer),
            None => {
                assert_eq!(disk.error_count(), 1, "a miss is noted once");
                Err(disk.last_error().unwrap())
            }
        }
    }

    /// A one-link delta on the base with `tamper` applied to the honest
    /// diff; the record names the digest of `want` (the honest child
    /// tree unless the tamper says otherwise).
    fn one_link(
        name: &str,
        tamper: impl FnOnce(&mut Vec<String>, &mut Vec<Upsert>, &mut Vec<TreeEntry>),
    ) -> (std::result::Result<Layer, String>, Fs) {
        let s = store(name);
        let child = edit(&s.base_fs, &s.disk.cas, 0);
        let mut want = entries(&child);
        let (mut removed, mut upserts) = diff(&entries(&s.base_fs), &want);
        tamper(&mut removed, &mut upserts, &mut want);
        let link = Link {
            parent_key: &s.base_key,
            parent_object: &s.base_object,
            parent_is_delta: false,
            removed,
            upserts,
            depth: 1,
            full_digest: hash_tree_record(&want),
        };
        let (key, _) = write_link(&s.disk, name, link);
        (fresh_load(&s.dir, &key), child)
    }

    #[test]
    fn an_honest_hand_made_delta_loads() {
        let (loaded, child) = one_link("honest", |_, upserts, _| {
            assert!(upserts.len() >= 2, "the tamper cases need two upserts");
        });
        let loaded = loaded.expect("honest delta loads");
        assert_eq!(loaded.fs.tree_digest(), child.tree_digest());
    }

    #[test]
    fn duplicate_upsert_paths_are_a_miss() {
        let (loaded, _) = one_link("dup-upsert", |_, upserts, _| {
            let last = upserts.last().unwrap().clone();
            upserts.push(last);
        });
        let err = loaded.expect_err("a duplicate upsert is a miss");
        assert!(err.contains("out of walk order or twice"), "{err}");
    }

    #[test]
    fn out_of_order_entries_are_a_miss() {
        let (loaded, _) = one_link("unordered", |_, upserts, _| upserts.reverse());
        let err = loaded.expect_err("out-of-order upserts are a miss");
        assert!(err.contains("out of walk order or twice"), "{err}");

        let (loaded, _) = one_link("unordered-removals", |removed, _, _| {
            removed.push("/var/zz".into());
            removed.push("/etc/zz".into());
        });
        let err = loaded.expect_err("out-of-order removals are a miss");
        assert!(err.contains("out of walk order or twice"), "{err}");
    }

    #[test]
    fn removing_an_absent_path_is_a_miss() {
        // Replaying the removal as a no-op would reproduce the honest
        // child exactly — which is why it has to be refused outright.
        let (loaded, _) = one_link("absent", |removed, _, _| removed.push("/nope".into()));
        let err = loaded.expect_err("removing an absent path is a miss");
        assert!(err.contains("never had"), "{err}");
    }

    #[test]
    fn removing_the_root_is_a_miss() {
        // The record even names the digest of the rootless tree.
        let (loaded, _) = one_link("rootless", |removed, _, want| {
            removed.insert(0, "/".into());
            want.retain(|e| e.path() != "/");
        });
        let err = loaded.expect_err("removing / is a miss");
        assert!(err.contains("root"), "{err}");
    }

    #[test]
    fn an_upsert_filed_under_another_path_is_a_miss() {
        let (loaded, _) = one_link("misfiled", |_, upserts, _| {
            let last = upserts.last_mut().unwrap();
            last.0 = format!("{}z", last.0);
        });
        let err = loaded.expect_err("a misfiled upsert is a miss");
        assert!(err.contains("carries the entry for"), "{err}");
    }

    /// A chain of `links` honest deltas on the base; returns the tip
    /// key and its tree.
    fn chain(s: &Store, links: usize) -> (CacheKey, Fs) {
        let mut fs = s.base_fs.clone();
        let mut key = s.base_key.clone();
        let mut object = s.base_object.clone();
        for i in 0..links {
            let child = edit(&fs, &s.disk.cas, i);
            let want = entries(&child);
            let (removed, upserts) = diff(&entries(&fs), &want);
            let link = Link {
                parent_key: &key,
                parent_object: &object,
                parent_is_delta: i > 0,
                removed,
                upserts,
                depth: i as u64 + 1,
                full_digest: hash_tree_record(&want),
            };
            let (next_key, delta) = write_link(&s.disk, &format!("link {i}"), link);
            key = next_key;
            object = delta;
            fs = child;
        }
        (key, fs)
    }

    #[test]
    fn chains_at_the_depth_bound_load_and_deeper_ones_miss() {
        let s = store("deep");
        let (key, fs) = chain(&s, MAX_DELTA_DEPTH as usize);
        let loaded = fresh_load(&s.dir, &key).expect("a chain at the bound loads");
        assert_eq!(loaded.fs.tree_digest(), fs.tree_digest());

        let s = store("too-deep");
        let (key, _) = chain(&s, MAX_DELTA_DEPTH as usize + 1);
        let err = fresh_load(&s.dir, &key).expect_err("a chain past the bound is a miss");
        assert!(err.contains("exceeds depth"), "{err}");
    }
}
