//! The persistent layer tier end to end: write-through persist, a
//! second fresh handle loading what the first one stored, gc safety,
//! and concurrent cross-handle sharing of one `--cache-dir`.

mod common;

use common::Scratch;
use std::sync::Arc;

use zr_image::{
    BinKind, BinarySpec, CacheKey, Distro, ImageMeta, Layer, LayerPersistence, LayerState, Linkage,
    StageSnapshot,
};
use zr_store::{open_layer_store, Cas, DiskLayers};
use zr_vfs::fs::Fs;
use zr_vfs::Access;

fn sample_meta() -> ImageMeta {
    ImageMeta {
        name: "alpine".into(),
        tag: "3.19".into(),
        distro: Distro::Alpine,
        libc: "musl-1.2".into(),
        env: vec![("PATH".into(), "/bin:/sbin".into())],
        binaries: vec![BinarySpec::new("/bin/sh", BinKind::Shell, Linkage::Dynamic)],
    }
}

fn sample_layer(key: &CacheKey, parent: Option<&CacheKey>, stamp: &str) -> Layer {
    let root = Access::root();
    let mut fs = Fs::new();
    fs.mkdir_p("/etc", 0o755).unwrap();
    fs.write_file("/etc/stamp", 0o644, stamp.as_bytes().to_vec(), &root)
        .unwrap();
    fs.write_file("/shared", 0o644, vec![7u8; 4096], &root)
        .unwrap();
    Layer {
        id: key.clone(),
        parent: parent.cloned(),
        fs,
        state: LayerState {
            args: vec![("VER".into(), "1".into())],
            stage: Some(StageSnapshot {
                meta: sample_meta(),
                env: vec![("K".into(), "v".into())],
                shell: vec!["/bin/sh".into(), "-c".into()],
                cwd: "/etc".into(),
            }),
        },
    }
}

#[test]
fn layers_roundtrip_through_disk() {
    let dir = Scratch::new("layer-rt");
    let (store, disk) = open_layer_store(dir.path()).unwrap();
    let k1 = CacheKey::compute(None, "FROM alpine:3.19", "", "seccomp");
    let k2 = CacheKey::compute(Some(&k1), "RUN touch /x", "", "seccomp");
    let l1 = sample_layer(&k1, None, "one");
    let l2 = sample_layer(&k2, Some(&k1), "two");
    let tree1 = l1.fs.tree_digest();
    store.insert(l1);
    store.insert(l2);
    assert_eq!(disk.stats().persisted, 2);
    assert_eq!(disk.keys(), {
        let mut keys = vec![k1.clone(), k2.clone()];
        keys.sort();
        keys
    });

    // A second, fresh handle over the same directory — the
    // "second process" — sees both layers and reproduces them exactly.
    let (second, disk2) = open_layer_store(dir.path()).unwrap();
    assert!(second.contains(&k1));
    let loaded = second.get(&k2).expect("disk fallthrough");
    assert_eq!(loaded.parent.as_ref(), Some(&k1));
    assert_eq!(loaded.state.args, vec![("VER".into(), "1".into())]);
    let stage = loaded.state.stage.as_ref().unwrap();
    assert_eq!(stage.meta, sample_meta());
    assert_eq!(stage.cwd, "/etc");
    assert_eq!(
        loaded.fs.read_file("/etc/stamp", &Access::root()).unwrap(),
        b"two"
    );
    let first = second.get(&k1).unwrap();
    assert_eq!(first.fs.tree_digest(), tree1);
    let stats = second.stats();
    assert_eq!(stats.disk_hits, 2);
    assert_eq!(disk2.stats().loaded, 2);
    assert_eq!(disk2.error_count(), 0, "{:?}", disk2.last_error());
}

#[test]
fn shared_payloads_dedup_on_disk_and_gc_keeps_pinned_layers() {
    let dir = Scratch::new("layer-dedup");
    let (store, disk) = open_layer_store(dir.path()).unwrap();
    let k1 = CacheKey::compute(None, "FROM a", "", "none");
    let k2 = CacheKey::compute(Some(&k1), "RUN b", "", "none");
    // Both layers carry the identical 4 KiB "/shared" payload.
    store.insert(sample_layer(&k1, None, "one"));
    store.insert(sample_layer(&k2, Some(&k1), "two"));
    let stats = disk.cas().stats();
    assert_eq!(
        disk.stats().delta_persisted,
        1,
        "k2 persists as a delta against k1"
    );
    // k1 writes its stamp, the shared payload and its tree record; k2's
    // delta adds only its changed stamp and the delta blob — the shared
    // payload is never even re-offered to the store.
    assert_eq!(stats.blobs, 5, "shared payload stored once: {stats}");
    // Offering it again dedups against the existing blob.
    disk.cas().put(&vec![7u8; 4096]).unwrap();
    assert!(disk.cas().stats().dedup_skips >= 1);

    // gc with both layers pinned removes nothing.
    let report = disk.cas().gc().unwrap();
    assert_eq!(report.removed, 0);
    assert!(report.live >= 3, "two stamps + shared payload + trees");

    // Removing one layer frees only its exclusive blobs.
    assert!(disk.remove(&k2).unwrap());
    let report = disk.cas().gc().unwrap();
    assert!(report.removed >= 1, "k2's stamp and tree record freed");
    let (reopened, _) = open_layer_store(dir.path()).unwrap();
    assert!(reopened.get(&k1).is_some(), "k1 survives gc intact");
    assert!(reopened.get(&k2).is_none());
}

#[test]
fn peek_state_skips_filesystem_materialization() {
    // The chain walk's disk fallthrough must read the layer *record*
    // only: no tree record, no payload blobs. Observable as zero CAS
    // reads (records are plain files outside the blob space).
    let dir = Scratch::new("layer-peek");
    let key = CacheKey::compute(None, "FROM a", "", "none");
    {
        let (store, _) = open_layer_store(dir.path()).unwrap();
        store.insert(sample_layer(&key, None, "peek"));
    }
    let (second, disk2) = open_layer_store(dir.path()).unwrap();
    let state = second.peek_state(&key).expect("state from disk");
    assert_eq!(state.stage.unwrap().cwd, "/etc");
    assert_eq!(
        disk2.cas().stats().reads,
        0,
        "peek must not fetch the tree or its blobs"
    );
    assert_eq!(second.stats().disk_hits, 1);
    // Materializing afterwards pays the full load exactly once.
    assert!(second.materialize(&key).is_some());
    assert!(disk2.cas().stats().reads > 0);
}

#[test]
fn corrupt_layer_record_reads_as_miss() {
    let dir = Scratch::new("layer-corrupt");
    let (store, _) = open_layer_store(dir.path()).unwrap();
    let key = CacheKey::compute(None, "FROM a", "", "none");
    store.insert(sample_layer(&key, None, "x"));
    std::fs::write(dir.join(&format!("layers/{}", key.as_hex())), b"garbage").unwrap();
    let (second, disk2) = open_layer_store(dir.path()).unwrap();
    assert!(
        second.get(&key).is_none(),
        "corruption is a miss, not an error"
    );
    assert_eq!(disk2.error_count(), 1);
    assert!(disk2.last_error().unwrap().contains("load"));
}

#[test]
fn concurrent_handles_share_one_cache_dir() {
    let dir = Scratch::new("layer-share");
    let keys: Vec<CacheKey> = (0..8)
        .map(|i| CacheKey::compute(None, &format!("RUN step-{i}"), "", "none"))
        .collect();
    let keys = Arc::new(keys);
    let dir_path = dir.path().to_path_buf();
    // Four "processes" (independent opens), each inserting its slice
    // and reading everything back.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let keys = Arc::clone(&keys);
            let dir = dir_path.clone();
            std::thread::spawn(move || {
                let (store, _) = open_layer_store(&dir).unwrap();
                for (i, key) in keys.iter().enumerate() {
                    if i % 4 == w {
                        store.insert(sample_layer(key, None, &format!("s{i}")));
                    }
                }
                store
            })
        })
        .collect();
    let stores: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for store in &stores {
        for (i, key) in keys.iter().enumerate() {
            let layer = store.get(key).expect("every handle sees every layer");
            assert_eq!(
                layer.fs.read_file("/etc/stamp", &Access::root()).unwrap(),
                format!("s{i}").as_bytes()
            );
        }
    }
}

#[test]
fn disk_layers_over_existing_cas_handle() {
    let dir = Scratch::new("layer-cas");
    let cas = Cas::open(dir.path()).unwrap();
    let disk = DiskLayers::new(cas);
    let key = CacheKey::compute(None, "FROM a", "", "none");
    disk.persist(&sample_layer(&key, None, "direct"));
    assert!(disk.has(&key));
    assert_eq!(disk.load(&key).unwrap().id, key);
    assert!(!disk.has(&CacheKey::compute(None, "other", "", "none")));
}

#[test]
fn each_distinct_payload_is_read_once_and_a_damaged_one_heals() {
    let dir = Scratch::new("layer-reads");
    let root = Access::root();
    let key = CacheKey::compute(None, "FROM shared", "", "none");
    let mut fs = Fs::new();
    fs.mkdir_p("/data", 0o755).unwrap();
    // 24 files share one payload, 40 are empty, one is unique: three
    // distinct payloads behind 65 file entries.
    for i in 0..24 {
        fs.write_file(
            &format!("/data/same-{i}"),
            0o644,
            b"one payload".to_vec(),
            &root,
        )
        .unwrap();
    }
    for i in 0..40 {
        fs.write_file(&format!("/data/empty-{i}"), 0o644, Vec::new(), &root)
            .unwrap();
    }
    fs.write_file("/data/unique", 0o644, b"only me".to_vec(), &root)
        .unwrap();
    let layer = Layer {
        id: key.clone(),
        parent: None,
        fs,
        state: LayerState {
            args: Vec::new(),
            stage: None,
        },
    };
    let want = layer.fs.tree_digest();
    let (_, disk) = open_layer_store(dir.path()).unwrap();
    disk.persist(&layer);
    assert_eq!(disk.error_count(), 0, "{:?}", disk.last_error());

    // A fresh handle reads the tree record once and each distinct
    // payload once — not once per file — and every file with the same
    // payload shares the one verified blob.
    let (_, fresh) = open_layer_store(dir.path()).unwrap();
    let loaded = fresh.load(&key).expect("layer loads");
    assert_eq!(loaded.fs.tree_digest(), want);
    assert_eq!(
        fresh.cas().stats().reads,
        3 + 1,
        "3 payloads + 1 tree record"
    );
    let blob = |path: &str| loaded.fs.read_file_blob(path, &root).unwrap();
    assert!(Arc::ptr_eq(&blob("/data/same-0"), &blob("/data/same-23")));

    // Damage the shared payload on disk: the one read of it fails
    // verification, so the whole load is a miss, noted once.
    let shared = zr_vfs::Blob::new(b"one payload".to_vec()).sha_hex();
    std::fs::write(dir.join(&format!("blobs/sha256/{shared}")), b"one paylaod").unwrap();
    let (_, next) = open_layer_store(dir.path()).unwrap();
    assert!(next.load(&key).is_none(), "a damaged payload is a miss");
    assert_eq!(next.error_count(), 1);
    assert!(next.last_error().unwrap().contains("fails verification"));

    // The build re-executes the layer and persists it again. The
    // damaged payload is rewritten, not dedup-skipped, so the store is
    // healed for every later handle.
    next.persist(&layer);
    assert_eq!(next.error_count(), 1, "{:?}", next.last_error());
    let (_, healed) = open_layer_store(dir.path()).unwrap();
    let reloaded = healed.load(&key).expect("healed layer loads");
    assert_eq!(reloaded.fs.tree_digest(), want);
    assert_eq!(healed.error_count(), 0);
}

#[test]
fn read_only_sessions_never_build_the_index() {
    let dir = Scratch::new("layer-lazy-index");
    let k1 = CacheKey::compute(None, "FROM a", "", "none");
    let k2 = CacheKey::compute(Some(&k1), "RUN b", "", "none");
    {
        let (store, _) = open_layer_store(dir.path()).unwrap();
        store.insert(sample_layer(&k1, None, "one"));
        store.insert(sample_layer(&k2, Some(&k1), "two"));
    }
    let rotten = dir.join("roots/rotten");
    std::fs::write(&rotten, b"not a pin record").unwrap();

    // A read-only session — open, walk the chain's state, materialize
    // the tip — never loads the pin records, so it never meets (or
    // quarantines) the corrupt one.
    {
        let (_, disk) = open_layer_store(dir.path()).unwrap();
        assert!(disk.load_state(&k1).is_some());
        assert!(disk.load(&k2).is_some());
        assert_eq!(disk.error_count(), 0, "{:?}", disk.last_error());
    }
    assert!(rotten.exists(), "reads never build the index");

    // The first put builds the index, quarantining the corrupt pin...
    let (_, disk) = open_layer_store(dir.path()).unwrap();
    assert!(rotten.exists(), "open defers the pin scan");
    disk.cas().put(b"new content").unwrap();
    assert!(!rotten.exists(), "quarantined by the first put");
    assert_eq!(disk.cas().stats().corrupt_roots, 1);
    // ...once: later index operations on this handle do not rescan.
    let rotten2 = dir.join("roots/rotten2");
    std::fs::write(&rotten2, b"garbage").unwrap();
    disk.cas().put(b"more content").unwrap();
    assert_eq!(disk.cas().stats().corrupt_roots, 1, "indexed once");
    assert!(rotten2.exists());

    // stats() builds the index just the same.
    let (_, other) = open_layer_store(dir.path()).unwrap();
    assert!(rotten2.exists());
    assert_eq!(other.cas().stats().corrupt_roots, 1);
    assert!(!rotten2.exists(), "quarantined by the first stats()");
    assert_eq!(other.cas().roots().len(), 2, "both healthy layer pins");
}
