//! The traced run's span recorder and the timing wrappers it installs
//! over the program's public seams.
//!
//! Spans are recorded from outside the program, around calls into each
//! crate: the [`LayerPersistence`] and [`RegistryBackend`] wrappers
//! below, plus direct calls the workloads make. They stay in memory and
//! are written out once, when the run ends. Untraced runs install no
//! wrapper and record nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use zr_image::{CacheKey, Image, ImageRef, Layer, LayerPersistence, LayerState, RegistryBackend};
use zr_syscalls::Errno;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The build (or ship operation) this span belongs to; 0 = none.
    pub build: u32,
}

/// Tests that switch tracing on hold this, since the recorder is global.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Parent for spans opened on threads that have no open span of their
/// own (scheduler workers): the span the driving thread has open.
static AMBIENT: AtomicU32 = AtomicU32::new(u32::MAX);
static BUILD: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn spans() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock() -> std::sync::MutexGuard<'static, Vec<Span>> {
    spans()
        .lock()
        .expect("span buffer poisoned by a panicking recorder")
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Attribute spans opened from now on to build `id`.
pub fn set_build(id: u32) {
    BUILD.store(id, Ordering::Relaxed);
}

/// An open span; closes when dropped.
pub struct Guard(Option<u32>);

/// Open span `name` (a no-op guard while tracing is off).
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Open span `name` and make it the parent of spans that other threads
/// open while it is open (the batch a scheduler's workers serve).
pub fn ambient_span(name: &'static str) -> Guard {
    open(name, true)
}

fn open(name: &'static str, ambient: bool) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied()).or_else(|| {
        let ambient = AMBIENT.load(Ordering::Relaxed);
        (ambient != u32::MAX).then_some(ambient)
    });
    let now = epoch().elapsed().as_nanos() as u64;
    let mut all = lock();
    let idx = all.len() as u32;
    all.push(Span {
        name,
        start_ns: now,
        end_ns: now,
        parent,
        build: BUILD.load(Ordering::Relaxed),
    });
    drop(all);
    OPEN.with(|open| open.borrow_mut().push(idx));
    if ambient {
        AMBIENT.store(idx, Ordering::Relaxed);
    }
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let now = epoch().elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        let _ = AMBIENT.compare_exchange(idx, u32::MAX, Ordering::Relaxed, Ordering::Relaxed);
        if let Ok(mut all) = spans().lock() {
            // The buffer may have been taken while this span was open.
            if let Some(span) = all.get_mut(idx as usize) {
                span.end_ns = now;
            }
        }
    }
}

/// Every recorded span, in opening order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *lock())
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(all: &[Span], name: &str) -> Vec<f64> {
    all.iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Per span name: (count, total ms, self ms). Self time is a span's
/// duration minus the part of it its children cover.
pub fn self_times(all: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); all.len()];
    for s in all {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, kids) in all.iter().zip(children.iter_mut()) {
        // Children on several threads may overlap: cover their union.
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let total = s.end_ns - s.start_ns;
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total as f64 / 1e6;
        entry.2 += total.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Spans as JSON lines (name, start, end, parent, build).
pub fn to_jsonl(all: &[Span]) -> String {
    let mut out = String::new();
    for s in all {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"build\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.build
        ));
    }
    out
}

/// A [`LayerPersistence`] that times every call into the tier it wraps
/// (installed with `LayerStore::set_persistence`), counts the loads,
/// and tallies the bytes of layer content it was asked to persist.
#[derive(Debug)]
pub struct TimedPersistence {
    inner: Arc<dyn LayerPersistence>,
    content_bytes: AtomicU64,
    loads: AtomicU64,
}

impl TimedPersistence {
    pub fn new(inner: Arc<dyn LayerPersistence>) -> TimedPersistence {
        TimedPersistence {
            inner,
            content_bytes: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        }
    }

    /// File payload bytes of every layer persisted through this handle.
    pub fn content_bytes(&self) -> u64 {
        self.content_bytes.load(Ordering::Relaxed)
    }

    /// `load` plus `load_state` calls made through this handle.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }
}

impl LayerPersistence for TimedPersistence {
    fn persist(&self, layer: &Layer) {
        self.persist_with_parent(layer, None);
    }

    fn persist_with_parent(&self, layer: &Layer, parent: Option<&Layer>) {
        self.content_bytes
            .fetch_add(layer.fs.content_bytes(), Ordering::Relaxed);
        let _s = span("store.persist");
        self.inner.persist_with_parent(layer, parent);
    }

    fn load(&self, key: &CacheKey) -> Option<Layer> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let _s = span("store.load");
        self.inner.load(key)
    }

    fn load_state(&self, key: &CacheKey) -> Option<LayerState> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        let _s = span("store.load_state");
        self.inner.load_state(key)
    }

    fn has(&self, key: &CacheKey) -> bool {
        self.inner.has(key)
    }

    fn keys(&self) -> Vec<CacheKey> {
        self.inner.keys()
    }
}

/// A [`RegistryBackend`] that times every fetch of the backend it
/// wraps (passed through `SchedulerConfig::backend` or
/// `ShardedRegistry::with_backend`).
#[derive(Debug)]
pub struct TimedBackend(pub Arc<dyn RegistryBackend>);

impl RegistryBackend for TimedBackend {
    fn fetch(&self, reference: &ImageRef) -> Result<Image, Errno> {
        let _s = span("image.fetch");
        self.0.fetch(reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let all = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                build: 1,
            },
            Span {
                name: "inner",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                build: 1,
            },
            Span {
                name: "inner",
                start_ns: 3_000_000,
                end_ns: 5_000_000,
                parent: Some(0),
                build: 1,
            },
        ];
        let t = self_times(&all);
        assert_eq!(t["outer"].0, 1);
        assert!((t["outer"].2 - 6.0).abs() < 1e-9, "{t:?}");
        assert!((t["inner"].1 - 5.0).abs() < 1e-9);
    }
}
