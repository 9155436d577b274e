//! `dev-loop`: one developer iterating on seeded projects against a
//! `--cache-dir`. Every step opens a fresh builder on the project's
//! store directory, as a new `zr-image build` process would: a cold
//! build and a no-op rebuild, then per edit an edit rebuild and a
//! no-op rebuild. The loop is closed and single-threaded. The gated
//! work item and latency are one no-op rebuild.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zr_build::{BuildResult, Builder};
use zr_image::{CatalogBackend, Image, PullCost, ShardedRegistry};
use zr_kernel::{Counters, Kernel};
use zr_store::DiskLayerStats;

use crate::gen::{self, Input, Project};
use crate::spans::{self, span, TimedBackend, TimedPersistence};
use crate::{ms, quantile, Outcome};

/// Projects per run (they cycle if the budget allows more).
pub const PROJECTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Noop,
    Edit,
}

/// One build step: a fresh builder on `dir`, as a new process would
/// open it. Traced steps install the timing wrappers on the store's
/// persistence seam and the registry's backend seam.
pub struct Step {
    pub result: BuildResult,
    pub counters: Counters,
    pub ms: f64,
    pub disk: DiskLayerStats,
    pub physical_bytes: u64,
    pub persisted_content: u64,
    /// Calls into the store's load path (traced steps only).
    pub loads: u64,
}

pub fn step(dir: &Path, input: &Input, traced: bool) -> Result<Step, String> {
    let opts = input.options();
    let mut kernel = Kernel::default_kernel();
    let t0 = Instant::now();
    let build = span("dev.step");
    let opened = {
        let _s = span("store.open");
        Builder::with_cache_dir(dir)
    };
    let (mut builder, disk) = opened.map_err(|e| format!("open {}: {e}", dir.display()))?;
    let timed = traced.then(|| {
        let timed = Arc::new(TimedPersistence::new(disk.clone()));
        builder.layers.set_persistence(timed.clone());
        builder.registry = Arc::new(ShardedRegistry::with_backend(
            ShardedRegistry::DEFAULT_SHARDS,
            PullCost::default(),
            Arc::new(TimedBackend(Arc::new(CatalogBackend))),
        ));
        timed
    });
    let result = builder.build(&mut kernel, &input.dockerfile, &opts);
    drop(build);
    let elapsed = ms(t0.elapsed());
    Ok(Step {
        result,
        counters: kernel.counters,
        ms: elapsed,
        disk: disk.stats(),
        physical_bytes: disk.cas().stats().physical_bytes,
        persisted_content: timed.as_ref().map_or(0, |t| t.content_bytes()),
        loads: timed.map_or(0, |t| t.loads()),
    })
}

/// Set-up: generate the projects and build every state of every
/// project in memory (no store), the reference each step must match.
pub fn setup(seed: u64) -> Result<(Vec<Project>, Vec<Vec<String>>), String> {
    let projects = gen::dev_projects(seed, PROJECTS);
    let refs = projects
        .iter()
        .map(|p| {
            p.steps
                .iter()
                .map(|input| {
                    let mut kernel = Kernel::default_kernel();
                    let r = Builder::new().build(&mut kernel, &input.dockerfile, &input.options());
                    r.image
                        .as_ref()
                        .map(Image::digest)
                        .ok_or_else(|| format!("reference {} failed:\n{}", input.id, r.log_text()))
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((projects, refs))
}

#[derive(Default)]
struct Tally {
    cold: Vec<f64>,
    noop: Vec<f64>,
    edit: Vec<f64>,
    counters: Vec<Counters>,
    hits: u64,
    lookups: u64,
    persisted: u64,
    delta_persisted: u64,
    loads_in_rebuilds: u64,
    rebuilds: u64,
    physical_bytes: u64,
    persisted_content: u64,
}

/// One project cycle on a fresh store directory `dir`, tallied into
/// `tally`.
fn cycle(
    out: &mut Outcome,
    dir: &Path,
    project: &Project,
    digests: &[String],
    traced: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let total = project.instructions() as u32;
    // Cold build, then a no-op rebuild after it and after every
    // edit rebuild: the developer rebuilds once more, unchanged.
    let mut plan = vec![(Kind::Cold, 0usize, 0u32), (Kind::Noop, 0, total)];
    for (k, &pos) in project.edits.iter().enumerate() {
        plan.push((Kind::Edit, k + 1, pos as u32));
        plan.push((Kind::Noop, k + 1, total));
    }
    let mut store_bytes = 0;
    for (kind, state, want_hits) in plan {
        let input = &project.steps[state];
        spans::set_build(out.attempted as u32 + 1);
        let s = step(dir, input, traced)?;
        out.attempted += 1;
        let id = format!("dev-loop {} step {state} ({kind:?})", input.id);
        let digest = s.result.image.as_ref().map(|i| i.digest());
        let ok = s.result.success && digest.as_deref() == Some(digests[state].as_str());
        if !ok {
            out.failed += 1;
        }
        out.check(ok, || {
            format!("{id}: digest {digest:?} != in-memory reference")
        });
        let cache = s.result.cache;
        out.check(cache.hits == want_hits && cache.total() == total, || {
            format!(
                "{id}: {} hits / {} misses, want {want_hits} hits of {total}",
                cache.hits, cache.misses
            )
        });
        if kind == Kind::Noop {
            out.check(s.counters.spawns == 0, || {
                format!(
                    "{id}: no-op rebuild spawned {} processes",
                    s.counters.spawns
                )
            });
        }
        match kind {
            Kind::Cold => tally.cold.push(s.ms),
            Kind::Noop => tally.noop.push(s.ms),
            Kind::Edit => tally.edit.push(s.ms),
        }
        if kind != Kind::Cold {
            tally.rebuilds += 1;
            tally.loads_in_rebuilds += s.loads;
        }
        tally.counters.push(s.counters);
        tally.hits += u64::from(cache.hits);
        tally.lookups += u64::from(cache.total());
        tally.persisted += s.disk.persisted;
        tally.delta_persisted += s.disk.delta_persisted;
        tally.persisted_content += s.persisted_content;
        store_bytes = s.physical_bytes;
    }
    tally.physical_bytes += store_bytes;
    Ok(())
}

fn kind_metrics(out: &mut Outcome, t: &Tally) {
    for (name, v) in [
        ("cold_build", &t.cold),
        ("rebuild", &t.edit),
        ("noop_rebuild", &t.noop),
    ] {
        out.note(format!(
            "{name}_s.p50 {:.5} s  {name}_s.p90 {:.5} s  (n = {})",
            quantile(v, 0.5) / 1e3,
            quantile(v, 0.9) / 1e3,
            v.len()
        ));
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let faults = zr_fault::counters();
    let work = crate::WorkDir::new("dev-loop", seed).map_err(|e| e.to_string())?;
    let ((projects, refs), setup_s) = crate::repeated_setup(|| setup(seed))?;
    out.note(format!(
        "dev-loop: seed {seed}, {PROJECTS} projects x (cold + {} x (edit + no-op)), 1 thread, closed loop",
        projects[0].edits.len()
    ));

    // Every project cycle gets a fresh store directory. Stores stay
    // until the run ends: deleting them between cycles would put the
    // file system's unlink and discard work into later timed steps.
    let mut cycles = 0usize;
    let mut run_cycle = |out: &mut Outcome, traced: bool, tally: &mut Tally| {
        let p = cycles % projects.len();
        cycles += 1;
        let dir = work.path().join(format!("store-{cycles}"));
        cycle(out, &dir, &projects[p], &refs[p], traced, tally)
    };
    if !trace {
        let mut t = Tally::default();
        let start = Instant::now();
        while start.elapsed() < budget || t.cold.is_empty() {
            run_cycle(&mut out, false, &mut t)?;
        }
        out.guard_unmodeled("dev-loop", faults);
        kind_metrics(&mut out, &t);
        // Gated on the no-op rebuild, the read path. Cold builds and
        // edit rebuilds wait on fsync, whose latency on a shared disk
        // swings by 2-3x over minutes: they are printed above and
        // traced, not gated.
        let busy: f64 = t.noop.iter().sum();
        crate::end_to_end(&mut out, setup_s, t.noop.len() as f64 * 1e3 / busy, &t.noop);
        return Ok(out);
    }

    // Traced run: untraced and traced project cycles alternate, so
    // drift in machine speed hits both alike.
    let (mut plain, mut t) = (Tally::default(), Tally::default());
    let start = Instant::now();
    while start.elapsed() < budget || t.cold.is_empty() {
        run_cycle(&mut out, false, &mut plain)?;
        spans::set_enabled(true);
        let traced = run_cycle(&mut out, true, &mut t);
        spans::set_enabled(false);
        traced?;
    }
    out.guard_unmodeled("dev-loop traced", faults);
    let all = spans::take();
    crate::write_spans("dev-loop", seed, &all);

    kind_metrics(&mut out, &plain);
    for (p50, p90, v) in [
        (
            "dev.cold_build_ms.p50",
            "dev.cold_build_ms.p90",
            &plain.cold,
        ),
        ("dev.rebuild_ms.p50", "dev.rebuild_ms.p90", &plain.edit),
        (
            "dev.noop_rebuild_ms.p50",
            "dev.noop_rebuild_ms.p90",
            &plain.noop,
        ),
    ] {
        out.metric(p50, quantile(v, 0.5));
        out.metric(p90, quantile(v, 0.9));
    }
    let mean = |v: &Tally| {
        let all: Vec<f64> = v
            .cold
            .iter()
            .chain(&v.noop)
            .chain(&v.edit)
            .copied()
            .collect();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    };
    out.metric(
        "trace.overhead_pct",
        100.0 * (mean(&t) / mean(&plain) - 1.0),
    );
    let steps = t.counters.len().max(1) as f64;
    let d = |name| spans::durations_ms(&all, name);
    out.metric("store.open_ms.p50", quantile(&d("store.open"), 0.5));
    let loads: Vec<f64> = d("store.load")
        .into_iter()
        .chain(d("store.load_state"))
        .collect();
    out.metric("store.load_ms.p50", quantile(&loads, 0.5));
    out.metric(
        "store.loads_per_rebuild",
        t.loads_in_rebuilds as f64 / t.rebuilds.max(1) as f64,
    );
    let persists = d("store.persist");
    out.metric("store.persist_ms.p50", quantile(&persists, 0.5));
    out.metric("store.persist_ms.p90", quantile(&persists, 0.9));
    out.metric("store.persists_per_build", persists.len() as f64 / steps);
    out.metric(
        "store.delta_share",
        t.delta_persisted as f64 / t.persisted.max(1) as f64,
    );
    out.metric(
        "store.disk_bytes_per_logical_byte",
        t.physical_bytes as f64 / t.persisted_content.max(1) as f64,
    );
    out.metric("image.pull_ms.p50", quantile(&d("image.fetch"), 0.5));
    out.metric(
        "build.cache_hit_ratio",
        t.hits as f64 / t.lookups.max(1) as f64,
    );
    crate::cold_batch::kernel_metrics(&mut out, t.counters.iter().copied());
    crate::self_time_metrics(&mut out, &all, t.counters.len());
    out.metric("fault.retries", zr_fault::counters().retries as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The persistence and backend wrappers pass through: a traced and
    /// an untraced cold build plus edit rebuild give identical digests
    /// and kernel counts.
    #[test]
    fn traced_steps_match_untraced() {
        let project = &gen::dev_projects(9, 1)[0];
        let root = Path::new(".bench_work").join(format!("test-dev-{}", std::process::id()));
        let run = |traced: bool| {
            let dir = root.join(if traced { "t" } else { "u" });
            let cold = step(&dir, &project.steps[0], traced).expect("cold");
            let edit = step(&dir, &project.steps[1], traced).expect("edit");
            let digest = |s: &Step| s.result.image.as_ref().map(|i| i.digest());
            (
                digest(&cold),
                digest(&edit),
                cold.counters,
                edit.counters,
                edit.result.cache,
            )
        };
        let _serial = spans::TEST_LOCK.lock();
        let plain = run(false);
        spans::set_enabled(true);
        let traced = run(true);
        spans::set_enabled(false);
        let _ = std::fs::remove_dir_all(&root);
        assert!(plain.0.is_some() && plain.1.is_some());
        assert_eq!(plain, traced);
        assert_eq!(plain.4.hits as usize, project.edits[0]);
    }
}
