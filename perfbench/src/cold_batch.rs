//! `cold-batch`: the image-farm case. One batch of distinct generated
//! Dockerfiles goes to a fresh `Scheduler::build_many` with
//! `jobs = nproc`, in memory, `--force=seccomp`, zero `PullCost`. The
//! loop is closed: the next batch is submitted when the last one ends.
//! The work item is one build; the latency is one batch.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zeroroot_core::Mode;
use zr_build::Builder;
use zr_image::{CatalogBackend, Image, PullCost, RegistryBackend};
use zr_kernel::{Counters, Kernel, SysCall};
use zr_sched::{BuildReport, BuildRequest, LogEvent, Scheduler, SchedulerConfig};

use crate::gen::{self, Input};
use crate::spans::{self, span, TimedBackend};
use crate::{ms, quantile, Outcome};

/// Builds per batch.
pub const BATCH: usize = 16;

/// What the serial reference build of one input produced.
pub struct Reference {
    pub digest: String,
    pub counters: Counters,
}

/// Set-up: generate the batch and build every input serially on a
/// plain `Builder` (no scheduler), the reference the batches must match.
pub fn setup(seed: u64) -> Result<(Vec<Input>, Vec<Reference>), String> {
    let inputs = gen::cold_batch(seed, BATCH);
    let refs = inputs
        .iter()
        .map(|input| {
            let mut kernel = Kernel::default_kernel();
            let result = Builder::new().build(&mut kernel, &input.dockerfile, &input.options());
            let image = result.image.as_ref().ok_or_else(|| {
                format!(
                    "reference build {} failed:\n{}",
                    input.id,
                    result.log_text()
                )
            })?;
            Ok(Reference {
                digest: image.digest(),
                counters: kernel.counters,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((inputs, refs))
}

/// A fresh in-memory scheduler with no modeled latency.
pub fn scheduler(jobs: usize, backend: Option<Arc<dyn RegistryBackend>>) -> Scheduler {
    let config = SchedulerConfig {
        jobs,
        pull_cost: PullCost::default(),
        cache_dir: None,
        backend,
        ..SchedulerConfig::default()
    };
    Scheduler::new(config)
}

/// Requests over freshly wrapped context blobs.
pub fn requests(inputs: &[Input]) -> Vec<BuildRequest> {
    inputs
        .iter()
        .map(|i| BuildRequest::with_options(&i.id, &i.dockerfile, i.options()))
        .collect()
}

/// Check one batch against the references; returns the failed count.
fn verify(out: &mut Outcome, inputs: &[Input], refs: &[Reference], reports: &[BuildReport]) -> u64 {
    let mut failed = 0;
    for ((input, reference), report) in inputs.iter().zip(refs).zip(reports) {
        let digest = report.result.image.as_ref().map(Image::digest);
        if !report.status.succeeded() || digest.as_deref() != Some(reference.digest.as_str()) {
            failed += 1;
            out.check(false, || {
                format!(
                    "cold-batch {}: status {}, digest {digest:?} != reference {}",
                    input.id, report.status, reference.digest
                )
            });
        }
        if input.installs_rpms() {
            out.check(report.trace.faked > 0, || {
                format!("cold-batch {}: rpm install faked no syscall", input.id)
            });
        }
    }
    failed
}

/// Per-batch observations the traced phase collects.
#[derive(Default)]
struct Traced {
    peak: Vec<f64>,
    steals: f64,
    pulls: u64,
    blob_hits: u64,
    dedup: Vec<f64>,
    hits: u64,
    lookups: u64,
    digest_bytes: u64,
}

/// Build the batch once on a fresh scheduler; returns its time (ms).
/// A traced batch goes through the timed registry backend, and its
/// reports are also digested and cloned under spans, after the timing.
fn batch(
    out: &mut Outcome,
    inputs: &[Input],
    refs: &[Reference],
    jobs: usize,
    traced: Option<&mut Traced>,
) -> f64 {
    let reqs = requests(inputs);
    out.attempted += inputs.len() as u64;
    let Some(t) = traced else {
        let sched = scheduler(jobs, None);
        let t0 = Instant::now();
        let reports = sched.build_many(reqs);
        let elapsed = ms(t0.elapsed());
        let failed = verify(out, inputs, refs, &reports);
        out.failed += failed;
        return elapsed;
    };
    spans::set_build(out.attempted as u32);
    parse_and_plan(inputs);
    let backend: Arc<dyn RegistryBackend> = Arc::new(TimedBackend(Arc::new(CatalogBackend)));
    let sched = scheduler(jobs, Some(backend));
    let t0 = Instant::now();
    let batch_span = spans::ambient_span("sched.batch");
    let handle = sched.submit(reqs);
    // Block on every build's terminal event, so the handle's counters
    // are final before `wait` consumes it.
    let rxs: Vec<_> = (0..inputs.len()).map(|i| handle.subscribe(i)).collect();
    for rx in rxs {
        while let Ok(event) = rx.recv() {
            if matches!(event, LogEvent::Done { .. }) {
                break;
            }
        }
    }
    t.peak.push(handle.peak_concurrency() as f64);
    t.steals += handle.steals() as f64;
    let reports = handle.wait();
    drop(batch_span);
    let elapsed = ms(t0.elapsed());
    let failed = verify(out, inputs, refs, &reports);
    out.failed += failed;
    let stats = sched.registry().stats();
    t.pulls += stats.pulls;
    t.blob_hits += stats.blob_hits;
    let layers = sched.layers().stats();
    t.dedup
        .push(layers.dedup_saved() as f64 / layers.logical_bytes.max(1) as f64);
    for report in &reports {
        t.hits += u64::from(report.result.cache.hits);
        t.lookups += u64::from(report.result.cache.total());
        if let Some(image) = &report.result.image {
            t.digest_bytes += image.fs.content_bytes();
            {
                let _s = span("image.digest_uncached");
                std::hint::black_box(image.digest_uncached());
            }
            let _s = span("vfs.clone");
            std::hint::black_box(image.fs.clone());
        }
    }
    elapsed
}

/// Time `zr_dockerfile::parse` and `BuildPlan::compile` on every input.
fn parse_and_plan(inputs: &[Input]) {
    for input in inputs {
        let parsed = {
            let _s = span("dockerfile.parse");
            zr_dockerfile::parse(&input.dockerfile)
        };
        if let Ok(df) = parsed {
            let _s = span("plan.compile");
            std::hint::black_box(zr_plan::BuildPlan::compile(&df, None).is_ok());
        }
    }
}

/// Nanoseconds per `Kernel::syscall(getpid)` on an armed Type III
/// container, the best of five 20k-call means: the toll each strategy
/// puts on a syscall that needs no emulation.
pub fn syscall_ns(mode: Mode) -> f64 {
    let (mut kernel, pid, strategy) = zr_bench::armed(mode);
    const CALLS: u32 = 20_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(kernel.syscall(pid, SysCall::Getpid).is_ok());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(CALLS));
    }
    strategy.teardown(&mut kernel);
    best
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let faults = zr_fault::counters();
    let ((inputs, refs), setup_s) = crate::repeated_setup(|| setup(seed))?;
    let jobs = crate::nproc();
    out.note(format!(
        "cold-batch: seed {seed}, {BATCH} builds per batch, jobs {jobs}, closed loop"
    ));

    if !trace {
        let start = Instant::now();
        let mut batches = Vec::new();
        while start.elapsed() < budget || batches.is_empty() {
            batches.push(batch(&mut out, &inputs, &refs, jobs, None));
        }
        out.guard_unmodeled("cold-batch", faults);
        let builds = batches.len() * inputs.len();
        let rate = builds as f64 * 1e3 / batches.iter().sum::<f64>();
        crate::end_to_end(&mut out, setup_s, rate, &batches);
        out.note(format!(
            "builds_per_s {rate:.2} builds/s over {} batches ({builds} builds)",
            batches.len()
        ));
        return Ok(out);
    }

    // Traced run: round robin of an untraced batch, a traced batch and
    // a batch at jobs = 1, so drift in machine speed hits all three
    // alike.
    let (mut plain, mut traced, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    let mut t = Traced::default();
    let start = Instant::now();
    while start.elapsed() < budget || plain.is_empty() {
        plain.push(batch(&mut out, &inputs, &refs, jobs, None));
        spans::set_enabled(true);
        traced.push(batch(&mut out, &inputs, &refs, jobs, Some(&mut t)));
        spans::set_enabled(false);
        serial.push(batch(&mut out, &inputs, &refs, 1, None));
    }
    out.guard_unmodeled("cold-batch traced", faults);
    let all = spans::take();
    crate::write_spans("cold-batch", seed, &all);

    let rate = |b: &[f64]| (b.len() * inputs.len()) as f64 * 1e3 / b.iter().sum::<f64>();
    out.metric("batch.builds_per_s", rate(&plain));
    out.metric("batch.batch_ms.p50", quantile(&plain, 0.5));
    out.metric("batch.batch_ms.p90", quantile(&plain, 0.9));
    out.metric(
        "trace.overhead_pct",
        100.0 * (rate(&plain) / rate(&traced) - 1.0),
    );
    out.metric("sched.speedup_vs_1", rate(&plain) / rate(&serial));
    out.metric("sched.peak_concurrency", quantile(&t.peak, 0.5));
    out.metric("sched.steals", t.steals);
    let us = |name| quantile(&spans::durations_ms(&all, name), 0.5) * 1e3;
    out.metric("dockerfile.parse_us.p50", us("dockerfile.parse"));
    out.metric("plan.compile_us.p50", us("plan.compile"));
    out.metric("vfs.clone_us.p50", us("vfs.clone"));
    let digests = spans::durations_ms(&all, "image.digest_uncached");
    out.metric("image.digest_ms.p50", quantile(&digests, 0.5));
    out.metric(
        "image.digest_mbps",
        t.digest_bytes as f64 / 1e6 / (digests.iter().sum::<f64>() / 1e3),
    );
    out.metric(
        "image.pull_ms.p50",
        quantile(&spans::durations_ms(&all, "image.fetch"), 0.5),
    );
    out.metric(
        "image.blob_hit_ratio",
        t.blob_hits as f64 / t.pulls.max(1) as f64,
    );
    out.metric("image.layer_dedup_ratio", quantile(&t.dedup, 0.5));
    out.metric(
        "build.cache_hit_ratio",
        t.hits as f64 / t.lookups.max(1) as f64,
    );
    kernel_metrics(&mut out, refs.iter().map(|r| r.counters));
    for (name, mode) in [
        ("kernel.syscall_ns.none", Mode::None),
        ("kernel.syscall_ns.seccomp", Mode::Seccomp),
        ("kernel.syscall_ns.fakeroot", Mode::Fakeroot),
        ("kernel.syscall_ns.proot", Mode::Proot),
    ] {
        out.metric(name, syscall_ns(mode));
    }
    crate::self_time_metrics(&mut out, &all, traced.len() * inputs.len());
    out.metric("fault.retries", zr_fault::counters().retries as f64);
    Ok(out)
}

/// Per-build kernel counts (exact: they repeat run to run).
pub fn kernel_metrics(out: &mut Outcome, counters: impl Iterator<Item = Counters>) {
    let mut n = 0f64;
    let mut sum = Counters::default();
    for c in counters {
        n += 1.0;
        sum.syscalls += c.syscalls;
        sum.faked += c.faked;
        sum.bpf_instructions += c.bpf_instructions;
        sum.spawns += c.spawns;
    }
    let n = n.max(1.0);
    out.metric("kernel.syscalls_per_build", sum.syscalls as f64 / n);
    out.metric("kernel.faked_per_build", sum.faked as f64 / n);
    out.metric(
        "kernel.bpf_insns_per_syscall",
        sum.bpf_instructions as f64 / sum.syscalls.max(1) as f64,
    );
    out.metric("kernel.spawns_per_build", sum.spawns as f64 / n);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrappers pass through: a traced batch (timed backend)
    /// and an untraced one give identical digests and kernel counts.
    #[test]
    fn traced_batch_matches_untraced() {
        let _serial = spans::TEST_LOCK.lock();
        let inputs = gen::cold_batch(5, 8);
        let plain = scheduler(2, None).build_many(requests(&inputs));
        let backend: Arc<dyn RegistryBackend> = Arc::new(TimedBackend(Arc::new(CatalogBackend)));
        spans::set_enabled(true);
        let traced = scheduler(2, Some(backend)).build_many(requests(&inputs));
        spans::set_enabled(false);
        assert!(!spans::take().is_empty());
        for (a, b) in plain.iter().zip(&traced) {
            assert!(a.status.succeeded(), "{}", a.result.log_text());
            let digest = |r: &BuildReport| r.result.image.as_ref().map(Image::digest);
            assert_eq!(digest(a), digest(b));
            assert_eq!(a.trace, b.trace);
        }
    }
}
