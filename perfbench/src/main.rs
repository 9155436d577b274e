//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <cold-batch|dev-loop|ship> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from the seed, sets up (five times;
//! the median is `setup_s`), runs one closed loop against the crates'
//! public APIs for `--seconds`, checks every output, and prints one
//! JSON object as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is the separate traced run and
//! reports the per-layer metrics (see README.md). A failed correctness
//! check makes the exit code non-zero.

mod cold_batch;
mod dev_loop;
mod gen;
mod ship;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use zr_fault::FaultCounters;
use zr_image::PullCost;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Set-up repeats beyond [`SETUP_REPS`] until this much time has gone,
/// so a short set-up's median spans more than one burst of machine
/// noise.
pub const SETUP_MIN: Duration = Duration::from_secs(2);

/// The end-to-end metrics every `--trace 0` run reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
];

/// The per-layer metrics every `--trace 1` run reports. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("dockerfile.parse_us.p50", "us"),
    ("plan.compile_us.p50", "us"),
    ("sched.speedup_vs_1", "x"),
    ("sched.peak_concurrency", "count"),
    ("sched.steals", "count"),
    ("kernel.syscalls_per_build", "count"),
    ("kernel.faked_per_build", "count"),
    ("kernel.bpf_insns_per_syscall", "count"),
    ("kernel.spawns_per_build", "count"),
    ("kernel.syscall_ns.none", "ns"),
    ("kernel.syscall_ns.seccomp", "ns"),
    ("kernel.syscall_ns.fakeroot", "ns"),
    ("kernel.syscall_ns.proot", "ns"),
    ("image.pull_ms.p50", "ms"),
    ("image.blob_hit_ratio", "ratio"),
    ("image.digest_ms.p50", "ms"),
    ("image.digest_mbps", "MB/s"),
    ("vfs.clone_us.p50", "us"),
    ("image.layer_dedup_ratio", "ratio"),
    ("build.cache_hit_ratio", "ratio"),
    ("store.open_ms.p50", "ms"),
    ("store.load_ms.p50", "ms"),
    ("store.loads_per_rebuild", "count"),
    ("store.persist_ms.p50", "ms"),
    ("store.persist_ms.p90", "ms"),
    ("store.persists_per_build", "count"),
    ("store.delta_share", "ratio"),
    ("store.disk_bytes_per_logical_byte", "ratio"),
    ("oci.export_ms.p50", "ms"),
    ("oci.export_mbps", "MB/s"),
    ("registry.push_mbps", "MB/s"),
    ("registry.pull_mbps", "MB/s"),
    ("registry.blob_skip_share", "ratio"),
    ("fault.retries", "count"),
    ("trace.overhead_pct", "%"),
    ("batch.builds_per_s", "1/s"),
    ("batch.batch_ms.p50", "ms"),
    ("batch.batch_ms.p90", "ms"),
    ("dev.cold_build_ms.p50", "ms"),
    ("dev.cold_build_ms.p90", "ms"),
    ("dev.rebuild_ms.p50", "ms"),
    ("dev.rebuild_ms.p90", "ms"),
    ("dev.noop_rebuild_ms.p50", "ms"),
    ("dev.noop_rebuild_ms.p90", "ms"),
    ("ship.push_ms.p50", "ms"),
    ("ship.push_ms.p90", "ms"),
    ("ship.pull_ms.p50", "ms"),
    ("ship.pull_ms.p90", "ms"),
    ("self_ms.build", "ms"),
    ("self_ms.store", "ms"),
    ("self_ms.image", "ms"),
    ("self_ms.wire", "ms"),
    ("self_ms.oci", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.violations.len() < 1000 {
            self.violations.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The modeled-cost guard. The default `PullCost`, which every
    /// registry here is built with, models no latency; no fault plan is
    /// installed; and the fault plane's counters are unchanged since
    /// `before`. So nothing timed was slowed by a modeled sleep, an
    /// injected fault, a retry or a backoff.
    pub fn guard_unmodeled(&mut self, phase: &str, before: FaultCounters) {
        let cost = PullCost::default();
        self.check(cost.round_trip.is_zero() && cost.fetch.is_zero(), || {
            format!("{phase}: the default PullCost models latency: {cost:?}")
        });
        let now = zr_fault::counters();
        self.check(!zr_fault::active(), || {
            format!("{phase}: a fault plan is installed")
        });
        self.check(now == before, || {
            format!("{phase}: fault counters moved: {before} -> {now}")
        });
    }
}

/// Workers and connections a workload may use: `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Linear-interpolated quantile `q` in `0..=1` of `values` (0 if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN`]; keep the last result and report the median wall time
/// in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed() < SETUP_MIN {
        // The previous result goes first, untimed, so its memory is
        // free for the next set-up and its drop is not counted.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), quantile(&times, 0.5)))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The common end-to-end block: work items per second of timed work,
/// and the latency distribution of the workload's timed operation.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, throughput: f64, latencies_ms: &[f64]) {
    out.metric("setup_s", setup_s);
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("throughput", throughput);
    out.metric("latency_ms.p50", quantile(latencies_ms, 0.5));
    out.metric("latency_ms.p90", quantile(latencies_ms, 0.9));
}

/// A work directory under `.bench_work/` in the current directory,
/// removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str, seed: u64) -> std::io::Result<WorkDir> {
        let dir =
            Path::new(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

/// Remove `dir`, then sync its parent so the file system's deferred
/// unlink work (journal commit, discard) lands now, in untimed code,
/// not in the next timed write.
pub fn remove_settled(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        if let Ok(handle) = std::fs::File::open(parent) {
            let _ = handle.sync_all();
        }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        remove_settled(&self.0);
    }
}

/// Which layer each span name belongs to, for the self-time summary.
fn layer_of(span: &str) -> Option<&'static str> {
    match span {
        "sched.batch" | "dev.step" => Some("self_ms.build"),
        "store.open" | "store.persist" | "store.load" | "store.load_state" => Some("self_ms.store"),
        "image.fetch" => Some("self_ms.image"),
        "registry.push" | "registry.pull" => Some("self_ms.wire"),
        "oci.export" => Some("self_ms.oci"),
        _ => None,
    }
}

/// Self time per layer, in ms per work item, plus the full per-span
/// table as notes.
pub fn self_time_metrics(out: &mut Outcome, all: &[spans::Span], items: usize) {
    let table = spans::self_times(all);
    let mut per_layer: Vec<(&'static str, f64)> = Vec::new();
    for (name, (count, total, own)) in &table {
        out.note(format!(
            "span {name:<24} n={count:<7} total {total:>10.2} ms  self {own:>10.2} ms"
        ));
        if let Some(layer) = layer_of(name) {
            match per_layer.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, v)) => *v += own,
                None => per_layer.push((layer, *own)),
            }
        }
    }
    for (layer, own) in per_layer {
        out.metric(layer, own / items.max(1) as f64);
    }
}

/// Write the traced run's spans (JSON lines) under `.bench_work/`.
pub fn write_spans(workload: &str, seed: u64, all: &[spans::Span]) {
    let path = Path::new(".bench_work").join(format!("spans-{workload}-seed{seed}.jsonl"));
    if let Err(e) = std::fs::write(&path, spans::to_jsonl(all)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Print one workload's notes, metric lines and JSON result line;
/// returns whether every check passed.
fn report(mut out: Outcome, trace: bool) -> bool {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for line in &out.notes {
        println!("{line}");
    }
    for v in &out.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    let correct = out.violations.is_empty() && out.failed == 0;
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let at = out.metrics.iter().position(|(n, _)| n == name);
            let value = at.map_or(0.0, |i| out.metrics.swap_remove(i).1);
            println!("{name:<36} {value:>14.4} {unit}");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let workloads: &[&str] = match args.workload.as_str() {
        "all" => &["cold-batch", "dev-loop", "ship"],
        one => &[one],
    };
    let mut all_correct = true;
    for &workload in workloads {
        let result = match workload {
            "cold-batch" => cold_batch::run(args.seed, budget, args.trace),
            "dev-loop" => dev_loop::run(args.seed, budget, args.trace),
            "ship" => ship::run(args.seed, budget, args.trace),
            other => Err(format!("unknown workload {other}")),
        };
        match result {
            Ok(out) => all_correct &= report(out, args.trace),
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (name, unit) pair of `BENCHMARK.json` metric entries.
    fn declared(json: &str) -> Vec<(String, String)> {
        let field = |chunk: &str, key: &str| {
            let at = chunk.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(chunk[at..].split('"').next()?.to_string())
        };
        json.split('{')
            .filter_map(|chunk| Some((field(chunk, "name")?, field(chunk, "unit")?)))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json), want);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-9);
    }
}
