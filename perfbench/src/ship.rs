//! `ship`: images built in set-up are exported, pushed to an in-process
//! loopback `zr_registry::serve` endpoint, and pulled back with
//! `RemoteRegistry::pull_image`. One client, one connection at a time,
//! closed loop. Each pass over the pool pushes to a fresh endpoint, so
//! every pass uploads the same blobs and skips the same shared base
//! layers, and pulls each image back [`PULLS_PER_PUSH`] times. The gated
//! work item and latency are one `pull_image`: export and push end in
//! fsyncs (layout files, the endpoint's store), whose cost on a shared
//! disk swings 2-3x between runs, so they are reported per layer only.

use std::path::Path;
use std::time::{Duration, Instant};

use zr_build::Builder;
use zr_image::{Image, ImageRef, ShardedRegistry};
use zr_kernel::Kernel;
use zr_registry::RemoteRegistry;
use zr_store::Cas;
use zr_vfs::Fs;

use crate::gen::{self, Input, BASES};
use crate::spans::{self, span};
use crate::{ms, quantile, Outcome};

/// Every pass pushes to a fresh endpoint, so one tag serves them all.
const TAG: &str = "latest";

/// A built image ready to ship.
pub struct Shippable {
    pub input: Input,
    pub image: Image,
    pub digest: String,
}

/// Set-up (untimed): build the pool in memory and materialize each
/// base as the builder unpacks it, the lower layer every export shares.
pub fn setup(seed: u64) -> Result<(Vec<Shippable>, Vec<Fs>), String> {
    let registry = ShardedRegistry::new();
    let owner = Kernel::default_kernel().config;
    let bases = BASES
        .iter()
        .map(|(reference, _)| {
            let parsed = ImageRef::parse(reference).ok_or("bad base reference")?;
            let mut base = registry
                .pull(&parsed)
                .map_err(|e| format!("pull {reference}: {e}"))?;
            base.chown_all(owner.host_uid, owner.host_gid);
            Ok(base.fs)
        })
        .collect::<Result<Vec<Fs>, String>>()?;
    let pool = gen::ship_pool(seed)
        .into_iter()
        .map(|input| {
            let mut kernel = Kernel::default_kernel();
            let r = Builder::new().build(&mut kernel, &input.dockerfile, &input.options());
            let image = r
                .image
                .clone()
                .ok_or_else(|| format!("build {} failed:\n{}", input.id, r.log_text()))?;
            let digest = image.digest();
            Ok(Shippable {
                input,
                image,
                digest,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((pool, bases))
}

/// Pulls per push: every image is pulled back this many times right
/// after its push, so most of a run is spent on the read path.
const PULLS_PER_PUSH: usize = 3;

#[derive(Default)]
struct Tally {
    push: Vec<f64>,
    pull: Vec<f64>,
    layout_bytes: u64,
    pulled_bytes: u64,
    blobs: u64,
    blobs_held: u64,
}

/// Ship the whole pool once to a fresh endpoint under `pass_dir`: each
/// image is exported, pushed and pulled back [`PULLS_PER_PUSH`] times,
/// tallied into `t`.
fn pass(
    out: &mut Outcome,
    pass_dir: &Path,
    pool: &[Shippable],
    bases: &[Fs],
    traced: bool,
    t: &mut Tally,
) -> Result<(), String> {
    let store = pass_dir.join("registry");
    let cas = Cas::open(&store).map_err(|e| format!("open {}: {e}", store.display()))?;
    let server = zr_registry::serve(cas, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let client = RemoteRegistry::new(server.addr().to_string());
    for item in pool {
        spans::set_build(out.attempted as u32 + 1);
        out.attempted += 1;
        let layout = pass_dir.join(format!("layout-{}", item.input.id));
        let name = format!("ship/{}", item.input.id);
        let t0 = Instant::now();
        let exported = {
            let _s = span("oci.export");
            zr_store::export_diff(&item.image, &bases[item.input.base], &layout)
        };
        let t1 = Instant::now();
        let summary = match exported {
            Ok(s) => s,
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("ship {}: export: {e}", item.input.id));
                continue;
            }
        };
        let blobs: Vec<&String> = summary
            .layer_digests
            .iter()
            .chain([&summary.config_digest])
            .collect();
        if traced {
            // The server's own answer to "do you hold this blob?",
            // asked before the push (outside its timing).
            for d in &blobs {
                if client.has_blob(&name, d).map_err(|e| e.to_string())? {
                    t.blobs_held += 1;
                }
            }
        }
        let t2 = Instant::now();
        let pushed = {
            let _s = span("registry.push");
            client.push_layout(&layout, &name, TAG)
        };
        let t3 = Instant::now();
        if let Err(e) = pushed {
            out.failed += 1;
            out.check(false, || format!("ship {}: push: {e}", item.input.id));
            continue;
        }
        let bytes = summary.layer_sizes.iter().sum::<u64>();
        t.push.push(ms(t1 - t0) + ms(t3 - t2));
        t.layout_bytes += bytes;
        t.blobs += blobs.len() as u64;

        for _ in 0..PULLS_PER_PUSH {
            spans::set_build(out.attempted as u32 + 1);
            out.attempted += 1;
            let t0 = Instant::now();
            let pulled = {
                let _s = span("registry.pull");
                client.pull_image(&name, TAG)
            };
            let t1 = Instant::now();
            let digest = match pulled {
                Ok(image) => image.digest(),
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("ship {}: pull: {e}", item.input.id));
                    continue;
                }
            };
            if digest != item.digest {
                out.failed += 1;
            }
            out.check(digest == item.digest, || {
                format!(
                    "ship {}: pulled {digest} != built {}",
                    item.input.id, item.digest
                )
            });
            t.pull.push(ms(t1 - t0));
            t.pulled_bytes += bytes;
        }
    }
    server.shutdown();
    // Layouts and the endpoint's store go between passes, untimed.
    crate::remove_settled(pass_dir);
    Ok(())
}

/// Keep every thread of this process on glibc's main malloc arena.
///
/// The endpoint serves each connection on a thread of its own, and
/// whether a new handler thread reuses the arena of the one before or
/// gets a fresh one depends on which of them the scheduler runs first.
/// Each fresh arena keeps its freed layer buffers resident, so without
/// this the peak RSS of one seed lands on 37 or 46 MB by chance. Only
/// one handler works at a time while the client waits for it, so one
/// arena adds no lock contention.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only adjusts allocator tuning; it is called
        // before this workload starts any thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    single_malloc_arena();
    let mut out = Outcome::default();
    let faults = zr_fault::counters();
    let work = crate::WorkDir::new("ship", seed).map_err(|e| e.to_string())?;
    let ((pool, bases), setup_s) = crate::repeated_setup(|| setup(seed))?;
    out.note(format!(
        "ship: seed {seed}, {} images ({} KiB of context), 1 client, fresh endpoint per pass, closed loop",
        pool.len(),
        pool.iter().map(|s| s.input.context_bytes()).sum::<usize>() / 1024
    ));

    let notes = |out: &mut Outcome, t: &Tally| {
        for (name, v) in [("push", &t.push), ("pull", &t.pull)] {
            out.note(format!(
                "{name}_s.p50 {:.5} s  {name}_s.p90 {:.5} s  (n = {})",
                quantile(v, 0.5) / 1e3,
                quantile(v, 0.9) / 1e3,
                v.len()
            ));
        }
    };
    let mut passes = 0usize;
    let mut run_pass = |out: &mut Outcome, traced: bool, t: &mut Tally| {
        passes += 1;
        let dir = work.path().join(format!("pass-{passes}"));
        pass(out, &dir, &pool, &bases, traced, t)
    };
    if !trace {
        let mut t = Tally::default();
        let start = Instant::now();
        while start.elapsed() < budget || t.pull.is_empty() {
            run_pass(&mut out, false, &mut t)?;
        }
        out.guard_unmodeled("ship", faults);
        notes(&mut out, &t);
        let busy: f64 = t.pull.iter().sum();
        crate::end_to_end(&mut out, setup_s, t.pull.len() as f64 * 1e3 / busy, &t.pull);
        return Ok(out);
    }

    // Traced run: untraced and traced passes alternate, so drift in
    // machine speed hits both alike.
    let (mut plain, mut t) = (Tally::default(), Tally::default());
    let start = Instant::now();
    while start.elapsed() < budget || t.pull.is_empty() {
        run_pass(&mut out, false, &mut plain)?;
        spans::set_enabled(true);
        let traced = run_pass(&mut out, true, &mut t);
        spans::set_enabled(false);
        traced?;
    }
    out.guard_unmodeled("ship traced", faults);
    let all = spans::take();
    crate::write_spans("ship", seed, &all);
    notes(&mut out, &plain);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.metric(
        "trace.overhead_pct",
        100.0 * (mean(&t.pull) / mean(&plain.pull) - 1.0),
    );
    for (p50, p90, v) in [
        ("ship.push_ms.p50", "ship.push_ms.p90", &plain.push),
        ("ship.pull_ms.p50", "ship.pull_ms.p90", &plain.pull),
    ] {
        out.metric(p50, quantile(v, 0.5));
        out.metric(p90, quantile(v, 0.9));
    }
    let d = |name| spans::durations_ms(&all, name);
    let mb = t.layout_bytes as f64 / 1e6;
    let secs = |v: Vec<f64>| v.iter().sum::<f64>() / 1e3;
    out.metric("oci.export_ms.p50", quantile(&d("oci.export"), 0.5));
    out.metric("oci.export_mbps", mb / secs(d("oci.export")));
    out.metric("registry.push_mbps", mb / secs(d("registry.push")));
    out.metric(
        "registry.pull_mbps",
        t.pulled_bytes as f64 / 1e6 / secs(d("registry.pull")),
    );
    out.metric(
        "registry.blob_skip_share",
        t.blobs_held as f64 / t.blobs.max(1) as f64,
    );
    crate::self_time_metrics(&mut out, &all, t.push.len());
    out.metric("fault.retries", zr_fault::counters().retries as f64);
    Ok(out)
}
