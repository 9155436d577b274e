//! Stage-DAG scheduling: determinism, stage overlap, cancellation
//! across the DAG, work stealing, and per-stage log streaming.

use std::time::Duration;

use zeroroot_core::Mode;
use zr_build::BuildOptions;
use zr_fault::{points, FaultPlan};
use zr_image::PullCost;
use zr_sched::{
    BatchHandle, BuildReport, BuildRequest, BuildStatus, LogEvent, Scheduler, SchedulerConfig,
};

/// The canonical diamond: two independent middle stages off one base,
/// joined by `COPY --from=`. The middle stages install packages under
/// seccomp, so they are heavy enough to measurably overlap.
const DIAMOND: &str = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
                       FROM base AS left\nRUN apk add sl && echo l > /left\n\
                       FROM base AS right\nRUN apk add fakeroot && echo r > /right\n\
                       FROM alpine:3.19\n\
                       COPY --from=left /left /left\n\
                       COPY --from=right /right /right\n\
                       COPY --from=base /shared /shared\n";

fn diamond_request(id: &str) -> BuildRequest {
    BuildRequest::with_options(id, DIAMOND, BuildOptions::new(id, Mode::Seccomp))
}

fn scheduler(jobs: usize) -> Scheduler {
    Scheduler::new(SchedulerConfig {
        jobs,
        ..SchedulerConfig::default()
    })
}

fn terminal(s: &BuildStatus) -> bool {
    matches!(
        s,
        BuildStatus::Done | BuildStatus::Failed | BuildStatus::Cancelled
    )
}

/// Poll the handle until every build is terminal, tracking the peak
/// concurrency gauge and the steal counter, then wait for the reports.
fn wait_tracking(handle: BatchHandle, peak: &mut usize, steals: &mut usize) -> Vec<BuildReport> {
    loop {
        *peak = (*peak).max(handle.peak_concurrency());
        *steals = (*steals).max(handle.steals());
        if handle.statuses().iter().all(terminal) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    *peak = (*peak).max(handle.peak_concurrency());
    *steals = (*steals).max(handle.steals());
    handle.wait()
}

#[test]
fn diamond_parallel_digest_and_log_match_serial() {
    let serial = scheduler(1).build_many(vec![diamond_request("d")]);
    let parallel = scheduler(8).build_many(vec![diamond_request("d")]);
    let s = &serial[0];
    let p = &parallel[0];
    assert_eq!(s.status, BuildStatus::Done, "{}", s.result.log_text());
    assert_eq!(p.status, BuildStatus::Done, "{}", p.result.log_text());
    assert_eq!(
        s.result.image.as_ref().unwrap().digest(),
        p.result.image.as_ref().unwrap().digest(),
        "digest must not depend on jobs"
    );
    // The assembled log is byte-identical too: stage banners come in
    // plan order whatever order the workers finished in.
    assert_eq!(s.result.log_text(), p.result.log_text());
    assert!(s.result.log_text().contains("=== stage left (2/4) ==="));
}

#[test]
fn diamond_overlaps_independent_stages() {
    // left and right are released together once base lands. Stages
    // finish far too fast to overlap by chance, so every stage task
    // parks for 50 ms before it runs. The parked task already counts
    // on the concurrency gauge (`run_task` raises it before the task
    // body, where the stall hook sits), so with 8 workers the two
    // middle stages are in flight together on every run. (The plan is
    // process-wide: another test of this binary running meanwhile
    // stalls too, which only slows it.)
    let _stall =
        zr_fault::install(&FaultPlan::new().counted(points::SCHED_STAGE_STALL, u64::MAX, 0, 50));
    let sched = scheduler(8);
    let handle = sched.submit(vec![diamond_request("d")]);
    let (mut peak, mut steals) = (0, 0);
    let reports = wait_tracking(handle, &mut peak, &mut steals);
    assert_eq!(reports[0].status, BuildStatus::Done);
    assert!(peak >= 2, "independent stages never overlapped: {peak}");
}

#[test]
fn dag_warm_rebuild_replays_everything() {
    let sched = scheduler(4);
    let cold = sched.build_many(vec![diamond_request("d")]);
    assert_eq!(
        cold[0].status,
        BuildStatus::Done,
        "{}",
        cold[0].result.log_text()
    );
    assert_eq!(cold[0].result.cache.hits, 0, "cold build executes");
    let warm = sched.build_many(vec![diamond_request("d")]);
    assert_eq!(
        warm[0].result.cache.misses,
        0,
        "{}",
        warm[0].result.log_text()
    );
    assert_eq!(
        cold[0].result.image.as_ref().unwrap().digest(),
        warm[0].result.image.as_ref().unwrap().digest()
    );
}

#[test]
fn cancel_cancels_queued_descendant_stages() {
    // One worker and modeled pull latency: the cancel lands while the
    // base stage is still pulling, so the dependent stages — released
    // only on completion — must never run.
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        pull_cost: PullCost {
            round_trip: Duration::from_millis(30),
            fetch: Duration::from_millis(30),
        },
        ..SchedulerConfig::default()
    });
    let handle = sched.submit(vec![diamond_request("d")]);
    handle.cancel();
    let reports = handle.wait();
    assert_eq!(reports[0].status, BuildStatus::Cancelled);
    assert_eq!(
        reports[0].result.error,
        Some(zr_build::BuildError::Cancelled)
    );
    let log = reports[0].result.log_text();
    assert!(
        !log.contains("=== stage left") && !log.contains("=== stage right"),
        "descendant stages must not have started:\n{log}"
    );
}

#[test]
fn fail_fast_stops_releasing_stages_and_cancels_neighbors() {
    // Build 0 (high priority, single worker → runs first) fails in its
    // base stage: its own dependent stage must never be released, and
    // fail_fast must cancel the still-queued neighbor build.
    let failing = "FROM alpine:3.19 AS base\nRUN exit 1\n\
                   FROM alpine:3.19\nCOPY --from=base /nope /nope\n";
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        fail_fast: true,
        ..SchedulerConfig::default()
    });
    let bad = BuildRequest::new("bad", failing).high_priority();
    let reports = sched.build_many(vec![bad, diamond_request("ok")]);
    assert_eq!(reports[0].status, BuildStatus::Failed);
    assert!(
        matches!(
            reports[0].result.error,
            Some(zr_build::BuildError::RunFailed { status: 1, .. })
        ),
        "{:?}",
        reports[0].result.error
    );
    let log = reports[0].result.log_text();
    assert!(log.contains("=== stage base"), "{log}");
    assert_eq!(
        log.matches("=== stage ").count(),
        1,
        "failed stage must not release its dependent:\n{log}"
    );
    assert_eq!(reports[1].status, BuildStatus::Cancelled);
    assert!(reports[1].seq.is_none());
}

#[test]
fn failing_stage_lets_finished_sibling_keep_stable_layers() {
    // `right` is declared before `left`, so the single worker builds
    // it first; `left` then fails the build. The sibling's layers must
    // survive: a --target=right build afterwards replays fully warm
    // and digests identically to one from a fresh scheduler.
    let df = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
              FROM base AS right\nRUN echo r > /right\n\
              FROM base AS left\nRUN exit 1\n\
              FROM alpine:3.19\n\
              COPY --from=right /right /right\n\
              COPY --from=left /shared /shared\n";
    let sched = scheduler(1);
    let failed = sched.build_many(vec![BuildRequest::new("d", df)]);
    assert_eq!(failed[0].status, BuildStatus::Failed);
    let log = failed[0].result.log_text();
    assert!(log.contains("=== stage right"), "{log}");

    let right_only = || {
        let mut opts = BuildOptions::new("right-only", Mode::None);
        opts.target = Some("right".into());
        BuildRequest::with_options("right-only", df, opts)
    };
    let warm = sched.build_many(vec![right_only()]);
    assert_eq!(
        warm[0].status,
        BuildStatus::Done,
        "{}",
        warm[0].result.log_text()
    );
    assert_eq!(
        warm[0].result.cache.misses,
        0,
        "sibling layers replay warm: {}",
        warm[0].result.log_text()
    );

    let fresh = scheduler(1).build_many(vec![right_only()]);
    assert_eq!(
        warm[0].result.image.as_ref().unwrap().digest(),
        fresh[0].result.image.as_ref().unwrap().digest(),
        "sibling digest is stable across the failed run"
    );
}

#[test]
fn cancel_build_leaves_the_rest_of_the_batch_alone() {
    // Single worker: build 0 occupies it; build 1's root stage is
    // still queued when we cancel just that build.
    let sched = Scheduler::new(SchedulerConfig {
        jobs: 1,
        pull_cost: PullCost {
            round_trip: Duration::from_millis(20),
            fetch: Duration::from_millis(20),
        },
        ..SchedulerConfig::default()
    });
    let handle = sched.submit(vec![diamond_request("keep"), diamond_request("drop")]);
    handle.cancel_build(1);
    let reports = handle.wait();
    assert_eq!(
        reports[0].status,
        BuildStatus::Done,
        "{}",
        reports[0].result.log_text()
    );
    assert_eq!(reports[1].status, BuildStatus::Cancelled);
    assert_eq!(
        reports[1].result.error,
        Some(zr_build::BuildError::Cancelled)
    );
    assert!(reports[1].seq.is_none());
}

#[test]
fn lone_worker_steals_across_priority_classes() {
    // One worker, mixed classes: after draining its own (high) queue
    // it must steal the normal work rather than park, and the handle
    // counts those cross-class pops.
    let requests = vec![
        BuildRequest::new("n0", "FROM alpine:3.19\nRUN true\n"),
        BuildRequest::new("n1", "FROM alpine:3.19\nRUN true\n"),
        BuildRequest::new("urgent", "FROM alpine:3.19\nRUN true\n").high_priority(),
    ];
    let sched = scheduler(1);
    let handle = sched.submit(requests);
    let (mut peak, mut steals) = (0, 0);
    let reports = wait_tracking(handle, &mut peak, &mut steals);
    assert_eq!(reports[2].seq, Some(0), "high priority still first");
    assert!(steals >= 2, "both normal builds were stolen, saw {steals}");
    assert!(reports.iter().all(|r| r.status == BuildStatus::Done));
}

#[test]
fn uniform_class_batches_never_steal() {
    let sched = scheduler(4);
    let handle = sched.submit(vec![diamond_request("a"), diamond_request("b")]);
    let (mut peak, mut steals) = (0, 0);
    let reports = wait_tracking(handle, &mut peak, &mut steals);
    assert!(reports.iter().all(|r| r.status == BuildStatus::Done));
    assert_eq!(steals, 0, "all-normal batches have nothing to steal");
}

#[test]
fn daemon_streams_per_stage_logs() {
    let sched = scheduler(2);
    let handle = sched.submit(vec![diamond_request("d")]);
    let rx = handle.subscribe(0);
    let mut stages = Vec::new();
    let mut done = None;
    // Late subscription replays anything already streamed, so this
    // loop always sees the complete history ending in Done.
    for event in rx.iter() {
        match event {
            LogEvent::Stage { stage, lines, .. } => {
                assert!(!lines.is_empty(), "stage {stage} streamed an empty chunk");
                stages.push(stage);
            }
            LogEvent::Done { status, .. } => {
                done = Some(status);
                break;
            }
        }
    }
    assert_eq!(done, Some(BuildStatus::Done));
    for expected in ["base", "left", "right"] {
        assert!(
            stages.iter().any(|s| s == expected),
            "missing stage chunk {expected}: {stages:?}"
        );
    }
    let reports = handle.wait();
    assert_eq!(reports[0].status, BuildStatus::Done);
}
