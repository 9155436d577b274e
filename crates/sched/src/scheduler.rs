//! The worker pool, its queues, the stage-DAG execution engine, and
//! per-build status tracking.
//!
//! A submitted batch decomposes each request into tasks. Single-stage
//! Dockerfiles (and anything that fails to plan — the builder then
//! reproduces the error) run as one *opaque* task, exactly the
//! pre-DAG behavior. Multi-stage Dockerfiles compile to a
//! [`BuildPlan`] and run as one task per retained stage: a stage task
//! is queued the moment every stage it depends on has an image, so
//! independent stages of one build overlap on different workers while
//! `COPY --from=` consumers wait for their producers. The per-stage
//! layer cache and the assembled log are byte-identical to a serial
//! [`Builder::build`] of the same file.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use zeroroot_core::sync::lock_or_poisoned;

use zr_build::{finish_log, BuildError, BuildOptions, BuildResult, Builder, CacheStats};
use zr_image::{Image, LayerStore, PullCost, RegistryBackend, ShardedRegistry};
use zr_kernel::Kernel;
use zr_plan::BuildPlan;

/// Queue class for one request. Half the worker pool is affine to each
/// class when both are populated: high-priority work never waits behind
/// a deep normal backlog, and an idle worker *steals* from the other
/// class rather than spinning (the steal count is observable on the
/// batch handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// The default FIFO queue.
    #[default]
    Normal,
    /// Drains first on the high-affinity workers; jumps ahead of every
    /// queued normal-priority build when only one worker exists.
    High,
}

/// One build in a batch: a Dockerfile plus its options, under a caller
/// chosen id (the id labels trace output and names the report).
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// Caller-chosen build id (also the default tag).
    pub id: String,
    /// Dockerfile text.
    pub dockerfile: String,
    /// Build options (tag, --force mode, cache policy, context, ...).
    pub options: BuildOptions,
    /// Queue class.
    pub priority: Priority,
}

impl BuildRequest {
    /// A normal-priority request with default options, tagged `id`.
    pub fn new(id: &str, dockerfile: &str) -> BuildRequest {
        let options = BuildOptions {
            tag: id.to_string(),
            ..BuildOptions::default()
        };
        BuildRequest {
            id: id.to_string(),
            dockerfile: dockerfile.to_string(),
            options,
            priority: Priority::Normal,
        }
    }

    /// A request with explicit options.
    pub fn with_options(id: &str, dockerfile: &str, options: BuildOptions) -> BuildRequest {
        BuildRequest {
            id: id.to_string(),
            dockerfile: dockerfile.to_string(),
            options,
            priority: Priority::Normal,
        }
    }

    /// Move this request to the high-priority queue.
    pub fn high_priority(mut self) -> BuildRequest {
        self.priority = Priority::High;
        self
    }
}

/// Where one build is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildStatus {
    /// Waiting in a queue.
    #[default]
    Queued,
    /// A worker is executing it (for a multi-stage build: at least one
    /// stage has started).
    Running,
    /// Finished successfully.
    Done,
    /// Finished successfully, but only by degrading: a `FROM` pull
    /// fell back to a locally cached base, or a stage succeeded on a
    /// retry after a worker panic. The result's image is real; the
    /// status flags that the batch was not fault-free.
    Degraded,
    /// Finished with a failure (the report's result says why).
    Failed,
    /// Never ran to completion: the batch (or this build) was cancelled
    /// while work was still queued.
    Cancelled,
}

impl BuildStatus {
    /// Has this build reached a final state (no further transitions)?
    pub fn terminal(self) -> bool {
        matches!(
            self,
            BuildStatus::Done
                | BuildStatus::Degraded
                | BuildStatus::Failed
                | BuildStatus::Cancelled
        )
    }

    /// Did the build produce its image (fault-free or degraded)?
    pub fn succeeded(self) -> bool {
        matches!(self, BuildStatus::Done | BuildStatus::Degraded)
    }
}

impl std::fmt::Display for BuildStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BuildStatus::Queued => "queued",
            BuildStatus::Running => "running",
            BuildStatus::Done => "done",
            BuildStatus::Degraded => "degraded",
            BuildStatus::Failed => "failed",
            BuildStatus::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// One event on a build's log subscription (see
/// [`BatchHandle::subscribe`]). Subscribers receive each completed
/// unit of work as it lands — per stage for a multi-stage build, the
/// whole log at once for a single-stage build — then a terminal
/// [`LogEvent::Done`]. Subscribing late replays what was missed.
#[derive(Debug, Clone)]
pub enum LogEvent {
    /// One completed unit's log lines.
    Stage {
        /// Request index within the batch.
        build: usize,
        /// Stage display name (alias or index; `"build"` for a
        /// single-stage build's whole log).
        stage: String,
        /// The log lines that unit produced.
        lines: Vec<String>,
    },
    /// The build reached a terminal status. The assembled, ordered log
    /// (with stage banners) is in the build's [`BuildReport`].
    Done {
        /// Request index within the batch.
        build: usize,
        /// Terminal status.
        status: BuildStatus,
    },
}

/// Scheduler construction knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads per batch (clamped to at least 1).
    pub jobs: usize,
    /// Cancel the rest of the batch when any build fails.
    pub fail_fast: bool,
    /// Shard count for the scheduler-owned registry.
    pub registry_shards: usize,
    /// Modeled network cost of registry pulls (benchmarks dial this up
    /// to measure how well workers overlap their pulls).
    pub pull_cost: PullCost,
    /// Layer-cache size budget in bytes (0 = unlimited).
    pub cache_limit: u64,
    /// Registry blob-cache byte budget (0 = unlimited): per-shard LRU
    /// eviction against one global counter.
    pub blob_budget: u64,
    /// Persistent layer-store directory (`--cache-dir`). When set, the
    /// shared layer store is backed by `zr-store`: every worker's
    /// layers are written through to disk, and a later scheduler (or
    /// another process) opening the same directory replays them.
    pub cache_dir: Option<std::path::PathBuf>,
    /// On-disk store size budget in bytes (`--store-limit`, 0 =
    /// unlimited): the persistent CAS under `cache_dir` evicts whole
    /// least-recently-pinned layer roots (and their dependents) until
    /// physical bytes fit. The disk-side mirror of `cache_limit`.
    /// `None` leaves whatever budget the store itself has persisted;
    /// `Some` overrides it (and the override is persisted in turn).
    pub store_limit: Option<u64>,
    /// Where the scheduler-owned registry fetches cache misses. `None`
    /// uses the built-in catalog (the simulator); `Some` plugs in a
    /// live backend such as `zr-registry`'s wire client, so `FROM`
    /// resolves against a real OCI distribution endpoint.
    pub backend: Option<Arc<dyn RegistryBackend>>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            fail_fast: false,
            registry_shards: ShardedRegistry::DEFAULT_SHARDS,
            pull_cost: PullCost::default(),
            cache_limit: 0,
            blob_budget: 0,
            cache_dir: None,
            store_limit: None,
            backend: None,
        }
    }
}

/// What one build in a batch produced.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The request's id.
    pub id: String,
    /// Terminal status ([`BuildStatus::Done`], `Failed`, or
    /// `Cancelled`).
    pub status: BuildStatus,
    /// The build result (synthesized with
    /// [`BuildError::Cancelled`] for builds that never ran).
    pub result: BuildResult,
    /// Syscall statistics from this build's private kernel (summed
    /// over the per-stage kernels of a multi-stage build).
    pub trace: zr_trace::Stats,
    /// Completion sequence within the batch (0 = finished first);
    /// `None` for cancelled builds.
    pub seq: Option<usize>,
}

/// One slot of batch state, indexed by request position.
#[derive(Debug, Default)]
struct Slot {
    status: BuildStatus,
    result: Option<BuildResult>,
    trace: Option<zr_trace::Stats>,
    seq: Option<usize>,
    /// Has the opaque whole-build log been streamed to subscribers?
    log_streamed: bool,
    /// Has the terminal [`LogEvent::Done`] been streamed?
    done_streamed: bool,
}

/// One schedulable unit: a whole build, or one stage of a planned
/// multi-stage build.
#[derive(Debug, Clone, Copy)]
struct Task {
    build: usize,
    /// `None` = opaque whole-build task.
    stage: Option<usize>,
}

/// Which queue class a worker drains first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Affinity {
    /// Prefer the high-priority queue; steal normal work when idle.
    High,
    /// Prefer the normal queue; steal high-priority work when idle.
    Normal,
}

/// The two task queues. `pop_for` takes from the worker's own class
/// first, FIFO, then *steals* the front of the other class — the
/// returned flag says whether the pop crossed classes.
#[derive(Debug, Default)]
struct Queues {
    high: VecDeque<Task>,
    normal: VecDeque<Task>,
}

impl Queues {
    fn push(&mut self, priority: Priority, task: Task) {
        match priority {
            Priority::High => self.high.push_back(task),
            Priority::Normal => self.normal.push_back(task),
        }
    }

    fn pop_for(&mut self, affinity: Affinity) -> Option<(Task, bool)> {
        let (own, other) = match affinity {
            Affinity::High => (&mut self.high, &mut self.normal),
            Affinity::Normal => (&mut self.normal, &mut self.high),
        };
        if let Some(task) = own.pop_front() {
            return Some((task, false));
        }
        other.pop_front().map(|task| (task, true))
    }

    fn is_empty(&self) -> bool {
        self.high.is_empty() && self.normal.is_empty()
    }
}

/// Wakeup channel between task producers (stage completions, batch
/// submission, cancellation) and idle workers. The timeout on the wait
/// bounds any lost-wakeup stall, so correctness never depends on a
/// perfectly placed `notify`.
#[derive(Default)]
struct WorkSignal {
    mutex: Mutex<()>,
    cond: Condvar,
}

impl WorkSignal {
    fn notify(&self) {
        let _guard = lock(&self.mutex);
        self.cond.notify_all();
    }

    /// Block until `ready()` holds, re-checking under the signal lock
    /// (so a notify between check and wait is never lost) and on a
    /// short timeout.
    fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        loop {
            if ready() {
                return;
            }
            let guard = lock(&self.mutex);
            if ready() {
                return;
            }
            let _unused = self
                .cond
                .wait_timeout(guard, Duration::from_millis(25))
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The DAG half of one multi-stage build: the compiled plan plus the
/// mutable stage bookkeeping every worker touching this build shares.
struct DagBuild {
    plan: BuildPlan,
    state: Mutex<DagState>,
}

/// Progress of one multi-stage build.
#[derive(Default)]
struct DagState {
    /// Result image per completed stage index.
    images: HashMap<usize, Image>,
    /// Log chunk per attempted stage index.
    logs: HashMap<usize, Vec<String>>,
    /// Stage indices whose log chunk was already streamed to
    /// subscribers (late subscribers replay these).
    streamed: BTreeSet<usize>,
    /// Summed cache counters across stages.
    stats: CacheStats,
    /// Summed `--force` RUN rewrites across stages.
    modified: u32,
    /// Summed syscall statistics across per-stage kernels.
    trace: zr_trace::Stats,
    /// Unreleased stages → number of incomplete dependencies.
    pending: HashMap<usize, usize>,
    /// Stages whose worker panicked once and were requeued. A second
    /// panic of the same stage fails the build like any stage error.
    panicked: BTreeSet<usize>,
    /// Stage tasks currently executing on workers.
    inflight: usize,
    /// Retained stages not yet completed successfully.
    remaining: usize,
    /// First stage failure (halts release of dependents).
    error: Option<BuildError>,
}

/// State shared by every worker of one batch.
struct BatchShared {
    requests: Vec<BuildRequest>,
    /// Parallel to `requests`: `Some` for planned multi-stage builds.
    dags: Vec<Option<DagBuild>>,
    queue: Mutex<Queues>,
    slots: Mutex<Vec<Slot>>,
    /// Completion counter (assigns `BuildReport::seq`).
    seq: AtomicUsize,
    /// Builds that reached a terminal status.
    completed: AtomicUsize,
    cancelled: AtomicBool,
    /// Per-build cancellation flags (input order).
    build_cancelled: Vec<AtomicBool>,
    fail_fast: bool,
    registry: Arc<ShardedRegistry>,
    layers: LayerStore,
    signal: WorkSignal,
    /// Tasks executing right now / the high-water mark of that gauge.
    running: AtomicUsize,
    peak: AtomicUsize,
    /// Cross-class queue pops (see [`Queues::pop_for`]).
    steals: AtomicUsize,
    /// Log subscribers per build index.
    subs: Mutex<HashMap<usize, Vec<mpsc::Sender<LogEvent>>>>,
}

impl BatchShared {
    fn is_complete(&self) -> bool {
        self.completed.load(Ordering::SeqCst) >= self.requests.len()
    }

    fn try_pop(&self, affinity: Affinity) -> Option<(Task, bool)> {
        lock(&self.queue).pop_for(affinity)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    lock_or_poisoned(m)
}

/// A failed [`BuildResult`] for a build that never ran.
fn synthesized_failure(tag: &str, error: BuildError) -> BuildResult {
    BuildResult {
        success: false,
        log: vec![format!("error: build failed: {error}")],
        image: None,
        modified_run_instructions: 0,
        tag: tag.to_string(),
        cache: zr_build::CacheStats::default(),
        degraded: false,
        error: Some(error),
    }
}

fn merge_trace(into: &mut zr_trace::Stats, from: &zr_trace::Stats) {
    into.total += from.total;
    into.privileged += from.privileged;
    into.faked += from.faked;
    into.failed += from.failed;
    into.emulated += from.emulated;
    into.filter_steps += from.filter_steps;
    for (name, count) in &from.by_sysno {
        *into.by_sysno.entry(name).or_insert(0) += count;
    }
}

/// Compile a request into a stage DAG, or `None` for the opaque
/// single-task path: single-stage files (the common case), parse
/// failures, and plan failures all go through [`Builder::build`],
/// which reproduces the error with its usual diagnostics.
fn plan_request(request: &BuildRequest) -> Option<DagBuild> {
    let df = zr_dockerfile::parse(&request.dockerfile).ok()?;
    df.base_image()?;
    let plan = BuildPlan::compile(&df, request.options.target.as_deref()).ok()?;
    if plan.order().len() < 2 {
        return None;
    }
    let mut pending = HashMap::new();
    for &i in plan.order() {
        let deps = &plan.stages()[i].deps;
        if !deps.is_empty() {
            pending.insert(i, deps.len());
        }
    }
    let remaining = plan.order().len();
    Some(DagBuild {
        state: Mutex::new(DagState {
            pending,
            remaining,
            ..DagState::default()
        }),
        plan,
    })
}

/// Assemble a batch: plan every request, seed the queues with opaque
/// tasks and dependency-free root stages, and allocate the slots.
fn make_batch(
    requests: Vec<BuildRequest>,
    fail_fast: bool,
    registry: Arc<ShardedRegistry>,
    layers: LayerStore,
) -> Arc<BatchShared> {
    let dags: Vec<Option<DagBuild>> = requests.iter().map(plan_request).collect();
    let mut queues = Queues::default();
    for (idx, request) in requests.iter().enumerate() {
        match &dags[idx] {
            Some(dag) => {
                for &i in dag.plan.order() {
                    if dag.plan.stages()[i].deps.is_empty() {
                        queues.push(
                            request.priority,
                            Task {
                                build: idx,
                                stage: Some(i),
                            },
                        );
                    }
                }
            }
            None => queues.push(
                request.priority,
                Task {
                    build: idx,
                    stage: None,
                },
            ),
        }
    }
    let slots = (0..requests.len()).map(|_| Slot::default()).collect();
    let build_cancelled = (0..requests.len())
        .map(|_| AtomicBool::new(false))
        .collect();
    Arc::new(BatchShared {
        requests,
        dags,
        queue: Mutex::new(queues),
        slots: Mutex::new(slots),
        seq: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        cancelled: AtomicBool::new(false),
        build_cancelled,
        fail_fast,
        registry,
        layers,
        signal: WorkSignal::default(),
        running: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
        steals: AtomicUsize::new(0),
        subs: Mutex::new(HashMap::new()),
    })
}

/// Record a build's terminal outcome exactly once: first caller wins,
/// later calls are no-ops. Assigns the completion `seq` (except to
/// cancellations, which never ran to completion), trips `fail_fast`,
/// bumps the completion counter, and streams the terminal event.
fn finalize(
    shared: &BatchShared,
    build: usize,
    status: BuildStatus,
    result: BuildResult,
    trace: zr_trace::Stats,
) {
    {
        let mut slots = lock(&shared.slots);
        let slot = &mut slots[build];
        if slot.status.terminal() {
            return;
        }
        slot.status = status;
        if status != BuildStatus::Cancelled {
            slot.seq = Some(shared.seq.fetch_add(1, Ordering::SeqCst));
        }
        slot.result = Some(result);
        slot.trace = Some(trace);
    }
    if status == BuildStatus::Failed && shared.fail_fast {
        shared.cancelled.store(true, Ordering::SeqCst);
    }
    // Stream the terminal event before ticking the completion counter,
    // so a `wait` that wakes on completion always finds it delivered.
    publish_done(shared, build);
    shared.completed.fetch_add(1, Ordering::SeqCst);
    shared.signal.notify();
}

/// Send `event` to every subscriber of `build`, dropping closed ones.
fn deliver(subs: &mut HashMap<usize, Vec<mpsc::Sender<LogEvent>>>, build: usize, event: &LogEvent) {
    if let Some(senders) = subs.get_mut(&build) {
        senders.retain(|tx| tx.send(event.clone()).is_ok());
    }
}

/// Stream one completed stage's log chunk (once — the `streamed` set
/// dedupes against late-subscriber replay, under the same lock order
/// `subs` → `state` that [`BatchHandle::subscribe`] uses).
fn publish_stage(shared: &BatchShared, build: usize, stage: usize) {
    let Some(dag) = shared.dags[build].as_ref() else {
        return;
    };
    let mut subs = lock(&shared.subs);
    let mut state = lock(&dag.state);
    if !state.streamed.insert(stage) {
        return;
    }
    let Some(lines) = state.logs.get(&stage) else {
        return;
    };
    let event = LogEvent::Stage {
        build,
        stage: dag.plan.stage_name(stage),
        lines: lines.clone(),
    };
    deliver(&mut subs, build, &event);
}

/// Stream the terminal event (and, for opaque builds, the whole log
/// first — their single "stage" completes when the build does).
fn publish_done(shared: &BatchShared, build: usize) {
    let mut subs = lock(&shared.subs);
    let mut slots = lock(&shared.slots);
    let slot = &mut slots[build];
    if !slot.status.terminal() {
        return;
    }
    if shared.dags[build].is_none() && !slot.log_streamed {
        slot.log_streamed = true;
        if let Some(result) = &slot.result {
            let event = LogEvent::Stage {
                build,
                stage: "build".into(),
                lines: result.log.clone(),
            };
            deliver(&mut subs, build, &event);
        }
    }
    if !slot.done_streamed {
        slot.done_streamed = true;
        let event = LogEvent::Done {
            build,
            status: slot.status,
        };
        deliver(&mut subs, build, &event);
    }
}

/// The pruning notes and per-stage banners + chunks, in plan order —
/// byte-identical to what a serial [`Builder::build`] logs, whatever
/// order the stages actually finished in.
fn assemble_dag_log(plan: &BuildPlan, logs: &HashMap<usize, Vec<String>>) -> Vec<String> {
    let mut log = Vec::new();
    for &p in plan.pruned() {
        log.push(format!("skipping unused stage: {}", plan.stage_name(p)));
    }
    let total = plan.order().len();
    for (pos, &idx) in plan.order().iter().enumerate() {
        let Some(lines) = logs.get(&idx) else {
            continue;
        };
        log.push(format!(
            "=== stage {} ({}/{}) ===",
            plan.stage_name(idx),
            pos + 1,
            total
        ));
        log.extend(lines.iter().cloned());
    }
    log
}

/// Finalize a fully built DAG: tag the target stage's image and close
/// the assembled log exactly like the serial builder. The status is
/// [`BuildStatus::Degraded`] when any stage used a base-image fallback
/// or succeeded only on a post-panic retry.
fn dag_success(shared: &BatchShared, build: usize, dag: &DagBuild) {
    let request = &shared.requests[build];
    let (status, result, trace) = {
        let state = lock(&dag.state);
        let image = state
            .images
            .get(&dag.plan.target())
            .expect("target stage built")
            .clone();
        let mut meta = image.meta.clone();
        meta.tag = request.options.tag.clone();
        let image = Image { meta, fs: image.fs };
        let mut log = assemble_dag_log(&dag.plan, &state.logs);
        let walked: usize = dag
            .plan
            .order()
            .iter()
            .map(|&i| dag.plan.stage_instructions(i).len())
            .sum();
        finish_log(&mut log, &request.options, state.modified, walked);
        let degraded = state.stats.base_fallbacks > 0 || !state.panicked.is_empty();
        (
            if degraded {
                BuildStatus::Degraded
            } else {
                BuildStatus::Done
            },
            BuildResult {
                success: true,
                log,
                image: Some(image),
                modified_run_instructions: state.modified,
                tag: request.options.tag.clone(),
                cache: state.stats,
                degraded,
                error: None,
            },
            state.trace.clone(),
        )
    };
    finalize(shared, build, status, result, trace);
}

/// Finalize a halted DAG (`Failed` after a stage error, `Cancelled`
/// otherwise) with whatever stage logs were produced.
fn dag_halted(shared: &BatchShared, build: usize, dag: &DagBuild, status: BuildStatus) {
    let request = &shared.requests[build];
    let (result, trace) = {
        let state = lock(&dag.state);
        let error = match status {
            BuildStatus::Failed => state.error.clone().unwrap_or(BuildError::Cancelled),
            _ => BuildError::Cancelled,
        };
        let mut log = assemble_dag_log(&dag.plan, &state.logs);
        log.push(format!("error: build failed: {error}"));
        (
            BuildResult {
                success: false,
                log,
                image: None,
                modified_run_instructions: state.modified,
                tag: request.options.tag.clone(),
                cache: state.stats,
                degraded: false,
                error: Some(error),
            },
            state.trace.clone(),
        )
    };
    finalize(shared, build, status, result, trace);
}

/// A popped task whose build (or batch) is already cancelled: end the
/// build now if no sibling stage is still running (the last running
/// sibling otherwise finalizes on completion).
fn cancel_task(shared: &BatchShared, task: Task) {
    match task.stage {
        None => finalize(
            shared,
            task.build,
            BuildStatus::Cancelled,
            synthesized_failure(
                &shared.requests[task.build].options.tag,
                BuildError::Cancelled,
            ),
            zr_trace::Stats::default(),
        ),
        Some(_) => {
            let dag = shared.dags[task.build]
                .as_ref()
                .expect("stage task without a plan");
            let idle = lock(&dag.state).inflight == 0;
            if idle {
                dag_halted(shared, task.build, dag, BuildStatus::Cancelled);
            }
        }
    }
}

/// Run one opaque request on a private kernel with shared
/// registry/cache handles. The kernel's tracer is labeled with the
/// build id so interleaved trace output from concurrent builds stays
/// attributable.
fn run_one(shared: &BatchShared, idx: usize) -> (BuildResult, zr_trace::Stats) {
    worker_fault_hooks();
    let request = &shared.requests[idx];
    let mut kernel = Kernel::default_kernel();
    kernel.trace.set_label(&request.id);
    let mut builder = Builder::with_shared(shared.registry.clone(), shared.layers.clone());
    let result = builder.build(&mut kernel, &request.dockerfile, &request.options);
    let trace = kernel.trace.stats();
    (result, trace)
}

fn execute_opaque(shared: &BatchShared, build: usize) {
    lock(&shared.slots)[build].status = BuildStatus::Running;
    let outcome = catch_unwind(AssertUnwindSafe(|| run_one(shared, build)));
    let (result, trace) = outcome.unwrap_or_else(|_| {
        let tag = &shared.requests[build].options.tag;
        (
            synthesized_failure(
                tag,
                BuildError::Instruction {
                    instruction: 0,
                    message: "builder panicked".into(),
                },
            ),
            zr_trace::Stats::default(),
        )
    });
    let status = if !result.success {
        BuildStatus::Failed
    } else if result.degraded {
        BuildStatus::Degraded
    } else {
        BuildStatus::Done
    };
    finalize(shared, build, status, result, trace);
}

/// The worker-side fault hooks, evaluated at the top of every task
/// body (inside the panic guard): `sched.stage.stall` parks the worker
/// for its argument in milliseconds, `sched.stage.panic` panics like a
/// builder bug would.
fn worker_fault_hooks() {
    if let Some(ms) = zr_fault::hit(zr_fault::points::SCHED_STAGE_STALL) {
        std::thread::sleep(Duration::from_millis(if ms == 0 { 50 } else { ms }));
    }
    if zr_fault::fires(zr_fault::points::SCHED_STAGE_PANIC) {
        panic!("injected worker panic");
    }
}

/// Execute one released stage on a private kernel, then advance the
/// build's DAG: release newly unblocked dependents, or finalize when
/// this was the last stage (successfully or not).
fn execute_stage(shared: &BatchShared, build: usize, stage: usize) {
    let dag = shared.dags[build]
        .as_ref()
        .expect("stage task without a plan");
    let deps = {
        let mut state = lock(&dag.state);
        if state.error.is_some() {
            // A sibling already failed this build — drop the task; if
            // nothing else is running the build can end now.
            let idle = state.inflight == 0;
            drop(state);
            if idle {
                dag_halted(shared, build, dag, BuildStatus::Failed);
            }
            return;
        }
        state.inflight += 1;
        let mut deps = HashMap::new();
        for &d in &dag.plan.stages()[stage].deps {
            if let Some(image) = state.images.get(&d) {
                deps.insert(d, image.clone());
            }
        }
        deps
    };
    {
        let mut slots = lock(&shared.slots);
        if slots[build].status == BuildStatus::Queued {
            slots[build].status = BuildStatus::Running;
        }
    }
    let request = &shared.requests[build];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        worker_fault_hooks();
        let mut kernel = Kernel::default_kernel();
        kernel
            .trace
            .set_label(&format!("{}:{}", request.id, dag.plan.stage_name(stage)));
        let mut builder = Builder::with_shared(shared.registry.clone(), shared.layers.clone());
        let mut log = Vec::new();
        let mut modified = 0u32;
        let mut stats = CacheStats::default();
        let result = builder.build_stage(
            &mut kernel,
            &dag.plan,
            stage,
            &request.options,
            &deps,
            &mut log,
            &mut modified,
            &mut stats,
        );
        (result, log, modified, stats, kernel.trace.stats())
    }));
    let panicked = outcome.is_err();
    let (result, log, modified, stats, trace) = outcome.unwrap_or_else(|_| {
        (
            Err(BuildError::Instruction {
                instruction: 0,
                message: "builder panicked".into(),
            }),
            Vec::new(),
            0,
            CacheStats::default(),
            zr_trace::Stats::default(),
        )
    });

    let mut released = Vec::new();
    let mut terminal = None;
    {
        let mut state = lock(&dag.state);
        state.inflight -= 1;
        // A panicked stage gets exactly one retry: the worker survived
        // (the panic was caught), the stage never recorded a result,
        // and the build's other stages are untouched — so requeue it
        // and let the batch proceed, marking the build degraded if it
        // ultimately succeeds. A second panic of the same stage fails
        // the build like any stage error.
        let halted = shared.cancelled.load(Ordering::SeqCst)
            || shared.build_cancelled[build].load(Ordering::SeqCst);
        if panicked && !halted && state.error.is_none() && state.panicked.insert(stage) {
            drop(state);
            zr_fault::count_panic_retried();
            lock(&shared.queue).push(
                request.priority,
                Task {
                    build,
                    stage: Some(stage),
                },
            );
            shared.signal.notify();
            return;
        }
        state.logs.insert(stage, log);
        state.stats.hits += stats.hits;
        state.stats.misses += stats.misses;
        state.stats.base_fallbacks += stats.base_fallbacks;
        state.modified += modified;
        merge_trace(&mut state.trace, &trace);
        match result {
            Ok(image) => {
                state.images.insert(stage, image);
                state.remaining -= 1;
                if state.remaining == 0 && state.error.is_none() {
                    terminal = Some(BuildStatus::Done);
                } else {
                    let halted = state.error.is_some()
                        || shared.cancelled.load(Ordering::SeqCst)
                        || shared.build_cancelled[build].load(Ordering::SeqCst);
                    if !halted {
                        // Plan order keeps the release (and therefore
                        // single-worker execution) order deterministic.
                        for &next in dag.plan.order() {
                            if !dag.plan.stages()[next].deps.contains(&stage) {
                                continue;
                            }
                            if let Some(count) = state.pending.get_mut(&next) {
                                *count -= 1;
                                if *count == 0 {
                                    released.push(next);
                                }
                            }
                        }
                        for &n in &released {
                            state.pending.remove(&n);
                        }
                    } else if state.inflight == 0 {
                        terminal = Some(if state.error.is_some() {
                            BuildStatus::Failed
                        } else {
                            BuildStatus::Cancelled
                        });
                    }
                }
            }
            Err(e) => {
                if state.error.is_none() {
                    state.error = Some(e);
                }
                if state.inflight == 0 {
                    terminal = Some(BuildStatus::Failed);
                }
            }
        }
    }
    publish_stage(shared, build, stage);
    if !released.is_empty() {
        {
            let mut queue = lock(&shared.queue);
            for &next in &released {
                queue.push(
                    request.priority,
                    Task {
                        build,
                        stage: Some(next),
                    },
                );
            }
        }
        shared.signal.notify();
    }
    match terminal {
        Some(BuildStatus::Done) => dag_success(shared, build, dag),
        Some(status) => dag_halted(shared, build, dag, status),
        None => {}
    }
}

/// Run one popped task end to end, maintaining the concurrency gauge.
/// Every outcome — success, failure, panic, cancellation — lands in
/// the build's slot; nothing a build does can poison its neighbors.
fn run_task(shared: &BatchShared, task: Task) {
    if shared.cancelled.load(Ordering::SeqCst)
        || shared.build_cancelled[task.build].load(Ordering::SeqCst)
    {
        cancel_task(shared, task);
        return;
    }
    let running = shared.running.fetch_add(1, Ordering::SeqCst) + 1;
    shared.peak.fetch_max(running, Ordering::SeqCst);
    match task.stage {
        None => execute_opaque(shared, task.build),
        Some(stage) => execute_stage(shared, task.build, stage),
    }
    shared.running.fetch_sub(1, Ordering::SeqCst);
}

/// One batch worker: pop and run tasks until every build in the batch
/// is terminal. Unlike the pre-DAG engine, an empty queue is *not*
/// the end — stage completions release new tasks — so idle workers
/// park on the batch signal.
fn worker(shared: &Arc<BatchShared>, affinity: Affinity) {
    loop {
        match shared.try_pop(affinity) {
            Some((task, stolen)) => {
                if stolen {
                    shared.steals.fetch_add(1, Ordering::SeqCst);
                }
                run_task(shared, task);
            }
            None => {
                if shared.is_complete() {
                    return;
                }
                shared
                    .signal
                    .wait_until(|| !lock(&shared.queue).is_empty() || shared.is_complete());
            }
        }
    }
}

/// A submitted batch: poll statuses, cancel, subscribe to logs, and
/// wait for the reports.
pub struct BatchHandle {
    shared: Arc<BatchShared>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchHandle {
    /// Current status of request `idx` (input order).
    pub fn status(&self, idx: usize) -> Option<BuildStatus> {
        lock(&self.shared.slots).get(idx).map(|s| s.status)
    }

    /// Current status of every request, in input order.
    pub fn statuses(&self) -> Vec<BuildStatus> {
        lock(&self.shared.slots).iter().map(|s| s.status).collect()
    }

    /// Cancel every build that has not started yet. Running builds
    /// (and running stages) finish; queued work ends
    /// [`BuildStatus::Cancelled`]. For a multi-stage build this
    /// cancels its queued *descendant stages* too: completed stages
    /// stop releasing dependents the moment the flag is up.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::SeqCst);
        self.shared.signal.notify();
    }

    /// Cancel one build by request index. Its queued tasks (including
    /// not-yet-released stages) never run; stages already on a worker
    /// finish, and the last one finalizes the build as `Cancelled`.
    /// Other builds in the batch are untouched.
    pub fn cancel_build(&self, idx: usize) {
        let Some(flag) = self.shared.build_cancelled.get(idx) else {
            return;
        };
        flag.store(true, Ordering::SeqCst);
        match self.shared.dags[idx].as_ref() {
            Some(dag) => {
                let idle = lock(&dag.state).inflight == 0;
                if idle {
                    dag_halted(&self.shared, idx, dag, BuildStatus::Cancelled);
                }
            }
            None => {
                let queued = lock(&self.shared.slots)[idx].status == BuildStatus::Queued;
                if queued {
                    finalize(
                        &self.shared,
                        idx,
                        BuildStatus::Cancelled,
                        synthesized_failure(
                            &self.shared.requests[idx].options.tag,
                            BuildError::Cancelled,
                        ),
                        zr_trace::Stats::default(),
                    );
                }
            }
        }
        self.shared.signal.notify();
    }

    /// High-water mark of tasks executing at once — ≥ 2 proves that
    /// independent stages (or builds) actually overlapped.
    pub fn peak_concurrency(&self) -> usize {
        self.shared.peak.load(Ordering::SeqCst)
    }

    /// How many queue pops crossed priority classes (an idle worker
    /// taking the other class's work instead of parking).
    pub fn steals(&self) -> usize {
        self.shared.steals.load(Ordering::SeqCst)
    }

    /// Subscribe to build `idx`'s log stream: one
    /// [`LogEvent::Stage`] per completed stage (the whole log at once
    /// for single-stage builds), then [`LogEvent::Done`]. Subscribing
    /// after work started replays every event already streamed, so the
    /// receiver always sees a complete history.
    pub fn subscribe(&self, idx: usize) -> mpsc::Receiver<LogEvent> {
        let (tx, rx) = mpsc::channel();
        let shared = &self.shared;
        let mut subs = lock(&shared.subs);
        if let Some(dag) = shared.dags.get(idx).and_then(|d| d.as_ref()) {
            let state = lock(&dag.state);
            for &s in dag.plan.order() {
                if state.streamed.contains(&s) {
                    if let Some(lines) = state.logs.get(&s) {
                        let _ = tx.send(LogEvent::Stage {
                            build: idx,
                            stage: dag.plan.stage_name(s),
                            lines: lines.clone(),
                        });
                    }
                }
            }
        }
        {
            let slots = lock(&shared.slots);
            if let Some(slot) = slots.get(idx) {
                if slot.log_streamed {
                    if let Some(result) = &slot.result {
                        let _ = tx.send(LogEvent::Stage {
                            build: idx,
                            stage: "build".into(),
                            lines: result.log.clone(),
                        });
                    }
                }
                if slot.done_streamed {
                    let _ = tx.send(LogEvent::Done {
                        build: idx,
                        status: slot.status,
                    });
                }
            }
        }
        subs.entry(idx).or_default().push(tx);
        rx
    }

    /// Block until every build is terminal and return one report per
    /// request, in input order.
    pub fn wait(self) -> Vec<BuildReport> {
        self.shared.signal.wait_until(|| {
            self.shared.is_complete() || self.workers.iter().all(|w| w.is_finished())
        });
        for w in self.workers {
            let _ = w.join();
        }
        // Belt and braces: if a worker died outside the panic guard,
        // drain and cancel whatever it left queued.
        while let Some((task, _)) = self.shared.try_pop(Affinity::Normal) {
            cancel_task(&self.shared, task);
        }
        let mut slots = lock(&self.shared.slots);
        self.shared
            .requests
            .iter()
            .zip(slots.iter_mut())
            .map(|(request, slot)| {
                let status = match slot.status {
                    BuildStatus::Queued | BuildStatus::Running => BuildStatus::Cancelled,
                    terminal => terminal,
                };
                let result = slot.result.take().unwrap_or_else(|| {
                    synthesized_failure(&request.options.tag, BuildError::Cancelled)
                });
                BuildReport {
                    id: request.id.clone(),
                    status,
                    result,
                    trace: slot.trace.take().unwrap_or_default(),
                    seq: slot.seq,
                }
            })
            .collect()
    }
}

/// The build scheduler: a configurable worker pool over one shared
/// registry and one shared layer cache.
///
/// Each `submit`/`build_many` spawns its own workers and the batch's
/// [`BatchHandle::wait`] joins them, so no thread outlives its batch.
/// The registry's pull-through blob cache and the layer store belong to
/// the scheduler, not the batch: a second batch of familiar Dockerfiles
/// on the same scheduler replays instead of executing.
pub struct Scheduler {
    config: SchedulerConfig,
    registry: Arc<ShardedRegistry>,
    layers: LayerStore,
    /// The persistent tier behind `cache_dir`, kept so callers can
    /// surface absorbed store errors and stats (persist failures must
    /// not fail builds, but they must not be invisible either).
    disk: Option<Arc<zr_store::DiskLayers>>,
}

impl Scheduler {
    /// A scheduler with its own registry and layer cache, built from
    /// `config`. Panics if `config.cache_dir` cannot be opened — use
    /// [`try_new`](Self::try_new) to surface store errors.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        Scheduler::try_new(config).expect("cannot open --cache-dir store")
    }

    /// [`new`](Self::new), with persistent-store failures returned
    /// instead of panicking.
    pub fn try_new(config: SchedulerConfig) -> zr_store::Result<Scheduler> {
        let registry = Arc::new(match &config.backend {
            Some(backend) => ShardedRegistry::with_backend(
                config.registry_shards,
                config.pull_cost,
                backend.clone(),
            ),
            None => ShardedRegistry::with_cost(config.registry_shards, config.pull_cost),
        });
        registry.set_blob_budget(config.blob_budget);
        let (layers, disk) = match &config.cache_dir {
            Some(dir) => {
                let (layers, disk) = zr_store::open_layer_store(dir)?;
                layers.set_budget(config.cache_limit);
                // No flag given → keep the budget the store persisted
                // at its last `--store-limit`; an explicit flag wins
                // and is re-persisted by `set_budget`.
                if let Some(limit) = config.store_limit {
                    disk.cas().set_budget(limit)?;
                }
                (layers, Some(disk))
            }
            None => (LayerStore::with_budget(config.cache_limit), None),
        };
        Ok(Scheduler {
            config,
            registry,
            layers,
            disk,
        })
    }

    /// The shared registry handle.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        &self.registry
    }

    /// The shared layer-cache handle.
    pub fn layers(&self) -> &LayerStore {
        &self.layers
    }

    /// The persistent store tier, when the scheduler was built with a
    /// `cache_dir` (error counters, CAS stats, gc).
    pub fn disk(&self) -> Option<&Arc<zr_store::DiskLayers>> {
        self.disk.as_ref()
    }

    /// Enqueue a batch and return immediately with a [`BatchHandle`].
    ///
    /// The worker count is `jobs` clamped to the batch's task width —
    /// the total stage count, not the request count, so a single
    /// multi-stage build still gets enough workers to overlap its
    /// independent stages.
    pub fn submit(&self, requests: Vec<BuildRequest>) -> BatchHandle {
        let has_high = requests.iter().any(|r| r.priority == Priority::High);
        let shared = make_batch(
            requests,
            self.config.fail_fast,
            self.registry.clone(),
            self.layers.clone(),
        );
        let width: usize = shared
            .dags
            .iter()
            .map(|d| d.as_ref().map_or(1, |dag| dag.plan.order().len()))
            .sum();
        let n = self.config.jobs.max(1).min(width.max(1));
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // With both classes populated, the first half of the
                // pool is affine to high-priority work (a lone worker
                // drains high first — strict priority, as before).
                let affinity = if has_high && i < n.div_ceil(2) {
                    Affinity::High
                } else {
                    Affinity::Normal
                };
                std::thread::spawn(move || worker(&shared, affinity))
            })
            .collect();
        BatchHandle { shared, workers }
    }

    /// Build a whole batch and block for its reports, in input order.
    pub fn build_many(&self, requests: Vec<BuildRequest>) -> Vec<BuildReport> {
        self.submit(requests).wait()
    }
}
