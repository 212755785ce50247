//! Every call the benchmark makes into the repo, one function per layer
//! call, and nothing else.
//!
//! No other file of the benchmark names a `stats_*` or `crossbeam` item.
//! When an entry point of the repo is renamed or reshaped, this file
//! absorbs it in a benchmark-only change that lands first, so that the
//! change under measurement never has to edit the benchmark.

use crossbeam::channel::{bounded, Receiver, Sender};
use stats_core::rng::StreamRole;
use stats_core::runtime::pool::{PoolScope, StatePool, WorkerPool};
use stats_core::runtime::sequential;
use stats_core::runtime::simulated::{build_task_graph, GraphOptions, SimulatedRuntime};
use stats_core::runtime::threaded::{run_threaded_faulted_on, run_threaded_on};
use stats_core::{ChunkDecision, CowBox, FaultSite, SpeculationOutcome, StatsRng};
use stats_platform::TaskGraph;
use stats_telemetry::{Counter, Event, Profiler, TelemetrySink, WallProfile};
use stats_trace::Category;
use stats_workloads::facedet_and_track::FaceDetAndTrack;
use stats_workloads::streamclassifier::StreamClassifier;
use stats_workloads::streamcluster::StreamCluster;
use stats_workloads::swaptions::Swaptions;

pub use stats_core::{Config, FaultPlan};
pub use stats_telemetry::json::JsonObject;
pub use stats_workloads::Workload;

pub type Pool = WorkerPool;
pub type Sink = TelemetrySink;
pub type Outcome<O> = SpeculationOutcome<O>;
pub type Rng = StatsRng;
pub type Graph = TaskGraph;

// --- workloads -----------------------------------------------------------

pub fn swaptions() -> Swaptions {
    Swaptions::paper()
}

pub fn stream_classifier() -> StreamClassifier {
    StreamClassifier::paper()
}

pub fn face_det_and_track() -> FaceDetAndTrack {
    FaceDetAndTrack::paper()
}

pub fn stream_cluster() -> StreamCluster {
    StreamCluster::paper()
}

pub fn generate_inputs<W: Workload>(w: &W, n: usize, seed: u64) -> Vec<W::Input> {
    w.generate_inputs(n, seed)
}

pub fn tuned_config<W: Workload>(w: &W, cores: usize) -> Config {
    w.tuned_config(cores)
}

pub fn quality<W: Workload>(w: &W, inputs: &[W::Input], outputs: &[W::Output]) -> f64 {
    w.quality(inputs, outputs)
}

pub fn state_bytes<W: Workload>(w: &W) -> usize {
    w.state_bytes()
}

#[inline]
pub fn states_match<W: Workload>(w: &W, a: &W::State, b: &W::State) -> bool {
    w.states_match(a, b)
}

#[inline]
pub fn state_clone<W: Workload>(state: &W::State) -> W::State {
    state.clone()
}

// --- core::config ----------------------------------------------------------

pub fn stats_only(chunks: usize, lookback: usize, extra_states: usize) -> Config {
    Config::stats_only(chunks, lookback, extra_states)
}

pub fn with_breadth_and_overlap(config: Config, breadth: usize) -> Config {
    config.with_breadth(breadth).with_overlap(true)
}

pub fn validate(config: &Config, inputs: usize) -> Result<(), String> {
    config.validate(inputs).map_err(|e| e.to_string())
}

// --- core::runtime::sequential, core::speculation --------------------------

/// The sequential program's result.
pub struct Sequential<W: Workload> {
    pub outputs: Vec<W::Output>,
    pub final_state: W::State,
    pub work: u64,
}

pub fn run_sequential<W: Workload>(w: &W, inputs: &[W::Input], seed: u64) -> Sequential<W> {
    let run = sequential::run_sequential(w, inputs, seed);
    Sequential {
        outputs: run.outputs,
        final_state: run.final_state,
        work: run.cost.work,
    }
}

pub fn run_speculative<W: Workload>(
    w: &W,
    inputs: &[W::Input],
    config: Config,
    seed: u64,
) -> Outcome<W::Output> {
    stats_core::run_speculative(w, inputs, config, seed)
}

/// One letter per chunk: `F`irst, `C`ommitted, `A`borted.
fn decision_string(decisions: impl Iterator<Item = ChunkDecision>) -> String {
    decisions
        .map(|d| match d {
            ChunkDecision::First => 'F',
            ChunkDecision::Committed => 'C',
            ChunkDecision::Aborted => 'A',
        })
        .collect()
}

pub fn outcome_decisions<O>(outcome: &Outcome<O>) -> String {
    decision_string(outcome.chunks.iter().map(|c| c.decision))
}

pub fn outcome_commit_rate<O>(outcome: &Outcome<O>) -> f64 {
    outcome.commit_rate()
}

pub fn outcome_realized_work<O>(outcome: &Outcome<O>) -> u64 {
    outcome.realized_work()
}

// --- core::runtime::pool, core::runtime::threaded, core::fault -------------

pub fn pool_new(workers: usize) -> Pool {
    WorkerPool::new(workers)
}

pub fn fault_plan(seed: u64, count: usize, config: &Config, inputs: usize) -> FaultPlan {
    FaultPlan::seeded(seed, count, config, inputs)
}

/// Looks up a site no plan addresses.
#[inline]
pub fn fault_fires_miss(plan: &FaultPlan) -> bool {
    let absent = FaultSite::Transfer { chunk: usize::MAX };
    plan.fires(absent, 0).is_some()
}

/// What a run under test decided and produced.
pub struct Run<O> {
    pub decisions: String,
    pub outputs: Vec<O>,
}

pub fn run_threaded<W: Workload>(
    pool: &Pool,
    w: &W,
    inputs: &[W::Input],
    config: Config,
    seed: u64,
    faults: Option<&FaultPlan>,
    sink: Option<&Sink>,
) -> Run<W::Output> {
    let run = match faults {
        Some(plan) => run_threaded_faulted_on(pool, w, inputs, config, seed, plan, sink),
        None => run_threaded_on(pool, w, inputs, config, seed, sink),
    };
    Run {
        decisions: decision_string(run.decisions.into_iter()),
        outputs: run.outputs,
    }
}

// --- telemetry ---------------------------------------------------------------

/// Counters only, as the simulated runtime records them.
pub fn counting_sink(chunks: usize) -> Sink {
    TelemetrySink::new(chunks)
}

/// Counters plus the wall-clock span profiler, as a traced threaded run
/// takes it.
pub fn profiling_sink(chunks: usize, workers: usize) -> Sink {
    TelemetrySink::new(chunks).with_profiler(Profiler::new(workers))
}

/// `threaded.*_ms` metric of each category the pooled runtime records.
const CATEGORY_METRICS: [(Category, &str); 9] = [
    (Category::Setup, "threaded.setup_ms"),
    (Category::AltProducer, "threaded.alt_producer_ms"),
    (Category::OriginalStateGen, "threaded.original_state_gen_ms"),
    (Category::StateComparison, "threaded.state_comparison_ms"),
    (Category::StateCopy, "threaded.state_copy_ms"),
    (Category::Sync, "threaded.sync_ms"),
    (Category::ChunkCompute, "threaded.chunk_compute_ms"),
    (Category::AbortedCompute, "threaded.aborted_compute_ms"),
    (Category::Commit, "threaded.commit_ms"),
];

/// Where one traced run's wall time went.
pub struct Profile {
    /// Nanoseconds per category, under the category's metric name.
    pub category_ns: Vec<(&'static str, u64)>,
    /// Nanoseconds of all spans recorded on pool workers (the
    /// coordinator's spans excluded).
    pub worker_side_ns: u64,
    pub spans_recorded: usize,
    pub spans_dropped: u64,
}

/// Drain the sink's profiler after a run that made `decisions` and took
/// `elapsed_ns`.
pub fn wall_profile(sink: &Sink, decisions: &str, config: &Config, elapsed_ns: u64) -> Profile {
    let profiler = sink.profiler().expect("a profiling sink");
    let workers = profiler.workers();
    let aborted = decisions.chars().map(|d| d == 'A').collect();
    let profile =
        WallProfile::assemble_with_breadth(profiler, aborted, config.spec_breadth, elapsed_ns);
    Profile {
        category_ns: CATEGORY_METRICS
            .iter()
            .map(|&(category, metric)| (metric, profile.category_ns(category)))
            .collect(),
        worker_side_ns: profile
            .spans
            .iter()
            .filter(|s| (s.worker as usize) < workers)
            .map(|s| s.duration_ns())
            .sum(),
        spans_recorded: profile.spans.len(),
        spans_dropped: profile.dropped,
    }
}

/// Metric of each counter that must repeat exactly for one seed.
const COUNTER_METRICS: [(Counter, &str); 14] = [
    (Counter::ChunksCommitted, "threaded.chunks_committed"),
    (Counter::ChunksAborted, "threaded.chunks_aborted"),
    (Counter::Reruns, "threaded.reruns"),
    (Counter::RerunSegments, "threaded.rerun_segments"),
    (Counter::SpecCandidates, "threaded.spec_candidates"),
    (Counter::CandidateHits, "threaded.candidate_hits"),
    (Counter::ReplicasValidated, "threaded.replicas_validated"),
    (Counter::StateCopies, "threaded.state_copies"),
    (Counter::StateComparisons, "threaded.state_comparisons"),
    (Counter::StateBytesLogical, "snapshot.bytes_logical"),
    (Counter::StateBytesCopied, "snapshot.bytes_copied"),
    (Counter::FaultsInjected, "fault.faults_injected"),
    (Counter::RetriesScheduled, "fault.retries_scheduled"),
    (Counter::WorkersLost, "fault.workers_lost"),
];

/// A quiesced sink's counters.
pub struct Counters {
    /// Exact counts, under their metric names.
    pub exact: Vec<(&'static str, u64)>,
    /// Wall-valued: nanoseconds on threads, cycles when simulated.
    pub busy: u64,
}

pub fn counters(sink: &Sink) -> Counters {
    let snap = sink.snapshot();
    Counters {
        exact: COUNTER_METRICS
            .iter()
            .map(|&(counter, metric)| (metric, snap.get(counter)))
            .collect(),
        busy: snap.get(Counter::BusyTime),
    }
}

#[inline]
pub fn sink_counter_add(sink: &Sink) {
    sink.add(0, Counter::StateCopies, 1);
}

pub fn sink_snapshot(sink: &Sink) -> u64 {
    sink.snapshot().get(Counter::StateCopies)
}

/// A sink whose event log writes to memory.
pub fn event_sink() -> Sink {
    TelemetrySink::new(1).with_event_writer(Box::new(Vec::<u8>::new()))
}

#[inline]
pub fn sink_event(sink: &Sink, chunk: usize) {
    sink.event(&Event::ChunkStarted { chunk, len: 5 });
}

pub fn profiler_new(capacity: usize) -> Profiler {
    Profiler::with_capacity(1, capacity)
}

#[inline]
pub fn profiler_record(profiler: &Profiler, chunk: usize, start_ns: u64) {
    profiler.record(Category::ChunkCompute, chunk, start_ns, start_ns + 1);
}

/// Empty the rings, so the next batch records instead of dropping.
pub fn profiler_reset(profiler: &Profiler) -> usize {
    profiler.take_spans().0.len()
}

#[cfg(test)]
pub fn json_validate(text: &str) -> Result<(), String> {
    stats_telemetry::json::validate(text)
}

// --- core::runtime::simulated, platform, trace -------------------------------

pub struct Simulator(SimulatedRuntime);

pub fn simulator() -> Simulator {
    Simulator(SimulatedRuntime::paper_machine())
}

/// What a simulated run decided, produced and modelled.
pub struct SimRun<O> {
    pub run: Run<O>,
    /// The report's modelled speedup over the sequential program.
    pub sim_speedup: f64,
}

fn sim_run_of<O>(report: stats_core::RunReport<O>) -> SimRun<O> {
    SimRun {
        sim_speedup: report.speedup(),
        run: Run {
            decisions: decision_string(report.decisions.iter().copied()),
            outputs: report.outputs,
        },
    }
}

pub fn sim_run<W: Workload>(
    sim: &Simulator,
    w: &W,
    inputs: &[W::Input],
    config: Config,
    seed: u64,
    sink: Option<&Sink>,
) -> SimRun<W::Output> {
    let inner = w.inner_parallelism();
    let report = sim
        .0
        .run_observed(w.name(), w, inputs, config, inner, seed, sink)
        .expect("generated graphs are acyclic");
    sim_run_of(report)
}

fn graph_options<W: Workload>(w: &W) -> GraphOptions {
    GraphOptions {
        inner: w.inner_parallelism(),
        assume_all_commit: false,
        outside_work: w.outside_region_work(),
        sync_ops_per_update: w.sync_ops_per_update(),
        lazy_replicas: false,
    }
}

pub fn sim_build_graph<W: Workload>(sim: &Simulator, w: &W, outcome: &Outcome<W::Output>) -> Graph {
    build_task_graph(w.name(), outcome, sim.0.machine(), &graph_options(w))
}

pub fn graph_tasks(graph: &Graph) -> usize {
    graph.len()
}

/// Returns the makespan in cycles, so the execution cannot be elided.
pub fn sim_execute(sim: &Simulator, graph: &Graph) -> u64 {
    let result = sim.0.machine().execute(graph);
    result.expect("generated graphs are acyclic").makespan.get()
}

pub fn sim_run_from_outcome<W: Workload>(
    sim: &Simulator,
    w: &W,
    inputs: &[W::Input],
    outcome: Outcome<W::Output>,
    seed: u64,
) -> SimRun<W::Output> {
    let report = sim
        .0
        .run_from_outcome(w.name(), w, inputs, outcome, graph_options(w), seed)
        .expect("generated graphs are acyclic");
    sim_run_of(report)
}

// --- micro operations: rng, planner, snapshot, pool, channel ------------------

#[inline]
pub fn rng_derive(seed: u64, chunk: usize) -> Rng {
    StatsRng::derive(seed, StreamRole::Chunk(chunk))
}

#[inline]
pub fn rng_unit(rng: &mut Rng) -> f64 {
    rng.unit()
}

#[inline]
pub fn plan_balanced(inputs: usize, chunks: usize) -> usize {
    stats_core::plan_balanced(inputs, chunks).len()
}

pub type Cow = CowBox<Vec<u8>>;

pub fn cow_new(bytes: usize) -> Cow {
    CowBox::new(vec![0x5A; bytes])
}

#[inline]
pub fn cow_fork(cow: &mut Cow) -> Cow {
    cow.fork()
}

#[inline]
pub fn cow_make_mut(cow: &mut Cow) -> &mut Vec<u8> {
    cow.make_mut()
}

/// A scope of a pool, through which tasks borrowing from the caller are
/// spawned; see [`pool_scope`].
#[derive(Clone, Copy)]
pub struct Scope<'scope, 'env>(&'scope PoolScope<'scope, 'env>);

impl<'scope> Scope<'scope, '_> {
    #[inline]
    pub fn spawn(self, task: impl FnOnce() + Send + 'scope) {
        self.0.spawn(task);
    }

    #[inline]
    pub fn spawn_urgent(self, task: impl FnOnce() + Send + 'scope) {
        self.0.spawn_urgent(task);
    }
}

/// Returns once `body` and every task it spawned have finished.
pub fn pool_scope<'env, R>(
    pool: &Pool,
    body: impl for<'scope> FnOnce(Scope<'scope, 'env>) -> R,
) -> R {
    pool.scope(|s| body(Scope(s)))
}

pub struct StateFreeList<S>(StatePool<S>);

pub fn state_free_list<S: Clone>(capacity: usize) -> StateFreeList<S> {
    StateFreeList(StatePool::with_capacity(capacity))
}

/// `StatePool::copy_of` followed by `recycle` of the copy.
#[inline]
pub fn state_copy_and_recycle<S: Clone>(list: &StateFreeList<S>, state: &S) {
    let copy = list.0.copy_of(state);
    list.0.recycle(copy);
}

pub type Tx<T> = Sender<T>;
pub type Rx<T> = Receiver<T>;

#[inline]
pub fn channel<T>(capacity: usize) -> (Tx<T>, Rx<T>) {
    bounded(capacity)
}

#[inline]
pub fn channel_send<T>(tx: &Tx<T>, value: T) {
    tx.send(value).unwrap_or_else(|_| panic!("receiver gone"));
}

#[inline]
pub fn channel_recv<T>(rx: &Rx<T>) -> Option<T> {
    rx.recv().ok()
}
