//! The STATS execution model on real operating-system threads.
//!
//! This executor runs the exact protocol of §II-B on a persistent
//! [`WorkerPool`]: chunks, original-state replicas and aborted-chunk
//! reruns are *queued tasks* rather than dedicated threads, so
//! `chunks ≫ cores` configurations (the paper sweeps up to 28×4 chunks)
//! neither oversubscribe the OS scheduler nor pay thread-creation
//! latency on the commit path.
//!
//! Three structural choices:
//!
//! * **Pooled chunks** — every chunk is a task on a fixed-width pool
//!   (default [`crate::runtime::pool::default_workers`]); tasks never
//!   block on the coordinator, so a small pool can drain any chunk count.
//! * **Replicas replayed where the snapshot is sealed** — candidate 0 of
//!   every chunk that has a successor replays its boundary's `m`
//!   original-state replicas itself, right after its own run, and hands
//!   them to the coordinator with its result; when that execution is the
//!   one that becomes final the coordinator validates the next chunk
//!   against states it already holds. Only a boundary sealed by something
//!   else (a breadth candidate above 0, a rerun) re-derives its replicas
//!   on the pool's *urgent* lane behind a `ReplicaSet` rendezvous.
//!   Replicas are pure functions of (snapshot, inputs, derived stream),
//!   so both routes produce the same states, and validation still happens
//!   on the coordinator, strictly in chunk order (DESIGN.md §9 gives the
//!   full argument).
//! * **Less allocator traffic** — the last replica takes the boundary
//!   snapshot by move instead of cloning it, replay inputs are shared by
//!   reference through the pool scope, and dead states are recycled
//!   through a small [`StatePool`].
//!
//! Because all randomness flows through per-role derived streams
//! ([`crate::rng::StreamRole`]), this executor makes *identical*
//! commit/abort decisions and produces *identical* outputs to the
//! simulated runtime for the same `(workload, inputs, config, seed)` —
//! property-tested in the crate's test suite and in
//! `tests/oversubscription.rs` across all six benchmarks. Its wall-clock
//! speedup over the sequential program is measured by the repo benchmark
//! (`benchmark/run.sh`).
//!
//! Three entry points: [`run_threaded`] on the process-wide shared pool,
//! [`run_threaded_on`] on a caller's pool with optional telemetry, and
//! [`run_threaded_faulted_on`] under a fault plan.

use crate::config::Config;
use crate::dependence::StateDependence;
use crate::fault::{self, ChunkAttempt, FaultPlan, FaultSite};
use crate::planner::{plan_balanced, ChunkPlan};
use crate::report::ChunkDecision;
use crate::rng::{StatsRng, StreamRole};
use crate::runtime::pool::{PoolScope, StatePool, WorkerPool};
use crate::snapshot::SnapshotStrategy;
use crate::speculation::run_segment;
use crossbeam::channel::{bounded, Receiver, Sender};
use stats_telemetry::clock::monotonic_ns;
use stats_telemetry::{Category, Counter, Event, Profiler, TelemetrySink};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The empty fault plan every non-faulted entry point threads through:
/// all guards reduce to one `is_empty` branch, keeping the fault-free
/// path bit-identical to the pre-fault executor.
static NO_FAULTS: FaultPlan = FaultPlan::none();

/// Nanoseconds since the `monotonic_ns` stamp `start_ns`. All wall
/// clock in this module flows through `stats_telemetry::clock` — the
/// single sanctioned read point (analyzer rule ND012) — and feeds
/// telemetry/profiling only, never protocol decisions.
fn ns_since(start_ns: u64) -> u64 {
    monotonic_ns().saturating_sub(start_ns)
}

/// Profiler handle of a sink, if both are present. Span hooks below
/// reduce to this one `Option` check when profiling is off, keeping the
/// counters-only path unchanged.
fn profiler_of(telemetry: Option<&TelemetrySink>) -> Option<&Profiler> {
    telemetry.and_then(TelemetrySink::profiler)
}

/// Stamp a span start only when a profiler is attached.
#[inline]
fn span_start(prof: Option<&Profiler>) -> u64 {
    if prof.is_some() {
        monotonic_ns()
    } else {
        0
    }
}

/// Close a span opened with [`span_start`].
#[inline]
fn span_end(prof: Option<&Profiler>, category: Category, chunk: usize, start_ns: u64) {
    if let Some(p) = prof {
        p.record(category, chunk, start_ns, monotonic_ns());
    }
}

/// Result of a threaded STATS execution.
#[derive(Debug, Clone)]
pub struct ThreadedRun<O> {
    /// Realized outputs, in input order.
    pub outputs: Vec<O>,
    /// Per-chunk decisions.
    pub decisions: Vec<ChunkDecision>,
    /// Wall-clock time of the parallel region (host-dependent; informative
    /// only — all figures use the deterministic simulated runtime).
    pub elapsed: Duration,
    /// Width of the pool the run executed on.
    pub workers: usize,
}

impl<O> ThreadedRun<O> {
    /// Number of aborted chunks.
    pub fn aborts(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| **d == ChunkDecision::Aborted)
            .count()
    }
}

/// A chunk (or rerun) task's report to the coordinator.
///
/// `snapshot` is `None` when the task consumed its boundary snapshot
/// itself: a candidate 0 that replayed the boundary's replicas (they ride
/// in `replicas`), or an overlapped rerun's final segment, whose first
/// segment scheduled them before the suffix even started.
struct WorkerResult<S, O> {
    spec_state: Option<S>,
    outputs: Vec<O>,
    snapshot: Option<S>,
    final_state: S,
    /// The boundary's replicas, when this execution replayed them itself.
    replicas: Option<Replicas<S>>,
}

/// The `m` replayed original states of one boundary, in replica order,
/// with the bytes their replays materialized through copy-on-write
/// faults — counted only once the coordinator validates against them.
struct Replicas<S> {
    states: Vec<S>,
    materialized: u64,
}

/// Where the coordinator finds the replicas validating the next chunk.
enum BoundaryReplicas<S> {
    /// In hand: replayed by the candidate-0 task that sealed the boundary.
    Held(Replicas<S>),
    /// Being re-derived on the urgent lane (see [`schedule_replicas`]).
    Scheduled(Arc<ReplicaSet<S>>),
}

/// The borrowed context every pool task needs; `Copy` so tasks capture it
/// wholesale without threading its fields through each closure.
struct RunCtx<'a, W: StateDependence> {
    workload: &'a W,
    inputs: &'a [W::Input],
    chunks: usize,
    k: usize,
    m: usize,
    master_seed: u64,
    strategy: SnapshotStrategy,
    state_bytes: u64,
    telemetry: Option<&'a TelemetrySink>,
    faults: &'a FaultPlan,
    states: &'a StatePool<W::State>,
}

impl<W: StateDependence> Clone for RunCtx<'_, W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W: StateDependence> Copy for RunCtx<'_, W> {}

// Rendezvous built, and state buffers leaked, by runs coordinated on this
// thread: lets a test pin that the all-commit fast path never falls back
// to a `ReplicaSet` and that no run loses a state.
#[cfg(test)]
// stats-analyzer: allow(ND004): test-only probes of the coordinator thread, compiled out of every other build and never read by protocol code
thread_local! {
    // stats-analyzer: allow(ND004): test-only probe, see above
    static RENDEZVOUS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    // stats-analyzer: allow(ND004): test-only probe, see above
    static STATES_LEAKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One boundary's replica rendezvous, built only when the boundary was
/// sealed by something other than a candidate-0 task: pool tasks deposit
/// replayed states by index, the coordinator blocks until all `m` have
/// arrived. Index slots keep the comparison order identical to the
/// semantic layer no matter which task finishes first.
struct ReplicaSet<S> {
    slots: Mutex<ReplicaSlots<S>>,
    all_done: Condvar,
}

struct ReplicaSlots<S> {
    states: Vec<Option<S>>,
    materialized: u64,
    remaining: usize,
}

impl<S> ReplicaSet<S> {
    /// Always called on the coordinator thread.
    fn new(m: usize) -> Self {
        #[cfg(test)]
        RENDEZVOUS_BUILT.with(|n| n.set(n.get() + 1));
        ReplicaSet {
            slots: Mutex::new(ReplicaSlots {
                states: (0..m).map(|_| None).collect(),
                materialized: 0,
                remaining: m,
            }),
            all_done: Condvar::new(),
        }
    }

    fn put(&self, j: usize, state: S, materialized: u64) {
        let mut slots = self.slots.lock().expect("replica mutex");
        debug_assert!(slots.states[j].is_none(), "replica slot filled twice");
        slots.states[j] = Some(state);
        slots.materialized += materialized;
        slots.remaining -= 1;
        if slots.remaining == 0 {
            self.all_done.notify_all();
        }
    }

    /// Block until every replica has arrived, then drain them in index
    /// order. Resets nothing: a set serves exactly one boundary.
    ///
    /// Polls `abandoned` while waiting: a replica task killed by a panic
    /// will never `put`, so once the owning scope is poisoned the wait
    /// returns `Err` with the number of missing replicas instead of
    /// hanging the coordinator forever.
    fn wait_unless(&self, abandoned: impl Fn() -> bool) -> Result<Replicas<S>, usize> {
        let mut slots = self.slots.lock().expect("replica mutex");
        while slots.remaining > 0 {
            let (guard, _timeout) = self
                .all_done
                .wait_timeout(slots, Duration::from_millis(2))
                .expect("replica mutex");
            slots = guard;
            // stats-analyzer: allow(ND011): the predicate only reads the scope's poison flag; it feeds the abort-the-wait path, never a commit/abort decision
            if slots.remaining > 0 && abandoned() {
                return Err(slots.remaining);
            }
        }
        Ok(Replicas {
            states: slots
                .states
                .iter_mut()
                .map(|s| s.take().expect("replica deposited"))
                .collect(),
            materialized: slots.materialized,
        })
    }
}

/// A working copy of the boundary snapshot for one replica. Deep clones
/// route through the state free-list to reuse dead allocations;
/// copy-on-write snapshots are O(1) forks with nothing worth recycling.
///
/// Profiler spans here and in [`replay_replica`] carry `boundary + 1` —
/// the chunk this boundary's replicas validate — so the attribution
/// engine groups replica-generation time with the seal it gates.
fn fork_snapshot<W: StateDependence>(
    ctx: RunCtx<'_, W>,
    snapshot: &mut W::State,
    boundary: usize,
) -> W::State {
    let prof = profiler_of(ctx.telemetry);
    let t0 = span_start(prof);
    let fork = match ctx.strategy {
        SnapshotStrategy::DeepClone => ctx.states.copy_of(snapshot),
        SnapshotStrategy::CopyOnWrite => ctx.workload.snapshot_state(snapshot, ctx.strategy),
    };
    span_end(prof, Category::OriginalStateGen, boundary + 1, t0);
    fork
}

/// Replay one original-state replica: the trailing `k` inputs of
/// `boundary`'s chunk, from the boundary snapshot, on its own derived
/// stream — the same sampling of the acceptable-state space the semantic
/// layer performs. Returns the replayed state and the bytes the replay
/// materialized through copy-on-write faults.
fn replay_replica<W: StateDependence>(
    ctx: RunCtx<'_, W>,
    mut state: W::State,
    boundary: usize,
    replica: usize,
    replay: (usize, usize),
) -> (W::State, u64) {
    let prof = profiler_of(ctx.telemetry);
    let t0 = span_start(prof);
    let mut rng = StatsRng::derive(
        ctx.master_seed,
        StreamRole::OriginalState {
            chunk: boundary,
            replica,
        },
    );
    for idx in replay.0..replay.1 {
        ctx.workload.update(&mut state, &ctx.inputs[idx], &mut rng);
    }
    let materialized = ctx.workload.take_materialized(&mut state);
    span_end(prof, Category::OriginalStateGen, boundary + 1, t0);
    (state, materialized)
}

/// Replay all `m` replicas of `boundary` in the calling task — candidate
/// 0 of chunk `boundary`, right after it sealed `snapshot`: `m - 1`
/// working copies, the last replica from the moved snapshot itself.
///
/// Candidate 0 of a chunk always runs, exactly once past its own fault
/// guard, so this is where every `FaultSite::Replica` of the boundary
/// fires: at replica entry, before the snapshot is forked or consumed,
/// so an in-place retry replays once, on the replica's original stream.
fn replay_boundary<W: StateDependence>(
    ctx: RunCtx<'_, W>,
    boundary: usize,
    replay: (usize, usize),
    mut snapshot: W::State,
) -> Replicas<W::State> {
    let mut replicas = Replicas {
        states: Vec::with_capacity(ctx.m),
        materialized: 0,
    };
    let Some(last) = ctx.m.checked_sub(1) else {
        ctx.states.recycle(snapshot);
        return replicas;
    };
    let mut replay_from = |state: W::State, replica: usize| {
        let (state, materialized) = replay_replica(ctx, state, boundary, replica, replay);
        replicas.states.push(state);
        replicas.materialized += materialized;
    };
    let guard = |replica: usize| {
        fault::recovery_guard(
            ctx.faults,
            FaultSite::Replica { boundary, replica },
            ctx.telemetry,
        );
    };
    for replica in 0..last {
        guard(replica);
        let fork = fork_snapshot(ctx, &mut snapshot, boundary);
        replay_from(fork, replica);
    }
    // Final replica: takes the snapshot by move — no clone.
    guard(last);
    replay_from(snapshot, last);
    replicas
}

/// Re-derive the `m` replicas of a `boundary` whose state was sealed by
/// something other than a candidate-0 task, on the pool's urgent lane,
/// consuming the boundary snapshot. The fan-out task forks `m - 1`
/// working copies, each replayed by an urgent task of its own, and replays
/// the final replica from the moved snapshot itself. The boundary's fault
/// sites were already served by [`replay_boundary`]; nothing fires here.
/// With `m == 0` the set is born complete and there is nothing to replay.
fn schedule_replicas<'scope, 'env, W>(
    scope: &'scope PoolScope<'scope, 'env>,
    ctx: RunCtx<'env, W>,
    set: Arc<ReplicaSet<W::State>>,
    boundary: usize,
    replay: (usize, usize),
    snapshot: W::State,
) where
    W: StateDependence + Sync,
{
    let Some(last) = ctx.m.checked_sub(1) else {
        ctx.states.recycle(snapshot);
        return;
    };
    scope.spawn_urgent(move || {
        let mut snapshot = snapshot;
        for j in 0..last {
            let fork = fork_snapshot(ctx, &mut snapshot, boundary);
            let set = Arc::clone(&set);
            scope.spawn_urgent(move || {
                let (replayed, materialized) = replay_replica(ctx, fork, boundary, j, replay);
                set.put(j, replayed, materialized);
            });
        }
        let (replayed, materialized) = replay_replica(ctx, snapshot, boundary, last, replay);
        set.put(last, replayed, materialized);
    });
}

/// [`schedule_replicas`] behind a freshly built rendezvous, for the
/// coordinator to await.
fn rederive_replicas<'scope, 'env, W>(
    scope: &'scope PoolScope<'scope, 'env>,
    ctx: RunCtx<'env, W>,
    boundary: usize,
    replay: (usize, usize),
    snapshot: W::State,
) -> BoundaryReplicas<W::State>
where
    W: StateDependence + Sync,
{
    let set = Arc::new(ReplicaSet::new(ctx.m));
    schedule_replicas(scope, ctx, Arc::clone(&set), boundary, replay, snapshot);
    BoundaryReplicas::Scheduled(set)
}

/// Return every state of a dead execution to the free-list.
fn recycle_result<S: Clone, O>(states: &StatePool<S>, result: WorkerResult<S, O>) {
    let replicas = result.replicas.into_iter().flat_map(|r| r.states);
    let dead = (result.spec_state.into_iter())
        .chain(result.snapshot)
        .chain(Some(result.final_state))
        .chain(replicas);
    for st in dead {
        states.recycle(st);
    }
}

/// The replayed index window feeding the replicas of the boundary after
/// the chunk covering `range`: its trailing `k` inputs (clamped to the
/// chunk itself).
fn replay_bounds(range: &std::ops::Range<usize>, k: usize) -> (usize, usize) {
    (range.end.saturating_sub(k).max(range.start), range.end)
}

/// Spawn attempt `attempt` of chunk `c`'s breadth candidate `j`:
/// attempt 0 on the normal lane (commit order), fault-plan retries back
/// onto the urgent lane so recovery overtakes queued speculation. The
/// fault guard runs at task entry, before any protocol recording or
/// compute, so the body executes — and records its telemetry — exactly
/// once, on the clearing attempt, on the candidate's original derived
/// streams; recovery is therefore bit-identical to a fault-free run.
fn spawn_chunk_candidate<'scope, 'env, W>(
    scope: &'scope PoolScope<'scope, 'env>,
    ctx: RunCtx<'env, W>,
    c: usize,
    j: usize,
    range: std::ops::Range<usize>,
    tx: Sender<WorkerResult<W::State, W::Output>>,
    attempt: usize,
) where
    W: StateDependence + Sync,
{
    let task = move || {
        match fault::chunk_attempt(ctx.faults, c, j, attempt, ctx.telemetry) {
            ChunkAttempt::Respawn => {
                spawn_chunk_candidate(scope, ctx, c, j, range, tx, attempt + 1);
                return;
            }
            ChunkAttempt::Proceed => {}
        }
        let prof = profiler_of(ctx.telemetry);
        let busy_start = monotonic_ns();
        if j == 0 {
            if let Some(t) = ctx.telemetry {
                t.incr(c, Counter::ChunksStarted);
                t.event(&Event::ChunkStarted {
                    chunk: c,
                    len: range.len(),
                });
            }
        }
        let (spec_state, start_state) = if c == 0 {
            (None, ctx.workload.fresh_state())
        } else {
            if let Some(t) = ctx.telemetry {
                t.incr(c, Counter::SpecCandidates);
            }
            let warm_role = if j == 0 {
                StreamRole::AltProducer(c)
            } else {
                StreamRole::AltCandidate {
                    chunk: c,
                    candidate: j,
                }
            };
            let t_warm = span_start(prof);
            let mut rng = StatsRng::derive(ctx.master_seed, warm_role);
            let mut st = ctx.workload.fresh_state();
            for input in &ctx.inputs[range.start - ctx.k..range.start] {
                ctx.workload.update(&mut st, input, &mut rng);
            }
            span_end(prof, Category::AltProducer, c, t_warm);
            // Speculative-state hand-off to the coordinator
            // (Fig. 6), once per candidate.
            if let Some(t) = ctx.telemetry {
                t.incr(c, Counter::StateCopies);
                t.add(c, Counter::StateBytesLogical, ctx.state_bytes);
                t.add(
                    c,
                    Counter::StateBytesCopied,
                    ctx.workload.snapshot_copy_bytes(ctx.strategy),
                );
            }
            let t_copy = span_start(prof);
            let spec = ctx.workload.snapshot_state(&mut st, ctx.strategy);
            span_end(prof, Category::StateCopy, c, t_copy);
            (Some(spec), st)
        };
        let run_role = if j == 0 {
            StreamRole::Chunk(c)
        } else {
            StreamRole::ChunkCandidate {
                chunk: c,
                candidate: j,
            }
        };
        let mut rng = StatsRng::derive(ctx.master_seed, run_role);
        let replay = replay_bounds(&range, ctx.k);
        let t_run = span_start(prof);
        let run = run_segment(
            ctx.workload,
            start_state,
            ctx.inputs,
            range,
            ctx.k,
            ctx.strategy,
            &mut rng,
        );
        span_end(prof, Category::ChunkCompute, c, t_run);
        // Candidate 0 sealed the snapshot its boundary's replicas fork
        // from (Fig. 5): replay them here, so that when this execution
        // becomes final the coordinator validates chunk c + 1 without a
        // round trip through the pool.
        let (snapshot, replicas) = if j == 0 && c + 1 < ctx.chunks {
            (None, Some(replay_boundary(ctx, c, replay, run.snapshot)))
        } else {
            (Some(run.snapshot), None)
        };
        if let Some(t) = ctx.telemetry {
            t.add(c, Counter::StateBytesCopied, run.materialized);
            t.add(c, Counter::BusyTime, ns_since(busy_start));
            t.queue_enter();
        }
        tx.send(WorkerResult {
            spec_state,
            outputs: run.outputs,
            snapshot,
            final_state: run.final_state,
            replicas,
        })
        .expect("coordinator alive");
    };
    if attempt == 0 {
        scope.spawn(task);
    } else {
        scope.spawn_urgent(task);
    }
}

/// Run the STATS protocol on real threads, on the process-wide
/// [`WorkerPool::shared`] pool (see its lifetime rule), without
/// telemetry.
///
/// # Panics
///
/// Panics if `config` is invalid for `inputs.len()` or a pool task
/// panics (workload `update` panicked).
pub fn run_threaded<W>(
    workload: &W,
    inputs: &[W::Input],
    config: Config,
    master_seed: u64,
) -> ThreadedRun<W::Output>
where
    W: StateDependence + Sync,
{
    run_threaded_on(
        WorkerPool::shared(),
        workload,
        inputs,
        config,
        master_seed,
        None,
    )
}

/// [`run_threaded`] on a caller-provided pool, with optional live
/// telemetry. Reuse one pool across runs to amortize thread creation
/// (the CLI's `--workers N` goes through here); runs leave no state
/// behind in the pool.
///
/// When `telemetry` is given, tasks record protocol counters into it
/// lock-free while the run is in flight (chunk lifecycle, state copies,
/// comparisons, busy nanoseconds, validation-queue depth) and emit
/// structured events if the sink carries an event log. Recording points
/// match the semantic layer exactly, so a quiesced snapshot reconciles
/// with [`crate::speculation::run_speculative`] for the same seed.
///
/// # Panics
///
/// Panics if `config` is invalid for `inputs.len()` or a pool task
/// panics (workload `update` panicked).
pub fn run_threaded_on<W>(
    pool: &WorkerPool,
    workload: &W,
    inputs: &[W::Input],
    config: Config,
    master_seed: u64,
    telemetry: Option<&TelemetrySink>,
) -> ThreadedRun<W::Output>
where
    W: StateDependence + Sync,
{
    run_threaded_faulted_on(
        pool,
        workload,
        inputs,
        config,
        master_seed,
        &NO_FAULTS,
        telemetry,
    )
}

/// [`run_threaded_on`] under a deterministic [`FaultPlan`]: injections
/// fire at their addressed task sites and the recovery guards retry with
/// exponential backoff (chunk tasks re-spawn on the urgent lane,
/// state-carrying tasks retry in place). For a recoverable plan the run's
/// outputs, decisions, quality, and protocol counters are bit-identical
/// to the fault-free run — only the fault counters/events and wall time
/// differ (see [`crate::fault`] for the argument).
///
/// # Panics
///
/// Panics if `config` is invalid for `inputs.len()`, a pool task panics,
/// or an injection exhausts [`FaultPlan::max_retries`] (the run then
/// fails fast with the injection as the payload).
pub fn run_threaded_faulted_on<W>(
    pool: &WorkerPool,
    workload: &W,
    inputs: &[W::Input],
    config: Config,
    master_seed: u64,
    faults: &FaultPlan,
    telemetry: Option<&TelemetrySink>,
) -> ThreadedRun<W::Output>
where
    W: StateDependence + Sync,
{
    config
        .validate(inputs.len())
        .expect("invalid configuration for input length");
    let plan = plan_balanced(inputs.len(), config.chunks);
    run_threaded_planned_faulted_on(
        pool,
        workload,
        inputs,
        config,
        plan,
        master_seed,
        faults,
        telemetry,
    )
}

/// The pooled, pipelined executor every public entry point lowers to,
/// over an explicit chunk plan (parity with
/// [`crate::speculation::run_speculative_planned`]); non-faulted callers
/// pass the empty plan.
///
/// # Panics
///
/// Panics if the plan does not match the configuration, a pool task
/// panics, or `faults` exhausts its retry bound.
#[allow(clippy::too_many_arguments)]
fn run_threaded_planned_faulted_on<W>(
    pool: &WorkerPool,
    workload: &W,
    inputs: &[W::Input],
    config: Config,
    plan: ChunkPlan,
    master_seed: u64,
    faults: &FaultPlan,
    telemetry: Option<&TelemetrySink>,
) -> ThreadedRun<W::Output>
where
    W: StateDependence + Sync,
{
    assert_eq!(
        plan.inputs(),
        inputs.len(),
        "plan does not cover the input stream"
    );
    assert_eq!(plan.len(), config.chunks, "plan chunk count mismatch");
    let chunks = plan.len();
    let k = config.lookback;
    let m = config.extra_states;
    let prof = profiler_of(telemetry);
    let start_ns = monotonic_ns();

    // The state free-list lives across the whole scope so tasks can
    // borrow it.
    let states: StatePool<W::State> = StatePool::with_capacity(m + 2);
    let ctx = RunCtx {
        workload,
        inputs,
        chunks,
        k,
        m,
        master_seed,
        strategy: config.snapshot,
        state_bytes: workload.state_bytes() as u64,
        telemetry,
        faults,
        states: &states,
    };

    // Chunk-result channels, one per (chunk, candidate); the sending half
    // moves into each candidate task. Chunk 0 is never speculative, so it
    // has exactly one producer regardless of the configured breadth.
    type CandidateReceivers<S, O> = Vec<Vec<Receiver<WorkerResult<S, O>>>>;
    let b = config.spec_breadth.max(1);
    let mut result_rx: CandidateReceivers<W::State, W::Output> = Vec::with_capacity(chunks);
    let mut result_tx = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let cands = if c == 0 { 1 } else { b };
        let mut txs = Vec::with_capacity(cands);
        let mut rxs = Vec::with_capacity(cands);
        for _ in 0..cands {
            let (tx, rx) = bounded::<WorkerResult<W::State, W::Output>>(1);
            txs.push(tx);
            rxs.push(rx);
        }
        result_tx.push(txs);
        result_rx.push(rxs);
    }

    let mut decisions = vec![ChunkDecision::First; chunks];
    let mut outputs_per_chunk: Vec<Vec<W::Output>> = Vec::with_capacity(chunks);

    // Plan and channel construction is the run's setup cost.
    span_end(prof, Category::Setup, 0, start_ns);

    pool.scope(|scope| {
        // ---- chunk tasks --------------------------------------------------
        // Queued in commit order on the normal lane, candidate-major within
        // a chunk; reruns and re-derived replicas overtake them through
        // the urgent lane. Tasks compute, send, and exit — no task ever
        // blocks on the coordinator, so any pool width drains any chunk
        // count. Candidate 0 runs the historical streams, so a breadth-1
        // run is bit-for-bit the pre-breadth executor; candidates above 0
        // warm up and run on their own derived streams, sampling
        // alternative start states.
        for (c, txs) in result_tx.into_iter().enumerate() {
            for (j, tx) in txs.into_iter().enumerate() {
                spawn_chunk_candidate(scope, ctx, c, j, plan.chunk(c), tx, 0);
            }
        }

        // ---- coordinator: sequential-order commit checks ------------------
        // Runs on the calling thread (not a pool worker): it may block on
        // chunk results and replica rendezvous without holding up the pool.
        let mut prev_final: Option<W::State> = None;
        // The replicas validating the next chunk, set when the current
        // one's outcome becomes final.
        let mut next_replicas: Option<BoundaryReplicas<W::State>> = None;
        // An in-flight overlapped rerun: its final segment's result is
        // received only when the *next* chunk's validation needs the true
        // state, so the rerun suffix overlaps replica generation instead
        // of parking the coordinator.
        let mut pending_rerun: Option<Receiver<WorkerResult<W::State, W::Output>>> = None;
        for c in 0..chunks {
            let mut cand_results = Vec::with_capacity(result_rx[c].len());
            for rx in &result_rx[c] {
                let t_recv = span_start(prof);
                let result = match rx.recv() {
                    Ok(result) => result,
                    Err(_) => {
                        // The producer died without delivering: its buffer
                        // is gone with it — count the leak rather than let
                        // the free-list alias a half-written state.
                        states.note_leak();
                        panic!("chunk {c} candidate task died before delivering its result");
                    }
                };
                span_end(prof, Category::Sync, c, t_recv);
                if let Some(t) = telemetry {
                    t.queue_leave();
                }
                cand_results.push(result);
            }
            if c == 0 {
                let result = cand_results.pop().expect("chunk 0 result");
                decisions[0] = ChunkDecision::First;
                prev_final = Some(result.final_state);
                // Chunk 0 is final by definition, so the replicas it
                // replayed are the ones chunk 1 is validated against.
                next_replicas = result.replicas.map(BoundaryReplicas::Held);
                outputs_per_chunk.push(result.outputs);
                continue;
            }
            // The replicas for this boundary (Fig. 5): already here when
            // chunk c-1's final execution was its candidate 0, else awaited
            // from the urgent tasks scheduled when its outcome became
            // final — by the coordinator on a candidate hit or after a
            // serialized rerun, by the rerun's first segment on an
            // overlapped abort.
            let replicas = match next_replicas.take().expect("boundary replicas") {
                BoundaryReplicas::Held(replicas) => replicas,
                BoundaryReplicas::Scheduled(set) => {
                    let t_wait = span_start(prof);
                    let replicas = match set.wait_unless(|| scope.poisoned()) {
                        Ok(replicas) => replicas,
                        Err(missing) => {
                            // A replica task died before its `put`; the
                            // rendezvous can never fill. Count each
                            // undelivered buffer as leaked and re-raise
                            // through the scope.
                            for _ in 0..missing {
                                states.note_leak();
                            }
                            panic!(
                                "replica rendezvous for boundary {} abandoned with {missing} \
                                 replica(s) undelivered",
                                c - 1
                            );
                        }
                    };
                    span_end(prof, Category::Sync, c, t_wait);
                    replicas
                }
            };
            if let Some(t) = telemetry {
                // One state materialization per replica: m-1 pool-recycled
                // clones plus the final moved snapshot — the protocol
                // transfers m states either way, matching the semantic
                // layer's accounting — plus what these replicas' replays
                // materialized. Counted here, where the replicas are used:
                // a discarded candidate 0's never are.
                t.add(c, Counter::ReplicasValidated, m as u64);
                t.add(c, Counter::StateCopies, m as u64);
                t.add(c, Counter::StateBytesLogical, m as u64 * ctx.state_bytes);
                t.add(
                    c,
                    Counter::StateBytesCopied,
                    m as u64 * workload.snapshot_copy_bytes(ctx.strategy) + replicas.materialized,
                );
            }
            let replica_states = replicas.states;
            // Resolve an overlapped rerun of chunk c-1 now that its true
            // final state gates this chunk's validation. Its boundary
            // replicas were scheduled by the rerun's first segment (and
            // just awaited above); only the trailing-k suffix is
            // synchronized on here.
            let pf = if let Some(xrx) = pending_rerun.take() {
                let t_rr = span_start(prof);
                let rerun = match xrx.recv() {
                    Ok(rerun) => rerun,
                    Err(_) => {
                        states.note_leak();
                        panic!("overlapped rerun of chunk {} died before delivering", c - 1);
                    }
                };
                span_end(prof, Category::Sync, c - 1, t_rr);
                outputs_per_chunk.push(rerun.outputs);
                rerun.final_state
            } else {
                prev_final.take().expect("previous final state")
            };
            // A spurious `states_match` transfer failure surfaces here, on
            // the coordinator, before any comparison is recorded: the guard
            // retries (with backoff) until the injection clears, then the
            // comparison loop below runs — and counts — exactly once.
            fault::recovery_guard(ctx.faults, FaultSite::Transfer { chunk: c }, telemetry);
            // Candidate-major ordered comparison: for each candidate in
            // index order, the producer's own final state first, then the
            // replicas — identical order (and comparison count) to the
            // semantic layer. The first matching candidate wins.
            let t_cmp = span_start(prof);
            let mut comparisons = 0u64;
            let mut matched: Option<(usize, usize)> = None;
            'candidates: for (j, r) in cand_results.iter().enumerate() {
                let spec_state = r.spec_state.as_ref().expect("speculative chunk");
                comparisons += 1;
                if workload.states_match(spec_state, &pf) {
                    matched = Some((j, 0));
                    break 'candidates;
                }
                for (i, st) in replica_states.iter().enumerate() {
                    comparisons += 1;
                    if workload.states_match(spec_state, st) {
                        matched = Some((j, i + 1));
                        break 'candidates;
                    }
                }
            }
            span_end(prof, Category::StateComparison, c, t_cmp);
            if let Some(t) = telemetry {
                t.add(c, Counter::StateComparisons, comparisons);
                t.event(&Event::ValidationFinished {
                    chunk: c,
                    comparisons,
                    matched_original: matched.map(|(_, i)| i),
                });
            }
            if let Some((winner, original)) = matched {
                decisions[c] = ChunkDecision::Committed;
                if let Some(t) = telemetry {
                    t.incr(c, Counter::ChunksCommitted);
                    if winner > 0 {
                        t.incr(c, Counter::CandidateHits);
                    }
                    t.event(&Event::ChunkCommitted { chunk: c });
                    t.event(&Event::CandidateCommitted {
                        chunk: c,
                        candidate: winner,
                        original,
                    });
                }
                states.recycle(pf);
                let accepted = cand_results.swap_remove(winner);
                // The rejected candidates (a losing candidate 0's unused
                // replicas with it) and the compared replicas are dead
                // after validation (DESIGN.md §9's lifetime rule); feed
                // the next boundary's clones from them.
                for r in cand_results {
                    recycle_result(&states, r);
                }
                if let Some(st) = accepted.spec_state {
                    states.recycle(st);
                }
                for st in replica_states {
                    states.recycle(st);
                }
                prev_final = Some(accepted.final_state);
                if c + 1 < chunks {
                    // Candidate 0 brought its boundary's replicas along; a
                    // winner above 0 sealed a boundary nothing has
                    // replayed from yet.
                    next_replicas = Some(match accepted.replicas {
                        Some(replicas) => BoundaryReplicas::Held(replicas),
                        None => rederive_replicas(
                            scope,
                            ctx,
                            c,
                            replay_bounds(&plan.chunk(c), k),
                            accepted.snapshot.expect("chunk snapshot"),
                        ),
                    });
                }
                outputs_per_chunk.push(accepted.outputs);
            } else {
                decisions[c] = ChunkDecision::Aborted;
                if let Some(t) = telemetry {
                    // True-state transfer to the re-executing chunk.
                    t.incr(c, Counter::ChunksAborted);
                    t.incr(c, Counter::StateCopies);
                    t.add(c, Counter::StateBytesLogical, ctx.state_bytes);
                    t.add(
                        c,
                        Counter::StateBytesCopied,
                        workload.snapshot_copy_bytes(ctx.strategy),
                    );
                    t.event(&Event::ChunkAborted { chunk: c });
                }
                // Every candidate's speculative results are dead, and with
                // them the replicas candidate 0 replayed from the boundary
                // state it mispredicted.
                for r in cand_results {
                    recycle_result(&states, r);
                }
                for st in replica_states {
                    states.recycle(st);
                }
                let range = plan.chunk(c);
                let (xtx, xrx) = bounded::<WorkerResult<W::State, W::Output>>(1);
                if config.rerun_segments(range.len()) > 1 {
                    // Overlapped recovery (DESIGN.md §14): the rerun splits
                    // at its boundary-snapshot point into two pool-scheduled
                    // urgent segments. Segment 0 re-executes the prefix and
                    // seals the boundary state, so chunk c's replicas start
                    // replaying while segment 1 is still re-executing the
                    // trailing-k suffix; the coordinator defers the rerun
                    // receive until chunk c+1's validation actually needs
                    // the true final state. Commit order is untouched:
                    // chunk c+1 is still validated strictly after chunk c's
                    // outcome is final, and the single derived `Rerun(c)`
                    // stream threads through both segments, so the rerun is
                    // bit-identical to the unsplit re-execution.
                    let split = range.end - k.min(range.len());
                    let replay = replay_bounds(&range, k);
                    // Built here, on the coordinator, which awaits it; the
                    // last chunk has no boundary left to validate.
                    let set = (c + 1 < chunks).then(|| Arc::new(ReplicaSet::new(m)));
                    next_replicas = set.clone().map(BoundaryReplicas::Scheduled);
                    scope.spawn_urgent(move || {
                        fault::recovery_guard(
                            ctx.faults,
                            FaultSite::Rerun {
                                chunk: c,
                                segment: 0,
                            },
                            ctx.telemetry,
                        );
                        let prof = profiler_of(ctx.telemetry);
                        let seg_start = monotonic_ns();
                        if let Some(t) = ctx.telemetry {
                            t.incr(c, Counter::Reruns);
                            t.incr(c, Counter::RerunSegments);
                        }
                        let mut rng = StatsRng::derive(ctx.master_seed, StreamRole::Rerun(c));
                        let mut state = pf;
                        let mut outputs = Vec::with_capacity(range.len());
                        let t_seg = span_start(prof);
                        for idx in range.start..split {
                            let (out, _) =
                                ctx.workload.update(&mut state, &ctx.inputs[idx], &mut rng);
                            outputs.push(out);
                        }
                        // The boundary snapshot is sealed exactly where
                        // `run_segment` takes it: before the trailing-k
                        // suffix updates.
                        let snap = ctx.workload.snapshot_state(&mut state, ctx.strategy);
                        span_end(prof, Category::ChunkCompute, c, t_seg);
                        let materialized = ctx.workload.take_materialized(&mut state);
                        if let Some(t) = ctx.telemetry {
                            t.add(c, Counter::StateBytesCopied, materialized);
                            t.add(c, Counter::BusyTime, ns_since(seg_start));
                            t.event(&Event::RerunSegmentFinished {
                                chunk: c,
                                segment: 0,
                            });
                        }
                        match set {
                            Some(set) => schedule_replicas(scope, ctx, set, c, replay, snap),
                            // Last chunk: no boundary left to validate.
                            None => ctx.states.recycle(snap),
                        }
                        // Segment 1: the trailing-k suffix, overlapping the
                        // replicas scheduled above.
                        scope.spawn_urgent(move || {
                            fault::recovery_guard(
                                ctx.faults,
                                FaultSite::Rerun {
                                    chunk: c,
                                    segment: 1,
                                },
                                ctx.telemetry,
                            );
                            let prof = profiler_of(ctx.telemetry);
                            let seg_start = monotonic_ns();
                            if let Some(t) = ctx.telemetry {
                                t.incr(c, Counter::RerunSegments);
                            }
                            let mut state = state;
                            let mut rng = rng;
                            let mut outputs = outputs;
                            let t_seg = span_start(prof);
                            for idx in split..range.end {
                                let (out, _) =
                                    ctx.workload.update(&mut state, &ctx.inputs[idx], &mut rng);
                                outputs.push(out);
                            }
                            span_end(prof, Category::ChunkCompute, c, t_seg);
                            let materialized = ctx.workload.take_materialized(&mut state);
                            if let Some(t) = ctx.telemetry {
                                t.add(c, Counter::StateBytesCopied, materialized);
                                t.add(c, Counter::BusyTime, ns_since(seg_start));
                                t.event(&Event::RerunSegmentFinished {
                                    chunk: c,
                                    segment: 1,
                                });
                            }
                            xtx.send(WorkerResult {
                                spec_state: None,
                                outputs,
                                snapshot: None,
                                final_state: state,
                                replicas: None,
                            })
                            .expect("coordinator alive");
                            if let Some(t) = ctx.telemetry {
                                t.event(&Event::RerunFinished { chunk: c });
                            }
                        });
                    });
                    pending_rerun = Some(xrx);
                } else {
                    // Serialized re-execution as an urgent task: the true
                    // state moves in, the result comes back on a fresh
                    // channel. The coordinator blocks here — re-execution
                    // is serialized by the protocol anyway (§II-B).
                    scope.spawn_urgent(move || {
                        fault::recovery_guard(
                            ctx.faults,
                            FaultSite::Rerun {
                                chunk: c,
                                segment: 0,
                            },
                            ctx.telemetry,
                        );
                        let prof = profiler_of(ctx.telemetry);
                        let rerun_start = monotonic_ns();
                        if let Some(t) = ctx.telemetry {
                            t.incr(c, Counter::Reruns);
                            t.incr(c, Counter::RerunSegments);
                        }
                        let mut rng = StatsRng::derive(ctx.master_seed, StreamRole::Rerun(c));
                        let t_rerun = span_start(prof);
                        let rerun = run_segment(
                            ctx.workload,
                            pf,
                            ctx.inputs,
                            range,
                            ctx.k,
                            ctx.strategy,
                            &mut rng,
                        );
                        // The serialized rerun is the chunk's true compute;
                        // assembly relabels the dead speculative attempt.
                        span_end(prof, Category::ChunkCompute, c, t_rerun);
                        if let Some(t) = ctx.telemetry {
                            t.add(c, Counter::StateBytesCopied, rerun.materialized);
                            t.add(c, Counter::BusyTime, ns_since(rerun_start));
                            t.event(&Event::RerunSegmentFinished {
                                chunk: c,
                                segment: 0,
                            });
                        }
                        xtx.send(WorkerResult {
                            spec_state: None,
                            outputs: rerun.outputs,
                            snapshot: Some(rerun.snapshot),
                            final_state: rerun.final_state,
                            replicas: None,
                        })
                        .expect("coordinator alive");
                        if let Some(t) = ctx.telemetry {
                            t.event(&Event::RerunFinished { chunk: c });
                        }
                    });
                    let t_rr = span_start(prof);
                    let rerun = match xrx.recv() {
                        Ok(rerun) => rerun,
                        Err(_) => {
                            states.note_leak();
                            panic!("serialized rerun of chunk {c} died before delivering");
                        }
                    };
                    span_end(prof, Category::Sync, c, t_rr);
                    prev_final = Some(rerun.final_state);
                    if c + 1 < chunks {
                        next_replicas = Some(rederive_replicas(
                            scope,
                            ctx,
                            c,
                            replay_bounds(&plan.chunk(c), k),
                            rerun.snapshot.expect("rerun snapshot"),
                        ));
                    }
                    outputs_per_chunk.push(rerun.outputs);
                }
            }
        }
        // A last-chunk overlapped rerun has no successor to synchronize
        // with; resolve it before the scope closes.
        if let Some(xrx) = pending_rerun.take() {
            let t_rr = span_start(prof);
            let rerun = match xrx.recv() {
                Ok(rerun) => rerun,
                Err(_) => {
                    states.note_leak();
                    panic!(
                        "overlapped rerun of chunk {} died before delivering",
                        chunks - 1
                    );
                }
            };
            span_end(prof, Category::Sync, chunks - 1, t_rr);
            outputs_per_chunk.push(rerun.outputs);
        }
    });

    #[cfg(test)]
    STATES_LEAKED.with(|n| n.set(n.get() + states.leaked()));
    if let Some(t) = telemetry {
        t.event(&Event::RunFinished {
            committed: decisions
                .iter()
                .filter(|d| **d == ChunkDecision::Committed)
                .count(),
            aborted: decisions
                .iter()
                .filter(|d| **d == ChunkDecision::Aborted)
                .count(),
            workers: pool.workers(),
        });
        t.flush();
    }
    ThreadedRun {
        outputs: outputs_per_chunk.into_iter().flatten().collect(),
        decisions,
        elapsed: Duration::from_nanos(ns_since(start_ns)),
        workers: pool.workers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence::UpdateCost;
    use crate::speculation::run_speculative;

    struct Ema {
        decay: f64,
        tolerance: f64,
    }

    impl StateDependence for Ema {
        type State = f64;
        type Input = f64;
        type Output = f64;
        fn fresh_state(&self) -> f64 {
            0.0
        }
        fn update(&self, state: &mut f64, input: &f64, rng: &mut StatsRng) -> (f64, UpdateCost) {
            *state = self.decay * *state + (1.0 - self.decay) * (*input + rng.noise(0.001));
            (*state, UpdateCost::with_work(50))
        }
        fn states_match(&self, a: &f64, b: &f64) -> bool {
            (a - b).abs() < self.tolerance
        }
        fn state_bytes(&self) -> usize {
            8
        }
    }

    fn inputs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.05).sin()).collect()
    }

    #[test]
    fn threaded_matches_semantic_layer() {
        let w = Ema {
            decay: 0.6,
            tolerance: 0.02,
        };
        let ins = inputs(200);
        let cfg = Config::stats_only(5, 10, 2);
        let threaded = run_threaded(&w, &ins, cfg, 42);
        let semantic = run_speculative(&w, &ins, cfg, 42);
        assert_eq!(threaded.outputs, semantic.outputs);
        let semantic_decisions: Vec<_> = semantic.chunks.iter().map(|c| c.decision).collect();
        assert_eq!(threaded.decisions, semantic_decisions);
    }

    #[test]
    fn threaded_matches_semantic_layer_with_aborts() {
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 1);
        let threaded = run_threaded(&w, &ins, cfg, 7);
        let semantic = run_speculative(&w, &ins, cfg, 7);
        assert!(threaded.aborts() > 0, "this setup must abort");
        assert_eq!(threaded.outputs, semantic.outputs);
        assert_eq!(
            threaded.decisions,
            semantic
                .chunks
                .iter()
                .map(|c| c.decision)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_chunk_runs_sequentially() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.1,
        };
        let ins = inputs(32);
        let run = run_threaded(&w, &ins, Config::sequential(), 1);
        assert_eq!(run.outputs.len(), 32);
        assert_eq!(run.decisions, vec![ChunkDecision::First]);
        assert_eq!(run.aborts(), 0);
    }

    #[test]
    fn planned_threaded_matches_planned_semantics() {
        use crate::planner::plan_weighted;
        use crate::speculation::run_speculative_planned;
        let w = Ema {
            decay: 0.6,
            tolerance: 0.02,
        };
        let ins = inputs(200);
        let cfg = Config::stats_only(5, 10, 1);
        let plan = plan_weighted(200, 5, |i| 1 + (i % 3) as u64);
        let semantic = run_speculative_planned(&w, &ins, cfg, plan.clone(), 4);
        let threaded = run_threaded_planned_faulted_on(
            WorkerPool::shared(),
            &w,
            &ins,
            cfg,
            plan,
            4,
            &NO_FAULTS,
            None,
        );
        assert_eq!(threaded.outputs, semantic.outputs);
        assert_eq!(
            threaded.decisions,
            semantic
                .chunks
                .iter()
                .map(|c| c.decision)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn small_pool_drains_many_chunks() {
        // chunks ≫ workers: a 2-wide pool must complete a 16-chunk run
        // without deadlock and with unchanged decisions.
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(256);
        let cfg = Config::stats_only(16, 4, 2);
        let pool = WorkerPool::new(2);
        let pooled = run_threaded_on(&pool, &w, &ins, cfg, 7, None);
        let semantic = run_speculative(&w, &ins, cfg, 7);
        assert!(pooled.aborts() > 0, "this setup must abort");
        assert_eq!(pooled.workers, 2);
        assert_eq!(pooled.outputs, semantic.outputs);
        assert_eq!(
            pooled.decisions,
            semantic
                .chunks
                .iter()
                .map(|c| c.decision)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn observed_counters_match_semantic_outcome() {
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 2);
        let sink = TelemetrySink::new(cfg.chunks);
        let threaded = run_threaded_on(WorkerPool::shared(), &w, &ins, cfg, 7, Some(&sink));
        let semantic = run_speculative(&w, &ins, cfg, 7);
        let snap = sink.snapshot();
        assert!(snap.consistent, "quiesced snapshot must be consistent");

        let chunks = cfg.chunks as u64;
        let m = cfg.extra_states as u64;
        let aborts = semantic.aborts() as u64;
        let committed = semantic
            .chunks
            .iter()
            .filter(|c| c.decision == ChunkDecision::Committed)
            .count() as u64;
        assert_eq!(snap.get(Counter::ChunksStarted), chunks);
        assert_eq!(snap.get(Counter::ChunksCommitted), committed);
        assert_eq!(snap.get(Counter::ChunksAborted), aborts);
        assert_eq!(snap.get(Counter::Reruns), aborts);
        // Overlap off: every rerun is one segment; breadth 1: one
        // candidate per speculative chunk, never a non-primary hit.
        assert_eq!(snap.get(Counter::RerunSegments), aborts);
        assert_eq!(snap.get(Counter::SpecCandidates), chunks - 1);
        assert_eq!(snap.get(Counter::CandidateHits), 0);
        assert_eq!(snap.get(Counter::ReplicasValidated), (chunks - 1) * m);
        // Copies: spec hand-off per producer + m replica states per
        // boundary + one true-state transfer per abort.
        assert_eq!(
            snap.get(Counter::StateCopies),
            (chunks - 1) + (chunks - 1) * m + aborts
        );
        // Byte accounting: logical bytes are state size × copy events,
        // and a deep-clone run physically copies exactly that.
        assert_eq!(
            snap.get(Counter::StateBytesLogical),
            8 * snap.get(Counter::StateCopies)
        );
        assert_eq!(
            snap.get(Counter::StateBytesCopied),
            snap.get(Counter::StateBytesLogical)
        );
        assert_eq!(
            snap.get(Counter::StateBytesLogical),
            semantic.bytes_logical()
        );
        assert_eq!(snap.get(Counter::StateBytesCopied), semantic.bytes_copied());
        // Comparisons: the shared ordered-comparison formula per chunk.
        let expected_comparisons: u64 = semantic.chunks[1..]
            .iter()
            .map(|c| {
                1 + match c.matched_original {
                    Some(0) => 0,
                    Some(j) => j as u64,
                    None => m,
                }
            })
            .sum();
        assert_eq!(snap.get(Counter::StateComparisons), expected_comparisons);
        assert!(snap.get(Counter::BusyTime) > 0);
        assert!(snap.queue_high_water >= 1);
        // Telemetry must not perturb semantics.
        assert_eq!(threaded.outputs, semantic.outputs);
    }

    #[test]
    fn observed_event_log_records_lifecycle() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 1);
        let buf = Buf::default();
        let sink = TelemetrySink::new(cfg.chunks).with_event_writer(Box::new(buf.clone()));
        let run = run_threaded_on(WorkerPool::shared(), &w, &ins, cfg, 7, Some(&sink));
        assert!(run.aborts() > 0, "this setup must abort");

        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len() as u64, sink.snapshot().events_emitted);
        let count = |kind: &str| {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"type\":\"{kind}\"")))
                .count()
        };
        assert_eq!(count("chunk_started"), cfg.chunks);
        assert_eq!(count("validation_finished"), cfg.chunks - 1);
        assert_eq!(count("chunk_aborted"), run.aborts());
        assert_eq!(count("rerun_finished"), run.aborts());
        // Overlap off: one segment per rerun; every commit names its
        // winning candidate (always 0 at breadth 1).
        assert_eq!(count("rerun_segment_finished"), run.aborts());
        assert_eq!(count("candidate_committed"), cfg.chunks - 1 - run.aborts());
        assert_eq!(count("run_finished"), 1);
        // The RunFinished event now carries the executing pool's width.
        let finished = lines
            .iter()
            .find(|l| l.contains("\"type\":\"run_finished\""))
            .expect("run_finished line");
        assert!(
            finished.contains(&format!("\"workers\":{}", run.workers)),
            "run_finished must record the worker count: {finished}"
        );
        for line in &lines {
            stats_telemetry::json::validate(line)
                .unwrap_or_else(|e| panic!("bad event line {line}: {e}"));
        }
    }

    #[test]
    fn repeated_runs_are_reproducible() {
        let w = Ema {
            decay: 0.6,
            tolerance: 0.02,
        };
        let ins = inputs(100);
        let cfg = Config::stats_only(4, 8, 1);
        let a = run_threaded(&w, &ins, cfg, 9);
        let b = run_threaded(&w, &ins, cfg, 9);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn breadth_two_matches_semantic_layer() {
        // An abort-prone setup: the candidates and the rerun paths both
        // get exercised, and the threaded executor must land on exactly
        // the semantic layer's decisions and outputs.
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        for b in [2usize, 3, 4] {
            let cfg = Config::stats_only(4, 4, 1).with_breadth(b);
            let threaded = run_threaded(&w, &ins, cfg, 7);
            let semantic = run_speculative(&w, &ins, cfg, 7);
            assert_eq!(threaded.outputs, semantic.outputs, "breadth {b}");
            assert_eq!(
                threaded.decisions,
                semantic
                    .chunks
                    .iter()
                    .map(|c| c.decision)
                    .collect::<Vec<_>>(),
                "breadth {b}"
            );
        }
    }

    #[test]
    fn overlapped_rerun_preserves_semantics_and_counts_segments() {
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 2).with_overlap(true);
        let sink = TelemetrySink::new(cfg.chunks);
        let threaded = run_threaded_on(WorkerPool::shared(), &w, &ins, cfg, 7, Some(&sink));
        let semantic = run_speculative(&w, &ins, cfg, 7);
        assert!(threaded.aborts() > 0, "this setup must abort");
        assert_eq!(threaded.outputs, semantic.outputs);
        assert_eq!(
            threaded.decisions,
            semantic
                .chunks
                .iter()
                .map(|c| c.decision)
                .collect::<Vec<_>>()
        );
        let snap = sink.snapshot();
        // Every aborted chunk's rerun split per the shared config-derived
        // segment count (two here: every chunk is longer than the
        // lookback).
        let expected: u64 = semantic
            .chunks
            .iter()
            .filter(|c| c.aborted())
            .map(|c| cfg.rerun_segments(c.range.len()) as u64)
            .sum();
        assert_eq!(expected, 2 * threaded.aborts() as u64);
        assert_eq!(snap.get(Counter::RerunSegments), expected);
        assert_eq!(snap.get(Counter::Reruns), threaded.aborts() as u64);
    }

    #[test]
    fn overlapped_rerun_on_last_chunk_resolves_after_the_loop() {
        // Force a plan where the final chunk aborts so the post-loop
        // pending-rerun resolution runs; outputs must still be complete
        // and ordered.
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 1).with_overlap(true);
        let semantic = run_speculative(&w, &ins, cfg, 7);
        let threaded = run_threaded(&w, &ins, cfg, 7);
        assert_eq!(threaded.outputs.len(), ins.len());
        assert_eq!(threaded.outputs, semantic.outputs);
    }

    #[test]
    fn breadth_counters_match_shared_formulas() {
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        let b = 3usize;
        let cfg = Config::stats_only(4, 4, 2).with_breadth(b);
        let sink = TelemetrySink::new(cfg.chunks);
        let threaded = run_threaded_on(WorkerPool::shared(), &w, &ins, cfg, 7, Some(&sink));
        let semantic = run_speculative(&w, &ins, cfg, 7);
        assert_eq!(threaded.outputs, semantic.outputs);
        let snap = sink.snapshot();
        let chunks = cfg.chunks as u64;
        let m = cfg.extra_states as u64;
        let aborts = semantic.aborts() as u64;
        assert_eq!(snap.get(Counter::SpecCandidates), (chunks - 1) * b as u64);
        let hits = semantic
            .chunks
            .iter()
            .filter(|c| c.matched_candidate.is_some_and(|w| w > 0))
            .count() as u64;
        assert_eq!(snap.get(Counter::CandidateHits), hits);
        // Copies: b speculative hand-offs per boundary + m replicas per
        // boundary + one true-state transfer per abort.
        assert_eq!(
            snap.get(Counter::StateCopies),
            (chunks - 1) * (b as u64 + m) + aborts
        );
        assert_eq!(
            snap.get(Counter::StateBytesLogical),
            semantic.bytes_logical()
        );
        assert_eq!(snap.get(Counter::StateBytesCopied), semantic.bytes_copied());
        // Comparisons: candidate-major formula, w*(1+m) + 1 + i on a
        // commit, b*(1+m) on an abort.
        let expected_comparisons: u64 = semantic.chunks[1..]
            .iter()
            .map(|c| match (c.matched_candidate, c.matched_original) {
                (Some(w), Some(i)) => w as u64 * (1 + m) + 1 + i as u64,
                _ => b as u64 * (1 + m),
            })
            .sum();
        assert_eq!(snap.get(Counter::StateComparisons), expected_comparisons);
    }

    #[test]
    fn pool_reuse_leaks_no_state_between_runs() {
        // Two different runs on one pool, then the first again: results
        // must be identical to a fresh-pool execution.
        let w = Ema {
            decay: 0.6,
            tolerance: 0.02,
        };
        let ins = inputs(200);
        let cfg = Config::stats_only(8, 10, 2);
        let pool = WorkerPool::new(3);
        let first = run_threaded_on(&pool, &w, &ins, cfg, 42, None);
        let _other = run_threaded_on(&pool, &w, &ins, cfg, 1234, None);
        let again = run_threaded_on(&pool, &w, &ins, cfg, 42, None);
        let fresh = run_threaded(&w, &ins, cfg, 42);
        assert_eq!(first.outputs, again.outputs);
        assert_eq!(first.decisions, again.decisions);
        assert_eq!(first.outputs, fresh.outputs);
        assert_eq!(first.decisions, fresh.decisions);
    }

    /// Run `f` and report how many replica rendezvous the runs it
    /// coordinated built, and how many state buffers they leaked.
    fn probed<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
        RENDEZVOUS_BUILT.with(|n| n.set(0));
        STATES_LEAKED.with(|n| n.set(0));
        let r = f();
        (
            r,
            RENDEZVOUS_BUILT.with(std::cell::Cell::get),
            STATES_LEAKED.with(std::cell::Cell::get),
        )
    }

    #[test]
    fn all_commit_run_never_builds_a_rendezvous() {
        // Breadth 1 and every chunk commits: each boundary's replicas
        // arrive inside candidate 0's result. A `ReplicaSet` is only ever
        // built next to the urgent replica task it serves, so none built
        // means none enqueued.
        let w = Ema {
            decay: 0.6,
            tolerance: 0.02,
        };
        let ins = inputs(200);
        let cfg = Config::stats_only(5, 10, 2);
        let sink = TelemetrySink::new(cfg.chunks);
        let pool = WorkerPool::new(2);
        let (run, built, leaked) =
            probed(|| run_threaded_on(&pool, &w, &ins, cfg, 42, Some(&sink)));
        assert_eq!(run.aborts(), 0, "this setup must commit every chunk");
        assert_eq!(built, 0, "the fast path regressed to the rendezvous");
        assert_eq!(leaked, 0);
        assert_eq!(sink.snapshot().get(Counter::ReplicasValidated), 4 * 2);
    }

    #[test]
    fn rendezvous_serves_only_boundaries_candidate_zero_did_not_seal() {
        // Every chunk after the first aborts here, so every boundary with
        // a successor is sealed by a rerun, serialized or overlapped.
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        for overlap in [false, true] {
            for breadth in [1usize, 2] {
                let cfg = Config::stats_only(4, 4, 2)
                    .with_breadth(breadth)
                    .with_overlap(overlap);
                let semantic = run_speculative(&w, &ins, cfg, 7);
                let resealed = semantic.chunks[..cfg.chunks - 1]
                    .iter()
                    .filter(|c| c.aborted() || c.matched_candidate.is_some_and(|j| j > 0))
                    .count();
                assert!(resealed > 0, "this setup must abort");
                let (run, built, leaked) = probed(|| run_threaded(&w, &ins, cfg, 7));
                assert_eq!(built, resealed, "overlap {overlap}, breadth {breadth}");
                assert_eq!(leaked, 0);
                assert_eq!(run.outputs, semantic.outputs);
            }
        }
    }

    #[test]
    fn no_successor_or_no_replicas_means_no_replay_and_no_leak() {
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-6,
        };
        let ins = inputs(128);
        // m = 0 with only the last chunk left to abort: nothing to replay,
        // nothing left to validate. The same with a replica (both rerun
        // shapes). Single chunk: no boundary at all.
        let cases = [
            Config::stats_only(2, 4, 0),
            Config::stats_only(2, 4, 0).with_overlap(true),
            Config::stats_only(2, 4, 1),
            Config::stats_only(2, 4, 1).with_overlap(true),
            Config::sequential(),
        ];
        for cfg in cases {
            let sink = TelemetrySink::new(cfg.chunks);
            let semantic = run_speculative(&w, &ins, cfg, 7);
            let (run, built, leaked) =
                probed(|| run_threaded_on(WorkerPool::shared(), &w, &ins, cfg, 7, Some(&sink)));
            assert_eq!(built, 0, "{cfg:?}");
            assert_eq!(leaked, 0, "{cfg:?}");
            assert_eq!(run.outputs, semantic.outputs, "{cfg:?}");
            if cfg.chunks > 1 {
                assert_eq!(
                    run.decisions.last(),
                    Some(&ChunkDecision::Aborted),
                    "{cfg:?}: the last chunk must abort"
                );
            }
            let snap = sink.snapshot();
            assert_eq!(
                snap.get(Counter::ReplicasValidated),
                (cfg.chunks as u64 - 1) * cfg.extra_states as u64,
                "{cfg:?}"
            );
            assert_eq!(snap.get(Counter::StateBytesCopied), semantic.bytes_copied());
        }
    }
}
