//! Oversubscription parity: many more chunks than pool workers.
//!
//! The pooled executor's pipelining (replica replay overlapping the next
//! chunk, urgent-lane reruns, state recycling) must never leak into
//! results. These tests drive 64 chunks through a 4-worker pool — 16
//! chunks per worker — and require bit-for-bit agreement with the
//! semantic layer on every commit/abort decision AND every output, for
//! all six paper benchmarks, and a shared pool must carry no state
//! between runs. Snapshot strategies are held to the same bar, and
//! copy-on-write must actually collapse the trackers' copied bytes.

use stats_workbench::core::runtime::pool::WorkerPool;
use stats_workbench::core::runtime::threaded::run_threaded_on;
use stats_workbench::core::{run_speculative, ChunkDecision, Config};
use stats_workbench::workloads::Workload;
use stats_workbench::workloads::{
    bodytrack::BodyTrack, facedet_and_track::FaceDetAndTrack, facetrack::FaceTrack,
    streamclassifier::StreamClassifier, streamcluster::StreamCluster, swaptions::Swaptions,
};

const INPUTS: usize = 256;
const SEED: u64 = 0x0517_2026;

/// 64 chunks of 4 inputs on a 4-worker pool: 16 queued tasks per worker,
/// plus the replica and rerun tasks racing through the urgent lane.
fn oversubscribed_config() -> Config {
    Config::stats_only(64, 4, 2)
}

/// Run one workload through the semantic layer and the pooled executor;
/// both must agree exactly.
fn assert_parity<W>(pool: &WorkerPool, w: &W, seed: u64)
where
    W: Workload + Sync,
    W::Output: PartialEq + std::fmt::Debug,
{
    let inputs = w.generate_inputs(INPUTS, seed);
    let cfg = oversubscribed_config();
    cfg.validate(inputs.len()).expect("valid config");
    assert!(
        cfg.chunks >= 4 * pool.workers(),
        "test must oversubscribe: {} chunks on {} workers",
        cfg.chunks,
        pool.workers()
    );

    let semantic = run_speculative(w, &inputs, cfg, seed);
    let reference: Vec<ChunkDecision> = semantic.chunks.iter().map(|c| c.decision).collect();

    let pooled = run_threaded_on(pool, w, &inputs, cfg, seed, None);
    assert_eq!(
        pooled.decisions,
        reference,
        "{}: pooled decisions",
        w.name()
    );
    assert_eq!(
        pooled.outputs,
        semantic.outputs,
        "{}: pooled outputs",
        w.name()
    );
    assert_eq!(pooled.workers, pool.workers());
}

#[test]
fn oversubscribed_pool_matches_semantics_on_every_benchmark() {
    // One pool for all six benchmarks: reuse across workloads is part of
    // what's under test.
    let pool = WorkerPool::new(4);
    assert_parity(&pool, &Swaptions::paper(), SEED);
    assert_parity(&pool, &StreamCluster::paper(), SEED);
    assert_parity(&pool, &StreamClassifier::paper(), SEED);
    assert_parity(&pool, &BodyTrack::paper(), SEED);
    assert_parity(&pool, &FaceTrack::paper(), SEED);
    assert_parity(&pool, &FaceDetAndTrack::paper(), SEED);
}

#[test]
fn pool_reuse_carries_no_state_between_seeds() {
    // Interleave seeds on one pool; each run must equal a fresh-pool run
    // of the same seed, including after an intervening different seed.
    let shared = WorkerPool::new(4);
    let w = StreamClassifier::paper();
    let cfg = oversubscribed_config();
    for &seed in &[SEED, 42, SEED, 7, 42] {
        let inputs = w.generate_inputs(INPUTS, seed);
        let on_shared = run_threaded_on(&shared, &w, &inputs, cfg, seed, None);
        let fresh = WorkerPool::new(4);
        let on_fresh = run_threaded_on(&fresh, &w, &inputs, cfg, seed, None);
        assert_eq!(on_shared.decisions, on_fresh.decisions, "seed {seed}");
        assert_eq!(on_shared.outputs, on_fresh.outputs, "seed {seed}");
    }
}

#[test]
fn single_worker_pool_still_drains_oversubscribed_plans() {
    // The degenerate 1-worker pool serializes everything; decisions and
    // outputs still match the semantic layer (no deadlock, no divergence).
    let pool = WorkerPool::new(1);
    assert_parity(&pool, &Swaptions::paper(), 42);
    assert_parity(&pool, &FaceDetAndTrack::paper(), 42);
}

#[test]
fn state_pool_high_water_stays_within_capacity() {
    use stats_workbench::core::runtime::pool::StatePool;
    // The threaded executor recycles dead snapshots through a StatePool
    // capped at m + 2; the watermark proves recycling actually happens
    // without the free-list growing past its bound.
    let pool: StatePool<Vec<u64>> = StatePool::with_capacity(3);
    assert_eq!(pool.len(), 0);
    assert!(pool.is_empty());
    assert_eq!(pool.high_water(), 0);
    for i in 0..8u64 {
        pool.recycle(vec![i; 16]);
        assert!(pool.len() <= 3, "free-list exceeded its cap");
    }
    assert_eq!(pool.len(), 3, "cap bounds retained spares");
    assert_eq!(pool.high_water(), 3, "watermark saturates at the cap");
    // Draining spares lowers len but never the watermark.
    let copy = pool.copy_of(&vec![9; 16]);
    assert_eq!(copy, vec![9; 16]);
    assert_eq!(pool.len(), 2);
    assert!(!pool.is_empty());
    assert_eq!(pool.high_water(), 3);
}

#[test]
fn worker_killed_mid_run_degrades_pool_without_touching_results() {
    use stats_workbench::core::fault::{FaultKind, FaultSite, Injection};
    use stats_workbench::core::runtime::threaded::run_threaded_faulted_on;
    use stats_workbench::core::FaultPlan;

    // 64 chunks on 4 workers with one worker killed mid-run (a
    // worker-death injection on chunk 7's primary candidate): the pool
    // degrades to 3 live workers, drains all 64 chunks anyway, and the
    // results stay bit-identical to the semantic layer. The pool must
    // remain usable afterwards.
    let w = BodyTrack::paper();
    let inputs = w.generate_inputs(INPUTS, SEED);
    let cfg = oversubscribed_config();
    let plan = FaultPlan::new(
        vec![Injection {
            site: FaultSite::Chunk {
                chunk: 7,
                candidate: 0,
            },
            kind: FaultKind::WorkerDeath,
            fail_attempts: 1,
        }],
        3,
    )
    .expect("valid plan");

    let semantic = run_speculative(&w, &inputs, cfg, SEED);
    let reference: Vec<ChunkDecision> = semantic.chunks.iter().map(|c| c.decision).collect();

    let pool = WorkerPool::new(4);
    let faulted = run_threaded_faulted_on(&pool, &w, &inputs, cfg, SEED, &plan, None);
    assert_eq!(faulted.decisions, reference, "decisions under worker loss");
    assert_eq!(
        faulted.outputs, semantic.outputs,
        "outputs under worker loss"
    );

    // The doomed worker exits after its fatal job; poll briefly for the
    // teardown to land, then confirm graceful degradation (not revival:
    // the pool only revives its *last* worker).
    let mut live = pool.live_workers();
    for _ in 0..2000 {
        if live == 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        live = pool.live_workers();
    }
    assert_eq!(live, 3, "pool should have lost exactly one worker");

    // The degraded pool still serves later fault-free runs correctly.
    assert_parity(&pool, &w, SEED);
}

#[test]
fn seeded_chaos_survives_oversubscription() {
    use stats_workbench::core::runtime::threaded::run_threaded_faulted_on;
    use stats_workbench::core::FaultPlan;

    // A seeded multi-kind plan under 16x oversubscription: recovery
    // retries ride the urgent lane through a saturated queue and must
    // still be observationally invisible.
    let w = StreamClassifier::paper();
    let inputs = w.generate_inputs(INPUTS, SEED);
    let cfg = oversubscribed_config();
    let plan = FaultPlan::seeded(SEED, 6, &cfg, inputs.len());
    assert!(plan.is_recoverable());

    let semantic = run_speculative(&w, &inputs, cfg, SEED);
    let reference: Vec<ChunkDecision> = semantic.chunks.iter().map(|c| c.decision).collect();

    let pool = WorkerPool::new(4);
    let faulted = run_threaded_faulted_on(&pool, &w, &inputs, cfg, SEED, &plan, None);
    assert_eq!(faulted.decisions, reference, "decisions under seeded chaos");
    assert_eq!(
        faulted.outputs, semantic.outputs,
        "outputs under seeded chaos"
    );
}

#[test]
fn cow_snapshots_are_bit_identical_to_deep_on_every_benchmark() {
    // The tentpole's non-negotiable contract: switching the snapshot
    // strategy must not change one decision or one output bit, on any
    // benchmark, at any width. Decisions and outputs come from the
    // semantic layer (strategy-invariant by construction) and the pooled
    // executor at widths 1, 2, 4, and 8. And it must pay off where the
    // state allows: the trackers' generational particle clouds never
    // fault a shared generation, so cow at least halves their copied
    // bytes (in practice to almost nothing).
    fn assert_cow_parity<W>(w: &W)
    where
        W: Workload + Sync,
        W::Output: PartialEq + std::fmt::Debug,
    {
        use stats_workbench::core::SnapshotStrategy;
        let inputs = w.generate_inputs(INPUTS, SEED);
        let mut deep_cfg = Config::stats_only(16, 4, 2);
        deep_cfg.snapshot = SnapshotStrategy::DeepClone;
        let mut cow_cfg = deep_cfg;
        cow_cfg.snapshot = SnapshotStrategy::CopyOnWrite;

        let deep = run_speculative(w, &inputs, deep_cfg, SEED);
        let cow = run_speculative(w, &inputs, cow_cfg, SEED);
        let deep_decisions: Vec<ChunkDecision> = deep.chunks.iter().map(|c| c.decision).collect();
        let cow_decisions: Vec<ChunkDecision> = cow.chunks.iter().map(|c| c.decision).collect();
        assert_eq!(
            deep_decisions,
            cow_decisions,
            "{}: semantic decisions",
            w.name()
        );
        assert_eq!(deep.outputs, cow.outputs, "{}: semantic outputs", w.name());
        if ["bodytrack", "facetrack", "facedet-and-track"].contains(&w.name()) {
            assert!(
                deep.bytes_copied() > 0 && 2 * cow.bytes_copied() <= deep.bytes_copied(),
                "{}: cow copied {} of deep's {} bytes",
                w.name(),
                cow.bytes_copied(),
                deep.bytes_copied()
            );
        }

        for width in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(width);
            let threaded = run_threaded_on(&pool, w, &inputs, cow_cfg, SEED, None);
            assert_eq!(
                threaded.decisions,
                deep_decisions,
                "{}: cow decisions at width {width}",
                w.name()
            );
            assert_eq!(
                threaded.outputs,
                deep.outputs,
                "{}: cow outputs at width {width}",
                w.name()
            );
        }
    }
    assert_cow_parity(&Swaptions::paper());
    assert_cow_parity(&StreamCluster::paper());
    assert_cow_parity(&StreamClassifier::paper());
    assert_cow_parity(&BodyTrack::paper());
    assert_cow_parity(&FaceTrack::paper());
    assert_cow_parity(&FaceDetAndTrack::paper());
}
