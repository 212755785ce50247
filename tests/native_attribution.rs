//! Keystone: the native causal profiler must tell the same story as the
//! simulator's virtual-time attribution, without changing the story.
//!
//! The two attributions measure the same protocol on different
//! substrates — the simulator on a deterministic cost-model machine, the
//! profiler on whatever host runs the tests — so their numbers are not
//! comparable, but their *shape* must be (the EXPERIMENTS.md
//! methodology). For every benchmark this suite asserts:
//!
//! * **ordering agreement** — the normalized loss shares of the
//!   structurally comparable categories (extra computation,
//!   mispeculation) never materially invert between native and
//!   simulated attribution; sync, sequential, unreachability and
//!   imbalance are excluded by construction (see `native_attribution`'s
//!   module docs: the simulator models lock traffic and outside-region
//!   work the native region-only executor never performs, the residuals
//!   are defined against different ideals, and native barrier waits on
//!   a time-shared host measure OS preemption, not work distribution);
//! * **what-if direction agreement** — removing an overhead or doubling
//!   workers never projects a slowdown on either side;
//! * **observation only** — with the profiler attached, the run's
//!   commit/abort decisions and outputs are bit-identical to an
//!   unprofiled run (nondeterminism comes from seeds, never from
//!   timestamps), and every deterministic protocol counter totals the
//!   same as on a counters-only sink;
//! * **bounded capture** — no ring drops a span, and no chunk records
//!   more spans than the categories a chunk can record allow
//!   ([`span_budget`]). Capture cost is therefore a constant number of
//!   span records per chunk; what one record costs in wall time is the
//!   repo benchmark's per-layer `telemetry.span_record_ns`, reported
//!   there rather than asserted here against a clock.

use stats_workbench::bench::attribution::{attribute, LossCategory};
use stats_workbench::bench::native_attribution::{
    compare_shapes, profile_workload, profile_workload_configured, simulated_reference,
};
use stats_workbench::bench::pipeline::{tuned_config, Scale, FIGURE_SEED};
use stats_workbench::core::runtime::pool::WorkerPool;
use stats_workbench::core::{run_speculative, Config, SnapshotStrategy};
use stats_workbench::platform::{CostModel, Machine, Topology};
use stats_workbench::workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const SCALE: Scale = Scale(0.08);
const WORKERS: usize = 2;
const SEEDS: usize = 2;

/// The most spans one chunk label can carry in a fault-free run of `cfg`,
/// summed over the categories the threaded runtime records for a chunk.
/// Breadth `b` candidates each record a warm-up, a hand-off copy, a
/// speculative compute and the coordinator's receive; an aborted chunk
/// adds up to two rerun segments and the coordinator's wait on them;
/// validation adds the replica rendezvous wait and the comparison. One
/// derivation of the boundary's `m` replicas is `m - 1` forks plus `m`
/// replays, and a label holds at most two derivations: its own, and the
/// early one the next boundary's losing candidate 0 made, relabelled onto
/// it as aborted compute. `Setup` is recorded once, on chunk 0.
fn span_budget(cfg: &Config) -> usize {
    let b = cfg.spec_breadth.max(1);
    let replica_derivation = (2 * cfg.extra_states).saturating_sub(1);
    let setup = 1;
    let alt_producer = b;
    let state_copy = b;
    let chunk_compute = b + 2;
    let sync = b + 2;
    let state_comparison = 1;
    let replicas = 2 * replica_derivation;
    setup + alt_producer + state_copy + chunk_compute + sync + state_comparison + replicas
}

struct PerBench {
    name: &'static str,
    parity: bool,
    dropped: u64,
    max_spans_per_chunk: usize,
    span_budget: usize,
    inversions: usize,
    whatif_directions_agree: bool,
    native_shares: Vec<(stats_workbench::telemetry::WallLoss, f64)>,
    simulated_shares: Vec<(stats_workbench::telemetry::WallLoss, f64)>,
}

struct Keystone;

impl WorkloadVisitor for Keystone {
    type Output = PerBench;
    fn visit<W: Workload>(self, w: &W) -> PerBench {
        let pool = WorkerPool::new(WORKERS);
        let seeds: Vec<u64> = (0..SEEDS as u64).map(|i| FIGURE_SEED + i).collect();
        let report = profile_workload(w, &pool, SCALE, &seeds);
        let (sim, sim_whatifs, sim_base) = simulated_reference(w, WORKERS, SCALE, FIGURE_SEED);
        let cmp = compare_shapes(&report, &sim, &sim_whatifs, sim_base);
        let mut spans_per_chunk = vec![0usize; report.config.chunks];
        for s in &report.profile.spans {
            spans_per_chunk[s.chunk as usize] += 1;
        }
        PerBench {
            name: w.name(),
            parity: report.parity,
            dropped: report.runs.iter().map(|r| r.dropped).sum(),
            max_spans_per_chunk: spans_per_chunk.into_iter().max().unwrap_or(0),
            span_budget: span_budget(&report.config),
            inversions: cmp.inversions.len(),
            whatif_directions_agree: cmp.whatif_directions_agree,
            native_shares: cmp.native,
            simulated_shares: cmp.simulated,
        }
    }
}

#[test]
fn native_attribution_agrees_with_the_simulator_on_every_benchmark() {
    let rows: Vec<PerBench> = BENCHMARK_NAMES
        .iter()
        .map(|name| dispatch(name, Keystone))
        .collect();

    for row in &rows {
        // Shape: loss ordering over the comparable categories.
        assert_eq!(
            row.inversions, 0,
            "{}: native and simulated loss orderings materially invert\n  native    {:?}\n  simulated {:?}",
            row.name, row.native_shares, row.simulated_shares,
        );
        // Shape: what-if projections point the same way.
        assert!(
            row.whatif_directions_agree,
            "{}: a what-if projected a slowdown",
            row.name
        );
        // Profiling is observation-only: decisions, outputs and every
        // deterministic protocol counter are identical between the
        // profiling sink and a counters-only sink on the same pool.
        assert!(
            row.parity,
            "{}: profiled run diverged from unprofiled run (decisions, outputs or \
             protocol counters)",
            row.name
        );
        // Ring buffers were sized for the workload: nothing was dropped,
        // so the attribution saw the complete span graph.
        assert_eq!(row.dropped, 0, "{}: profiler dropped spans", row.name);
        // Capture stays a constant number of records per chunk.
        assert!(
            row.max_spans_per_chunk <= row.span_budget,
            "{}: a chunk recorded {} spans, over its budget of {}",
            row.name,
            row.max_spans_per_chunk,
            row.span_budget
        );
    }
}

/// The machine `simulated_reference` models for a `WORKERS`-wide pool.
/// The what-if brackets below are evaluated on it by the simulator's
/// attribution, so they are deterministic: a bracket compares speedups of
/// different runs, which wall clocks on a time-shared host cannot do
/// reliably.
fn reference_machine() -> Machine {
    Machine::new(Topology::new(1, WORKERS), CostModel::default())
}

/// Relative slack on every bracket edge. The brackets hold exactly in a
/// causal model, but the simulator is a greedy list scheduler, so
/// removing or cheapening work can lengthen the schedule a little
/// (Graham's anomaly; the native profiler clamps its own what-ifs at the
/// baseline for the same reason). Over the three copy-heavy trackers,
/// both seeds and 2 or 28 cores, the largest such miss is 0.92 %: cow
/// under deep on bodytrack at 28 cores, `FIGURE_SEED + 1`.
const ANOMALY_TOLERANCE: f64 = 0.01;

#[test]
fn copies_free_whatif_brackets_the_achieved_cow_speedup() {
    // The closed loop behind `--snapshot cow`: the deep-snapshot
    // attribution projects what removing state copies buys, and
    // copy-on-write snapshots are the closest real implementation of that
    // counterfactual on the copy-heavy trackers (their generational
    // particle clouds fault no bytes). The cow speedup must land in the
    // bracket the deep attribution predicts: no worse than deep's, no
    // better than deep's plus its state-copy marginal. The byte collapse
    // behind it is asserted in `tests/oversubscription.rs`; natively,
    // both snapshot strategies must stay observation-only.
    struct Bracket;
    impl WorkloadVisitor for Bracket {
        type Output = ();
        fn visit<W: Workload>(self, w: &W) {
            let pool = WorkerPool::new(WORKERS);
            let seeds: Vec<u64> = (0..SEEDS as u64).map(|i| FIGURE_SEED + i).collect();
            let deep_cfg = tuned_config(w, 28, SCALE);
            let mut cow_cfg = deep_cfg;
            cow_cfg.snapshot = SnapshotStrategy::CopyOnWrite;
            let deep = profile_workload_configured(w, &pool, SCALE, &seeds, deep_cfg);
            let cow = profile_workload_configured(w, &pool, SCALE, &seeds, cow_cfg);
            assert!(deep.parity && cow.parity, "{}: parity broken", w.name());

            let machine = reference_machine();
            for seed in seeds {
                let deep = attribute(w, &machine, deep_cfg, SCALE, seed);
                let cow = attribute(w, &machine, cow_cfg, SCALE, seed).achieved;
                let floor = deep.achieved;
                let ceiling = deep.achieved + deep.marginal_of(LossCategory::StateCopy);
                assert!(
                    cow >= floor * (1.0 - ANOMALY_TOLERANCE),
                    "{} seed {seed}: cow speedup {cow:.4}x fell below deep's {floor:.4}x — \
                     cheaper snapshots must not cost time",
                    w.name(),
                );
                assert!(
                    cow <= ceiling * (1.0 + ANOMALY_TOLERANCE),
                    "{} seed {seed}: cow speedup {cow:.4}x exceeds the copies-free \
                     projection {ceiling:.4}x — the what-if is an upper bound on what \
                     removing copies buys",
                    w.name(),
                );
            }
        }
    }
    for name in ["bodytrack", "facetrack", "facedet-and-track"] {
        dispatch(name, Bracket);
    }
}

#[test]
fn mispeculation_free_whatif_brackets_the_achieved_breadth_speedup() {
    // The closed loop behind `--breadth`, mirroring the cow bracket
    // above: the breadth-1 attribution projects a mispeculation-free
    // speedup, and racing a second alternative candidate per chunk
    // (`--breadth 2`) is the closest real implementation of that
    // counterfactual on the abort-heavy trackers (their rescued chunks
    // skip the serial rerun entirely). The breadth-2 speedup must stay
    // under the mispeculation-free ceiling, and breadth 2 must rescue
    // aborts; natively, both breadths must stay observation-only.
    struct BreadthBracket;
    impl WorkloadVisitor for BreadthBracket {
        type Output = ();
        fn visit<W: Workload>(self, w: &W) {
            let narrow_cfg = tuned_config(w, 28, SCALE);
            let wide_cfg = narrow_cfg.with_breadth(2);
            // Wide enough that every candidate of every chunk has a
            // worker: breadth then rides on idle slots instead of
            // stealing them from chunk bodies.
            let width = narrow_cfg.chunks * 2;
            let pool = WorkerPool::new(width);
            let seeds: Vec<u64> = (0..SEEDS as u64).map(|i| FIGURE_SEED + i).collect();
            let narrow = profile_workload_configured(w, &pool, SCALE, &seeds, narrow_cfg);
            let wide = profile_workload_configured(w, &pool, SCALE, &seeds, wide_cfg);
            assert!(narrow.parity && wide.parity, "{}: parity broken", w.name());

            // Candidates rescue chunks: summed over the seeds, breadth 1
            // aborts and breadth 2 aborts strictly less. Decided by the
            // semantic layer, so no host parallelism is needed.
            let aborts = |cfg: Config| -> usize {
                seeds
                    .iter()
                    .map(|&seed| {
                        let inputs = w.generate_inputs(SCALE.inputs_for(w), seed);
                        run_speculative(w, &inputs, cfg, seed).aborts()
                    })
                    .sum()
            };
            let (narrow_aborts, wide_aborts) = (aborts(narrow_cfg), aborts(wide_cfg));
            assert!(
                narrow_aborts > 0 && wide_aborts < narrow_aborts,
                "{}: breadth 2 rescued no abort ({narrow_aborts} -> {wide_aborts})",
                w.name()
            );

            // Ceiling: rescuing every abort cannot beat the what-if that
            // removed mispeculation for free.
            let machine = reference_machine();
            for seed in seeds {
                let narrow = attribute(w, &machine, narrow_cfg, SCALE, seed);
                let wide = attribute(w, &machine, wide_cfg, SCALE, seed).achieved;
                let ceiling = narrow.achieved + narrow.marginal_of(LossCategory::Mispeculation);
                assert!(
                    wide <= ceiling * (1.0 + ANOMALY_TOLERANCE),
                    "{} seed {seed}: breadth-2 speedup {wide:.4}x exceeds the \
                     mispeculation-free projection {ceiling:.4}x",
                    w.name(),
                );
            }
        }
    }
    for name in ["bodytrack", "facetrack"] {
        dispatch(name, BreadthBracket);
    }
}

#[test]
fn attribution_accounts_for_the_full_gap_to_ideal() {
    // No loss may be negative, and projected + losses must cover the
    // ideal: the unreachability residual closes any unexplained gap.
    // Coverage can exceed the ideal — marginals are each measured
    // against the baseline independently, so overlapping causes can
    // over-explain — but it must never fall short.
    struct Accounting;
    impl WorkloadVisitor for Accounting {
        type Output = ();
        fn visit<W: Workload>(self, w: &W) {
            let pool = WorkerPool::new(WORKERS);
            let report = profile_workload(w, &pool, SCALE, &[FIGURE_SEED]);
            let a = &report.runs[0];
            let total: f64 = a.losses.iter().map(|(_, v)| v).sum();
            for (loss, v) in &a.losses {
                assert!(*v >= 0.0, "{}: negative loss for {loss:?}", w.name());
            }
            assert!(
                a.projected + total >= a.ideal - 1e-6,
                "{}: projected {} + losses {} fall short of ideal {}",
                w.name(),
                a.projected,
                total,
                a.ideal
            );
        }
    }
    for name in BENCHMARK_NAMES {
        dispatch(name, Accounting);
    }
}
