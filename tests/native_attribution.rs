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
//! * **bounded overhead** — the median min-over-reps capture overhead
//!   across the suite stays under 10%. The median, not the per-benchmark
//!   maximum, is gated: on a time-shared host (CI runs on whatever it
//!   gets, including single-core containers) any individual benchmark's
//!   delta can be swamped by scheduler noise in either direction, while
//!   the median is a robust estimate of the capture cost itself.

use stats_workbench::bench::native_attribution::{
    compare_shapes, profile_workload, profile_workload_configured, profiling_overhead_pct,
    simulated_reference,
};
use stats_workbench::bench::pipeline::{tuned_config, Scale, FIGURE_SEED};
use stats_workbench::core::runtime::pool::WorkerPool;
use stats_workbench::core::{run_speculative, Config, SnapshotStrategy};
use stats_workbench::workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const SCALE: Scale = Scale(0.08);
const WORKERS: usize = 2;
const SEEDS: usize = 2;
const OVERHEAD_REPS: usize = 3;
const OVERHEAD_LIMIT_PCT: f64 = 10.0;

struct PerBench {
    name: &'static str,
    parity: bool,
    dropped: u64,
    overhead_pct: f64,
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
        let overhead_pct = profiling_overhead_pct(w, &pool, SCALE, FIGURE_SEED, OVERHEAD_REPS);
        PerBench {
            name: w.name(),
            parity: report.parity,
            dropped: report.runs.iter().map(|r| r.dropped).sum(),
            overhead_pct,
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
    }

    // Bounded overhead, gated on the suite median (host-aware; see the
    // module docs for why the per-benchmark max is not gated).
    let mut overheads: Vec<f64> = rows.iter().map(|r| r.overhead_pct).collect();
    overheads.sort_by(f64::total_cmp);
    let median = overheads[overheads.len() / 2];
    assert!(
        median < OVERHEAD_LIMIT_PCT,
        "median span-capture overhead {median:.2}% exceeds {OVERHEAD_LIMIT_PCT}% \
         (per-benchmark: {:?})",
        rows.iter()
            .map(|r| (r.name, r.overhead_pct))
            .collect::<Vec<_>>(),
    );
}

#[test]
fn copies_free_whatif_brackets_the_achieved_cow_speedup() {
    // The tentpole's closed loop: `stats profile` under deep snapshots
    // projects a copies-free speedup; switching `--snapshot cow` is the
    // closest real implementation of that counterfactual on the
    // copy-heavy trackers (their generational particle clouds fault no
    // bytes). The achieved cow speedup must land in the bracket the deep
    // profile predicts — no worse than deep's measured speedup, no
    // better than the copies-free projection — with each edge slackened
    // by the edges' own CIs plus a documented 25% noise allowance
    // (wall-clock speedups on a time-shared CI host jitter). The byte
    // collapse behind it is asserted host-independently in
    // `tests/oversubscription.rs`.
    const BRACKET_SLACK: f64 = 1.25;
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

            // Both bracket edges compare wall-clock speedups of *different*
            // runs, so they need the host to actually run the workers in
            // parallel: on a time-shared host with fewer threads than the
            // pool, each edge measures OS preemption luck, not snapshot
            // cost, and even the 25% allowance flakes. Gate like the
            // breadth bracket's floor below.
            if stats_workbench::core::runtime::pool::default_workers() < WORKERS {
                return;
            }
            let ceiling =
                (deep.whatif_copies_free.mean + deep.whatif_copies_free.half_width) * BRACKET_SLACK;
            let floor = (deep.measured.mean - deep.measured.half_width) / BRACKET_SLACK;
            let achieved = cow.measured.mean;
            assert!(
                achieved - cow.measured.half_width <= ceiling,
                "{}: cow speedup {achieved:.3}x (ci {:.3}) exceeds the copies-free \
                 projection {:.3}x (ci {:.3}, slackened ceiling {ceiling:.3}x) — the \
                 what-if is supposed to be an upper bound on what removing copies buys",
                w.name(),
                cow.measured.half_width,
                deep.whatif_copies_free.mean,
                deep.whatif_copies_free.half_width,
            );
            assert!(
                achieved + cow.measured.half_width >= floor,
                "{}: cow speedup {achieved:.3}x (ci {:.3}) fell below deep's measured \
                 {:.3}x (ci {:.3}, slackened floor {floor:.3}x) — cheaper snapshots \
                 must not cost wall time",
                w.name(),
                cow.measured.half_width,
                deep.measured.mean,
                deep.measured.half_width,
            );
        }
    }
    for name in ["bodytrack", "facetrack", "facedet-and-track"] {
        dispatch(name, Bracket);
    }
}

#[test]
fn mispeculation_free_whatif_brackets_the_achieved_breadth_speedup() {
    // The breadth tentpole's closed loop, mirroring the cow bracket
    // above: `stats profile` at breadth 1 projects a mispeculation-free
    // speedup; racing a second alternative candidate per chunk
    // (`--breadth 2`) is the closest real implementation of that
    // counterfactual on the abort-heavy trackers (their rescued chunks
    // skip the serial rerun entirely). The achieved breadth-2 speedup
    // must stay under the mispeculation-free ceiling the breadth-1
    // profile predicts, and the native attribution must show the
    // mispeculation loss share strictly shrinking. The bracket's floor
    // (breadth must not cost wall time) additionally needs hardware to
    // absorb the candidate work — with fewer host threads than
    // chunks x breadth the extra computation is paid in wall time by
    // construction — so it is gated on host parallelism. The rescue
    // itself is a property of the protocol, not the host, and is asserted
    // on every host.
    const BRACKET_SLACK: f64 = 1.25;
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

            // The whole point: candidates rescue chunks, so the
            // mispeculation loss share strictly shrinks. Like the floor
            // below, the share assertions are gated on host parallelism:
            // with fewer host threads than the pool is wide, the captured
            // span timeline is an artifact of OS time-sharing and the
            // critical-path model can hide the single rerun entirely,
            // attributing exactly zero mispeculation loss to a run that
            // demonstrably aborted.
            let mispec = |r: &stats_workbench::bench::native_attribution::ProfileReport| {
                r.normalized_losses()
                    .iter()
                    .find(|(l, _)| *l == stats_workbench::telemetry::WallLoss::Mispeculation)
                    .map_or(0.0, |(_, s)| *s)
            };
            let (narrow_share, wide_share) = (mispec(&narrow), mispec(&wide));
            if stats_workbench::core::runtime::pool::default_workers() >= width {
                assert!(
                    narrow_share > 0.0,
                    "{}: expected an abort-heavy breadth-1 baseline, got zero \
                     mispeculation share",
                    w.name()
                );
                assert!(
                    wide_share < narrow_share,
                    "{}: mispeculation share did not shrink ({narrow_share:.4} -> \
                     {wide_share:.4})",
                    w.name()
                );
            }

            // Ceiling: rescuing every abort cannot beat the what-if that
            // removed mispeculation for free.
            let ceiling = (narrow.whatif_mispeculation_free.mean
                + narrow.whatif_mispeculation_free.half_width)
                * BRACKET_SLACK;
            assert!(
                wide.measured.mean - wide.measured.half_width <= ceiling,
                "{}: breadth-2 speedup {:.3}x (ci {:.3}) exceeds the \
                 mispeculation-free projection {:.3}x (ci {:.3}, slackened \
                 ceiling {ceiling:.3}x)",
                w.name(),
                wide.measured.mean,
                wide.measured.half_width,
                narrow.whatif_mispeculation_free.mean,
                narrow.whatif_mispeculation_free.half_width,
            );

            // Floor: gated on the host actually having the threads the
            // candidate fan-out needs.
            if stats_workbench::core::runtime::pool::default_workers() >= width {
                let floor = (narrow.measured.mean - narrow.measured.half_width) / BRACKET_SLACK;
                assert!(
                    wide.measured.mean + wide.measured.half_width >= floor,
                    "{}: breadth-2 speedup {:.3}x (ci {:.3}) fell below the \
                     breadth-1 measured floor {floor:.3}x — candidates must ride \
                     idle workers, not the critical path",
                    w.name(),
                    wide.measured.mean,
                    wide.measured.half_width,
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
