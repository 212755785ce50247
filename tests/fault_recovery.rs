//! Differential chaos tests: seeded fault plans must be observationally
//! invisible across benchmarks, pool widths, and injection kinds.
//!
//! Drives the `stats_bench::chaos` sweep at reduced scale; these two
//! tests are the chaos gate (every cell identical, all six injection
//! kinds executed).

use stats_bench::chaos::{ChaosGate, ChaosRow, ChaosSweep, WIDTHS};
use stats_bench::pipeline::Scale;
use stats_workloads::{dispatch, BENCHMARK_NAMES};

fn sweep(plans: usize, injections: usize) -> Vec<ChaosRow> {
    let sweep = ChaosSweep {
        scale: Scale(0.02),
        plans,
        injections,
    };
    BENCHMARK_NAMES
        .iter()
        .map(|name| dispatch(name, &sweep))
        .collect()
}

/// Every benchmark × width × plan cell: decisions, quality bits, and
/// protocol counters identical to the fault-free run; fault counters
/// reconciled exactly with the simulated runtime; accounting exact.
#[test]
fn seeded_plans_recover_invisibly_across_benchmarks_and_widths() {
    let rows = sweep(2, 4);
    for row in &rows {
        assert_eq!(row.cells.len(), WIDTHS.len() * 2, "{}", row.name);
        for c in &row.cells {
            assert!(
                c.decisions_match,
                "{} w{}: decisions diverged",
                row.name, c.width
            );
            assert!(
                c.quality_match,
                "{} w{}: outputs diverged",
                row.name, c.width
            );
            assert!(
                c.protocol_match,
                "{} w{}: recovery perturbed protocol counters",
                row.name, c.width
            );
            assert!(
                c.sim_reconciled,
                "{} w{}: threaded and simulated fault counters disagree",
                row.name, c.width
            );
            assert!(
                c.totals_exact,
                "{} w{}: observed fault counters differ from the plan's derivation",
                row.name, c.width
            );
            assert!(
                c.retries_bounded,
                "{} w{}: retry bound exceeded",
                row.name, c.width
            );
        }
    }
    let gate = ChaosGate::evaluate(&rows);
    assert!(gate.all_ok);
}

/// The sweep exercises every injection kind at least once — a kind that
/// never executes is a kind the suite never tested.
#[test]
fn sweep_covers_every_injection_kind() {
    let rows = sweep(3, 6);
    let gate = ChaosGate::evaluate(&rows);
    assert!(
        gate.full_coverage,
        "kinds covered: {:?}",
        gate.kinds_covered
    );
}
