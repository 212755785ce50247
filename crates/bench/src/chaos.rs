//! Differential chaos harness for the fault-injection plane.
//!
//! For every benchmark × pool width × seeded fault plan, this module
//! runs the pooled executor three ways — fault-free, under the plan,
//! and on the simulated runtime under the same plan — and checks the
//! recovery invariant from every angle:
//!
//! * **parity** — the faulted run's decisions and quality bits equal
//!   the fault-free run's, bit for bit;
//! * **protocol counters** — all twelve protocol counters are untouched
//!   by recovery (the guards fire before any recording, so the clearing
//!   attempt records exactly once);
//! * **reconciliation** — the simulated runtime, which *derives* the
//!   fault counters post hoc from (config, chunk plan, decisions),
//!   produces exactly the counters the threaded run recorded live —
//!   protocol and fault counters both;
//! * **accounting** — the observed fault counters equal the plan's own
//!   [`FaultPlan::expected_totals`], and retries stay within
//!   `injections × max_retries`.
//!
//! `tests/fault_recovery.rs` runs the sweep at reduced scale and gates
//! every cell and the coverage of all six injection kinds.

use crate::pipeline::{tuned_config, Scale, FIGURE_SEED};
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::runtime::threaded::{run_threaded_faulted_on, run_threaded_on};
use stats_core::{plan_balanced, FaultPlan};
use stats_telemetry::{Counter, Snapshot, TelemetrySink};
use stats_workloads::{Workload, WorkloadVisitor};

/// Pool widths each plan is swept across (the protocol is
/// width-oblivious; recovery must be too).
pub const WIDTHS: [usize; 3] = [1, 2, 4];

/// The deterministic protocol counters: neither fault recovery nor the
/// profiler (`native_attribution`) may move them.
pub const PROTOCOL: [Counter; 12] = [
    Counter::ChunksStarted,
    Counter::ChunksCommitted,
    Counter::ChunksAborted,
    Counter::Reruns,
    Counter::RerunSegments,
    Counter::SpecCandidates,
    Counter::CandidateHits,
    Counter::ReplicasValidated,
    Counter::StateCopies,
    Counter::StateComparisons,
    Counter::StateBytesLogical,
    Counter::StateBytesCopied,
];

/// Fault counters both runtimes must reconcile exactly.
pub const FAULT_COUNTERS: [Counter; 3] = [
    Counter::FaultsInjected,
    Counter::RetriesScheduled,
    Counter::WorkersLost,
];

fn totals(snap: &Snapshot, counters: &[Counter]) -> Vec<u64> {
    counters.iter().map(|c| snap.get(*c)).collect()
}

/// One (width, plan seed) cell of the sweep.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Pool width the faulted run executed on.
    pub width: usize,
    /// Faulted decisions equal fault-free decisions.
    pub decisions_match: bool,
    /// Faulted quality bits equal fault-free quality bits.
    pub quality_match: bool,
    /// The twelve protocol counters are untouched by recovery.
    pub protocol_match: bool,
    /// All fifteen counters reconcile exactly with the simulated run
    /// under the same plan.
    pub sim_reconciled: bool,
    /// Observed fault counters equal the plan's derived totals.
    pub totals_exact: bool,
    /// Retries stayed within `planned × max_retries`.
    pub retries_bounded: bool,
    /// Names of the injection kinds that actually executed this run.
    pub kinds_executed: Vec<&'static str>,
}

impl ChaosCell {
    /// Every invariant the cell checks.
    pub fn ok(&self) -> bool {
        self.decisions_match
            && self.quality_match
            && self.protocol_match
            && self.sim_reconciled
            && self.totals_exact
            && self.retries_bounded
    }
}

/// One benchmark's sweep row.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    pub name: String,
    pub cells: Vec<ChaosCell>,
}

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSweep {
    /// Input-size scale (see [`Scale`]).
    pub scale: Scale,
    /// Seeded plans per pool width.
    pub plans: usize,
    /// Injections requested per plan.
    pub injections: usize,
}

impl WorkloadVisitor for &ChaosSweep {
    type Output = ChaosRow;
    fn visit<W: Workload>(self, w: &W) -> ChaosRow {
        let n = self.scale.inputs_for(w);
        let cfg = tuned_config(w, 28, self.scale);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let chunk_plan = plan_balanced(inputs.len(), cfg.chunks);
        let rt = SimulatedRuntime::paper_machine();

        let mut cells = Vec::new();
        for &width in &WIDTHS {
            // The fault-free reference for this width: decisions,
            // quality, and protocol counters recovery must reproduce.
            let clean_pool = WorkerPool::new(width);
            let clean_sink = TelemetrySink::new(cfg.chunks);
            let clean =
                run_threaded_on(&clean_pool, w, &inputs, cfg, FIGURE_SEED, Some(&clean_sink));
            let clean_quality = w.quality(&inputs, &clean.outputs).to_bits();
            let clean_protocol = totals(&clean_sink.snapshot(), &PROTOCOL);

            for p in 0..self.plans {
                let plan_seed = FIGURE_SEED ^ (width as u64) << 32 ^ p as u64;
                let plan = FaultPlan::seeded(plan_seed, self.injections, &cfg, inputs.len());

                // Fresh pool per faulted cell: worker-death injections
                // doom workers, and cells must not inherit each other's
                // degraded pools.
                let pool = WorkerPool::new(width);
                let sink = TelemetrySink::new(cfg.chunks);
                let faulted = run_threaded_faulted_on(
                    &pool,
                    w,
                    &inputs,
                    cfg,
                    FIGURE_SEED,
                    &plan,
                    Some(&sink),
                );
                let snap = sink.snapshot();

                let sim_sink = TelemetrySink::new(cfg.chunks);
                let sim = rt
                    .run_observed_faulted(
                        w.name(),
                        w,
                        &inputs,
                        cfg,
                        w.inner_parallelism(),
                        FIGURE_SEED,
                        &plan,
                        Some(&sim_sink),
                    )
                    .expect("valid configuration");
                let sim_snap = sim_sink.snapshot();

                let expected = plan.expected_totals(&cfg, &chunk_plan, &faulted.decisions);
                let kinds_executed = plan
                    .injections()
                    .iter()
                    .filter(|i| plan.executes(i, &cfg, &chunk_plan, &faulted.decisions))
                    .map(|i| i.kind.name())
                    .collect();

                let quality = w.quality(&inputs, &faulted.outputs).to_bits();
                let reconciled = [PROTOCOL.as_slice(), FAULT_COUNTERS.as_slice()].concat();
                cells.push(ChaosCell {
                    width,
                    decisions_match: faulted.decisions == clean.decisions
                        && faulted.decisions == sim.decisions,
                    quality_match: quality == clean_quality
                        && quality == w.quality(&inputs, &sim.outputs).to_bits(),
                    protocol_match: totals(&snap, &PROTOCOL) == clean_protocol,
                    sim_reconciled: totals(&snap, &reconciled) == totals(&sim_snap, &reconciled),
                    totals_exact: snap.get(Counter::FaultsInjected) == expected.injected
                        && snap.get(Counter::RetriesScheduled) == expected.retries
                        && snap.get(Counter::WorkersLost) == expected.workers_lost,
                    retries_bounded: snap.get(Counter::RetriesScheduled)
                        <= (plan.injections().len() * plan.max_retries) as u64,
                    kinds_executed,
                });
            }
        }
        ChaosRow {
            name: w.name().to_string(),
            cells,
        }
    }
}

/// Sweep-level verdict.
#[derive(Debug, Clone)]
pub struct ChaosGate {
    /// Every cell's invariants held.
    pub all_ok: bool,
    /// Injection kinds that executed at least once across the sweep.
    pub kinds_covered: Vec<&'static str>,
    /// All six kinds executed somewhere in the sweep.
    pub full_coverage: bool,
}

/// All injection kinds, by stable name.
const ALL_KINDS: [&str; 6] = [
    "task_panic",
    "worker_death",
    "delayed_start",
    "poisoned_snapshot",
    "lost_result",
    "transfer_failure",
];

impl ChaosGate {
    /// Evaluate a finished sweep.
    pub fn evaluate(rows: &[ChaosRow]) -> ChaosGate {
        let all_ok = rows.iter().all(|r| r.cells.iter().all(ChaosCell::ok));
        let mut kinds_covered: Vec<&'static str> = Vec::new();
        for kind in rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .flat_map(|c| c.kinds_executed.iter())
        {
            if !kinds_covered.contains(kind) {
                kinds_covered.push(kind);
            }
        }
        kinds_covered.sort_unstable();
        let full_coverage = ALL_KINDS.iter().all(|k| kinds_covered.contains(k));
        ChaosGate {
            all_ok,
            kinds_covered,
            full_coverage,
        }
    }
}
