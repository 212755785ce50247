//! Live telemetry must reconcile exactly with post-mortem traces.
//!
//! The telemetry sink records two independent views of a run: protocol
//! counters (derived from commit/abort outcomes) and per-category span
//! accounting (recorded when the run is lowered to tasks). The trace is a
//! third view, produced by the machine that executed those tasks. For
//! every benchmark all three must agree to the cycle — and the threaded
//! runtime, which records its counters live at the protocol call sites,
//! must report the same protocol totals as the simulated one.

use stats_telemetry::{Counter, TelemetrySink};
use stats_trace::CATEGORIES;
use stats_workbench::bench::pipeline::{tuned_config, Scale, FIGURE_SEED};
use stats_workbench::core::runtime::pool::WorkerPool;
use stats_workbench::core::runtime::simulated::SimulatedRuntime;
use stats_workbench::core::runtime::threaded::{run_threaded_faulted_on, run_threaded_on};
use stats_workbench::core::{ChunkDecision, FaultPlan};
use stats_workbench::workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const SCALE: Scale = Scale(0.05);

/// The protocol counters both runtimes record (time counters are in
/// different units — simulated cycles vs. wall nanoseconds — and are
/// checked separately).
const PROTOCOL: [Counter; 12] = [
    Counter::ChunksStarted,
    Counter::ChunksCommitted,
    Counter::ChunksAborted,
    Counter::Reruns,
    Counter::ReplicasValidated,
    Counter::StateCopies,
    Counter::StateComparisons,
    Counter::StateBytesLogical,
    Counter::StateBytesCopied,
    Counter::SpecCandidates,
    Counter::CandidateHits,
    Counter::RerunSegments,
];

/// The fault counters, reconciled exactly under injected faults (and
/// zero without them).
const FAULTS: [Counter; 3] = [
    Counter::FaultsInjected,
    Counter::RetriesScheduled,
    Counter::WorkersLost,
];

struct Reconcile {
    breadth: usize,
    overlap: bool,
}

impl WorkloadVisitor for Reconcile {
    type Output = ();
    fn visit<W: Workload>(self, w: &W) {
        let n = SCALE.inputs_for(w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let cfg = tuned_config(w, 28, SCALE)
            .with_breadth(self.breadth)
            .with_overlap(self.overlap);

        let sim_sink = TelemetrySink::new(cfg.chunks);
        let rt = SimulatedRuntime::paper_machine();
        let report = rt
            .run_observed(
                w.name(),
                w,
                &inputs,
                cfg,
                w.inner_parallelism(),
                FIGURE_SEED,
                Some(&sim_sink),
            )
            .expect("simulated run");
        let sim = sim_sink.snapshot();
        assert!(sim.consistent, "{}: torn snapshot at rest", w.name());

        // Span accounting (recorded at lowering time) matches the trace
        // (recorded at execution time) category by category, exactly.
        let trace = &report.execution.trace;
        for cat in CATEGORIES {
            let spans = trace.spans().iter().filter(|s| s.category == cat).count() as u64;
            let cycles: u64 = trace
                .spans()
                .iter()
                .filter(|s| s.category == cat)
                .map(|s| s.duration().get())
                .sum();
            assert_eq!(
                sim.category_spans(cat),
                spans,
                "{}: {} span count",
                w.name(),
                cat.name()
            );
            assert_eq!(
                sim.category_cycles(cat),
                cycles,
                "{}: {} cycles",
                w.name(),
                cat.name()
            );
        }

        // Busy + idle partition the threads' lifetimes with nothing lost.
        let lifetime = trace.makespan().get() * trace.thread_count() as u64;
        assert_eq!(
            sim.get(Counter::BusyTime) + sim.get(Counter::IdleTime),
            lifetime,
            "{}: busy/idle must partition makespan x threads",
            w.name()
        );

        // Protocol counters agree with the run's semantic outcome.
        let aborted = report
            .decisions
            .iter()
            .filter(|d| **d == ChunkDecision::Aborted)
            .count() as u64;
        let committed = report
            .decisions
            .iter()
            .filter(|d| **d == ChunkDecision::Committed)
            .count() as u64;
        assert_eq!(
            sim.get(Counter::ChunksStarted),
            report.decisions.len() as u64,
            "{}",
            w.name()
        );
        assert_eq!(sim.get(Counter::ChunksCommitted), committed, "{}", w.name());
        assert_eq!(sim.get(Counter::ChunksAborted), aborted, "{}", w.name());
        assert_eq!(sim.get(Counter::Reruns), aborted, "{}", w.name());

        // Breadth accounting: every speculative chunk launches exactly
        // `spec_breadth` candidates; hits are a subset of the commits;
        // overlapped recovery splits each rerun into at most two
        // segments (exactly one when overlap is off).
        let speculative = report.decisions.len().saturating_sub(1) as u64;
        assert_eq!(
            sim.get(Counter::SpecCandidates),
            speculative * self.breadth as u64,
            "{}",
            w.name()
        );
        assert!(sim.get(Counter::CandidateHits) <= committed, "{}", w.name());
        let segments = sim.get(Counter::RerunSegments);
        if self.overlap {
            assert!(
                segments >= aborted && segments <= 2 * aborted,
                "{}",
                w.name()
            );
        } else {
            assert_eq!(segments, aborted, "{}", w.name());
        }

        // The threaded runtime records the same protocol counters live,
        // at the worker/coordinator call sites, and lands on identical
        // totals — schedule-independence extends to the telemetry.
        let thr_sink = TelemetrySink::new(cfg.chunks);
        let threaded = run_threaded_on(
            WorkerPool::shared(),
            w,
            &inputs,
            cfg,
            FIGURE_SEED,
            Some(&thr_sink),
        );
        assert_eq!(
            threaded.decisions,
            report.decisions,
            "{}: runtimes diverged",
            w.name()
        );
        let thr = thr_sink.snapshot();
        for counter in PROTOCOL {
            assert_eq!(
                thr.get(counter),
                sim.get(counter),
                "{}: {} differs between threaded and simulated telemetry",
                w.name(),
                counter.name()
            );
        }
        // No fault plan, no fault telemetry — on either runtime.
        for counter in FAULTS {
            assert_eq!(
                thr.get(counter),
                0,
                "{}: stray {}",
                w.name(),
                counter.name()
            );
            assert_eq!(
                sim.get(counter),
                0,
                "{}: stray {}",
                w.name(),
                counter.name()
            );
        }
    }
}

/// Under a seeded fault plan, the threaded runtime records fault
/// counters live (at the recovery guards) while the simulated runtime
/// derives them post hoc from (config, chunk plan, decisions) — and
/// they must land on identical totals, alongside the untouched protocol
/// counters.
struct ReconcileFaulted {
    plan_seed: u64,
    injections: usize,
}

impl WorkloadVisitor for ReconcileFaulted {
    type Output = ();
    fn visit<W: Workload>(self, w: &W) {
        let n = SCALE.inputs_for(w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let cfg = tuned_config(w, 28, SCALE);
        let plan = FaultPlan::seeded(self.plan_seed, self.injections, &cfg, inputs.len());
        assert!(plan.is_recoverable());

        let pool = WorkerPool::new(2);
        let thr_sink = TelemetrySink::new(cfg.chunks);
        let threaded =
            run_threaded_faulted_on(&pool, w, &inputs, cfg, FIGURE_SEED, &plan, Some(&thr_sink));

        let sim_sink = TelemetrySink::new(cfg.chunks);
        let rt = SimulatedRuntime::paper_machine();
        let report = rt
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
            .expect("simulated run");
        assert_eq!(
            threaded.decisions,
            report.decisions,
            "{}: runtimes diverged under faults",
            w.name()
        );

        let thr = thr_sink.snapshot();
        let sim = sim_sink.snapshot();
        for counter in PROTOCOL.iter().chain(&FAULTS) {
            assert_eq!(
                thr.get(*counter),
                sim.get(*counter),
                "{}: {} differs between threaded and simulated telemetry under faults",
                w.name(),
                counter.name()
            );
        }
        assert!(
            thr.get(Counter::FaultsInjected) > 0,
            "{}: the seeded plan injected nothing — the reconciliation is vacuous",
            w.name()
        );
    }
}

#[test]
fn telemetry_reconciles_with_traces_on_every_benchmark() {
    for name in BENCHMARK_NAMES {
        dispatch(
            name,
            Reconcile {
                breadth: 1,
                overlap: false,
            },
        );
    }
}

#[test]
fn fault_counters_reconcile_exactly_between_runtimes() {
    for (i, name) in BENCHMARK_NAMES.iter().enumerate() {
        dispatch(
            name,
            ReconcileFaulted {
                plan_seed: FIGURE_SEED + i as u64,
                injections: 5,
            },
        );
    }
}

#[test]
fn telemetry_reconciles_with_breadth_and_overlapped_recovery() {
    // The same three-way reconciliation must survive the widest knob
    // settings: three candidates per chunk plus segmented reruns.
    for name in BENCHMARK_NAMES {
        dispatch(
            name,
            Reconcile {
                breadth: 3,
                overlap: true,
            },
        );
    }
}
