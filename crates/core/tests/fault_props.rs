//! Property tests for the deterministic fault-injection plane, across
//! the six real benchmarks.
//!
//! The recovery invariant (DESIGN.md §15): a seeded fault plan is
//! *observationally invisible*. For arbitrary (seed, plan, benchmark,
//! pool width):
//!
//! 1. a faulted threaded run produces the same decisions and outputs as
//!    the fault-free run of the same configuration;
//! 2. the retries the recovery guards schedule stay within the plan's
//!    bound (`injections × max_retries`);
//! 3. an *empty* fault plan is the head executor bit for bit — the
//!    guards add no protocol recordings of their own.

mod common;

use common::protocol_totals;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::runtime::threaded::{run_threaded_faulted_on, run_threaded_on};
use stats_core::{run_speculative, Config, FaultKind, FaultPlan, FaultSite, Injection};
use stats_telemetry::{Counter, TelemetrySink};
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

/// One generated protocol scenario, small enough that a six-benchmark
/// proptest stays quick but large enough to see commits and aborts.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    chunks: usize,
    lookback: usize,
    extra_states: usize,
    inputs: usize,
    seed: u64,
    plan_seed: u64,
    injections: usize,
    width: usize,
}

impl Scenario {
    fn config(&self) -> Config {
        Config::stats_only(self.chunks, self.lookback, self.extra_states)
    }
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        (2usize..6, 1usize..4, 0usize..3, 40usize..100),
        (0u64..1_000, 0u64..1_000, 1usize..6, 1usize..=4),
    )
        .prop_map(
            |((chunks, lookback, extra_states, inputs), (seed, plan_seed, injections, width))| {
                Scenario {
                    chunks,
                    lookback,
                    extra_states,
                    inputs,
                    seed,
                    plan_seed,
                    injections,
                    width,
                }
            },
        )
}

/// A faulted run is the fault-free run: same decisions, same outputs,
/// same protocol counters; retries stay within the plan's bound.
struct RecoveryIsInvisible {
    sc: Scenario,
}

impl WorkloadVisitor for RecoveryIsInvisible {
    type Output = Result<(), TestCaseError>;
    fn visit<W: Workload>(self, w: &W) -> Self::Output {
        let cfg = self.sc.config();
        prop_assume!(cfg.validate(self.sc.inputs).is_ok());
        let inputs = w.generate_inputs(self.sc.inputs, self.sc.seed);
        let plan = FaultPlan::seeded(self.sc.plan_seed, self.sc.injections, &cfg, inputs.len());
        prop_assert!(plan.is_recoverable());

        let pool = WorkerPool::new(self.sc.width);
        let clean_sink = TelemetrySink::new(self.sc.width);
        let clean = run_threaded_on(&pool, w, &inputs, cfg, self.sc.seed, Some(&clean_sink));

        // A fresh pool for the faulted run: worker-death injections doom
        // workers, and the clean run must not share their fate.
        let faulted_pool = WorkerPool::new(self.sc.width);
        let faulted_sink = TelemetrySink::new(self.sc.width);
        let faulted = run_threaded_faulted_on(
            &faulted_pool,
            w,
            &inputs,
            cfg,
            self.sc.seed,
            &plan,
            Some(&faulted_sink),
        );

        prop_assert_eq!(
            &clean.decisions,
            &faulted.decisions,
            "{}: fault recovery changed decisions",
            w.name()
        );
        prop_assert_eq!(
            w.quality(&inputs, &clean.outputs),
            w.quality(&inputs, &faulted.outputs),
            "{}: fault recovery changed outputs",
            w.name()
        );
        prop_assert_eq!(
            protocol_totals(&clean_sink),
            protocol_totals(&faulted_sink),
            "{}: fault recovery perturbed protocol counters",
            w.name()
        );

        let snap = faulted_sink.snapshot();
        let retries = snap.get(Counter::RetriesScheduled);
        let bound = (plan.injections().len() * plan.max_retries) as u64;
        prop_assert!(
            retries <= bound,
            "{}: {} retries exceed the bound {}",
            w.name(),
            retries,
            bound
        );
        // Clean runs record no fault telemetry at all.
        let clean_snap = clean_sink.snapshot();
        for c in [
            Counter::FaultsInjected,
            Counter::RetriesScheduled,
            Counter::WorkersLost,
        ] {
            prop_assert_eq!(
                clean_snap.get(c),
                0,
                "{}: clean run recorded {}",
                w.name(),
                c
            );
        }
        Ok(())
    }
}

/// The empty plan routes through the faulted executor yet is the head
/// path bit for bit: decisions, outputs, protocol counters, and zero
/// fault telemetry.
struct EmptyPlanIsHead {
    sc: Scenario,
}

impl WorkloadVisitor for EmptyPlanIsHead {
    type Output = Result<(), TestCaseError>;
    fn visit<W: Workload>(self, w: &W) -> Self::Output {
        let cfg = self.sc.config();
        prop_assume!(cfg.validate(self.sc.inputs).is_ok());
        let inputs = w.generate_inputs(self.sc.inputs, self.sc.seed);
        let empty = FaultPlan::none();

        let pool = WorkerPool::new(self.sc.width);
        let head_sink = TelemetrySink::new(self.sc.width);
        let head = run_threaded_on(&pool, w, &inputs, cfg, self.sc.seed, Some(&head_sink));
        let empty_sink = TelemetrySink::new(self.sc.width);
        let faulted = run_threaded_faulted_on(
            &pool,
            w,
            &inputs,
            cfg,
            self.sc.seed,
            &empty,
            Some(&empty_sink),
        );

        prop_assert_eq!(&head.decisions, &faulted.decisions, "{}", w.name());
        prop_assert_eq!(
            w.quality(&inputs, &head.outputs),
            w.quality(&inputs, &faulted.outputs),
            "{}",
            w.name()
        );
        prop_assert_eq!(
            protocol_totals(&head_sink),
            protocol_totals(&empty_sink),
            "{}: empty plan perturbed protocol counters",
            w.name()
        );
        let snap = empty_sink.snapshot();
        prop_assert_eq!(snap.get(Counter::FaultsInjected), 0);
        prop_assert_eq!(snap.get(Counter::RetriesScheduled), 0);
        prop_assert_eq!(snap.get(Counter::WorkersLost), 0);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn seeded_fault_recovery_is_observationally_invisible(
        sc in scenarios(),
        bench in 0usize..6,
    ) {
        dispatch(BENCHMARK_NAMES[bench], RecoveryIsInvisible { sc })?;
    }

    #[test]
    fn empty_fault_plan_is_the_head_executor(
        sc in scenarios(),
        bench in 0usize..6,
    ) {
        dispatch(BENCHMARK_NAMES[bench], EmptyPlanIsHead { sc })?;
    }
}

/// The proptest above samples benchmarks; this deterministic sweep pins
/// every benchmark under a seeded plan once, so a regression in any
/// single benchmark cannot hide behind sampling.
#[test]
fn every_benchmark_recovers_under_a_seeded_plan() {
    let sc = Scenario {
        chunks: 4,
        lookback: 2,
        extra_states: 1,
        inputs: 64,
        seed: 11,
        plan_seed: 7,
        injections: 4,
        width: 2,
    };
    for name in BENCHMARK_NAMES {
        let r = dispatch(name, RecoveryIsInvisible { sc });
        r.unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

/// Replica sites fire where candidate 0 of the boundary's chunk replays
/// them, once — also on a boundary whose candidate 0 then loses and
/// whose replicas are derived a second time from the state that won.
struct ReplicaSitesFireOnce;

impl WorkloadVisitor for ReplicaSitesFireOnce {
    type Output = ();
    fn visit<W: Workload>(self, w: &W) {
        const SEED: u64 = 0;
        let cfg = Config::stats_only(8, 2, 1).with_breadth(2);
        let inputs = w.generate_inputs(80, SEED);
        let semantic = run_speculative(w, &inputs, cfg, SEED);
        let with_successor = &semantic.chunks[..cfg.chunks - 1];
        let hit = with_successor
            .iter()
            .position(|c| c.matched_candidate.is_some_and(|j| j > 0))
            .expect("a chunk committed through candidate 1");
        let aborted = with_successor
            .iter()
            .position(|c| c.aborted())
            .expect("a chunk aborted");
        let site = |boundary| FaultSite::Replica {
            boundary,
            replica: 0,
        };
        let plan = FaultPlan::new(
            vec![
                Injection {
                    site: site(hit),
                    kind: FaultKind::TaskPanic,
                    fail_attempts: 2,
                },
                Injection {
                    site: site(aborted),
                    kind: FaultKind::LostResult,
                    fail_attempts: 1,
                },
            ],
            3,
        )
        .expect("valid plan");

        let pool = WorkerPool::new(2);
        let thr_sink = TelemetrySink::new(cfg.chunks);
        let threaded =
            run_threaded_faulted_on(&pool, w, &inputs, cfg, SEED, &plan, Some(&thr_sink));
        let sim_sink = TelemetrySink::new(cfg.chunks);
        let simulated = SimulatedRuntime::paper_machine()
            .run_observed_faulted(
                w.name(),
                w,
                &inputs,
                cfg,
                w.inner_parallelism(),
                SEED,
                &plan,
                Some(&sim_sink),
            )
            .expect("simulated run");
        assert_eq!(threaded.decisions, simulated.decisions);
        assert_eq!(protocol_totals(&thr_sink), protocol_totals(&sim_sink));
        let (thr, sim) = (thr_sink.snapshot(), sim_sink.snapshot());
        for (counter, expected) in [
            (Counter::FaultsInjected, 3),
            (Counter::RetriesScheduled, 3),
            (Counter::WorkersLost, 0),
        ] {
            assert_eq!(sim.get(counter), expected, "simulated {counter}");
            assert_eq!(thr.get(counter), expected, "threaded {counter}");
        }
    }
}

#[test]
fn replica_sites_fire_once_when_candidate_zero_loses() {
    dispatch("bodytrack", ReplicaSitesFireOnce);
}
