//! A boundary's replicas reach the coordinator by one of two routes:
//! replayed by the candidate-0 task that sealed the boundary and carried
//! in its result, or — when that candidate lost to a higher candidate or
//! to a rerun — re-derived on the urgent lane behind a rendezvous. A
//! replica is a pure function of (snapshot, inputs, derived stream), so
//! which route served a boundary must be invisible: decisions, outputs
//! and every protocol counter equal the semantic layer's and the
//! simulated runtime's, at every pool width.
//!
//! The two particle trackers are the workloads here: at breadth 2 and up
//! they abort and commit through higher candidates often enough that
//! most sampled runs take both routes, and their copy-on-write states
//! make the byte counters depend on which replicas are counted.

mod common;

use common::protocol_totals;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::runtime::threaded::run_threaded_on;
use stats_core::{run_speculative, ChunkDecision, Config, SnapshotStrategy};
use stats_telemetry::TelemetrySink;
use stats_workloads::bodytrack::BodyTrack;
use stats_workloads::facetrack::FaceTrack;
use stats_workloads::Workload;

#[derive(Debug, Clone, Copy)]
struct Scenario {
    chunks: usize,
    lookback: usize,
    extra_states: usize,
    breadth: usize,
    overlap: bool,
    cow: bool,
    inputs: usize,
    seed: u64,
}

impl Scenario {
    fn config(&self) -> Config {
        let mut cfg = Config::stats_only(self.chunks, self.lookback, self.extra_states)
            .with_breadth(self.breadth)
            .with_overlap(self.overlap);
        if self.cow {
            cfg.snapshot = SnapshotStrategy::CopyOnWrite;
        }
        cfg
    }
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        (1usize..9, 1usize..4, 0usize..=3, 1usize..=3),
        (0usize..2, 0usize..2, 40usize..100, 0u64..1_000),
    )
        .prop_map(
            |((chunks, lookback, extra_states, breadth), (overlap, cow, inputs, seed))| Scenario {
                chunks,
                lookback,
                extra_states,
                breadth,
                overlap: overlap == 1,
                cow: cow == 1,
                inputs,
                seed,
            },
        )
}

/// What a scenario exercised: chunks with a successor that aborted, and
/// that committed through a candidate above 0 — the boundaries whose
/// replicas took the second route.
#[derive(Debug)]
struct Resealed {
    aborts: usize,
    hits: usize,
}

fn routes_agree<W>(w: &W, sc: Scenario) -> Result<Resealed, TestCaseError>
where
    W: Workload,
    W::Output: PartialEq + std::fmt::Debug,
{
    let cfg = sc.config();
    prop_assume!(cfg.validate(sc.inputs).is_ok());
    let inputs = w.generate_inputs(sc.inputs, sc.seed);

    let semantic = run_speculative(w, &inputs, cfg, sc.seed);
    let decisions: Vec<ChunkDecision> = semantic.chunks.iter().map(|c| c.decision).collect();
    let sim_sink = TelemetrySink::new(cfg.chunks);
    let simulated = SimulatedRuntime::paper_machine()
        .run_observed(
            w.name(),
            w,
            &inputs,
            cfg,
            w.inner_parallelism(),
            sc.seed,
            Some(&sim_sink),
        )
        .expect("simulated run");
    prop_assert_eq!(&simulated.decisions, &decisions);
    let reference = protocol_totals(&sim_sink);

    for width in [1usize, 2, 4] {
        let pool = WorkerPool::new(width);
        let sink = TelemetrySink::new(cfg.chunks);
        let threaded = run_threaded_on(&pool, w, &inputs, cfg, sc.seed, Some(&sink));
        prop_assert_eq!(&threaded.decisions, &decisions, "width {}", width);
        prop_assert_eq!(&threaded.outputs, &semantic.outputs, "width {}", width);
        prop_assert_eq!(
            protocol_totals(&sink),
            reference.clone(),
            "width {}: protocol counters (order of PROTOCOL)",
            width
        );
    }

    let with_successor = &semantic.chunks[..cfg.chunks - 1];
    Ok(Resealed {
        aborts: with_successor.iter().filter(|c| c.aborted()).count(),
        hits: with_successor
            .iter()
            .filter(|c| c.matched_candidate.is_some_and(|j| j > 0))
            .count(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_replica_routes_reconcile_at_every_width(
        sc in scenarios(),
        tracker in 0usize..2,
    ) {
        if tracker == 0 {
            routes_agree(&BodyTrack::paper(), sc)?;
        } else {
            routes_agree(&FaceTrack::paper(), sc)?;
        }
    }
}

/// The proptest samples; this sweep pins one seed on which one run takes
/// both routes for both reasons, under every rerun shape, snapshot
/// strategy and replica count, so the second route cannot go unexercised.
#[test]
fn a_pinned_run_reseals_boundaries_by_abort_and_by_candidate_hit() {
    for overlap in [false, true] {
        for cow in [false, true] {
            for extra_states in 0..=3 {
                let sc = Scenario {
                    chunks: 8,
                    lookback: 2,
                    extra_states,
                    breadth: 2,
                    overlap,
                    cow,
                    inputs: 80,
                    seed: 0,
                };
                let resealed = routes_agree(&BodyTrack::paper(), sc)
                    .unwrap_or_else(|e| panic!("{sc:?}: {e:?}"));
                if extra_states == 1 {
                    assert!(
                        resealed.aborts > 0 && resealed.hits > 0,
                        "{sc:?}: {resealed:?}"
                    );
                }
            }
        }
    }
}
