//! # stats-core
//!
//! The STATS execution model: speculative parallelization of *state
//! dependences* in nondeterministic programs.
//!
//! STATS (§II of the paper) targets read-after-write dependence chains that
//! thread a computational *state* through a stream of inputs. It exploits
//! the *short memory property* — the state after input `i` barely depends
//! on inputs older than `i - k` — to split the chain into chunks that run
//! in parallel:
//!
//! * each chunk (except the first) starts from a *speculative state*
//!   produced by an **alternative producer** that processes only the `k`
//!   inputs preceding the chunk;
//! * when the previous chunk finishes, the runtime re-processes its last
//!   `k` inputs several times, producing **multiple original states** that
//!   sample the nondeterministic acceptable-state space;
//! * the speculative state is **compared** against them: a match commits
//!   the chunk, a mismatch aborts it and re-runs it from the true state.
//!
//! This crate implements that model end to end:
//!
//! * [`StateDependence`] — the developer-facing interface (the paper's
//!   language extension, §II-C).
//! * [`Config`]/[`DesignSpace`] — the tunable parameters (§II-B "STATS
//!   design space") explored by `stats-autotuner`.
//! * [`speculation`] — the semantic layer: actually runs the workload and
//!   decides every commit/abort deterministically per seed.
//! * [`runtime::sequential`] — the reference executor.
//! * [`runtime::simulated`] — executes the model on the `stats-platform`
//!   machine and emits a fully instrumented trace (the paper's §V-B
//!   methodology).
//! * [`runtime::threaded`] — the same protocol on real OS threads,
//!   scheduled as tasks on a persistent [`runtime::pool::WorkerPool`].
//! * [`InnerParallelism`] — the model of the benchmarks' pre-existing
//!   ("original") TLP, so the three configurations of Fig. 9 can be
//!   compared.

pub mod config;
pub mod dependence;
pub mod fault;
pub mod planner;
pub mod report;
pub mod rng;
pub mod runtime;
pub mod snapshot;
pub mod speculation;
pub mod tlp;

pub use config::{Config, ConfigError, DesignSpace};
pub use dependence::{StateDependence, UpdateCost};
pub use fault::{FaultKind, FaultPlan, FaultSite, FaultSpec, FaultTotals, Injection};
pub use planner::{plan_balanced, plan_weighted, ChunkPlan};
pub use report::{ChunkDecision, ResourceAccounting, RunReport};
pub use rng::StatsRng;
pub use snapshot::{CowBox, SnapshotStrategy};
pub use speculation::{
    run_speculative, run_speculative_planned, CandidateCost, ChunkOutcome, SpeculationOutcome,
};
pub use tlp::InnerParallelism;
