//! # stats-workloads
//!
//! Rust analogs of the six nondeterministic benchmarks the paper
//! characterizes (§IV-C), each exposing an explicit state dependence
//! through [`stats_core::StateDependence`]:
//!
//! | module | paper benchmark | algorithmic skeleton |
//! |---|---|---|
//! | [`swaptions`] | `swaptions` | Monte-Carlo short-rate swaption pricing |
//! | [`streamcluster`] | `streamcluster` | online k-median over a point stream |
//! | [`streamclassifier`] | `streamclassifier` | streaming prototype classifier |
//! | [`bodytrack`] | `bodytrack` | annealed particle filter over an image stream |
//! | [`facetrack`] | `facetrack` | particle filter tracking one face |
//! | [`facedet_and_track`] | `facedet-and-track` | detector with particle-filter fallback |
//!
//! The PARSEC sources, their native inputs, and OpenCV are unavailable to a
//! pure-Rust reproduction, so each analog keeps the *shape* that matters to
//! STATS: the same state dependence (particle clouds, cluster centers,
//! price accumulators), genuine nondeterminism through seeded
//! [`StatsRng`](stats_core::StatsRng) streams, the short memory property,
//! per-input cost variance (imbalance), and per-benchmark inner TLP.
//! Inputs come from deterministic synthetic generators ([`synth`]) whose
//! known parameters and ground truth power the output-quality metrics of
//! Fig. 16 ([`quality`]). [`fluidanimate`] — the benchmark the paper
//! *excluded* — is included as a negative control: its fluid state has
//! long memory, so speculation aborts everywhere and STATS brings no
//! speedup, exactly the paper's exclusion rationale.
//!
//! [`suite`] ties everything together: per-benchmark metadata (tuned
//! configurations, native input scales, microarchitectural profiles) and a
//! visitor-style dispatcher the experiment harness iterates with.

pub mod bodytrack;
pub mod facedet_and_track;
pub mod facetrack;
pub mod fluidanimate;
pub mod particle;
pub mod quality;
pub mod streamclassifier;
pub mod streamcluster;
pub mod suite;
pub mod swaptions;
pub mod synth;

pub use suite::{
    dispatch, ExecMode, Workload, WorkloadVisitor, BENCHMARK_NAMES, EXTENDED_BENCHMARK_NAMES,
};
