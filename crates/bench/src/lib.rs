//! # stats-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§V), regenerating each from the workbench's simulated
//! runtime. [`report::FIGURES`] lists every section under the id that
//! `stats figures` takes; integration tests call the same entry points
//! at reduced scale.
//!
//! | module | regenerates |
//! |---|---|
//! | [`table1`] | Table I — threads/states/state sizes per benchmark |
//! | [`fig09`]  | Fig. 9 — speedups of Original / Seq. STATS / Par. STATS |
//! | [`fig10`]  | Fig. 10 — % speedup lost per overhead source (combined TLP) |
//! | [`fig11`]  | Fig. 11 — extra-computation breakdown (combined TLP) |
//! | [`fig12`]  | Fig. 12 — % speedup lost, STATS TLP only, 14/28 cores |
//! | [`fig13`]  | Fig. 13 — extra-computation breakdown, STATS TLP only |
//! | [`fig14`]  | Fig. 14 — extra instructions vs. baseline |
//! | [`fig15`]  | Fig. 15 — extra-instruction breakdown |
//! | [`table2`] | Table II — cache misses and branch mispredictions |
//! | [`fig16`]  | Fig. 16 — output-quality distributions |
//!
//! [`ablations`] adds the design-choice sweeps DESIGN.md calls out
//! (sync-cost elasticity, state-copy acceleration, k/m/chunk trade-offs);
//! [`scaling`] sweeps input size and core count (§I's headline claims);
//! [`chaos`] differentially tests the fault-injection plane for
//! `tests/fault_recovery.rs` (recovery must be observationally
//! invisible — DESIGN.md §15).
//! The measurement machinery lives in [`attribution`]: the post-mortem
//! what-if analysis of §V-B ("we emulate the parallel execution removing
//! only the part of the overhead targeted that is in the critical path",
//! after \[26\]); [`native_attribution`] answers the same question in
//! wall time for the pooled threaded runtime (`stats profile`).
//! Wall-clock speedup over the sequential program is measured by the
//! repo benchmark (`benchmark/`), not here.

pub mod ablations;
pub mod attribution;
pub mod chaos;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod native_attribution;
pub mod pipeline;
pub mod render;
pub mod report;
pub mod scaling;
pub mod table1;
pub mod table2;
