//! The three executors of the STATS execution model.
//!
//! * [`sequential`] — the reference executor: one thread, one state, the
//!   program as written. Baseline for every speedup in the paper.
//! * [`simulated`] — executes the model on the `stats-platform` machine,
//!   producing virtual-time traces with every critical point of the
//!   execution model instrumented (§V-B's methodology).
//! * [`threaded`] — the same protocol on real OS threads (a persistent
//!   [`pool`] of workers draining chunk/replica/rerun tasks), used to
//!   validate that the model is executable and that its commit/abort
//!   decisions match the simulator's exactly. The repo benchmark
//!   (`benchmark/`) measures its wall-clock speedup over [`sequential`].
//! * [`pool`] — the worker pool underneath the threaded executor: scoped
//!   task spawning, an urgent lane for commit-critical work, and a state
//!   free-list.

pub mod pool;
pub mod sequential;
pub mod simulated;
pub mod threaded;
