//! Shared by the integration tests that reconcile runtimes counter by
//! counter.

use stats_telemetry::{Counter, TelemetrySink};

/// Every count the protocol records (no timing): what must be equal
/// between the semantic layer, the simulated runtime and the threaded
/// runtime — at any pool width, with or without recovered faults.
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

/// `sink`'s totals, in the order of [`PROTOCOL`].
pub fn protocol_totals(sink: &TelemetrySink) -> Vec<u64> {
    let snap = sink.snapshot();
    PROTOCOL.iter().map(|c| snap.get(*c)).collect()
}
