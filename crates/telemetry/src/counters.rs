//! The sharded atomic metrics core.
//!
//! One `Shard` per worker, one cache line per shard, one relaxed
//! `fetch_add` per recording — the hot path never takes a lock and never
//! contends with other workers. Aggregation happens only at snapshot
//! time, which double-reads all shards until two passes agree so a
//! snapshot taken over a quiesced core is exact.

use std::sync::atomic::{AtomicU64, Ordering};

/// A protocol counter tracked per worker.
///
/// Time-valued counters (`BusyTime`, `IdleTime`) are in nanoseconds on
/// the threaded runtime and in simulated cycles on the simulated runtime;
/// everything else is a plain event count. Both runtimes record the same
/// protocol points, so counters from a threaded run reconcile with the
/// semantic layer and counters from a simulated run reconcile with its
/// post-mortem trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Counter {
    /// Chunks whose (speculative or first) run began.
    ChunksStarted,
    /// Chunks whose speculation validated and committed.
    ChunksCommitted,
    /// Chunks whose speculation aborted.
    ChunksAborted,
    /// Serialized re-executions after an abort.
    Reruns,
    /// Pool-scheduled segments the reruns split into (equals `Reruns`
    /// unless overlapped abort recovery is on).
    RerunSegments,
    /// Breadth candidates launched (alternative producer + speculative
    /// run pipelines); equals the speculative chunk count at breadth 1.
    SpecCandidates,
    /// Commits won by a non-primary breadth candidate (candidate index
    /// above 0); always zero at breadth 1.
    CandidateHits,
    /// Extra original states generated for validation (§II-B).
    ReplicasValidated,
    /// Computational-state clones at protocol points (speculative-state
    /// hand-off, replica snapshots, true-state transfer on abort).
    StateCopies,
    /// `states_match` evaluations during validation.
    StateComparisons,
    /// Bytes the protocol *logically* replicated (state size × copy
    /// events) — invariant under the snapshot strategy.
    StateBytesLogical,
    /// Bytes *physically* copied: full clones under the deep strategy,
    /// inline scalars plus copy-on-write materializations under `cow`.
    StateBytesCopied,
    /// Worker time spent computing (ns on threads, cycles simulated).
    BusyTime,
    /// Worker time spent waiting on the protocol (ns on threads, cycles
    /// simulated).
    IdleTime,
    /// Fault-plan injections that fired (one per failed attempt).
    FaultsInjected,
    /// Retries the fault-recovery guards scheduled (bounded per site).
    RetriesScheduled,
    /// Pool workers doomed by injected worker-death faults.
    WorkersLost,
}

/// All counters, in presentation order.
pub const COUNTERS: [Counter; 17] = [
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
    Counter::BusyTime,
    Counter::IdleTime,
    Counter::FaultsInjected,
    Counter::RetriesScheduled,
    Counter::WorkersLost,
];

impl Counter {
    /// Stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ChunksStarted => "chunks_started",
            Counter::ChunksCommitted => "chunks_committed",
            Counter::ChunksAborted => "chunks_aborted",
            Counter::Reruns => "reruns",
            Counter::RerunSegments => "rerun_segments",
            Counter::SpecCandidates => "spec_candidates",
            Counter::CandidateHits => "candidate_hits",
            Counter::ReplicasValidated => "replicas_validated",
            Counter::StateCopies => "state_copies",
            Counter::StateComparisons => "state_comparisons",
            Counter::StateBytesLogical => "state_bytes_logical",
            Counter::StateBytesCopied => "state_bytes_copied",
            Counter::BusyTime => "busy_time",
            Counter::IdleTime => "idle_time",
            Counter::FaultsInjected => "faults_injected",
            Counter::RetriesScheduled => "retries_scheduled",
            Counter::WorkersLost => "workers_lost",
        }
    }

    fn index(self) -> usize {
        COUNTERS
            .iter()
            .position(|c| *c == self)
            .expect("counter listed in COUNTERS")
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One worker's counters, padded to a cache line so concurrent workers
/// never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard {
    counters: [AtomicU64; COUNTERS.len()],
}

impl Shard {
    fn read(&self) -> [u64; COUNTERS.len()] {
        let mut out = [0u64; COUNTERS.len()];
        for (slot, counter) in out.iter_mut().zip(&self.counters) {
            *slot = counter.load(Ordering::Relaxed);
        }
        out
    }
}

/// The lock-free sharded counter store.
#[derive(Debug)]
pub struct MetricsCore {
    shards: Box<[Shard]>,
}

impl MetricsCore {
    /// A core with one shard per expected worker (at least one).
    pub fn new(workers: usize) -> Self {
        let mut shards = Vec::new();
        shards.resize_with(workers.max(1), Shard::default);
        MetricsCore {
            shards: shards.into_boxed_slice(),
        }
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Record `n` occurrences of `counter` on `worker`'s shard. Lock-free:
    /// one relaxed `fetch_add`. Worker ids beyond the shard count wrap.
    #[inline]
    pub fn add(&self, worker: usize, counter: Counter, n: u64) {
        self.shards[worker % self.shards.len()].counters[counter.index()]
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Read every shard once.
    fn read_pass(&self) -> Vec<[u64; COUNTERS.len()]> {
        self.shards.iter().map(Shard::read).collect()
    }

    /// Epoch-style consistent read: re-read all shards until two
    /// consecutive passes agree (then the values all held simultaneously
    /// at some instant between the passes). Returns the per-worker matrix
    /// and whether agreement was reached; under sustained concurrent
    /// writes the last pass is returned with `false` — each value is
    /// still individually exact and monotone.
    pub fn read_consistent(&self) -> (Vec<[u64; COUNTERS.len()]>, bool) {
        let mut prev = self.read_pass();
        for _ in 0..8 {
            let next = self.read_pass();
            if next == prev {
                return (next, true);
            }
            prev = next;
        }
        (prev, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn counter_names_unique_and_indexed() {
        let mut names: Vec<_> = COUNTERS.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS.len());
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(format!("{c}"), c.name());
        }
    }

    #[test]
    fn add_and_read_single_thread() {
        let m = MetricsCore::new(3);
        m.add(0, Counter::ChunksStarted, 1);
        m.add(1, Counter::ChunksStarted, 2);
        m.add(2, Counter::StateCopies, 7);
        m.add(5, Counter::Reruns, 1); // wraps to shard 2
        let (rows, consistent) = m.read_consistent();
        assert!(consistent);
        assert_eq!(rows[0][Counter::ChunksStarted.index()], 1);
        assert_eq!(rows[1][Counter::ChunksStarted.index()], 2);
        assert_eq!(rows[2][Counter::StateCopies.index()], 7);
        assert_eq!(rows[2][Counter::Reruns.index()], 1);
    }

    #[test]
    fn zero_workers_still_usable() {
        let m = MetricsCore::new(0);
        assert_eq!(m.workers(), 1);
        m.add(9, Counter::IdleTime, 3);
        let (rows, _) = m.read_consistent();
        assert_eq!(rows[0][Counter::IdleTime.index()], 3);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        const WORKERS: usize = 8;
        const PER_WORKER: u64 = 50_000;
        let m = MetricsCore::new(WORKERS);
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..PER_WORKER {
                        m.add(w, Counter::StateComparisons, 1);
                        m.add(w, Counter::BusyTime, 2);
                    }
                });
            }
        });
        let (rows, consistent) = m.read_consistent();
        assert!(consistent, "quiesced read must be consistent");
        let comparisons: u64 = rows
            .iter()
            .map(|r| r[Counter::StateComparisons.index()])
            .sum();
        let busy: u64 = rows.iter().map(|r| r[Counter::BusyTime.index()]).sum();
        assert_eq!(comparisons, WORKERS as u64 * PER_WORKER);
        assert_eq!(busy, WORKERS as u64 * PER_WORKER * 2);
    }

    #[test]
    fn snapshot_under_contention_is_monotone() {
        let m = MetricsCore::new(2);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let m_ref = &m;
            let stop_ref = &stop;
            s.spawn(move || {
                while !stop_ref.load(Ordering::Relaxed) {
                    m_ref.add(0, Counter::ChunksStarted, 1);
                }
            });
            let mut last = 0u64;
            for _ in 0..100 {
                let (rows, _) = m_ref.read_consistent();
                let v = rows[0][Counter::ChunksStarted.index()];
                assert!(v >= last, "counter went backwards");
                last = v;
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
