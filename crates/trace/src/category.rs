//! The overhead taxonomy of §III of the paper.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Activity categories recorded by the STATS runtime.
///
/// These mirror the paper's sources of overhead (§III) plus the
/// non-overhead activities needed to account for every cycle:
///
/// * the six "extra computation" components of §III-B
///   ([`Setup`](Category::Setup), [`AltProducer`](Category::AltProducer),
///   [`OriginalStateGen`](Category::OriginalStateGen),
///   [`StateComparison`](Category::StateComparison),
///   [`StateCopy`](Category::StateCopy)),
/// * thread synchronization (§III-C, [`Sync`](Category::Sync)),
/// * code outside the parallelized region (§III-D,
///   [`OutsideRegion`](Category::OutsideRegion)),
/// * the useful work itself ([`ChunkCompute`](Category::ChunkCompute)), and
/// * speculation bookkeeping ([`Commit`](Category::Commit),
///   [`AbortedCompute`](Category::AbortedCompute), re-execution after an
///   abort is regular `ChunkCompute`).
///
/// Imbalance, mispeculation, and unreachability (§III-A, §III-E) are not
/// span categories: they are *derived* properties of a whole trace and are
/// computed by the critical-path attribution in `stats-bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// Allocation/initialization/teardown of STATS support structures
    /// (input lists, state buffers, mutexes, condition variables).
    Setup,
    /// An alternative producer processing the `k` inputs that precede its
    /// chunk to predict the chunk's initial state (§III-B "Generating
    /// speculative states").
    AltProducer,
    /// Re-processing the last `k` inputs of a chunk to generate one of the
    /// extra original states used to validate speculation (§III-B
    /// "Generating multiple original states").
    OriginalStateGen,
    /// Comparing a speculative state against the original states (§III-B
    /// "State comparisons").
    StateComparison,
    /// Cloning a computational state (§III-B "State copying").
    StateCopy,
    /// Kernel-level wakeups and waiting at synchronization points (§III-C).
    Sync,
    /// Useful work: processing the inputs of a chunk. This is the only
    /// category that also exists in the original program.
    ChunkCompute,
    /// Speculative chunk computation that was later aborted and re-executed
    /// (§II-B case (i)). The re-execution itself is `ChunkCompute`.
    AbortedCompute,
    /// Commit-protocol bookkeeping in the STATS runtime.
    Commit,
    /// Program code before/after the region parallelized by STATS (§III-D).
    OutsideRegion,
}

/// All categories, in presentation order (overheads first, then work).
pub const CATEGORIES: [Category; 10] = [
    Category::Setup,
    Category::AltProducer,
    Category::OriginalStateGen,
    Category::StateComparison,
    Category::StateCopy,
    Category::Sync,
    Category::Commit,
    Category::AbortedCompute,
    Category::OutsideRegion,
    Category::ChunkCompute,
];

/// Coarse classification of a [`Category`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CategoryKind {
    /// Work the original program would also have performed.
    UsefulWork,
    /// Extra computation introduced by the STATS execution model (§III-B).
    ExtraComputation,
    /// Synchronization overhead (§III-C).
    Synchronization,
    /// Sequential code outside the STATS region (§III-D).
    Sequential,
}

impl Category {
    /// Coarse kind of this category.
    ///
    /// ```
    /// use stats_trace::{Category, CategoryKind};
    /// assert_eq!(Category::AltProducer.kind(), CategoryKind::ExtraComputation);
    /// assert_eq!(Category::ChunkCompute.kind(), CategoryKind::UsefulWork);
    /// ```
    pub fn kind(self) -> CategoryKind {
        match self {
            Category::ChunkCompute => CategoryKind::UsefulWork,
            Category::Sync => CategoryKind::Synchronization,
            Category::OutsideRegion => CategoryKind::Sequential,
            Category::Setup
            | Category::AltProducer
            | Category::OriginalStateGen
            | Category::StateComparison
            | Category::StateCopy
            | Category::Commit
            | Category::AbortedCompute => CategoryKind::ExtraComputation,
        }
    }

    /// Whether the category is pure overhead of the STATS execution model:
    /// removing it entirely would leave the program's semantics intact.
    pub fn is_overhead(self) -> bool {
        !matches!(self, Category::ChunkCompute)
    }

    /// Short stable name used in reports and serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            Category::Setup => "setup",
            Category::AltProducer => "alt-producer",
            Category::OriginalStateGen => "original-state-gen",
            Category::StateComparison => "state-comparison",
            Category::StateCopy => "state-copy",
            Category::Sync => "sync",
            Category::ChunkCompute => "chunk-compute",
            Category::AbortedCompute => "aborted-compute",
            Category::Commit => "commit",
            Category::OutsideRegion => "outside-region",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_category_is_listed_once() {
        for (i, a) in CATEGORIES.iter().enumerate() {
            for b in &CATEGORIES[i + 1..] {
                assert_ne!(a, b, "duplicate category in CATEGORIES");
            }
        }
        assert_eq!(CATEGORIES.len(), 10);
    }

    #[test]
    fn only_chunk_compute_is_useful_work() {
        let useful: Vec<_> = CATEGORIES
            .iter()
            .filter(|c| c.kind() == CategoryKind::UsefulWork)
            .collect();
        assert_eq!(useful, vec![&Category::ChunkCompute]);
    }

    #[test]
    fn overhead_flag_matches_kind() {
        for c in CATEGORIES {
            assert_eq!(c.is_overhead(), c.kind() != CategoryKind::UsefulWork);
        }
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<_> = CATEGORIES.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATEGORIES.len());
    }

    #[test]
    fn display_matches_name() {
        for c in CATEGORIES {
            assert_eq!(format!("{c}"), c.name());
        }
    }

    #[test]
    fn extra_computation_set_matches_paper_fig11() {
        // Fig. 11/15 break extra computation into: speculative state
        // generation (alt producers), multiple original states, comparisons,
        // setup, state copying (+ commit bookkeeping and aborted work).
        for c in [
            Category::AltProducer,
            Category::OriginalStateGen,
            Category::StateComparison,
            Category::Setup,
            Category::StateCopy,
        ] {
            assert_eq!(c.kind(), CategoryKind::ExtraComputation, "{c}");
        }
        for c in [Category::Sync, Category::OutsideRegion] {
            assert_ne!(c.kind(), CategoryKind::ExtraComputation, "{c}");
        }
    }
}
