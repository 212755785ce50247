//! STATS configurations and the design space the autotuner explores.

use crate::snapshot::SnapshotStrategy;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One point in the STATS design space (§II-B).
///
/// The paper: "The number of inputs that alternative producers process to
/// comply with the short memory property, the maximum number of extra
/// original states that are generated by the STATS runtime, and the length
/// of each computation chunk are parameters related to a state dependence."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Config {
    /// Number of parallel chunks the input stream is split into (the new
    /// TLP degree).
    pub chunks: usize,
    /// `k`: inputs each alternative producer processes before its chunk.
    pub lookback: usize,
    /// `m`: extra original states generated per chunk boundary (beyond the
    /// original producer's own final state, so `m + 1` states are compared
    /// against each speculative state).
    pub extra_states: usize,
    /// Whether to combine the program's original (inner) TLP with the
    /// STATS TLP ("Par. STATS" in Fig. 9) or run STATS TLP alone
    /// ("Seq. STATS").
    pub combine_inner_tlp: bool,
    /// How chunk-boundary state replication copies state: full deep
    /// clones (the historical protocol) or copy-on-write structural
    /// sharing. Decisions and outputs are bit-identical either way; only
    /// the bytes physically copied differ.
    #[serde(default)]
    pub snapshot: SnapshotStrategy,
    /// `b`: alternative-producer candidates launched per non-first chunk.
    /// Each candidate warms up on an independent derived RNG stream; the
    /// commit check accepts the chunk if *any* candidate's start state
    /// matches an original, trading bounded extra computation for fewer
    /// aborts. Breadth 1 is the historical protocol bit for bit.
    #[serde(default = "default_breadth")]
    pub spec_breadth: usize,
    /// Overlap abort recovery with downstream validation: split each
    /// rerun into pool-scheduled segments that emit the boundary replicas
    /// as soon as the boundary snapshot is sealed, instead of blocking
    /// the coordinator until the whole rerun finishes. Pure scheduling —
    /// decisions and outputs are identical either way.
    #[serde(default)]
    pub overlap_rerun: bool,
}

/// Serde default: absent `spec_breadth` means the historical breadth 1.
/// (Referenced by the `serde(default)` attribute above; the hermetic
/// build's stand-in derive emits marker impls only, so rustc cannot see
/// the reference.)
#[allow(dead_code)]
fn default_breadth() -> usize {
    1
}

impl Config {
    /// A purely sequential configuration (one chunk, no speculation).
    pub fn sequential() -> Self {
        Config {
            chunks: 1,
            lookback: 0,
            extra_states: 0,
            combine_inner_tlp: false,
            snapshot: SnapshotStrategy::DeepClone,
            spec_breadth: 1,
            overlap_rerun: false,
        }
    }

    /// The original-TLP-only configuration of Fig. 9's black bars: one
    /// chunk, inner parallelism on.
    pub fn original_only() -> Self {
        Config {
            chunks: 1,
            lookback: 0,
            extra_states: 0,
            combine_inner_tlp: true,
            snapshot: SnapshotStrategy::DeepClone,
            spec_breadth: 1,
            overlap_rerun: false,
        }
    }

    /// A STATS-only configuration with the given chunk count (Fig. 12's
    /// forced 14/28-thread runs).
    pub fn stats_only(chunks: usize, lookback: usize, extra_states: usize) -> Self {
        Config {
            chunks,
            lookback,
            extra_states,
            combine_inner_tlp: false,
            snapshot: SnapshotStrategy::DeepClone,
            spec_breadth: 1,
            overlap_rerun: false,
        }
    }

    /// The same configuration with a different snapshot strategy.
    pub fn with_snapshot(self, snapshot: SnapshotStrategy) -> Self {
        Config { snapshot, ..self }
    }

    /// The same configuration with a different speculation breadth.
    pub fn with_breadth(self, spec_breadth: usize) -> Self {
        Config {
            spec_breadth,
            ..self
        }
    }

    /// The same configuration with overlapped abort recovery on or off.
    pub fn with_overlap(self, overlap_rerun: bool) -> Self {
        Config {
            overlap_rerun,
            ..self
        }
    }

    /// Validate against an input-stream length.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(&self, inputs: usize) -> Result<(), ConfigError> {
        if self.chunks == 0 {
            return Err(ConfigError::ZeroChunks);
        }
        if self.spec_breadth == 0 {
            return Err(ConfigError::ZeroBreadth);
        }
        if self.chunks > inputs.max(1) {
            return Err(ConfigError::MoreChunksThanInputs {
                chunks: self.chunks,
                inputs,
            });
        }
        if self.chunks > 1 {
            if self.lookback == 0 {
                return Err(ConfigError::ZeroLookback);
            }
            // Every chunk boundary needs `lookback` inputs before it; the
            // smallest prefix is at least inputs/chunks (balanced plan).
            let min_chunk = inputs / self.chunks;
            if self.lookback > min_chunk {
                return Err(ConfigError::LookbackExceedsChunk {
                    lookback: self.lookback,
                    min_chunk,
                });
            }
        }
        Ok(())
    }

    /// Number of pool-scheduled segments the rerun of an aborted chunk of
    /// `len` inputs splits into. Both runtimes (and the telemetry
    /// reconciliation) derive the `RerunSegments` counter from this one
    /// function, so it must stay a pure function of the configuration and
    /// the chunk plan. Without overlap the rerun is one serialized task;
    /// with overlap it splits at the boundary-snapshot point (`len - k`)
    /// into a prefix segment and a suffix segment, so replica replay can
    /// proceed concurrently with the suffix. Chunks no longer than the
    /// lookback have an empty prefix and stay one segment.
    pub fn rerun_segments(&self, len: usize) -> usize {
        if self.overlap_rerun && len > self.lookback {
            2
        } else {
            1
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chunk(s), lookback {}, {} extra state(s), {} TLP",
            self.chunks,
            self.lookback,
            self.extra_states,
            if self.combine_inner_tlp {
                "combined"
            } else {
                "STATS-only"
            }
        )?;
        // The historical format is unchanged for the historical strategy.
        if self.snapshot != SnapshotStrategy::DeepClone {
            write!(f, ", {} snapshots", self.snapshot)?;
        }
        if self.spec_breadth != 1 {
            write!(f, ", breadth {}", self.spec_breadth)?;
        }
        if self.overlap_rerun {
            write!(f, ", overlapped reruns")?;
        }
        Ok(())
    }
}

/// Why a configuration is invalid for a given input length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `chunks` must be at least 1.
    ZeroChunks,
    /// More chunks than inputs: some chunks would be empty.
    MoreChunksThanInputs {
        /// Requested chunk count.
        chunks: usize,
        /// Available inputs.
        inputs: usize,
    },
    /// A speculative configuration needs `lookback >= 1`.
    ZeroLookback,
    /// `spec_breadth` must be at least 1 (one candidate is the historical
    /// protocol).
    ZeroBreadth,
    /// The alternative producers would need more history than the
    /// preceding chunk contains.
    LookbackExceedsChunk {
        /// Requested lookback.
        lookback: usize,
        /// Smallest chunk length under a balanced plan.
        min_chunk: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroChunks => write!(f, "configuration needs at least one chunk"),
            ConfigError::MoreChunksThanInputs { chunks, inputs } => {
                write!(f, "{chunks} chunks exceed {inputs} inputs")
            }
            ConfigError::ZeroLookback => {
                write!(f, "speculative configuration needs lookback >= 1")
            }
            ConfigError::ZeroBreadth => {
                write!(f, "configuration needs speculation breadth >= 1")
            }
            ConfigError::LookbackExceedsChunk {
                lookback,
                min_chunk,
            } => write!(
                f,
                "lookback {lookback} exceeds the smallest chunk length {min_chunk}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The enumerable design space for one benchmark (§II-C: "The middle-end
/// compiler automatically generates … the design space").
///
/// ```
/// use stats_core::DesignSpace;
/// let space = DesignSpace::for_inputs(2_000, 28, true);
/// // §IV-B explores 89-342 configurations per benchmark; the default
/// // space is the same order of magnitude.
/// assert!(space.size() >= 89);
/// assert!(space.enumerate().iter().all(|c| c.validate(2_000).is_ok()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// Candidate chunk counts.
    pub chunk_choices: Vec<usize>,
    /// Candidate lookback values.
    pub lookback_choices: Vec<usize>,
    /// Candidate extra-original-state counts.
    pub extra_state_choices: Vec<usize>,
    /// Whether the benchmark has inner TLP worth combining.
    pub allow_combine: bool,
    /// Candidate snapshot strategies. Defaults to deep clones only, so
    /// the historical space (and every tuning trajectory over it) is
    /// unchanged unless the caller opts in to the `cow` dimension.
    #[serde(default)]
    pub snapshot_choices: Vec<SnapshotStrategy>,
    /// Candidate speculation breadths. Defaults to breadth 1 only, so the
    /// historical space (and every tuning trajectory over it) is
    /// unchanged unless the caller opts in to the breadth dimension.
    #[serde(default)]
    pub breadth_choices: Vec<usize>,
    /// Input-stream length used for validity filtering.
    pub inputs: usize,
}

impl DesignSpace {
    /// A sensible default space for `inputs` inputs on `cores` cores.
    pub fn for_inputs(inputs: usize, cores: usize, allow_combine: bool) -> Self {
        let mut chunk_choices = vec![1];
        let mut c = 2;
        while c <= (2 * cores).min(inputs.max(1)) {
            chunk_choices.push(c);
            c *= 2;
        }
        if !chunk_choices.contains(&cores) && cores <= inputs {
            chunk_choices.push(cores);
            chunk_choices.sort_unstable();
        }
        DesignSpace {
            chunk_choices,
            lookback_choices: vec![1, 2, 4, 8, 16, 32],
            extra_state_choices: vec![0, 1, 2, 4],
            allow_combine,
            snapshot_choices: vec![SnapshotStrategy::DeepClone],
            breadth_choices: vec![1],
            inputs,
        }
    }

    /// Snapshot strategies to enumerate (an empty list means the
    /// historical deep-clone-only space).
    pub fn snapshot_options(&self) -> &[SnapshotStrategy] {
        if self.snapshot_choices.is_empty() {
            &[SnapshotStrategy::DeepClone]
        } else {
            &self.snapshot_choices
        }
    }

    /// Speculation breadths to enumerate (an empty list means the
    /// historical breadth-1-only space).
    pub fn breadth_options(&self) -> &[usize] {
        if self.breadth_choices.is_empty() {
            &[1]
        } else {
            &self.breadth_choices
        }
    }

    /// Enumerate every *valid* configuration in the space.
    pub fn enumerate(&self) -> Vec<Config> {
        let mut out = Vec::new();
        let combine_options: &[bool] = if self.allow_combine {
            &[false, true]
        } else {
            &[false]
        };
        for &chunks in &self.chunk_choices {
            for &lookback in &self.lookback_choices {
                for &extra_states in &self.extra_state_choices {
                    for &combine_inner_tlp in combine_options {
                        for &snapshot in self.snapshot_options() {
                            for &spec_breadth in self.breadth_options() {
                                let cfg = Config {
                                    chunks,
                                    lookback,
                                    extra_states,
                                    combine_inner_tlp,
                                    snapshot,
                                    spec_breadth,
                                    overlap_rerun: false,
                                };
                                if cfg.validate(self.inputs).is_ok() {
                                    out.push(cfg);
                                }
                            }
                        }
                    }
                }
            }
        }
        out.sort_by_key(|c| {
            (
                c.chunks,
                c.lookback,
                c.extra_states,
                c.combine_inner_tlp,
                c.snapshot,
                c.spec_breadth,
            )
        });
        out.dedup();
        out
    }

    /// Number of valid configurations.
    pub fn size(&self) -> usize {
        self.enumerate().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_config_is_valid_for_any_input() {
        assert!(Config::sequential().validate(1).is_ok());
        assert!(Config::sequential().validate(1_000_000).is_ok());
    }

    #[test]
    fn zero_chunks_rejected() {
        let cfg = Config {
            chunks: 0,
            ..Config::sequential()
        };
        assert_eq!(cfg.validate(10), Err(ConfigError::ZeroChunks));
    }

    #[test]
    fn too_many_chunks_rejected() {
        let cfg = Config::stats_only(20, 1, 0);
        assert!(matches!(
            cfg.validate(10),
            Err(ConfigError::MoreChunksThanInputs { .. })
        ));
    }

    #[test]
    fn speculative_needs_lookback() {
        let cfg = Config::stats_only(4, 0, 1);
        assert_eq!(cfg.validate(100), Err(ConfigError::ZeroLookback));
    }

    #[test]
    fn lookback_bounded_by_chunk_length() {
        // 100 inputs, 10 chunks => min chunk 10; lookback 11 invalid.
        let cfg = Config::stats_only(10, 11, 1);
        assert!(matches!(
            cfg.validate(100),
            Err(ConfigError::LookbackExceedsChunk { .. })
        ));
        assert!(Config::stats_only(10, 10, 1).validate(100).is_ok());
    }

    #[test]
    fn design_space_contains_only_valid_configs() {
        let space = DesignSpace::for_inputs(500, 28, true);
        let configs = space.enumerate();
        assert!(!configs.is_empty());
        for cfg in &configs {
            assert!(cfg.validate(500).is_ok(), "invalid {cfg:?} enumerated");
        }
    }

    #[test]
    fn design_space_includes_core_count() {
        let space = DesignSpace::for_inputs(500, 28, false);
        assert!(space.chunk_choices.contains(&28));
        // No combine options when not allowed.
        assert!(space.enumerate().iter().all(|c| !c.combine_inner_tlp));
    }

    #[test]
    fn design_space_size_matches_enumeration() {
        let space = DesignSpace::for_inputs(200, 8, true);
        assert_eq!(space.size(), space.enumerate().len());
    }

    #[test]
    fn paper_scale_space_is_tens_to_hundreds() {
        // §IV-B: "the number of configurations analyzed varied from 89 to
        // 342" — our default space lands in that range.
        let space = DesignSpace::for_inputs(2_000, 28, true);
        let n = space.size();
        assert!((50..=500).contains(&n), "space size {n}");
    }

    #[test]
    fn display_summarizes_the_configuration() {
        let cfg = Config::stats_only(14, 3, 4);
        let text = cfg.to_string();
        assert!(text.contains("14 chunk(s)"));
        assert!(text.contains("lookback 3"));
        assert!(text.contains("STATS-only"));
        assert!(Config::original_only().to_string().contains("combined"));
    }

    #[test]
    fn snapshot_dimension_doubles_the_space() {
        let mut space = DesignSpace::for_inputs(500, 28, true);
        let base = space.size();
        space.snapshot_choices = vec![SnapshotStrategy::DeepClone, SnapshotStrategy::CopyOnWrite];
        assert_eq!(space.size(), base * 2);
        // The default space is the historical deep-clone-only one.
        assert!(DesignSpace::for_inputs(500, 28, true)
            .enumerate()
            .iter()
            .all(|c| c.snapshot == SnapshotStrategy::DeepClone));
    }

    #[test]
    fn display_mentions_cow_snapshots_only_when_selected() {
        let deep = Config::stats_only(14, 3, 4);
        assert!(!deep.to_string().contains("snapshots"));
        let cow = deep.with_snapshot(SnapshotStrategy::CopyOnWrite);
        assert!(cow.to_string().contains("cow snapshots"), "{cow}");
    }

    #[test]
    fn zero_breadth_rejected() {
        let cfg = Config::stats_only(4, 2, 1).with_breadth(0);
        assert_eq!(cfg.validate(100), Err(ConfigError::ZeroBreadth));
        assert!(Config::stats_only(4, 2, 1)
            .with_breadth(3)
            .validate(100)
            .is_ok());
    }

    #[test]
    fn breadth_dimension_scales_the_space() {
        let mut space = DesignSpace::for_inputs(500, 28, true);
        let base = space.size();
        space.breadth_choices = vec![1, 2, 4];
        assert_eq!(space.size(), base * 3);
        // The default space is the historical breadth-1-only one.
        assert!(DesignSpace::for_inputs(500, 28, true)
            .enumerate()
            .iter()
            .all(|c| c.spec_breadth == 1 && !c.overlap_rerun));
    }

    #[test]
    fn display_mentions_breadth_and_overlap_only_when_selected() {
        let base = Config::stats_only(14, 3, 4);
        assert!(!base.to_string().contains("breadth"));
        assert!(!base.to_string().contains("overlap"));
        let wide = base.with_breadth(3).with_overlap(true);
        assert!(wide.to_string().contains("breadth 3"), "{wide}");
        assert!(wide.to_string().contains("overlapped reruns"), "{wide}");
    }

    #[test]
    fn rerun_segment_count_is_config_derived() {
        let cfg = Config::stats_only(4, 4, 1);
        // Overlap off: always one serialized segment.
        assert_eq!(cfg.rerun_segments(16), 1);
        let over = cfg.with_overlap(true);
        // Overlap on: prefix + suffix when the chunk outgrows the lookback.
        assert_eq!(over.rerun_segments(16), 2);
        assert_eq!(over.rerun_segments(4), 1);
        assert_eq!(over.rerun_segments(3), 1);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ConfigError::LookbackExceedsChunk {
            lookback: 9,
            min_chunk: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
    }
}
