//! `streamclassifier`: streaming prototype classification (analog of the
//! benchmark from \[50\] used by the paper).
//!
//! An online nearest-prototype classifier over a drifting labeled stream:
//! the state is one prototype vector per class, updated by exponential
//! smoothing toward misclassified points. The prototypes form the state
//! dependence; their memory is short because drift makes old data
//! irrelevant. Like `streamcluster`, long-lived prototypes accumulate
//! confidence and re-examine more candidates per batch, so the chunked
//! STATS execution does slightly *less* total work.

use crate::suite::{ExecMode, Workload};
use crate::synth::{LabeledBatch, PointStreamConfig};
use serde::{Deserialize, Serialize};
use stats_core::rng::StatsRng;
use stats_core::{Config, CowBox, InnerParallelism, SnapshotStrategy, StateDependence, UpdateCost};
use stats_uarch::StreamProfile;

/// The classifier state: one prototype per class plus confidence mass.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Prototypes {
    /// `protos[class]` is the class's prototype vector. Boxed for O(1)
    /// chunk-boundary snapshots; faults on the first post-fork update.
    pub protos: CowBox<Vec<Vec<f64>>>,
    /// Per-class confidence (observation mass), snapshot independently of
    /// the prototypes so a confidence-only frame copies fewer bytes.
    pub confidence: CowBox<Vec<f64>>,
}

impl Prototypes {
    fn init(classes: usize, dims: usize) -> Self {
        Prototypes {
            protos: CowBox::new(vec![vec![0.0; dims]; classes]),
            confidence: CowBox::new(vec![0.0; classes]),
        }
    }

    /// Mean prototype distance to another state.
    pub fn distance(&self, other: &Prototypes) -> f64 {
        if self.protos.len() != other.protos.len() {
            return f64::INFINITY;
        }
        let total: f64 = self
            .protos
            .iter()
            .zip(other.protos.iter())
            .map(|(a, b)| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt()
            })
            .sum();
        total / self.protos.len() as f64
    }
}

/// The streamclassifier workload.
#[derive(Debug, Clone)]
pub struct StreamClassifier {
    stream: PointStreamConfig,
    /// Base learning rate toward misclassified points.
    learning_rate: f64,
    /// Confidence decay per batch.
    confidence_decay: f64,
    /// Acceptance tolerance on mean prototype distance.
    tolerance: f64,
}

impl StreamClassifier {
    /// The paper-scale configuration (inputs from \[50\]).
    pub fn paper() -> Self {
        StreamClassifier {
            stream: PointStreamConfig::classifier_stream(),
            learning_rate: 0.15,
            confidence_decay: 0.97,
            tolerance: 0.4,
        }
    }
}

impl StateDependence for StreamClassifier {
    type State = Prototypes;
    type Input = LabeledBatch;
    type Output = f64;

    fn fresh_state(&self) -> Prototypes {
        Prototypes::init(self.stream.clusters, self.stream.dims)
    }

    fn update(
        &self,
        state: &mut Prototypes,
        input: &LabeledBatch,
        rng: &mut StatsRng,
    ) -> (f64, UpdateCost) {
        // One pass over the batch plus confidence-driven re-examination:
        // confident classifiers double-check borderline points against
        // more candidates, so long-lived (sequential) prototypes do extra
        // work that freshly seeded chunk prototypes skip.
        let mean_conf = state.confidence.iter().sum::<f64>() / state.confidence.len() as f64;
        let mut dist_evals = 0u64;
        let mut correct = 0usize;
        let process = |state: &mut Prototypes,
                       rng: &mut StatsRng,
                       count_correct: &mut usize,
                       take: usize|
         -> u64 {
            let mut evals = 0u64;
            *count_correct = 0;
            for (p, &label) in input.points().zip(input.labels()).take(take) {
                let predicted = state
                    .protos
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        (
                            i,
                            c.iter().zip(p).map(|(x, y)| (x - y) * (x - y)).sum::<f64>(),
                        )
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
                    .map(|(i, _)| i)
                    .expect("at least one class");
                evals += state.protos.len() as u64;
                if predicted == label {
                    *count_correct += 1;
                    state.confidence[label] += 0.5;
                } else {
                    // Move the true prototype toward the point, with a
                    // randomly jittered learning rate (nondeterminism).
                    let lr = self.learning_rate * (1.0 + rng.noise(0.3));
                    for (x, y) in state.protos[label].iter_mut().zip(p) {
                        *x += lr * (y - *x);
                    }
                }
            }
            evals
        };
        let n_points = input.len();
        dist_evals += process(state, rng, &mut correct, n_points);
        let mut extra = (mean_conf / 200.0).min(3.0);
        let mut scratch = 0usize;
        while extra >= 1.0 {
            dist_evals += process(state, rng, &mut scratch, n_points);
            extra -= 1.0;
        }
        let take = (n_points as f64 * extra) as usize;
        if take > 0 {
            dist_evals += process(state, rng, &mut scratch, take);
        }
        for c in state.confidence.iter_mut() {
            *c *= self.confidence_decay;
        }
        let accuracy = correct as f64 / n_points as f64;
        // Native cost scaled up from the synthetic batch (x192).
        let work = dist_evals * self.stream.dims as u64 * 3 * 192;
        (accuracy, UpdateCost::new(work, work * 2))
    }

    fn states_match(&self, a: &Prototypes, b: &Prototypes) -> bool {
        a.distance(b) <= self.tolerance
    }

    fn state_bytes(&self) -> usize {
        104 // Table I
    }

    fn snapshot_state(&self, state: &mut Prototypes, strategy: SnapshotStrategy) -> Prototypes {
        match strategy {
            SnapshotStrategy::DeepClone => state.clone(),
            SnapshotStrategy::CopyOnWrite => Prototypes {
                protos: state.protos.fork(),
                confidence: state.confidence.fork(),
            },
        }
    }

    fn take_materialized(&self, state: &mut Prototypes) -> u64 {
        // Pro-rate the modeled 104 bytes over the two components by their
        // actual in-memory sizes.
        let classes = state.protos.len() as u64;
        let dims = state.protos.first().map_or(0, Vec::len) as u64;
        let proto_actual = classes * dims * 8;
        let conf_actual = classes * 8;
        let total = (proto_actual + conf_actual).max(1);
        let modeled = self.state_bytes() as u64;
        state.protos.take_faults() as u64 * (modeled * proto_actual / total)
            + state.confidence.take_faults() as u64 * (modeled * conf_actual / total)
    }

    fn snapshot_copy_bytes(&self, strategy: SnapshotStrategy) -> u64 {
        match strategy {
            SnapshotStrategy::DeepClone => self.state_bytes() as u64,
            // Both components share structure; copies happen only on the
            // first post-fork write to each.
            SnapshotStrategy::CopyOnWrite => 0,
        }
    }

    fn outside_region_work(&self) -> (u64, u64) {
        (180_000_000, 90_000_000)
    }
}

impl Workload for StreamClassifier {
    fn name(&self) -> &'static str {
        "streamclassifier"
    }

    fn inner_parallelism(&self) -> InnerParallelism {
        InnerParallelism::amdahl(0.65, usize::MAX)
    }

    fn tuned_config(&self, cores: usize) -> Config {
        Config {
            chunks: cores, // Table I: 28 threads
            lookback: 4,
            extra_states: 1,
            combine_inner_tlp: true,
            snapshot: SnapshotStrategy::DeepClone,
            spec_breadth: 1,
            overlap_rerun: false,
        }
    }

    fn native_input_count(&self) -> usize {
        2_800
    }

    fn generate_inputs(&self, n: usize, seed: u64) -> Vec<LabeledBatch> {
        self.stream.generate_labeled(n, seed)
    }

    fn quality(&self, _inputs: &[LabeledBatch], outputs: &[f64]) -> f64 {
        // Mean accuracy after warm-up IS the quality score.
        if outputs.len() < 20 {
            return 0.0;
        }
        let tail = &outputs[outputs.len() / 4..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    fn uarch_profiles(&self, mode: ExecMode) -> Vec<StreamProfile> {
        // Table II row 3: enormous streaming footprint, ~97% L2/LLC miss
        // rates (pure streaming), slightly fewer accesses under STATS.
        let seq_accesses = 3_100_000_000u64;
        let base = StreamProfile {
            region_base: 0x8000_0000,
            working_set: 192 * 1024 * 1024,
            accesses: seq_accesses,
            streaming: 0.93,
            hot: 0.04,
            branches: seq_accesses / 9,
            irregular_branches: 0.35,
            irregular_bias: 0.5,
        };
        match mode {
            ExecMode::Sequential => vec![base],
            ExecMode::OriginalTlp => (0..28)
                .map(|i| StreamProfile {
                    region_base: base.region_base + i * 0x800_0000,
                    accesses: seq_accesses * 105 / (100 * 28),
                    branches: seq_accesses * 105 / (100 * 28 * 9),
                    ..base
                })
                .collect(),
            ExecMode::StatsTlp => (0..28)
                .map(|i| StreamProfile {
                    region_base: base.region_base + i * 0x800_0000,
                    accesses: seq_accesses * 88 / (100 * 28),
                    branches: seq_accesses * 88 / (100 * 28 * 9),
                    ..base
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats_core::runtime::sequential::run_sequential;
    use stats_core::speculation::run_speculative;

    #[test]
    fn classifier_learns_the_stream() {
        let w = StreamClassifier::paper();
        let inputs = w.generate_inputs(300, 1);
        let run = run_sequential(&w, &inputs, 42);
        let early = run.outputs[..30].iter().sum::<f64>() / 30.0;
        let late = run.outputs[250..].iter().sum::<f64>() / 50.0;
        assert!(
            late > early && late > 0.5,
            "no learning: early {early}, late {late}"
        );
    }

    #[test]
    fn short_memory_commits() {
        let w = StreamClassifier::paper();
        let inputs = w.generate_inputs(560, 2);
        let out = run_speculative(&w, &inputs, Config::stats_only(28, 6, 1), 5);
        assert!(out.commit_rate() > 0.8, "rate {}", out.commit_rate());
    }

    #[test]
    fn prototype_distance_detects_divergence() {
        let w = StreamClassifier::paper();
        let a = w.fresh_state();
        let mut b = w.fresh_state();
        assert_eq!(a.distance(&b), 0.0);
        b.protos[0][0] = 10.0;
        assert!(a.distance(&b) > 1.0);
        let c = Prototypes::init(3, 2);
        assert_eq!(a.distance(&c), f64::INFINITY);
    }

    #[test]
    fn quality_tracks_accuracy() {
        let w = StreamClassifier::paper();
        let inputs = w.generate_inputs(400, 3);
        let run = run_sequential(&w, &inputs, 1);
        let q = w.quality(&inputs, &run.outputs);
        assert!(q > 0.5 && q <= 1.0, "quality {q}");
    }

    #[test]
    fn confidence_inflates_sequential_work() {
        let w = StreamClassifier::paper();
        let inputs = w.generate_inputs(560, 4);
        let seq = run_sequential(&w, &inputs, 7);
        let spec = run_speculative(&w, &inputs, Config::stats_only(28, 4, 1), 7);
        assert!(
            spec.realized_work() <= seq.cost.work,
            "chunked runs should not exceed sequential refinement work: {} vs {}",
            spec.realized_work(),
            seq.cost.work
        );
    }
}
