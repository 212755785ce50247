//! `streamcluster`: online k-median clustering of a point stream (PARSEC
//! analog).
//!
//! The state dependence is the set of weighted cluster centers threaded
//! through the batch stream. Centers gain *inertia* as they absorb points;
//! heavy centers adapt slowly to the stream's drift, so a long-running
//! sequential execution spends extra refinement iterations per batch.
//! Chunks started from an alternative producer's lightweight centers adapt
//! in fewer iterations — which is how the paper's observation that the
//! STATS version "converges faster" and executes *fewer* instructions
//! (Fig. 14, §V-C) emerges naturally here.

use crate::suite::{ExecMode, Workload};
use crate::synth::{PointBatch, PointStreamConfig};
use serde::{Deserialize, Serialize};
use stats_core::rng::StatsRng;
use stats_core::{Config, CowBox, InnerParallelism, SnapshotStrategy, StateDependence, UpdateCost};
use stats_uarch::StreamProfile;

/// One weighted median center.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Center {
    /// Position in point space.
    pub pos: Vec<f64>,
    /// Absorbed point mass (inertia).
    pub weight: f64,
}

/// The clustering state: the current centers.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Centers {
    /// Current centers, unordered. Boxed for O(1) chunk-boundary
    /// snapshots; the refinement loop's first in-place write after a
    /// fork materializes a private copy.
    pub centers: CowBox<Vec<Center>>,
}

impl Centers {
    /// Mean center weight (the inertia that slows adaptation).
    pub fn mean_weight(&self) -> f64 {
        if self.centers.is_empty() {
            return 0.0;
        }
        self.centers.iter().map(|c| c.weight).sum::<f64>() / self.centers.len() as f64
    }

    /// Average symmetric (Chamfer) distance between two center sets.
    pub fn chamfer(&self, other: &Centers) -> f64 {
        fn one_way(a: &Centers, b: &Centers) -> f64 {
            if a.centers.is_empty() || b.centers.is_empty() {
                return f64::INFINITY;
            }
            a.centers
                .iter()
                .map(|ca| {
                    b.centers
                        .iter()
                        .map(|cb| dist2(&ca.pos, &cb.pos))
                        .fold(f64::INFINITY, f64::min)
                        .sqrt()
                })
                .sum::<f64>()
                / a.centers.len() as f64
        }
        0.5 * (one_way(self, other) + one_way(other, self))
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The streamcluster workload.
#[derive(Debug, Clone)]
pub struct StreamCluster {
    stream: PointStreamConfig,
    /// Maximum number of centers kept after consolidation.
    kmax: usize,
    /// Cost threshold controlling random center openings.
    open_cost: f64,
    /// Per-batch weight decay (bounds inertia).
    weight_decay: f64,
    /// Acceptance tolerance on the Chamfer distance between center sets.
    tolerance: f64,
}

impl StreamCluster {
    /// The paper-scale configuration.
    pub fn paper() -> Self {
        StreamCluster {
            stream: PointStreamConfig::cluster_stream(),
            kmax: 14,
            open_cost: 1.2,
            weight_decay: 0.95,
            tolerance: 0.38,
        }
    }

    fn refine_once<'a>(
        &self,
        state: &mut Centers,
        points: impl Iterator<Item = &'a [f64]>,
        rng: &mut StatsRng,
    ) -> u64 {
        let mut dist_evals = 0u64;
        for p in points {
            let nearest = state
                .centers
                .iter()
                .enumerate()
                .map(|(i, c)| (i, dist2(p, &c.pos)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
            dist_evals += state.centers.len() as u64;
            match nearest {
                None => state.centers.push(Center {
                    pos: p.to_vec(),
                    weight: 1.0,
                }),
                Some((i, d2)) => {
                    // Random opening with probability proportional to the
                    // point's cost (the k-median online heuristic — this is
                    // the benchmark's nondeterminism).
                    let open_p = (d2 / self.open_cost).min(0.25);
                    if state.centers.len() < 2 * self.kmax && rng.chance(open_p) {
                        state.centers.push(Center {
                            pos: p.to_vec(),
                            weight: 1.0,
                        });
                    } else {
                        let c = &mut state.centers[i];
                        c.weight += 1.0;
                        let lr = 1.0 / c.weight.min(64.0);
                        for (x, y) in c.pos.iter_mut().zip(p) {
                            *x += lr * (y - *x);
                        }
                    }
                }
            }
        }
        // Consolidate: merge closest pairs until within kmax.
        while state.centers.len() > self.kmax {
            let mut best = (0, 1, f64::INFINITY);
            for i in 0..state.centers.len() {
                for j in i + 1..state.centers.len() {
                    let d = dist2(&state.centers[i].pos, &state.centers[j].pos);
                    dist_evals += 1;
                    if d < best.2 {
                        best = (i, j, d);
                    }
                }
            }
            let (i, j, _) = best;
            let cj = state.centers.swap_remove(j);
            let ci = &mut state.centers[i];
            let total = ci.weight + cj.weight;
            for (x, y) in ci.pos.iter_mut().zip(&cj.pos) {
                *x = (*x * ci.weight + y * cj.weight) / total;
            }
            ci.weight = total;
        }
        dist_evals
    }
}

impl StateDependence for StreamCluster {
    type State = Centers;
    type Input = PointBatch;
    type Output = f64;

    fn fresh_state(&self) -> Centers {
        Centers::default()
    }

    fn update(
        &self,
        state: &mut Centers,
        input: &PointBatch,
        rng: &mut StatsRng,
    ) -> (f64, UpdateCost) {
        // Inertia: heavy centers need extra refinement to follow the
        // drifting stream — one full pass plus a partial second pass whose
        // length grows with the centers' accumulated weight.
        let mut dist_evals = self.refine_once(state, input.points(), rng);
        let mut extra = (state.mean_weight() / 150.0).min(3.0);
        while extra >= 1.0 {
            dist_evals += self.refine_once(state, input.points(), rng);
            extra -= 1.0;
        }
        let take = ((input.len() as f64) * extra) as usize;
        if take > 0 {
            dist_evals += self.refine_once(state, input.points().take(take), rng);
        }
        for c in state.centers.iter_mut() {
            c.weight *= self.weight_decay;
        }
        // Batch clustering cost: mean distance to the nearest center.
        let cost: f64 = input
            .points()
            .map(|p| {
                state
                    .centers
                    .iter()
                    .map(|c| dist2(p, &c.pos))
                    .fold(f64::INFINITY, f64::min)
                    .sqrt()
            })
            .sum::<f64>()
            / input.len() as f64;
        // Native cost: each distance evaluation over `dims` dims, scaled to
        // PARSEC native point counts (x256 the synthetic batch).
        let work = dist_evals * self.stream.dims as u64 * 4 * 256;
        (cost, UpdateCost::new(work, work * 2))
    }

    fn states_match(&self, a: &Centers, b: &Centers) -> bool {
        if a.centers.len().abs_diff(b.centers.len()) > 4 {
            return false;
        }
        a.chamfer(b) <= self.tolerance
    }

    fn state_bytes(&self) -> usize {
        104 // Table I
    }

    fn snapshot_state(&self, state: &mut Centers, strategy: SnapshotStrategy) -> Centers {
        match strategy {
            SnapshotStrategy::DeepClone => state.clone(),
            SnapshotStrategy::CopyOnWrite => Centers {
                centers: state.centers.fork(),
            },
        }
    }

    fn take_materialized(&self, state: &mut Centers) -> u64 {
        state.centers.take_faults() as u64 * self.state_bytes() as u64
    }

    fn snapshot_copy_bytes(&self, strategy: SnapshotStrategy) -> u64 {
        match strategy {
            SnapshotStrategy::DeepClone => self.state_bytes() as u64,
            // The centers ARE the state: a fork copies nothing up front.
            // The in-place refinement loop faults the payload on its first
            // write, so COW defers (rather than avoids) this tiny copy.
            SnapshotStrategy::CopyOnWrite => 0,
        }
    }

    fn outside_region_work(&self) -> (u64, u64) {
        // Input parsing and final output writing: the paper's dominant
        // residual for the stream benchmarks (§V-B, Fig. 10).
        (1_400_000_000, 600_000_000)
    }
}

impl Workload for StreamCluster {
    fn name(&self) -> &'static str {
        "streamcluster"
    }

    fn inner_parallelism(&self) -> InnerParallelism {
        InnerParallelism::amdahl(0.75, usize::MAX)
    }

    fn tuned_config(&self, cores: usize) -> Config {
        Config {
            chunks: 2 * cores, // Table I: 280 threads on 28 cores
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

    fn generate_inputs(&self, n: usize, seed: u64) -> Vec<PointBatch> {
        self.stream.generate(n, seed)
    }

    fn quality(&self, inputs: &[PointBatch], outputs: &[f64]) -> f64 {
        // Clustering cost relative to the generator's own spread: the best
        // achievable mean distance is ~spread * sqrt(dims).
        let _ = inputs;
        if outputs.is_empty() {
            return 0.0;
        }
        let tail = &outputs[outputs.len() - (outputs.len() / 10).max(1)..];
        let mean_cost = tail.iter().sum::<f64>() / tail.len() as f64;
        let ideal = self.stream.spread * (self.stream.dims as f64).sqrt();
        // Sensitive around the achievable optimum: half the ideal cost is
        // unbeatable, so score the excess over it.
        crate::quality::error_to_quality((mean_cost / ideal - 0.5).max(0.0) * 3.0)
    }

    fn uarch_profiles(&self, mode: ExecMode) -> Vec<StreamProfile> {
        // Large streaming working set (the point stream) with a hot center
        // array; Table II row 2 shows very high miss rates (it is memory
        // bound) and *fewer* misses under STATS because it executes less.
        let seq_accesses = 2_600_000_000u64;
        let base = StreamProfile {
            region_base: 0x4000_0000,
            working_set: 96 * 1024 * 1024,
            accesses: seq_accesses,
            streaming: 0.82,
            hot: 0.1,
            branches: seq_accesses / 8,
            irregular_branches: 0.3,
            irregular_bias: 0.45,
        };
        match mode {
            ExecMode::Sequential => vec![base],
            ExecMode::OriginalTlp => (0..28)
                .map(|i| StreamProfile {
                    region_base: base.region_base + i * 0x400_0000,
                    accesses: seq_accesses / 28,
                    branches: seq_accesses / (28 * 8),
                    ..base
                })
                .collect(),
            ExecMode::StatsTlp => (0..28)
                .map(|i| StreamProfile {
                    region_base: base.region_base + i * 0x400_0000,
                    // Converges faster: ~15% fewer accesses (Fig. 14).
                    accesses: seq_accesses * 85 / (100 * 28),
                    branches: seq_accesses * 85 / (100 * 28 * 8),
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
    fn clustering_cost_is_reasonable() {
        let w = StreamCluster::paper();
        let inputs = w.generate_inputs(200, 1);
        let run = run_sequential(&w, &inputs, 42);
        // After warm-up, cost should approach the generator spread scale.
        let tail_cost = run.outputs[150..].iter().sum::<f64>() / 50.0;
        let ideal = w.stream.spread * (w.stream.dims as f64).sqrt();
        assert!(
            tail_cost < ideal * 3.0,
            "clustering not working: {tail_cost} vs ideal {ideal}"
        );
    }

    #[test]
    fn center_count_is_bounded() {
        let w = StreamCluster::paper();
        let inputs = w.generate_inputs(100, 2);
        let run = run_sequential(&w, &inputs, 7);
        assert!(run.final_state.centers.len() <= w.kmax);
        assert!(!run.final_state.centers.is_empty());
    }

    #[test]
    fn short_memory_mostly_commits() {
        let w = StreamCluster::paper();
        let inputs = w.generate_inputs(560, 3);
        let out = run_speculative(&w, &inputs, Config::stats_only(14, 8, 2), 11);
        assert!(
            out.commit_rate() > 0.75,
            "commit rate {}",
            out.commit_rate()
        );
    }

    #[test]
    fn stats_executes_fewer_instructions_like_fig14() {
        // Fresh (light) centers adapt in fewer iterations, so the chunked
        // execution does less total work than the sequential one.
        let w = StreamCluster::paper();
        let inputs = w.generate_inputs(560, 5);
        let seq = run_sequential(&w, &inputs, 9);
        let spec = run_speculative(&w, &inputs, Config::stats_only(28, 4, 1), 9);
        let realized = spec.realized_work();
        assert!(
            (realized as f64) < seq.cost.work as f64 * 1.0,
            "STATS chunks should need fewer refinement iterations: {realized} vs {}",
            seq.cost.work
        );
    }

    #[test]
    fn chamfer_distance_properties() {
        let a = Centers {
            centers: CowBox::new(vec![Center {
                pos: vec![0.0, 0.0],
                weight: 1.0,
            }]),
        };
        let b = Centers {
            centers: CowBox::new(vec![Center {
                pos: vec![3.0, 4.0],
                weight: 5.0,
            }]),
        };
        assert_eq!(a.chamfer(&a), 0.0);
        assert!((a.chamfer(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.chamfer(&b), b.chamfer(&a));
        assert_eq!(a.chamfer(&Centers::default()), f64::INFINITY);
    }

    #[test]
    fn openings_never_exceed_the_cap() {
        // The online heuristic may open centers mid-batch but must always
        // consolidate back under 2*kmax during and kmax after refinement.
        let w = StreamCluster::paper();
        let inputs = w.generate_inputs(150, 8);
        let mut state = w.fresh_state();
        let mut rng = stats_core::rng::StatsRng::from_seed_value(3);
        for input in &inputs {
            w.update(&mut state, input, &mut rng);
            assert!(
                state.centers.len() <= w.kmax,
                "{} centers",
                state.centers.len()
            );
        }
    }

    #[test]
    fn mean_weight_decays() {
        let w = StreamCluster::paper();
        let inputs = w.generate_inputs(300, 4);
        let run = run_sequential(&w, &inputs, 3);
        // Weight is bounded by the decay's geometric series, not unbounded.
        assert!(run.final_state.mean_weight() < 1_000.0);
    }
}
