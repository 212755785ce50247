//! Shared annealed-particle-filter machinery for the tracking benchmarks.
//!
//! bodytrack's core loop (§II-A of the paper) is an annealed particle
//! filter: per frame it diffuses a particle cloud, weights particles by an
//! observation likelihood, and resamples — repeating over annealing layers
//! with shrinking noise. `facetrack` and `facedet-and-track` use the same
//! machinery with a 2-D pose. The cloud is the *computational state* whose
//! dependence chain STATS parallelizes.

use serde::{Deserialize, Serialize};
use stats_core::rng::StatsRng;
use stats_core::CowBox;

/// A weighted particle cloud over a `dims`-dimensional pose space.
///
/// The cloud is two [`CowBox`] cells: the particles, stored row-major as
/// one `n × dims` buffer (particle `i` is `particles[i * dims..][..dims]`),
/// and their `n` weights. A generation therefore allocates the same
/// number of times whatever `n` is, and only this module sees the layout
/// (through `rows`, which walks it with `chunks_exact(dims)`). A protocol
/// snapshot ([`ParticleCloud::fork`]) is two pointer bumps. The filter
/// advances *generationally* — each step builds the next particle
/// generation in fresh buffers and replaces the old ones wholesale — so a
/// shared generation is never written in place and copy-on-write
/// snapshots stay fault-free: the tracker states replicate for free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParticleCloud {
    dims: usize,
    particles: CowBox<Vec<f64>>,
    weights: CowBox<Vec<f64>>,
}

impl ParticleCloud {
    /// A fresh cloud: particles spread uniformly over the pose box
    /// `[-1, 1]^dims` with equal weights (what an alternative producer
    /// starts from).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `dims` is zero.
    pub fn fresh(n: usize, dims: usize, seed: u64) -> Self {
        assert!(n > 0 && dims > 0, "empty cloud");
        let mut rng = StatsRng::from_seed_value(seed ^ 0x9A27_1C7E);
        let particles = (0..n * dims).map(|_| rng.noise(1.0)).collect();
        ParticleCloud {
            dims,
            particles: CowBox::new(particles),
            weights: CowBox::new(vec![1.0 / n as f64; n]),
        }
    }

    /// O(1) protocol snapshot: share both buffers with the returned
    /// cloud. Either side's next in-place write would fault (and be
    /// reported by [`ParticleCloud::take_materialized`]); the
    /// generational [`step`](ParticleCloud::step) never writes in place,
    /// so in practice neither side ever faults.
    pub fn fork(&mut self) -> ParticleCloud {
        ParticleCloud {
            dims: self.dims,
            particles: self.particles.fork(),
            weights: self.weights.fork(),
        }
    }

    /// Drain copy-on-write materializations since the last drain, scaled
    /// to the workload's modeled state size: each component fault charges
    /// its byte share of `modeled_bytes` (integer arithmetic, so the
    /// charge is exact and platform-independent).
    pub fn take_materialized(&mut self, modeled_bytes: u64) -> u64 {
        let n = self.len() as u64;
        let dims = self.dims() as u64;
        let total = n * dims * 8 + n * 8;
        let particle_share = modeled_bytes * (n * dims * 8) / total;
        let weight_share = modeled_bytes * (n * 8) / total;
        self.particles.take_faults() as u64 * particle_share
            + self.weights.take_faults() as u64 * weight_share
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the cloud is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Pose dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The particles, one `dims`-long row each.
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.particles.chunks_exact(self.dims)
    }

    /// The weighted-mean pose estimate.
    pub fn estimate(&self) -> Vec<f64> {
        let dims = self.dims();
        let mut est = vec![0.0; dims];
        for (p, w) in self.rows().zip(self.weights.iter()) {
            for d in 0..dims {
                est[d] += p[d] * w;
            }
        }
        est
    }

    /// RMS spread of the cloud around its estimate (tracking confidence).
    pub fn spread(&self) -> f64 {
        let est = self.estimate();
        let var: f64 = self
            .rows()
            .zip(self.weights.iter())
            .map(|(p, w)| {
                w * p
                    .iter()
                    .zip(&est)
                    .map(|(x, e)| (x - e) * (x - e))
                    .sum::<f64>()
            })
            .sum();
        var.sqrt()
    }

    /// One annealed filter step against an observation; returns the number
    /// of floating-point operations performed (the honest cost sample the
    /// workloads scale to native size).
    pub fn step(
        &mut self,
        observation: &[f64],
        obs_sigma: f64,
        motion_sigma: f64,
        layers: usize,
        rng: &mut StatsRng,
    ) -> u64 {
        let n = self.len();
        let dims = self.dims();
        let mut flops = 0u64;
        for layer in 0..layers {
            // Annealing: noise shrinks layer by layer.
            let anneal = 1.0 / (1.0 + layer as f64);
            let sigma = motion_sigma * anneal;
            // Diffuse into a fresh generation: the previous one may be
            // structurally shared with a protocol snapshot, and replacing
            // it wholesale keeps copy-on-write snapshots fault-free.
            let diffused: Vec<f64> = self
                .particles
                .iter()
                .map(|x| (*x + rng.gaussian() * sigma).clamp(-1.5, 1.5))
                .collect();
            // Weight by a heavy-tailed likelihood: a narrow peak for
            // precision plus a wide component so a lost cloud still feels
            // a gradient toward the target and can re-acquire it.
            let inv = 1.0 / (2.0 * obs_sigma * obs_sigma * anneal.max(0.25));
            let mut weights = Vec::with_capacity(n);
            let mut total = 0.0;
            for p in diffused.chunks_exact(dims) {
                let d2: f64 = p
                    .iter()
                    .zip(observation)
                    .map(|(x, o)| (x - o) * (x - o))
                    .sum();
                let w = (-d2 * inv).exp() + 0.02 * (-d2 * inv / 50.0).exp() + 1e-12;
                total += w;
                weights.push(w);
            }
            for w in &mut weights {
                *w /= total;
            }
            // Systematic resampling over the diffused generation.
            let (next, step) = resample(&diffused, dims, &weights, rng);
            self.particles.set(next);
            self.weights.set(vec![step; n]);
            flops += (n * dims * 6 + n * 4) as u64;
        }
        flops
    }

    /// Re-seed the cloud around a target pose (detector-style
    /// initialization when the track is lost or freshly started); returns
    /// the flop estimate.
    pub fn reseed_around(&mut self, target: &[f64], sigma: f64, rng: &mut StatsRng) -> u64 {
        let dims = self.dims();
        // Generational replacement, like `step`: pose dimensions beyond
        // the target's keep their current value.
        let reseeded: Vec<f64> = self
            .particles
            .iter()
            .enumerate()
            .map(|(i, x)| match target.get(i % dims) {
                Some(t) => (t + rng.gaussian() * sigma).clamp(-1.5, 1.5),
                None => *x,
            })
            .collect();
        let n = self.len();
        self.particles.set(reseeded);
        self.weights.set(vec![1.0 / n as f64; n]);
        (n * dims * 3) as u64
    }

    /// Application-level acceptance predicate: two clouds are
    /// interchangeable when their pose estimates are within `tolerance`
    /// (Euclidean) — the same metric the paper uses for output quality of
    /// the trackers (§IV-C "average Euclidean distance between the boxes").
    pub fn estimates_match(&self, other: &ParticleCloud, tolerance: f64) -> bool {
        let (a, b) = (self.estimate(), other.estimate());
        let d2: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        d2.sqrt() <= tolerance
    }

    /// Serialized size in bytes of a cloud with the given shape.
    pub fn byte_size(n: usize, dims: usize) -> usize {
        n * dims * 8 + n * 8
    }
}

/// Systematic resampling: draw the next generation from the row-major
/// `particles` (rows of `dims`) proportionally to `weights`. Returns the
/// generation, row-major, and the uniform weight each survivor carries.
fn resample(
    particles: &[f64],
    dims: usize,
    weights: &[f64],
    rng: &mut StatsRng,
) -> (Vec<f64>, f64) {
    let n = weights.len();
    let step = 1.0 / n as f64;
    let mut u = rng.unit() * step;
    let mut cum = 0.0;
    let mut idx = 0usize;
    let mut next = Vec::with_capacity(n * dims);
    for _ in 0..n {
        while idx < n - 1 && cum + weights[idx] < u {
            cum += weights[idx];
            idx += 1;
        }
        next.extend_from_slice(&particles[idx * dims..][..dims]);
        u += step;
    }
    (next, step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StatsRng {
        StatsRng::from_seed_value(seed)
    }

    #[test]
    fn fresh_cloud_shape() {
        let c = ParticleCloud::fresh(64, 2, 1);
        assert_eq!(c.len(), 64);
        assert_eq!(c.dims(), 2);
        assert!(!c.is_empty());
        // Uniform cloud: estimate near origin, large spread.
        let est = c.estimate();
        assert!(est.iter().all(|x| x.abs() < 0.3));
        assert!(c.spread() > 0.3);
    }

    #[test]
    fn filter_converges_to_static_target() {
        let mut c = ParticleCloud::fresh(128, 2, 2);
        let target = vec![0.5, -0.3];
        let mut r = rng(3);
        for _ in 0..10 {
            c.step(&target, 0.05, 0.1, 3, &mut r);
        }
        let est = c.estimate();
        let err: f64 = est
            .iter()
            .zip(&target)
            .map(|(e, t)| (e - t) * (e - t))
            .sum::<f64>()
            .sqrt();
        assert!(err < 0.15, "did not converge: err {err}");
        assert!(c.spread() < 0.3);
    }

    #[test]
    fn filter_tracks_moving_target() {
        let mut c = ParticleCloud::fresh(128, 2, 4);
        let mut r = rng(5);
        let mut total_err = 0.0;
        let steps = 50;
        for i in 0..steps {
            let t = i as f64 / steps as f64;
            let target = vec![0.8 * (t * 3.0).sin(), 0.8 * (t * 2.0).cos()];
            c.step(&target, 0.05, 0.12, 3, &mut r);
            let est = c.estimate();
            total_err += est
                .iter()
                .zip(&target)
                .map(|(e, x)| (e - x) * (e - x))
                .sum::<f64>()
                .sqrt();
        }
        assert!((total_err / steps as f64) < 0.2);
    }

    #[test]
    fn short_memory_two_clouds_converge() {
        // Two clouds with different histories end up matching after a few
        // steps on the same observations — the property STATS exploits.
        let mut a = ParticleCloud::fresh(128, 2, 10);
        let mut b = ParticleCloud::fresh(128, 2, 99);
        let mut ra = rng(1);
        let mut rb = rng(2);
        // Give cloud `a` a divergent history first.
        for i in 0..5 {
            let obs = vec![-0.5 + i as f64 * 0.1, 0.9];
            a.step(&obs, 0.05, 0.1, 3, &mut ra);
        }
        // Now both see the same observations.
        for _ in 0..6 {
            let obs = vec![0.4, -0.2];
            a.step(&obs, 0.05, 0.1, 3, &mut ra);
            b.step(&obs, 0.05, 0.1, 3, &mut rb);
        }
        assert!(a.estimates_match(&b, 0.15));
    }

    #[test]
    fn step_reports_flops() {
        let mut c = ParticleCloud::fresh(64, 4, 1);
        let f = c.step(&[0.0; 4], 0.1, 0.1, 5, &mut rng(1));
        assert_eq!(f, 5 * (64 * 4 * 6 + 64 * 4) as u64);
    }

    #[test]
    fn resampling_preserves_count_and_normalizes() {
        let mut c = ParticleCloud::fresh(32, 2, 7);
        c.step(&[0.1, 0.1], 0.1, 0.1, 1, &mut rng(9));
        assert_eq!(c.len(), 32);
        let total: f64 = c.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn byte_size_formula() {
        assert_eq!(ParticleCloud::byte_size(64, 2), 64 * 16 + 64 * 8);
    }

    #[test]
    fn fork_is_fault_free_under_generational_stepping() {
        let mut live = ParticleCloud::fresh(64, 2, 8);
        let mut r = rng(4);
        live.step(&[0.2, -0.1], 0.05, 0.1, 2, &mut r);
        let mut snap = live.fork();
        let frozen = snap.estimate();
        // The live side keeps stepping; the snapshot must not move, and
        // neither side may materialize a single byte.
        for _ in 0..4 {
            live.step(&[0.2, -0.1], 0.05, 0.1, 2, &mut r);
        }
        assert_eq!(snap.estimate(), frozen);
        assert_eq!(live.take_materialized(500_000), 0);
        assert_eq!(snap.take_materialized(500_000), 0);
        // Reseeding is generational too.
        live.reseed_around(&[0.0, 0.0], 0.1, &mut r);
        assert_eq!(live.take_materialized(500_000), 0);
    }

    #[test]
    fn fork_then_step_matches_deep_clone_twin() {
        // A forked cloud stepped forward is bit-identical to a deep clone
        // stepped with the same RNG stream: structural sharing never leaks
        // into the numerics.
        let mut base = ParticleCloud::fresh(32, 2, 5);
        base.step(&[0.1, 0.1], 0.05, 0.1, 2, &mut rng(6));
        let mut deep = base.clone();
        let mut cow = base.fork();
        let mut ra = rng(7);
        let mut rb = rng(7);
        deep.step(&[0.3, -0.2], 0.05, 0.1, 3, &mut ra);
        cow.step(&[0.3, -0.2], 0.05, 0.1, 3, &mut rb);
        assert_eq!(deep, cow);
        assert_eq!(format!("{deep:?}"), format!("{cow:?}"));
    }

    #[test]
    fn materialized_bytes_charge_component_shares() {
        // Force an in-place write through a shared handle and check the
        // fault is charged at the particles' byte share of the modeled
        // state size.
        let mut live = ParticleCloud::fresh(64, 2, 9);
        let _snap = live.fork();
        live.particles.make_mut()[0] = 0.0;
        let n = 64u64;
        let total = n * 2 * 8 + n * 8;
        assert_eq!(
            live.take_materialized(500_000),
            500_000 * (n * 2 * 8) / total
        );
        assert_eq!(live.take_materialized(500_000), 0, "drain resets");
    }

    #[test]
    fn reseed_keeps_pose_dimensions_beyond_the_target() {
        // A 3-D cloud reseeded around a 2-D target: coordinates 0 and 1
        // are redrawn, coordinate 2 of every particle is kept, and
        // exactly one gaussian is drawn per redrawn coordinate.
        let n = 40;
        let mut c = ParticleCloud::fresh(n, 3, 11);
        let before: Vec<Vec<f64>> = c.rows().map(<[f64]>::to_vec).collect();
        let mut r = rng(12);
        let mut twin = r.clone();
        let flops = c.reseed_around(&[0.5, -0.5], 0.1, &mut r);
        assert_eq!(flops, (n * 3 * 3) as u64);
        assert_eq!(c.len(), n);
        for (old, new) in before.iter().zip(c.rows()) {
            assert_eq!(new[2], old[2]);
            assert!((new[0] - 0.5).abs() < 0.6 && (new[1] + 0.5).abs() < 0.6);
        }
        for _ in 0..n * 2 {
            twin.gaussian();
        }
        assert_eq!(r.unit(), twin.unit(), "draws n × 2 gaussians");
    }

    #[test]
    fn nondeterminism_changes_estimates_slightly() {
        let mut a = ParticleCloud::fresh(128, 2, 3);
        let mut b = ParticleCloud::fresh(128, 2, 3);
        let mut ra = rng(1);
        let mut rb = rng(2);
        for _ in 0..8 {
            a.step(&[0.3, 0.3], 0.05, 0.1, 3, &mut ra);
            b.step(&[0.3, 0.3], 0.05, 0.1, 3, &mut rb);
        }
        // Different random streams: different clouds...
        assert_ne!(a, b);
        // ...but matching estimates (the nondeterministic acceptable space).
        assert!(a.estimates_match(&b, 0.1));
    }
}
