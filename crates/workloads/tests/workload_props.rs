//! Property tests of the benchmark substrates: particle filters, center
//! sets, and protocol robustness under hostile states.

use proptest::prelude::*;
use stats_core::rng::StatsRng;
use stats_core::speculation::run_speculative;
use stats_core::{Config, SnapshotStrategy, StateDependence, UpdateCost};
use stats_workloads::bodytrack::BodyTrack;
use stats_workloads::facedet_and_track::FaceDetAndTrack;
use stats_workloads::facetrack::FaceTrack;
use stats_workloads::particle::ParticleCloud;
use stats_workloads::streamclassifier::StreamClassifier;
use stats_workloads::streamcluster::{Centers, StreamCluster};
use stats_workloads::suite::Workload;
use stats_workloads::swaptions::Swaptions;

/// Drive a COW snapshot and its deep-cloned twin through one arbitrary
/// update sequence; the pair must stay `states_match`-equal and
/// wire-identical (the marker-serde wire format is `Debug`) at every
/// step, and writes to the still-aliased original must never show
/// through the snapshot.
fn check_cow_twin<W>(w: &W, prefix: usize, steps: usize, seed: u64)
where
    W: Workload,
    W::State: std::fmt::Debug,
{
    let inputs = w.generate_inputs(prefix + steps, seed);
    let mut rng = StatsRng::from_seed_value(seed);
    let mut state = w.fresh_state();
    for i in &inputs[..prefix] {
        w.update(&mut state, i, &mut rng);
    }

    // Fork a COW snapshot of the evolved state, then a deep twin of the
    // snapshot itself (`State: Clone` is a full payload copy — CowBox's
    // Clone never shares).
    let mut cow = w.snapshot_state(&mut state, SnapshotStrategy::CopyOnWrite);
    let mut deep = cow.clone();
    assert!(
        w.states_match(&cow, &deep),
        "{}: twins differ at birth",
        w.name()
    );

    // Identical update sequences on identical RNG streams must keep the
    // pair bit-identical, whether a step materializes a private copy
    // (first in-place write) or not (generational set()).
    let mut rng_cow = StatsRng::from_seed_value(seed ^ 0x00C0_FFEE);
    let mut rng_deep = StatsRng::from_seed_value(seed ^ 0x00C0_FFEE);
    for i in &inputs[prefix..] {
        w.update(&mut cow, i, &mut rng_cow);
        w.update(&mut deep, i, &mut rng_deep);
        assert!(w.states_match(&cow, &deep), "{}: twins diverged", w.name());
        assert_eq!(
            format!("{cow:?}"),
            format!("{deep:?}"),
            "{}: wire bytes diverged",
            w.name()
        );
    }

    // Commit-order safety: the original still aliases whatever the
    // snapshot has not yet materialized, so updating it must be
    // unobservable from the snapshot.
    let frozen = format!("{cow:?}");
    let mut rng_orig = StatsRng::from_seed_value(seed ^ 0x000A_11A5);
    for i in &inputs {
        w.update(&mut state, i, &mut rng_orig);
    }
    assert_eq!(
        format!("{cow:?}"),
        frozen,
        "{}: aliased write leaked into the snapshot",
        w.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Particle clouds stay inside their clamped pose box and keep their
    /// population through arbitrary observation sequences.
    #[test]
    fn particle_clouds_stay_bounded(
        n_pow in 4u32..8,
        dims in 1usize..8,
        obs in proptest::collection::vec(-2.0f64..2.0, 1..20),
        seed in 0u64..1_000,
    ) {
        let n = 1usize << n_pow;
        let mut cloud = ParticleCloud::fresh(n, dims, seed);
        let mut rng = StatsRng::from_seed_value(seed);
        for o in &obs {
            let target = vec![*o; dims];
            cloud.step(&target, 0.1, 0.1, 2, &mut rng);
            prop_assert_eq!(cloud.len(), n);
            for x in cloud.estimate() {
                prop_assert!((-1.5..=1.5).contains(&x), "estimate escaped: {x}");
            }
            prop_assert!(cloud.spread().is_finite());
        }
    }

    /// estimates_match is reflexive and symmetric for any pair of clouds.
    #[test]
    fn estimates_match_is_symmetric(seed_a in 0u64..500, seed_b in 0u64..500, tol in 0.01f64..1.0) {
        let a = ParticleCloud::fresh(32, 3, seed_a);
        let b = ParticleCloud::fresh(32, 3, seed_b);
        prop_assert!(a.estimates_match(&a, tol));
        prop_assert_eq!(a.estimates_match(&b, tol), b.estimates_match(&a, tol));
    }

    /// A COW snapshot is indistinguishable from a deep clone under any
    /// update sequence, on every benchmark — the per-workload face of
    /// the tentpole's bit-identity contract.
    #[test]
    fn cow_snapshots_track_their_deep_twins(
        prefix in 0usize..16,
        steps in 1usize..16,
        seed in 0u64..1_000,
    ) {
        check_cow_twin(&Swaptions::paper(), prefix, steps, seed);
        check_cow_twin(&StreamCluster::paper(), prefix, steps, seed);
        check_cow_twin(&StreamClassifier::paper(), prefix, steps, seed);
        check_cow_twin(&BodyTrack::paper(), prefix, steps, seed);
        check_cow_twin(&FaceTrack::paper(), prefix, steps, seed);
        check_cow_twin(&FaceDetAndTrack::paper(), prefix, steps, seed);
    }

    /// Chamfer distance between center sets is symmetric, zero on self,
    /// and grows with displacement.
    #[test]
    fn chamfer_is_a_sane_distance(
        positions in proptest::collection::vec(
            proptest::collection::vec(-1.0f64..1.0, 4),
            1..10,
        ),
        shift in 0.0f64..2.0,
    ) {
        let a = Centers::from_rows(positions.iter().map(|p| (p, 1.0)));
        let b = Centers::from_rows(
            positions
                .iter()
                .map(|p| (p.iter().map(|x| x + shift).collect::<Vec<_>>(), 3.0)),
        );
        prop_assert!(a.chamfer(&a) < 1e-12);
        prop_assert!((a.chamfer(&b) - b.chamfer(&a)).abs() < 1e-12);
        // Uniform shift of every center displaces the sets by <= shift*2
        // (per-dimension shift over 4 dims) and at least ~0.
        let expected = shift * 2.0; // sqrt(4 * shift^2)
        prop_assert!((a.chamfer(&b) - expected).abs() < 1e-6 + expected * 0.5);
    }
}

/// A workload that poisons its state with NaN after a few updates: the
/// acceptance check (NaN comparisons are false) must force aborts, and the
/// protocol must still terminate with a full output vector.
struct NanPoison;

impl StateDependence for NanPoison {
    type State = f64;
    type Input = u64;
    type Output = f64;
    fn fresh_state(&self) -> f64 {
        0.0
    }
    fn update(&self, s: &mut f64, i: &u64, _rng: &mut StatsRng) -> (f64, UpdateCost) {
        *s += *i as f64;
        if *i % 7 == 3 {
            *s = f64::NAN;
        }
        (*s, UpdateCost::with_work(10))
    }
    fn states_match(&self, a: &f64, b: &f64) -> bool {
        (a - b).abs() < 0.5 // false whenever either side is NaN
    }
    fn state_bytes(&self) -> usize {
        8
    }
}

#[test]
fn nan_states_abort_but_terminate() {
    let inputs: Vec<u64> = (0..96).collect();
    let out = run_speculative(&NanPoison, &inputs, Config::stats_only(4, 4, 2), 5);
    assert_eq!(out.outputs.len(), 96);
    // NaN states never match: every speculative chunk aborts.
    assert_eq!(out.aborts(), 3);
}

#[test]
fn reseeded_clouds_are_tight() {
    let mut cloud = ParticleCloud::fresh(64, 4, 9);
    assert!(cloud.spread() > 0.3, "fresh clouds are diffuse");
    let mut rng = StatsRng::from_seed_value(1);
    cloud.reseed_around(&[0.5, 0.5, -0.5, 0.0], 0.05, &mut rng);
    assert!(cloud.spread() < 0.2, "reseeded clouds are tight");
    let est = cloud.estimate();
    assert!((est[0] - 0.5).abs() < 0.1);
}
