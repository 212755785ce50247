//! Golden output digests of the three particle-filter trackers.
//!
//! Each test hashes the bits of every output of `run_sequential` and of
//! `run_speculative` under the tracker's tuned configuration, at two
//! seeds, and compares them with digests recorded when every particle was
//! still its own `Vec<f64>`. They pin the clouds' RNG draw order and
//! floating-point order across layout changes: only facedet-and-track is
//! checked by a benchmark reference, so these are what hold bodytrack
//! (16-D, the reseed path) and facetrack bit for bit.

use stats_core::runtime::sequential::run_sequential;
use stats_core::speculation::run_speculative;
use stats_workloads::bodytrack::BodyTrack;
use stats_workloads::facedet_and_track::FaceDetAndTrack;
use stats_workloads::facetrack::FaceTrack;
use stats_workloads::suite::Workload;

/// Inputs per run: enough for every tracker's tuned chunk count and
/// lookback.
const INPUTS: usize = 120;

/// FNV-1a over the little-endian bits of every output coordinate, in
/// output order.
fn digest(outputs: &[Vec<f64>]) -> u64 {
    outputs
        .iter()
        .flatten()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(seed, sequential digest, speculative digest)` for each pinned seed.
fn check<W>(w: &W, pinned: [(u64, u64, u64); 2])
where
    W: Workload<Output = Vec<f64>>,
{
    for (seed, sequential, speculative) in pinned {
        let inputs = w.generate_inputs(INPUTS, seed);
        let seq = run_sequential(w, &inputs, seed);
        let spec = run_speculative(w, &inputs, w.tuned_config(28), seed);
        assert_eq!(seq.outputs.len(), INPUTS);
        assert_eq!(spec.outputs.len(), INPUTS);
        assert_eq!(
            digest(&seq.outputs),
            sequential,
            "{} seed {seed}: sequential",
            w.name()
        );
        assert_eq!(
            digest(&spec.outputs),
            speculative,
            "{} seed {seed}: speculative",
            w.name()
        );
    }
}

#[test]
fn bodytrack_outputs_match_pinned_digests() {
    check(
        &BodyTrack::paper(),
        [
            (1, 0x8c57_5fcb_ea82_44f4, 0x858b_f399_4a19_4c61),
            (7, 0xcd9a_8277_f28c_68c6, 0xb916_cef9_cbff_43ae),
        ],
    );
}

#[test]
fn facetrack_outputs_match_pinned_digests() {
    check(
        &FaceTrack::paper(),
        [
            (1, 0x27ff_dbd1_3edc_0c66, 0xb52e_65fe_cefa_5905),
            (7, 0x9524_4b69_62e3_f9ee, 0xe3e7_49b9_e681_d1da),
        ],
    );
}

#[test]
fn facedet_and_track_outputs_match_pinned_digests() {
    check(
        &FaceDetAndTrack::paper(),
        [
            (1, 0x6e42_4eac_0188_bcd1, 0x1ddf_6af6_c34d_1be8),
            (7, 0x9ad7_f59b_d41a_0c12, 0x115d_30e3_8d16_558f),
        ],
    );
}
