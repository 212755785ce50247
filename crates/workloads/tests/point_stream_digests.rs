//! Golden digests of the point-stream generators' draw order.
//!
//! Each stream is folded into one FNV-1a digest of its coordinate bits
//! (and, for the labeled stream, its labels), and compared with the value
//! recorded when every unlabeled batch still carried a copy of the
//! generating centers. A change that reorders, adds or drops an RNG draw
//! changes every later coordinate, and with it the digest.

use stats_workloads::synth::PointStreamConfig;

/// FNV-1a over the little-endian bytes of a sequence of words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(self, x: u64) -> Self {
        Fnv(x.to_le_bytes().iter().fold(self.0, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        }))
    }

    fn floats<'a>(self, xs: impl IntoIterator<Item = &'a f64>) -> Self {
        xs.into_iter().fold(self, |h, x| h.word(x.to_bits()))
    }
}

fn cluster_digest(seed: u64) -> u64 {
    let batches = PointStreamConfig::cluster_stream().generate(64, seed);
    batches
        .iter()
        .flat_map(|b| b.points())
        .fold(Fnv::new(), |h, p| h.floats(p))
        .0
}

fn classifier_digest(seed: u64) -> u64 {
    let batches = PointStreamConfig::classifier_stream().generate_labeled(64, seed);
    batches
        .iter()
        .fold(Fnv::new(), |h, b| {
            let h = b.points().fold(h, |h, p| h.floats(p));
            b.labels().iter().fold(h, |h, &l| h.word(l as u64))
        })
        .0
}

#[test]
fn point_streams_draw_in_the_pinned_order() {
    // Recorded when every `PointBatch` still carried its true centers.
    for (seed, cluster, classifier) in [
        (1, 0xb5c6_40ef_9faf_82dd, 0x1197_7631_2352_ca17),
        (7, 0xca15_4746_57fc_2faf, 0xacdc_e215_75fd_2afb),
    ] {
        assert_eq!(cluster_digest(seed), cluster, "seed {seed}: cluster stream");
        assert_eq!(
            classifier_digest(seed),
            classifier,
            "seed {seed}: classifier stream"
        );
    }
}
