//! Golden digests of streamcluster's online k-median kernel.
//!
//! Each run is folded into one FNV-1a digest and compared with the value
//! recorded when every center was still its own `Vec<f64>` and every merge
//! rescanned all pairs. `run_sequential` contributes its outputs, the work
//! of every input, and the final state's mean weight and center count.
//! `run_speculative` contributes its outputs, each chunk's decision, the
//! realized work, the logical and copied snapshot bytes and the abort
//! count, under five configurations. The two copy-on-write ones pin the
//! centers' fault count (their copied bytes are faults × 104), and the
//! breadth-2 one with overlapped reruns pins its aborts.

use stats_core::runtime::sequential::run_sequential;
use stats_core::speculation::run_speculative;
use stats_core::{Config, SnapshotStrategy};
use stats_workloads::streamcluster::StreamCluster;
use stats_workloads::suite::Workload;

/// Inputs per run: five per chunk at the tuned configuration's 56 chunks.
const INPUTS: usize = 280;

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

    fn float(self, x: f64) -> Self {
        self.word(x.to_bits())
    }
}

fn sequential_digest(w: &StreamCluster, seed: u64) -> u64 {
    let inputs = w.generate_inputs(INPUTS, seed);
    let run = run_sequential(w, &inputs, seed);
    assert_eq!(run.outputs.len(), INPUTS);
    let h = run.outputs.iter().fold(Fnv::new(), |h, &x| h.float(x));
    let h = run
        .per_input_costs
        .iter()
        .fold(h, |h, c| h.word(c.work).word(c.instructions));
    h.float(run.final_state.mean_weight())
        .word(run.final_state.len() as u64)
        .0
}

fn speculative_digest(w: &StreamCluster, config: Config, seed: u64) -> u64 {
    let inputs = w.generate_inputs(INPUTS, seed);
    let out = run_speculative(w, &inputs, config, seed);
    assert_eq!(out.outputs.len(), INPUTS);
    let h = out.outputs.iter().fold(Fnv::new(), |h, &x| h.float(x));
    let h = out
        .chunks
        .iter()
        .fold(h, |h, c| h.word(u64::from(c.aborted())));
    h.word(out.realized_work())
        .word(out.bytes_logical())
        .word(out.bytes_copied())
        .word(out.aborts() as u64)
        .0
}

/// The speculative configurations, in the order of the pinned digests.
fn configs(w: &StreamCluster) -> [Config; 5] {
    [
        w.tuned_config(28),
        Config::stats_only(14, 8, 2),
        // Lookback 1 aborts most chunks; breadth 2 rescues a few.
        Config::stats_only(28, 1, 1)
            .with_breadth(2)
            .with_overlap(true),
        w.tuned_config(28)
            .with_snapshot(SnapshotStrategy::CopyOnWrite),
        // Copy-on-write through aborts and reruns.
        Config::stats_only(56, 2, 1).with_snapshot(SnapshotStrategy::CopyOnWrite),
    ]
}

/// `(seed, sequential digest, speculative digests in `configs` order)`.
const PINNED: [(u64, u64, [u64; 5]); 2] = [
    (
        1,
        0xafaf_90bb_7bbe_866a,
        [
            0xa2e1_6030_cf0b_eb5d,
            0x2242_7273_66e1_e592,
            0x2a00_d6d2_b498_b945,
            0x3a41_dd54_a877_0df8,
            0x1f1d_8cbd_8058_07e1,
        ],
    ),
    (
        7,
        0x990c_3a51_bc32_001b,
        [
            0x4ca5_4e0c_1e4e_eaa3,
            0x96cb_032f_b607_d787,
            0xcc71_6c95_8371_3d87,
            0x717a_5c8d_e576_cf92,
            0x98b0_6e83_d724_13a8,
        ],
    ),
];

#[test]
fn sequential_runs_match_pinned_digests() {
    let w = StreamCluster::paper();
    for (seed, sequential, _) in PINNED {
        assert_eq!(sequential_digest(&w, seed), sequential, "seed {seed}");
    }
}

#[test]
fn speculative_runs_match_pinned_digests() {
    let w = StreamCluster::paper();
    for (seed, _, speculative) in PINNED {
        for (i, (config, pinned)) in configs(&w).into_iter().zip(speculative).enumerate() {
            assert_eq!(
                speculative_digest(&w, config, seed),
                pinned,
                "seed {seed}, config {i}: {config:?}"
            );
        }
    }
}

/// The runs the digests cover are the ones meant: the lookback-1 run
/// aborts, and copy-on-write copies more than it shares up front (the
/// refinement loop faults the centers).
#[test]
fn pinned_runs_abort_and_fault() {
    let w = StreamCluster::paper();
    let inputs = w.generate_inputs(INPUTS, 1);
    let [_, _, breadth, cow, _] = configs(&w);
    assert!(run_speculative(&w, &inputs, breadth, 1).aborts() > 0);
    let cow = run_speculative(&w, &inputs, cow, 1);
    assert!(cow.bytes_copied() > cow.bytes_logical());
}
