//! CPI modeling: turn cache/branch counters into a cycles-per-instruction
//! estimate.
//!
//! The platform's cost model and the microarchitecture simulators are
//! deliberately decoupled (DESIGN.md §2): workloads declare cycle costs,
//! and Table II's counters are produced separately. This module closes the
//! loop when desired: given a [`CounterSet`], it estimates the CPI a core
//! would sustain, so memory-bound phases (the stream benchmarks' 97–99%
//! L2/LLC miss rates) can be priced more expensively than cache-resident
//! ones.

use crate::CounterSet;
use serde::{Deserialize, Serialize};

/// A simple additive miss-penalty CPI model.
///
/// `CPI = base + (L2 hits × l2_latency + LLC hits × llc_latency +
/// LLC misses × memory_latency + branch misses × branch_penalty) /
/// instructions`, with each level's hits inferred from the counter
/// deltas. Instructions are approximated as `accesses / loads_per_instr`.
/// ```
/// use stats_uarch::{CpiModel, CounterSet};
/// let model = CpiModel::haswell();
/// // No memory stalls: CPI is the base CPI.
/// assert_eq!(model.cpi(&CounterSet::default()), model.base_cpi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpiModel {
    /// Cycles per instruction with a perfect memory system.
    pub base_cpi: f64,
    /// L2 hit latency in cycles (Haswell: ~12).
    pub l2_latency: f64,
    /// LLC hit latency in cycles (Haswell: ~34).
    pub llc_latency: f64,
    /// Memory latency in cycles (Haswell + DDR4-2133: ~200).
    pub memory_latency: f64,
    /// Branch misprediction penalty in cycles (~16).
    pub branch_penalty: f64,
    /// Data accesses per instruction (~0.4 on SPEC-like code).
    pub loads_per_instr: f64,
    /// Fraction of a miss's latency hidden by out-of-order overlap.
    pub mlp_overlap: f64,
}

impl CpiModel {
    /// Parameters approximating the paper's Xeon E5-2695 v3.
    pub fn haswell() -> Self {
        CpiModel {
            base_cpi: 0.5,
            l2_latency: 12.0,
            llc_latency: 34.0,
            memory_latency: 200.0,
            branch_penalty: 16.0,
            loads_per_instr: 0.4,
            mlp_overlap: 0.6,
        }
    }

    /// Estimated CPI for an execution with these counters.
    ///
    /// Returns `base_cpi` when the counter set is empty.
    pub fn cpi(&self, counters: &CounterSet) -> f64 {
        if counters.l1d.accesses == 0 {
            return self.base_cpi;
        }
        let instructions = counters.l1d.accesses as f64 / self.loads_per_instr;
        // Misses at each level that hit in the next.
        let l2_hits = counters.l1d.misses.saturating_sub(counters.l2.misses) as f64;
        let llc_hits = counters.l2.misses.saturating_sub(counters.llc.misses) as f64;
        let mem = counters.llc.misses as f64;
        let exposed = 1.0 - self.mlp_overlap;
        let stall_cycles = exposed
            * (l2_hits * self.l2_latency + llc_hits * self.llc_latency + mem * self.memory_latency)
            + counters.branch_misses as f64 * self.branch_penalty;
        self.base_cpi + stall_cycles / instructions
    }
}

impl Default for CpiModel {
    fn default() -> Self {
        CpiModel::haswell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelCounters;

    fn counters(accesses: u64, l1m: u64, l2m: u64, llcm: u64, br: u64, brm: u64) -> CounterSet {
        CounterSet {
            l1d: LevelCounters {
                accesses,
                misses: l1m,
            },
            l2: LevelCounters {
                accesses: l1m,
                misses: l2m,
            },
            llc: LevelCounters {
                accesses: l2m,
                misses: llcm,
            },
            branches: br,
            branch_misses: brm,
        }
    }

    #[test]
    fn perfect_cache_gives_base_cpi() {
        let m = CpiModel::haswell();
        let c = counters(1_000_000, 0, 0, 0, 100_000, 0);
        assert!((m.cpi(&c) - m.base_cpi).abs() < 1e-12);
        assert_eq!(m.cpi(&CounterSet::default()), m.base_cpi);
    }

    #[test]
    fn memory_bound_code_has_much_higher_cpi() {
        let m = CpiModel::haswell();
        // Streaming: every access misses all the way to memory.
        let streaming = counters(1_000_000, 125_000, 125_000, 125_000, 100_000, 1_000);
        // Resident: everything hits in L1.
        let resident = counters(1_000_000, 100, 50, 10, 100_000, 1_000);
        let s = m.cpi(&streaming);
        let r = m.cpi(&resident);
        assert!(s > 3.0 * r, "streaming CPI {s:.2} vs resident {r:.2}");
    }

    #[test]
    fn branch_misses_raise_cpi() {
        let m = CpiModel::haswell();
        let good = counters(1_000_000, 1_000, 500, 100, 200_000, 1_000);
        let bad = counters(1_000_000, 1_000, 500, 100, 200_000, 50_000);
        assert!(m.cpi(&bad) > m.cpi(&good));
    }

    #[test]
    fn mlp_overlap_hides_latency() {
        let mut serial = CpiModel::haswell();
        serial.mlp_overlap = 0.0;
        let mut overlapped = CpiModel::haswell();
        overlapped.mlp_overlap = 0.9;
        let c = counters(1_000_000, 125_000, 125_000, 125_000, 0, 0);
        assert!(overlapped.cpi(&c) < serial.cpi(&c));
    }

    #[test]
    fn table2_shapes_translate_to_cpi() {
        // streamclassifier-like counters (97% L2/LLC miss rates) vs
        // swaptions-like (everything resident): the CPI gap explains why
        // the stream benchmarks are memory-bound.
        let m = CpiModel::haswell();
        let stream = counters(
            10_000_000, 1_500_000, 1_455_000, 1_450_000, 1_100_000, 200_000,
        );
        let compute = counters(10_000_000, 270_000, 210_000, 2_000, 1_600_000, 45_000);
        assert!(m.cpi(&stream) > 2.0 * m.cpi(&compute));
    }
}
