//! Set-associative cache and three-level hierarchy simulation.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
}

impl CacheConfig {
    /// Create a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent: zero sizes, a non-power-of-
    /// two line, or a capacity not divisible by `ways * line`.
    pub fn new(capacity: usize, ways: usize, line: usize) -> Self {
        assert!(capacity > 0 && ways > 0 && line > 0, "zero-sized cache");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(
            capacity.is_multiple_of(ways * line),
            "capacity must be divisible by ways * line"
        );
        CacheConfig {
            capacity,
            ways,
            line,
        }
    }

    /// The paper machine's per-core L1D: 32 KiB, 8-way, 64 B lines.
    pub fn haswell_l1d() -> Self {
        CacheConfig::new(32 * 1024, 8, 64)
    }

    /// The paper machine's per-core L2: 256 KiB, 8-way, 64 B lines.
    pub fn haswell_l2() -> Self {
        CacheConfig::new(256 * 1024, 8, 64)
    }

    /// The paper machine's shared LLC: 35 MB per socket, 20-way.
    /// (Scaled geometry; the simulator works on line granularity.)
    pub fn haswell_llc() -> Self {
        // 35 MB is not a power-of-two-friendly capacity; collapse the
        // real sliced structure (2048 sets x 20 ways x 64 B per slice,
        // 14 slices) into one array rounded to a consistent geometry.
        CacheConfig::new(35 * 1024 * 1024 / (20 * 64) * (20 * 64), 20, 64)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line)
    }
}

/// Hit/miss counters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LevelCounters {
    /// Number of accesses that reached this level.
    pub accesses: u64,
    /// Number of accesses that missed at this level.
    pub misses: u64,
}

impl LevelCounters {
    /// Miss rate in `[0, 1]`; zero when no accesses reached the level.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Accumulate another counter set (per-core aggregation, §V-D).
    pub fn merge(&mut self, other: LevelCounters) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

/// One set-associative, LRU cache level.
///
/// Tags are stored per set in recency order (index 0 = MRU); lookups are
/// linear within a set, which is exact LRU and fast for realistic
/// associativities.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<u64>>,
    counters: LevelCounters,
}

impl Cache {
    /// Create an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            sets: vec![Vec::with_capacity(config.ways); config.sets()],
            config,
            counters: LevelCounters::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access the byte address `addr`; returns `true` on hit. On miss the
    /// line is allocated (write-allocate, no distinction between loads and
    /// stores at this fidelity).
    pub fn access(&mut self, addr: u64) -> bool {
        self.counters.accesses += 1;
        let line_addr = addr / self.config.line as u64;
        let set_idx = (line_addr % self.config.sets() as u64) as usize;
        let tag = line_addr / self.config.sets() as u64;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Hit: move to MRU.
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            self.counters.misses += 1;
            if set.len() == self.config.ways {
                set.pop(); // evict LRU
            }
            set.insert(0, tag);
            false
        }
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> LevelCounters {
        self.counters
    }

    /// Install `addr`'s line without touching the demand counters
    /// (hardware prefetch fills).
    pub fn install(&mut self, addr: u64) {
        let line_addr = addr / self.config.line as u64;
        let set_idx = (line_addr % self.config.sets() as u64) as usize;
        let tag = line_addr / self.config.sets() as u64;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
        } else {
            if set.len() == self.config.ways {
                set.pop();
            }
            set.insert(0, tag);
        }
    }

    /// Drop all cached lines but keep counters (e.g. to model a context
    /// switch wiping a core's cache).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// A data TLB modeled as a small set-associative cache of page numbers.
///
/// Instrumentation beyond the paper's Table II (the PMU rows it reports
/// stop at the LLC), useful when studying the trackers' locality loss:
/// chunked processing touches more pages per interval, and the TLB sees it
/// before the caches do.
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// A TLB with `entries` entries of 4 KiB pages at associativity 4
    /// (Haswell's DTLB is 64-entry, 4-way).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of 4.
    pub fn new(entries: usize) -> Self {
        Tlb::with_geometry(entries, 4, 4096)
    }

    /// A TLB with explicit associativity and page size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::new`]).
    pub fn with_geometry(entries: usize, ways: usize, page: usize) -> Self {
        // Reuse the cache machinery: one "line" per page translation.
        Tlb {
            inner: Cache::new(CacheConfig::new(entries * page, ways, page)),
        }
    }

    /// Touch the page containing `addr`; returns `true` on a TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr)
    }

    /// Hit/miss counters.
    pub fn counters(&self) -> LevelCounters {
        self.inner.counters()
    }
}

/// Geometry of a three-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Whether each core runs a next-line prefetcher: an L1D miss also
    /// installs the following line. Off by default — Table II is
    /// reproduced without it; the `prefetch` ablation quantifies its
    /// effect on the streaming benchmarks.
    pub next_line_prefetch: bool,
}

impl HierarchyConfig {
    /// The paper machine's hierarchy (per core, one LLC per socket).
    pub fn haswell() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::haswell_l1d(),
            l2: CacheConfig::haswell_l2(),
            llc: CacheConfig::haswell_llc(),
            next_line_prefetch: false,
        }
    }

    /// The paper machine's hierarchy with the next-line prefetcher on.
    pub fn haswell_prefetching() -> Self {
        HierarchyConfig {
            next_line_prefetch: true,
            ..Self::haswell()
        }
    }

    /// A small hierarchy for fast tests.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::new(1024, 2, 64),
            l2: CacheConfig::new(4 * 1024, 4, 64),
            llc: CacheConfig::new(16 * 1024, 4, 64),
            next_line_prefetch: false,
        }
    }
}

/// One core's view of the memory hierarchy: private L1D and L2 backed by a
/// shared LLC (owned elsewhere; accesses are forwarded by the caller, see
/// [`MultiCore`](crate::MultiCore)).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1d: Cache,
    l2: Cache,
    prefetch: bool,
}

impl CacheHierarchy {
    /// Create private levels from a hierarchy configuration.
    pub fn new(config: &HierarchyConfig) -> Self {
        CacheHierarchy {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            prefetch: config.next_line_prefetch,
        }
    }

    /// Access `addr` through L1D then L2; returns `true` if the access was
    /// satisfied privately, `false` if it must continue to the shared LLC.
    pub fn access(&mut self, addr: u64) -> bool {
        if self.l1d.access(addr) {
            return true;
        }
        if self.prefetch {
            // Next-line prefetch: install the following line quietly
            // (no counter traffic — hardware prefetches are not demand
            // accesses).
            self.l1d.install(addr + self.l1d.config().line as u64);
        }
        self.l2.access(addr)
    }

    /// L1D counters.
    pub fn l1d_counters(&self) -> LevelCounters {
        self.l1d.counters()
    }

    /// L2 counters.
    pub fn l2_counters(&self) -> LevelCounters {
        self.l2.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Page size in bytes: one cache "line" per page translation.
    fn page_size(tlb: &Tlb) -> usize {
        tlb.inner.config().line
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.counters().accesses, 4);
        assert_eq!(c.counters().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, line 64, capacity 128 => 1 set.
        let mut c = Cache::new(CacheConfig::new(128, 2, 64));
        assert_eq!(c.config().sets(), 1);
        c.access(0); // A
        c.access(64); // B
        c.access(0); // touch A => B is LRU
        c.access(128); // C evicts B
        assert!(c.access(0), "A should still be resident");
        assert!(!c.access(64), "B was evicted");
    }

    #[test]
    fn set_indexing_separates_conflicts() {
        // 2 sets: lines alternate sets.
        let mut c = Cache::new(CacheConfig::new(256, 2, 64));
        assert_eq!(c.config().sets(), 2);
        c.access(0); // set 0
        c.access(64); // set 1
        assert!(c.access(0));
        assert!(c.access(64));
    }

    #[test]
    fn flush_clears_lines_keeps_counters() {
        let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
        c.access(0);
        c.flush();
        assert!(!c.access(0));
        assert_eq!(c.counters().accesses, 2);
        assert_eq!(c.counters().misses, 2);
    }

    #[test]
    fn miss_rate_math() {
        let mut lc = LevelCounters {
            accesses: 10,
            misses: 3,
        };
        assert!((lc.miss_rate() - 0.3).abs() < 1e-12);
        lc.merge(LevelCounters {
            accesses: 10,
            misses: 7,
        });
        assert!((lc.miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(LevelCounters::default().miss_rate(), 0.0);
    }

    #[test]
    fn hierarchy_filters_accesses() {
        let cfg = HierarchyConfig::tiny();
        let mut h = CacheHierarchy::new(&cfg);
        assert!(!h.access(0)); // cold: misses L1 and L2
        assert!(h.access(0)); // L1 hit
        assert_eq!(h.l1d_counters().accesses, 2);
        assert_eq!(h.l1d_counters().misses, 1);
        // Only the L1 miss reached L2.
        assert_eq!(h.l2_counters().accesses, 1);
        assert_eq!(h.l2_counters().misses, 1);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig::new(1024, 2, 64); // 16 lines
        let mut c = Cache::new(cfg);
        // Stream over 64 lines repeatedly: virtually everything misses.
        for _round in 0..4 {
            for i in 0..64u64 {
                c.access(i * 64);
            }
        }
        let rate = c.counters().miss_rate();
        assert!(rate > 0.9, "expected thrashing, got miss rate {rate}");
    }

    #[test]
    fn small_working_set_fits() {
        let cfg = CacheConfig::new(4096, 4, 64); // 64 lines
        let mut c = Cache::new(cfg);
        for _round in 0..16 {
            for i in 0..8u64 {
                c.access(i * 64);
            }
        }
        // Only the 8 cold misses.
        assert_eq!(c.counters().misses, 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        CacheConfig::new(1024, 2, 48);
    }

    #[test]
    fn prefetcher_cuts_streaming_misses() {
        let base = HierarchyConfig::tiny();
        let pref = HierarchyConfig {
            next_line_prefetch: true,
            ..base
        };
        let mut plain = CacheHierarchy::new(&base);
        let mut fetching = CacheHierarchy::new(&pref);
        // Pure streaming at 8-byte stride over a large region.
        for i in 0..40_000u64 {
            plain.access(i * 8);
            fetching.access(i * 8);
        }
        let a = plain.l1d_counters().miss_rate();
        let b = fetching.l1d_counters().miss_rate();
        assert!(b < a / 1.5, "prefetch should cut misses: {b} vs {a}");
    }

    #[test]
    fn install_is_not_a_demand_access() {
        let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
        c.install(0);
        assert_eq!(c.counters().accesses, 0);
        // But the line is now resident.
        assert!(c.access(0));
    }

    #[test]
    fn tlb_hits_within_a_page() {
        let mut tlb = Tlb::new(64);
        assert!(!tlb.access(0x1000));
        assert!(tlb.access(0x1fff), "same page must hit");
        assert!(!tlb.access(0x2000), "next page is a new translation");
        assert_eq!(page_size(&tlb), 4096);
    }

    #[test]
    fn tlb_capacity_bounds_reach() {
        let mut tlb = Tlb::new(64);
        // Touch 256 distinct pages cyclically: thrashing.
        for round in 0..3u64 {
            let _ = round;
            for p in 0..256u64 {
                tlb.access(p * 4096);
            }
        }
        assert!(tlb.counters().miss_rate() > 0.9);
        // A 64-page working set fits exactly.
        let mut small = Tlb::new(64);
        for _ in 0..4 {
            for p in 0..64u64 {
                small.access(p * 4096);
            }
        }
        assert_eq!(small.counters().misses, 64, "only cold misses");
    }

    #[test]
    fn haswell_configs_have_paper_capacities() {
        assert_eq!(CacheConfig::haswell_l1d().capacity, 32 * 1024);
        assert_eq!(CacheConfig::haswell_l2().capacity, 256 * 1024);
        // 35 MB LLC (±rounding to geometry).
        let llc = CacheConfig::haswell_llc().capacity;
        assert!((34 * 1024 * 1024..=36 * 1024 * 1024).contains(&llc));
    }
}
