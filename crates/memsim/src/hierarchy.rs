//! A three-level cache hierarchy plus DRAM, with the latency accounting
//! that backs the paper's memory metrics (§VI-A): average load latency in
//! cycles and the L1/L2/L3/DRAM "boundedness" breakdown.

use crate::cache::{Cache, CacheConfig};

/// The memory level that satisfied a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Private level-1 data cache.
    L1,
    /// Private level-2 cache.
    L2,
    /// Shared last-level cache.
    L3,
    /// Main memory.
    Dram,
}

/// Geometry and latency of the simulated hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L3 geometry.
    pub l3: CacheConfig,
    /// Load-to-use latency in cycles per level `[L1, L2, L3, DRAM]`.
    pub latency: [u64; 4],
    /// Next-line hardware prefetcher: on a demand miss, the following cache
    /// line is filled without charging a demand load — modelling why VTune
    /// counts only "demand (not prefetched)" stalls (paper §VI-A).
    pub next_line_prefetch: bool,
}

impl HierarchyConfig {
    /// The paper's test platform, per core (Intel Xeon Platinum 8276,
    /// Cascade Lake: 32 KiB 8-way L1, 1 MiB 16-way L2, 38.5 MiB L3, 64-byte
    /// lines, latencies 4 / 14 / 50 / 180 cycles), scaled down ~16–20×
    /// (32 KiB L1 kept, 128 KiB L2, 2 MiB L3). This matches the 1/16–1/64
    /// down-scaling of the large instance suite, so the *ratio* of graph
    /// working set to cache capacity — which is what decides the paper's
    /// boundedness results — is preserved.
    pub fn scaled_cascade_lake() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(32 * 1024, 64, 8),
            l2: CacheConfig::new(128 * 1024, 64, 8),
            l3: CacheConfig::new(2 * 1024 * 1024, 64, 16),
            latency: [4, 14, 50, 180],
            next_line_prefetch: false,
        }
    }

    /// A miniature hierarchy for fast unit tests (1 KiB / 8 KiB / 64 KiB).
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(1024, 64, 2),
            l2: CacheConfig::new(8 * 1024, 64, 4),
            l3: CacheConfig::new(64 * 1024, 64, 8),
            latency: [4, 14, 50, 180],
            next_line_prefetch: false,
        }
    }
}

/// Aggregated metrics of a replay, in the paper's §VI-A vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemReport {
    /// Total loads issued.
    pub loads: u64,
    /// Average load latency in cycles.
    pub avg_latency: f64,
    /// Loads satisfied at each level `[L1, L2, L3, DRAM]`.
    pub level_hits: [u64; 4],
    /// Fraction of total stall cycles attributable to each level
    /// `[L1, L2, L3, DRAM]` — the boundedness breakdown. (VTune's variants
    /// are not a strict decomposition; ours is normalized to sum to 1.)
    pub bound: [f64; 4],
}

impl MemReport {
    /// Fraction of loads satisfied at `level` (0 for a zero-load replay).
    pub(crate) fn hit_rate(&self, level: MemLevel) -> f64 {
        if self.loads == 0 {
            return 0.0;
        }
        self.level_hits[level_index(level)] as f64 / self.loads as f64
    }

    /// Fraction of loads satisfied by L1 — the headline per-kernel hit
    /// ratio the snapshot records.
    pub fn l1_hit_rate(&self) -> f64 {
        self.hit_rate(MemLevel::L1)
    }
}

/// A simulated L1/L2/L3/DRAM hierarchy accepting a load trace.
///
/// # Examples
///
/// ```
/// use reorderlab_memsim::{Hierarchy, HierarchyConfig, MemLevel};
///
/// let mut h = Hierarchy::new(HierarchyConfig::tiny());
/// assert_eq!(h.load(0), MemLevel::Dram); // cold
/// assert_eq!(h.load(8), MemLevel::L1);   // same line, now resident
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    level_hits: [u64; 4],
    prefetch_fills: u64,
}

impl Hierarchy {
    /// Creates a cold hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            level_hits: [0; 4],
            prefetch_fills: 0,
        }
    }

    /// Issues one demand load; returns the level that satisfied it. Misses
    /// fill every level on the way down (inclusive hierarchy). With the
    /// next-line prefetcher enabled, any demand miss also fills the
    /// following cache line (uncounted).
    pub fn load(&mut self, addr: u64) -> MemLevel {
        let level = self.touch(addr);
        self.level_hits[level_index(level)] += 1;
        if self.config.next_line_prefetch && level != MemLevel::L1 {
            // The line after the top of the address space is line 0.
            let next_line = addr.wrapping_add(self.config.l1.line_bytes as u64);
            self.touch(next_line);
            self.prefetch_fills += 1;
        }
        level
    }

    /// Walks the hierarchy without counting a demand load.
    fn touch(&mut self, addr: u64) -> MemLevel {
        if self.l1.access(addr) {
            MemLevel::L1
        } else if self.l2.access(addr) {
            MemLevel::L2
        } else if self.l3.access(addr) {
            MemLevel::L3
        } else {
            MemLevel::Dram
        }
    }

    /// Number of prefetch fills triggered so far (0 when the prefetcher is
    /// disabled).
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Total loads so far.
    pub fn loads(&self) -> u64 {
        self.level_hits.iter().sum()
    }

    /// Builds the metrics report for the trace replayed so far.
    pub fn report(&self) -> MemReport {
        report_of(self.level_hits, self.config.latency)
    }

    /// The configured geometry and latencies.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }
}

/// The report of a replay that `level_hits` loads were satisfied at, under
/// per-level `latency`.
fn report_of(level_hits: [u64; 4], latency: [u64; 4]) -> MemReport {
    let loads = level_hits.iter().sum();
    let cycles: [f64; 4] = [
        level_hits[0] as f64 * latency[0] as f64,
        level_hits[1] as f64 * latency[1] as f64,
        level_hits[2] as f64 * latency[2] as f64,
        level_hits[3] as f64 * latency[3] as f64,
    ];
    let total: f64 = cycles.iter().sum();
    let bound = if total == 0.0 {
        [0.0; 4]
    } else {
        [cycles[0] / total, cycles[1] / total, cycles[2] / total, cycles[3] / total]
    };
    MemReport {
        loads,
        avg_latency: if loads == 0 { 0.0 } else { total / loads as f64 },
        level_hits,
        bound,
    }
}

fn level_index(level: MemLevel) -> usize {
    match level {
        MemLevel::L1 => 0,
        MemLevel::L2 => 1,
        MemLevel::L3 => 2,
        MemLevel::Dram => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::ReferenceLru;
    use proptest::prelude::*;

    /// `tiny()` with the next-line prefetcher on.
    fn prefetching() -> HierarchyConfig {
        HierarchyConfig { next_line_prefetch: true, ..HierarchyConfig::tiny() }
    }

    /// [`Hierarchy::load`] over three [`ReferenceLru`] levels.
    struct ReferenceHierarchy {
        config: HierarchyConfig,
        levels: [ReferenceLru; 3],
        level_hits: [u64; 4],
        prefetch_fills: u64,
    }

    impl ReferenceHierarchy {
        fn new(config: HierarchyConfig) -> Self {
            ReferenceHierarchy {
                config,
                levels: [config.l1, config.l2, config.l3].map(ReferenceLru::new),
                level_hits: [0; 4],
                prefetch_fills: 0,
            }
        }

        fn touch(&mut self, addr: u64) -> MemLevel {
            let answered = self.levels.iter_mut().position(|level| level.access(addr));
            [MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Dram][answered.unwrap_or(3)]
        }

        fn load(&mut self, addr: u64) -> MemLevel {
            let level = self.touch(addr);
            self.level_hits[level_index(level)] += 1;
            if self.config.next_line_prefetch && level != MemLevel::L1 {
                self.touch(addr.wrapping_add(self.config.l1.line_bytes as u64));
                self.prefetch_fills += 1;
            }
            level
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn hierarchy_matches_the_reference_lru_hierarchy(
            prefetch in any::<bool>(),
            draws in proptest::collection::vec((any::<bool>(), 0u64..(1 << 17)), 1..800),
        ) {
            // A 128 KiB footprint overflows tiny()'s 64 KiB L3; the loads
            // drawn with `top` sit in the last 4 KiB of the address space,
            // where the next line wraps.
            let mut config = HierarchyConfig::tiny();
            config.next_line_prefetch = prefetch;
            let mut h = Hierarchy::new(config);
            let mut reference = ReferenceHierarchy::new(config);
            for (i, &(top, offset)) in draws.iter().enumerate() {
                let addr = if top { u64::MAX - offset % 4096 } else { offset };
                prop_assert_eq!(h.load(addr), reference.load(addr), "load {} at {:#x}", i, addr);
            }
            prop_assert_eq!(h.report(), report_of(reference.level_hits, config.latency));
            prop_assert_eq!(h.prefetch_fills(), reference.prefetch_fills);
        }
    }

    #[test]
    fn prefetch_at_the_top_of_the_address_space_wraps() {
        let mut h = Hierarchy::new(prefetching());
        assert_eq!(h.load(u64::MAX - 8), MemLevel::Dram);
        assert_eq!(h.loads(), 1);
        assert_eq!(h.prefetch_fills(), 1);
    }

    #[test]
    fn cold_miss_goes_to_dram_then_l1() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        assert_eq!(h.load(4096), MemLevel::Dram);
        assert_eq!(h.load(4096), MemLevel::L1);
    }

    #[test]
    fn evicted_from_l1_hits_l2() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        // L1 is 1 KiB (16 lines, 2-way, 8 sets). Streaming 64 lines evicts
        // early lines from L1 but they fit in the 8 KiB L2 (128 lines).
        for i in 0..64u64 {
            h.load(i * 64);
        }
        assert_eq!(h.load(0), MemLevel::L2);
    }

    #[test]
    fn evicted_from_l2_hits_l3() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        // Stream 256 lines (16 KiB): exceeds L2 (8 KiB), fits L3 (64 KiB).
        for i in 0..256u64 {
            h.load(i * 64);
        }
        let lvl = h.load(0);
        assert!(
            lvl == MemLevel::L3 || lvl == MemLevel::L2,
            "early line should be in L3 (or L2 by set luck), got {lvl:?}"
        );
    }

    #[test]
    fn sequential_stream_is_mostly_l1() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        for i in 0..4096u64 {
            h.load(i * 4); // 4-byte stride: 16 accesses per line
        }
        let r = h.report();
        let l1_frac = r.level_hits[0] as f64 / r.loads as f64;
        assert!(l1_frac > 0.9, "sequential stride must be L1-friendly, got {l1_frac}");
        assert!(r.avg_latency < 20.0);
    }

    #[test]
    fn random_large_footprint_is_dram_bound() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        // Pseudo-random walk over 16 MiB: far beyond the 64 KiB L3.
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.load(x % (16 * 1024 * 1024));
        }
        let r = h.report();
        assert!(r.bound[3] > 0.5, "random big footprint must be DRAM bound: {:?}", r.bound);
        assert!(r.avg_latency > 50.0);
    }

    #[test]
    fn report_consistency() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        for i in 0..1000u64 {
            h.load(i * 64 % 8192);
        }
        let r = h.report();
        assert_eq!(r.loads, 1000);
        assert_eq!(r.level_hits.iter().sum::<u64>(), 1000);
        let bound_sum: f64 = r.bound.iter().sum();
        assert!((bound_sum - 1.0).abs() < 1e-9);
        assert!(r.avg_latency >= 4.0 && r.avg_latency <= 180.0);
    }

    #[test]
    fn prefetcher_converts_stream_misses_to_hits() {
        // A line-strided stream misses every access without prefetch…
        let mut cold = Hierarchy::new(HierarchyConfig::tiny());
        for i in 0..512u64 {
            cold.load(i * 64);
        }
        // …but with the next-line prefetcher, alternate lines are resident.
        let mut pf = Hierarchy::new(prefetching());
        for i in 0..512u64 {
            pf.load(i * 64);
        }
        assert!(pf.prefetch_fills() > 0);
        assert!(
            pf.report().level_hits[0] > cold.report().level_hits[0] + 200,
            "prefetch should turn most stream misses into L1 hits: {:?} vs {:?}",
            pf.report().level_hits,
            cold.report().level_hits
        );
        assert!(pf.report().avg_latency < cold.report().avg_latency);
    }

    #[test]
    fn prefetcher_disabled_by_default() {
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        h.load(0);
        h.load(4096);
        assert_eq!(h.prefetch_fills(), 0);
    }

    #[test]
    fn prefetch_does_not_count_as_demand_load() {
        let mut h = Hierarchy::new(prefetching());
        h.load(0); // miss, prefetches line 1
        assert_eq!(h.loads(), 1, "prefetch fills are not demand loads");
        assert_eq!(h.load(64), MemLevel::L1, "prefetched line must be resident");
    }

    #[test]
    fn prefetch_miss_on_last_line_of_a_set_fills_the_next_set() {
        // tiny L1: 1 KiB, 64 B lines, 2-way => 8 sets; line k maps to set
        // k % 8. A miss on a line in the last set (set 7) prefetches the
        // following line, which wraps into set 0 — the fill must land there,
        // not alias back into set 7.
        let mut h = Hierarchy::new(prefetching());
        assert_eq!(h.load(7 * 64), MemLevel::Dram); // set 7: miss, prefetch line 8
        assert_eq!(h.prefetch_fills(), 1);
        assert_eq!(h.load(8 * 64), MemLevel::L1, "prefetched line must sit in set 0");
        // Set 7 still holds only line 7: a conflicting line (15) misses.
        assert_eq!(h.load(15 * 64), MemLevel::Dram);
        assert_eq!(h.load(7 * 64), MemLevel::L1, "line 7 must not have been evicted");
    }

    #[test]
    fn prefetch_stream_crossing_set_boundaries_alternates_hits() {
        // A line-strided stream walks sets 0,1,2,…; each miss prefetches
        // exactly the next line (the next set), so demand accesses alternate
        // miss (even lines) / L1 hit (odd lines) regardless of set wraps.
        let mut h = Hierarchy::new(prefetching());
        for line in 0..20u64 {
            let level = h.load(line * 64);
            if line % 2 == 0 {
                assert_ne!(level, MemLevel::L1, "even line {line} is a demand miss");
            } else {
                assert_eq!(level, MemLevel::L1, "odd line {line} was prefetched");
            }
        }
        assert_eq!(h.prefetch_fills(), 10);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let h = Hierarchy::new(HierarchyConfig::tiny());
        let r = h.report();
        assert_eq!(r.loads, 0);
        assert_eq!(r.avg_latency, 0.0);
        assert_eq!(r.bound, [0.0; 4]);
    }
}
