//! A single set-associative cache with LRU replacement.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Cache-line size in bytes (must be a power of two).
    pub line_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// A config with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two and
    /// `size_bytes` is a positive multiple of `line_bytes × associativity`.
    pub fn new(size_bytes: usize, line_bytes: usize, associativity: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(associativity >= 1, "need at least one way");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(line_bytes * associativity),
            "size must be a positive multiple of line × ways"
        );
        CacheConfig { size_bytes, line_bytes, associativity }
    }

    /// Number of sets implied by the geometry.
    pub(crate) fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }
}

/// A set-associative LRU cache over 64-bit byte addresses.
///
/// # Examples
///
/// ```
/// use reorderlab_memsim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
/// assert!(!c.access(0));  // cold miss
/// assert!(c.access(32));  // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// Set `s` owns `tags[s * ways..(s + 1) * ways]`; its first `filled[s]`
    /// slots hold the resident line tags, most recently used first. The
    /// count, not a sentinel tag, marks the empty ways: with one-byte lines
    /// every `u64` is a possible line.
    tags: Vec<u64>,
    filled: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            tags: vec![0; num_sets * config.associativity],
            filled: vec![0; num_sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns whether it hit. On miss the line is filled
    /// (evicting LRU if needed).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.config.associativity;
        let slots = &mut self.tags[set * ways..(set + 1) * ways];
        let filled = &mut self.filled[set];
        // One pass from the MRU slot: each slot takes the tag carried from
        // the slot before it, so the line lands in front and every tag it
        // passes moves one slot towards LRU.
        let mut carried = line;
        for slot in &mut slots[..*filled] {
            let tag = std::mem::replace(slot, carried);
            if tag == line {
                self.hits += 1;
                return true;
            }
            carried = tag;
        }
        // A miss: `carried` is the old LRU tag. A full set drops it; a set
        // with a free way keeps it one slot further down.
        if *filled < ways {
            slots[*filled] = carried;
            *filled += 1;
        }
        self.misses += 1;
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Empties the cache and zeroes the counters.
    #[cfg(test)]
    pub(crate) fn reset(&mut self) {
        self.filled.fill(0);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cache as it was first written, kept as the reference the flat
    /// tag array must match: one heap `Vec` per set, MRU first, updated by
    /// `remove` and `insert(0, _)`.
    pub(crate) struct ReferenceLru {
        config: CacheConfig,
        line_shift: u32,
        set_mask: u64,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl ReferenceLru {
        pub(crate) fn new(config: CacheConfig) -> Self {
            let num_sets = config.num_sets();
            ReferenceLru {
                config,
                line_shift: config.line_bytes.trailing_zeros(),
                set_mask: (num_sets - 1) as u64,
                sets: vec![Vec::with_capacity(config.associativity); num_sets],
                hits: 0,
                misses: 0,
            }
        }

        pub(crate) fn access(&mut self, addr: u64) -> bool {
            let line = addr >> self.line_shift;
            let set = &mut self.sets[(line & self.set_mask) as usize];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                let tag = set.remove(pos);
                set.insert(0, tag);
                self.hits += 1;
                true
            } else {
                if set.len() == self.config.associativity {
                    set.pop();
                }
                set.insert(0, line);
                self.misses += 1;
                false
            }
        }

        fn reset(&mut self) {
            for s in &mut self.sets {
                s.clear();
            }
            self.hits = 0;
            self.misses = 0;
        }
    }

    /// The geometries the differential property covers: `tiny()`'s three
    /// levels, a direct-mapped cache, Cascade Lake's 11-way L3 and
    /// one-byte lines, whose addresses are drawn next to `u64::MAX`.
    fn differential_geometries() -> [(CacheConfig, bool); 6] {
        let tiny = crate::HierarchyConfig::tiny();
        [
            (tiny.l1, false),
            (tiny.l2, false),
            (tiny.l3, false),
            (CacheConfig::new(1024, 64, 1), false),
            (CacheConfig::new(11 * 4 * 1024 * 1024, 64, 11), false),
            (CacheConfig::new(16, 1, 4), true),
        ]
    }

    /// Folds a raw `(tag, set, offset)` draw onto a few sets of `config`
    /// and more distinct tags than a set has ways, so the trace both hits
    /// and evicts. `near_top` counts down from `u64::MAX` instead of up
    /// from 0.
    fn trace_address(config: CacheConfig, near_top: bool, (t, s, o): (u8, u8, u16)) -> u64 {
        let line = config.line_bytes as u64;
        let sets = config.num_sets() as u64;
        let tag = u64::from(t) % (2 * config.associativity as u64 + 2);
        let set = u64::from(s) % sets.min(4);
        let offset = (tag * sets + set) * line + u64::from(o) % line;
        if near_top {
            u64::MAX - offset
        } else {
            offset
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flat_tags_match_the_reference_lru(
            geometry in 0usize..6,
            draws in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 1..600),
        ) {
            let (config, near_top) = differential_geometries()[geometry];
            let trace: Vec<u64> =
                draws.into_iter().map(|d| trace_address(config, near_top, d)).collect();
            let mut cache = Cache::new(config);
            let mut reference = ReferenceLru::new(config);
            for round in 0..2 {
                for (i, &addr) in trace.iter().enumerate() {
                    prop_assert_eq!(
                        cache.access(addr),
                        reference.access(addr),
                        "{:?} round {} access {} at {:#x}",
                        config,
                        round,
                        i,
                        addr
                    );
                }
                prop_assert_eq!(cache.hits(), reference.hits);
                prop_assert_eq!(cache.misses(), reference.misses);
                cache.reset();
                reference.reset();
                prop_assert_eq!((cache.hits(), cache.misses()), (0, 0));
            }
        }
    }

    #[test]
    fn geometry_checks() {
        let c = CacheConfig::new(32 * 1024, 64, 8);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_line() {
        let _ = CacheConfig::new(1024, 48, 2);
    }

    #[test]
    fn same_line_hits() {
        let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
        assert!(!c.access(100));
        assert!(c.access(101));
        assert!(c.access(127));
        assert!(!c.access(128), "next line is cold");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, line 64, 1024 bytes -> 8 sets; addresses 0, 512, 1024 all
        // map to set 0 (line numbers 0, 8, 16).
        let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
        assert!(!c.access(0));
        assert!(!c.access(512));
        assert!(!c.access(1024)); // evicts line of addr 0 (LRU)
        assert!(!c.access(0), "LRU line must have been evicted");
        assert!(c.access(1024), "MRU line must survive");
    }

    #[test]
    fn lru_touch_refreshes() {
        let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
        c.access(0);
        c.access(512);
        c.access(0); // refresh 0 to MRU
        c.access(1024); // evicts 512 now
        assert!(c.access(0));
        assert!(!c.access(512));
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut c = Cache::new(CacheConfig::new(4096, 64, 4));
        let addrs: Vec<u64> = (0..64).map(|i| i * 64).collect(); // exactly capacity
        for &a in &addrs {
            c.access(a);
        }
        for &a in &addrs {
            assert!(c.access(a), "resident working set must hit at {a}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0), "reset cache must be cold");
    }
}
