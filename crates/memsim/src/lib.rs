//! # reorderlab-memsim
//!
//! A trace-driven memory-hierarchy simulator standing in for the paper's
//! Intel VTune measurements (§VI-A): set-associative LRU L1/L2/L3 caches
//! plus DRAM, with per-level latencies modeled on the paper's Cascade Lake
//! test platform.
//!
//! Two replay kernels issue the address streams of the paper's profiled hot
//! routines — the Louvain neighbor-community scan (§VI-B, Figure 10) and
//! the IC reverse-BFS sampler (§VI-C, Figure 12) — over a CSR laid out by
//! any ordering under study. The report exposes the paper's two metrics:
//! **average load latency** (cycles) and **memory-hierarchy boundedness**
//! (the L1/L2/L3/DRAM stall breakdown).
//!
//! ## Example
//!
//! ```
//! use reorderlab_datasets::grid2d;
//! use reorderlab_memsim::{replay_louvain_scan, Hierarchy, HierarchyConfig};
//!
//! let g = grid2d(32, 32);
//! let mut h = Hierarchy::new(HierarchyConfig::tiny());
//! replay_louvain_scan(&g, 4096, &mut h);
//! let report = h.report();
//! assert!(report.loads > 0);
//! assert!(report.avg_latency >= 4.0);
//! ```

#![warn(missing_docs)]
// Library code: no panicking calls, no hash containers (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_types
)]

mod cache;
mod hierarchy;
mod workloads;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{Hierarchy, HierarchyConfig, MemLevel, MemReport};
pub use workloads::{
    replay_louvain_move, replay_louvain_scan, replay_pagerank_iteration, replay_rr_kernel,
    replay_rr_sampling,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn hit_plus_miss_equals_accesses(addrs in proptest::collection::vec(any::<u32>(), 1..500)) {
            let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
            for &a in &addrs {
                c.access(a as u64);
            }
            prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
        }

        #[test]
        fn immediate_reaccess_always_hits(addrs in proptest::collection::vec(any::<u32>(), 1..200)) {
            let mut c = Cache::new(CacheConfig::new(1024, 64, 2));
            for &a in &addrs {
                c.access(a as u64);
                prop_assert!(c.access(a as u64), "immediate re-access must hit");
            }
        }

        #[test]
        fn hierarchy_bounds_are_a_distribution(
            addrs in proptest::collection::vec(any::<u32>(), 1..500),
        ) {
            let mut h = Hierarchy::new(HierarchyConfig::tiny());
            for &a in &addrs {
                h.load(a as u64);
            }
            let r = h.report();
            prop_assert_eq!(r.loads, addrs.len() as u64);
            let sum: f64 = r.bound.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(r.avg_latency >= 4.0 && r.avg_latency <= 180.0);
        }
    }
}
