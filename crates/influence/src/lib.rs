//! # reorderlab-influence
//!
//! Influence maximization via IMM (Tang, Shi & Xiao \[36\]) with a parallel
//! reverse-reachability sampling engine modeled on Ripples \[30\] — the
//! second application of the paper's §VI study.
//!
//! The core computational task is the *Sampling* procedure: tens of
//! thousands of probabilistic BFS traversals over the transpose graph, one
//! span of set indices per CPU, written into chunks that [`RrSets`] appends.
//! The engine reports sampling throughput and total time (paper Fig. 11).
//!
//! [`RrSampler`] is generic over the `reorderlab_graph::Adjacency` it
//! traverses and borrows the caller's graph as its reverse view when that
//! graph is undirected; [`imm`] and [`imm_compressed`] build the sampler in
//! their storage form and share one driver.
//!
//! Sampling runs on the rayon pool [`imm`] is called in — there is no
//! thread-count setting, because RR set `i` always comes from stream
//! `(seed, i)` and the result is bit-identical at any width. Bound the pool
//! with `reorderlab_graph::build_pool(t).install(|| imm(..))`.
//!
//! ## Example
//!
//! ```
//! use reorderlab_datasets::clique_chain;
//! use reorderlab_influence::{imm, ImmConfig};
//!
//! let g = clique_chain(3, 10);
//! let r = imm(&g, &ImmConfig::new(3).seed(1));
//! assert_eq!(r.seeds.len(), 3);
//! assert!(r.stats.rr_sets > 0);
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

mod config;
mod greedy;
mod imm;
mod rrset;
mod simulate;

pub use config::{DiffusionModel, ImmConfig};
pub use greedy::{celf_max_coverage, Coverage};
pub use imm::{imm, imm_compressed, ImmResult, SamplingStats};
pub use rrset::{RrSampler, RrSets, RrTrace};
pub use simulate::{estimate_spread, SpreadEstimate};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::greedy::greedy_max_coverage;
    use proptest::prelude::*;
    use reorderlab_graph::GraphBuilder;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn rr_sets_stay_within_component(
            n in 3usize..25,
            edges in proptest::collection::vec((0u32..25, 0u32..25), 1..60),
            seed in any::<u64>(),
        ) {
            let edges: Vec<(u32, u32)> = edges.into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32)).collect();
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let members = reorderlab_graph::Components::find(&g).members();
            let s = RrSampler::new(&g, DiffusionModel::IndependentCascade { probability: 0.5 });
            for i in 0..10u64 {
                let (set, trace) = s.sample(seed, i);
                prop_assert!(!set.is_empty());
                prop_assert_eq!(trace.vertices_visited as usize, set.len());
                let root_comp = members.iter().find(|m| m.contains(&set[0])).unwrap();
                for &v in &set {
                    prop_assert!(root_comp.contains(&v));
                }
                // No duplicates.
                let distinct: std::collections::BTreeSet<_> = set.iter().collect();
                prop_assert_eq!(distinct.len(), set.len());
            }
        }

        #[test]
        fn greedy_coverage_never_exceeds_sets(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u32..20, 1..6), 1..30),
            k in 1usize..5,
        ) {
            let c = greedy_max_coverage(&RrSets::from_iter(sets.clone()), 20, k);
            prop_assert!(c.covered <= sets.len());
            prop_assert!(c.seeds.len() <= k);
            // Verify the reported coverage by recount.
            let chosen: std::collections::BTreeSet<u32> = c.seeds.iter().copied().collect();
            let actual = sets.iter()
                .filter(|s| s.iter().any(|v| chosen.contains(v)))
                .count();
            prop_assert_eq!(actual, c.covered);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Up to 200 sets over 64 vertices, half the members squared toward
        /// the low ids so that counts pile up and tie, and `k` up to 16: the
        /// first window of small `k` is a fraction of the candidates, and of
        /// large `k` all of them.
        #[test]
        fn celf_equals_greedy(
            sets in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..64, any::<bool>())
                        .prop_map(|(v, skew)| if skew { v * v / 64 } else { v }),
                    1..12),
                1..200),
            k in 1usize..17,
        ) {
            let sets = RrSets::from_iter(sets);
            let a = greedy_max_coverage(&sets, 64, k);
            let b = celf_max_coverage(&sets, 64, k);
            prop_assert_eq!(a, b);
        }
    }
}
