//! # reorderlab-community
//!
//! Multithreaded Louvain community detection with performance
//! instrumentation — the workspace's stand-in for Grappolo \[28\], which the
//! paper uses both as an application under test (§VI-B) and as the source of
//! two ordering schemes (Grappolo and Grappolo-RCM, §III-D).
//!
//! The engine mirrors Grappolo's structure: vertex-parallel move
//! *iterations* repeated until the modularity gain falls under a threshold,
//! forming one *phase*; the graph is then compacted by communities and the
//! next phase runs on the coarser level. Instrumentation captures the exact
//! quantities of the paper's Figure 9: phase time, iteration time, iteration
//! count, modularity, `Work%` and `Work/edge`.
//!
//! [`louvain`], [`modularity`] and [`ModularityContext::new`] are generic
//! over `reorderlab_graph::Adjacency`, so the same code runs on a flat
//! `Csr` and on a `CompressedCsr`, bit-identically.
//!
//! A run uses the rayon pool it is called in — there is no thread-count
//! setting, because the result is bit-identical at any width. Bound the pool
//! with `reorderlab_graph::build_pool(t).install(|| louvain(..))`;
//! [`LouvainStats::threads`] records the width that ran.
//!
//! ## Example
//!
//! ```
//! use reorderlab_community::{louvain, LouvainConfig};
//! use reorderlab_datasets::clique_chain;
//!
//! let g = clique_chain(4, 8);
//! let result = louvain(&g, &LouvainConfig::default());
//! assert_eq!(result.num_communities, 4);
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

mod compare;
mod config;
mod louvain;
mod modularity;

pub use compare::{adjusted_rand_index, nmi};
pub use config::LouvainConfig;
pub use louvain::{
    louvain, louvain_compressed, record_louvain_stats, CommunityResult, IterationStats,
    LouvainStats, PhaseStats,
};
pub use modularity::{modularity, ModularityContext};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use reorderlab_graph::GraphBuilder;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn louvain_output_is_valid_assignment(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 1..120),
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let r = louvain(&g, &LouvainConfig::default());
            prop_assert_eq!(r.assignment.len(), n);
            prop_assert!(r.assignment.iter().all(|&c| (c as usize) < r.num_communities));
            prop_assert!((-1.0..=1.0).contains(&r.modularity));
            prop_assert!((r.modularity - modularity(&g, &r.assignment)).abs() < 1e-9);
        }

        #[test]
        fn louvain_beats_singletons(
            n in 6usize..30,
            edges in proptest::collection::vec((0u32..30, 0u32..30), 8..100),
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            if g.num_edges() == 0 {
                return Ok(());
            }
            let r = louvain(&g, &LouvainConfig::default());
            let singletons: Vec<u32> = (0..n as u32).collect();
            prop_assert!(r.modularity >= modularity(&g, &singletons) - 1e-9);
        }
    }
}
