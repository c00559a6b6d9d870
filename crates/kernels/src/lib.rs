//! # reorderlab-kernels
//!
//! The "standard suite of prototypical graph operations" from the prior
//! reordering literature the paper positions itself against (§VI: "prior
//! works on graph orderings \[2, 12\] have predominantly focused on …
//! PageRank, Single Source Shortest Paths, and Betweenness Centrality").
//!
//! These kernels serve as the comparison baseline for the paper's more
//! complex application choices (community detection, influence
//! maximization): simple iterative traversals whose per-edge indirection
//! responds directly to vertex reordering.
//!
//! The crate holds PageRank, SSSP (BFS and Dijkstra) and Betweenness
//! Centrality. The direction-optimizing BFS the schemes run is RCM's
//! summary BFS in `reorderlab_graph`'s traversal module, not a kernel here.
//!
//! PageRank's pull iteration is one body generic over
//! `reorderlab_graph::Adjacency`; [`pagerank`] and [`pagerank_compressed`]
//! only pick the pull view (the graph itself when undirected, its
//! transpose when directed) in their storage form.
//!
//! ## Example
//!
//! ```
//! use reorderlab_datasets::star;
//! use reorderlab_kernels::{bfs_sssp, betweenness, pagerank, PageRankConfig};
//!
//! let g = star(20);
//! assert_eq!(pagerank(&g, &PageRankConfig::new()).ranking()[0], 0);
//! assert_eq!(bfs_sssp(&g, 1).distance[2], 2.0);
//! assert_eq!(betweenness(&g).top(), Some(0));
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
// Lossy `as` casts in library code go through `cast` or carry an
// `#[expect]`; unit tests are exempt, as clippy has no test setting for them.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

mod bc;
mod pagerank;
mod sssp;

pub use bc::{betweenness, betweenness_from, BcResult};
pub use pagerank::{pagerank, pagerank_compressed, PageRankConfig, PageRankResult};
pub use sssp::{bfs_sssp, dijkstra, SsspResult};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use reorderlab_graph::GraphBuilder;

    fn arb_graph() -> impl Strategy<Value = reorderlab_graph::Csr> {
        (3usize..25).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..60)
                .prop_map(move |edges| GraphBuilder::undirected(n).edges(edges).build().unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn pagerank_is_a_distribution(g in arb_graph()) {
            let r = pagerank(&g, &PageRankConfig::new());
            let total: f64 = r.scores.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "sum {}", total);
            prop_assert!(r.scores.iter().all(|&s| s > 0.0));
        }

        #[test]
        fn bfs_satisfies_triangle_inequality(g in arb_graph()) {
            let r = bfs_sssp(&g, 0);
            for (u, v, _) in g.edges() {
                let (du, dv) = (r.distance[u as usize], r.distance[v as usize]);
                if du.is_finite() && dv.is_finite() {
                    prop_assert!((du - dv).abs() <= 1.0 + 1e-9);
                }
            }
        }

        #[test]
        fn dijkstra_matches_bfs_unweighted(g in arb_graph()) {
            let a = bfs_sssp(&g, 1);
            let b = dijkstra(&g, 1);
            prop_assert_eq!(a.distance, b.distance);
        }

        #[test]
        fn betweenness_nonnegative_and_bounded(g in arb_graph()) {
            let n = g.num_vertices() as f64;
            let r = betweenness(&g);
            for &s in &r.score {
                prop_assert!(s >= -1e-9);
                prop_assert!(s <= n * n, "score {} exceeds n^2", s);
            }
        }
    }
}
