//! # reorderlab-graph
//!
//! The graph substrate of the `reorderlab` workspace: a compressed sparse row
//! ([`Csr`]) representation with construction, traversal, permutation,
//! contraction, statistics, and text I/O, plus its delta/varint-compressed
//! form ([`CompressedCsr`]). The [`Adjacency`] trait is the row-access
//! surface both implement and the application kernels (PageRank, Louvain,
//! IMM) are generic over.
//!
//! This crate deliberately contains *no* reordering logic — schemes live in
//! `reorderlab-core` and consume the primitives here. The split mirrors the
//! paper's structure: §II defines graphs and orderings (here), §III defines
//! the reordering schemes (core).
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use reorderlab_graph::{GraphBuilder, Permutation};
//!
//! // A 5-cycle…
//! let g = GraphBuilder::undirected(5)
//!     .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
//!     .build()?;
//!
//! // …relabeled so vertex 0 goes last.
//! let pi = Permutation::from_ranks(vec![4, 0, 1, 2, 3])?;
//! let h = g.permuted(&pi)?;
//! assert_eq!(h.num_edges(), g.num_edges());
//! # Ok(())
//! # }
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

mod adjacency;
mod binfmt;
mod builder;
mod cast;
mod coarsen;
mod components;
mod compressed;
mod container;
mod csr;
mod determinism;
mod error;
mod io;
mod mtx;
mod perm;
mod stats;
mod traversal;

pub use adjacency::Adjacency;
pub use binfmt::{
    csr_digest, read_binary_csr, write_binary_csr, BINARY_CSR_EXTENSION, BINARY_CSR_MAGIC,
};
pub use builder::{DuplicatePolicy, GraphBuilder, SelfLoopPolicy};
pub use coarsen::{contract, contract_serial, Contraction};
pub use components::{Components, UnionFind};
pub use compressed::{
    permuted_gap_bytes, read_compressed_csr, write_compressed_csr, CompressError, CompressedCsr,
    GapNeighbors, COMPRESSED_CSR_EXTENSION, COMPRESSED_CSR_MAGIC,
};
pub use container::{fnv1a, BinCsrError};
pub use csr::{Csr, Edges};
pub use determinism::{assert_thread_invariant, build_pool, det_sum_f64};
pub use error::{GraphError, PermutationDefect};
pub use io::{read_edge_list, read_metis, write_edge_list, write_metis};
pub use mtx::{read_matrix_market, write_matrix_market};
pub use perm::Permutation;
pub use stats::{approx_diameter, common_neighbors, count_triangles, degree_histogram, GraphStats};
pub use traversal::{pseudo_peripheral, pseudo_peripheral_in, Bfs, LevelScratch};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::traversal::bfs_levels;
    use proptest::prelude::*;

    /// Strategy: a small arbitrary undirected graph as (n, edges).
    fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
        (2usize..40).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32);
            (Just(n), proptest::collection::vec(edge, 0..120))
        })
    }

    fn arb_perm(n: usize) -> impl Strategy<Value = Permutation> {
        Just(n).prop_perturb(|n, mut rng| {
            let mut order: Vec<u32> = (0..n as u32).collect();
            // Fisher–Yates with proptest's rng for shrink-stable shuffles.
            for i in (1..order.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            Permutation::from_order(&order).expect("shuffled identity is a permutation")
        })
    }

    proptest! {
        #[test]
        fn build_never_panics((n, edges) in arb_graph()) {
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            prop_assert!(g.num_vertices() == n);
            // Symmetric arc invariant: every arc has its mirror.
            for (u, v, _) in g.edges() {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }

        #[test]
        fn permute_preserves_structure(((n, edges), seed) in (arb_graph(), any::<u64>())) {
            let _ = seed;
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let pi = {
                // Deterministic permutation derived from the seed.
                let mut order: Vec<u32> = (0..n as u32).collect();
                let mut s = seed;
                for i in (1..order.len()).rev() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let j = (s >> 33) as usize % (i + 1);
                    order.swap(i, j);
                }
                Permutation::from_order(&order).unwrap()
            };
            let h = g.permuted(&pi).unwrap();
            prop_assert_eq!(h.num_edges(), g.num_edges());
            // Degree multiset preserved.
            let mut dg: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
            let mut dh: Vec<usize> = (0..n as u32).map(|v| h.degree(v)).collect();
            dg.sort_unstable();
            dh.sort_unstable();
            prop_assert_eq!(dg, dh);
            // Every original edge exists under the relabeling.
            for (u, v, _) in g.edges() {
                prop_assert!(h.has_edge(pi.rank(u), pi.rank(v)));
            }
            // Triangles are an isomorphism invariant, and the row-parallel
            // count is the serial loop's at every width.
            prop_assert_eq!(count_triangles(&g), count_triangles(&h));
            let reference = stats::count_triangles_reference(&g);
            for threads in [1usize, 2, 7] {
                prop_assert_eq!(build_pool(threads).install(|| count_triangles(&g)), reference);
            }
        }

        #[test]
        fn permutation_inverse_roundtrip(pi in (1usize..64).prop_flat_map(arb_perm)) {
            let inv = pi.inverse();
            for v in 0..pi.len() as u32 {
                prop_assert_eq!(inv.rank(pi.rank(v)), v);
                prop_assert_eq!(pi.rank(inv.rank(v)), v);
            }
            prop_assert_eq!(pi.reversed().reversed(), pi);
        }

        #[test]
        fn components_partition((n, edges) in arb_graph()) {
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let c = Components::find(&g);
            let total: usize = c.sizes().iter().sum();
            prop_assert_eq!(total, n);
            // Edge endpoints share a component.
            for (u, v, _) in g.edges() {
                prop_assert_eq!(c.component_of(u), c.component_of(v));
            }
        }

        #[test]
        fn contract_conserves_weight((n, edges) in arb_graph()) {
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            // Assign vertices round-robin to 3 clusters.
            let assignment: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
            let c = contract(&g, &assignment, 3).unwrap();
            let before = g.total_edge_weight();
            let after = c.coarse.total_edge_weight();
            prop_assert!((before - after).abs() < 1e-9, "{before} vs {after}");
        }

        #[test]
        fn edge_list_roundtrip_prop((n, edges) in arb_graph()) {
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            if g.num_edges() == 0 {
                return Ok(()); // empty output cannot recover n
            }
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let h = read_edge_list(&buf[..]).unwrap();
            prop_assert_eq!(h.num_edges(), g.num_edges());
            for (u, v, _) in g.edges() {
                prop_assert!(h.has_edge(u, v));
            }
        }

        #[test]
        fn bfs_levels_adjacent_differ_by_one((n, edges) in arb_graph()) {
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let ls = bfs_levels(&g, 0);
            for (u, v, _) in g.edges() {
                let (lu, lv) = (ls.levels[u as usize], ls.levels[v as usize]);
                if lu != u32::MAX && lv != u32::MAX {
                    prop_assert!(lu.abs_diff(lv) <= 1, "edge ({u},{v}) spans levels {lu},{lv}");
                }
            }
        }

        #[test]
        fn bfs_levels_match_serial_oracle((n, edges) in arb_graph()) {
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let got = assert_thread_invariant(|| bfs_levels(&g, 0));
            // The levels, read in order, are the FIFO queue's visit sequence.
            prop_assert_eq!(got.tiers.concat(), Bfs::new(&g, 0).collect::<Vec<_>>());
            for (depth, tier) in got.tiers.iter().enumerate() {
                prop_assert!(tier.iter().all(|&v| got.levels[v as usize] == depth as u32));
            }
        }

        #[test]
        fn contract_matches_serial_oracle((n, edges) in arb_graph()) {
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let assignment: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
            let expected = contract_serial(&g, &assignment, 3).unwrap();
            let got = assert_thread_invariant(|| {
                let c = contract(&g, &assignment, 3).unwrap();
                (c.coarse, c.cluster_sizes)
            });
            prop_assert_eq!(got.0, expected.coarse);
            prop_assert_eq!(got.1, expected.cluster_sizes);
        }

        #[test]
        fn contract_matches_legacy_hashmap_semantics((n, edges) in arb_graph()) {
            // The pre-scatter implementation accumulated cluster-pair weights
            // in a HashMap over `edges()`. Summation order differs, so
            // compare approximately — the logical structure must be equal.
            let g = GraphBuilder::undirected(n).edges(edges).build().unwrap();
            let assignment: Vec<u32> = (0..n as u32).map(|v| v % 4).collect();
            let c = contract(&g, &assignment, 4).unwrap();
            let mut legacy: std::collections::BTreeMap<(u32, u32), f64> =
                std::collections::BTreeMap::new();
            for (u, v, w) in g.edges() {
                let (cu, cv) = (assignment[u as usize], assignment[v as usize]);
                *legacy.entry((cu.min(cv), cu.max(cv))).or_insert(0.0) += w;
            }
            prop_assert_eq!(c.coarse.num_edges(), legacy.len());
            for (&(a, b), &w) in &legacy {
                let got = c.coarse.edge_weight(a, b).expect("cluster edge present");
                prop_assert!((got - w).abs() < 1e-9, "({a},{b}): {got} vs {w}");
            }
        }
    }
}
