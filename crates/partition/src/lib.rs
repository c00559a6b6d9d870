//! # reorderlab-partition
//!
//! A multilevel graph partitioner in the METIS family \[22\]: heavy-edge
//! matching coarsening, greedy graph-growing initial bisection, and
//! Fiduccia–Mattheyses refinement during uncoarsening, composed into k-way
//! partitioning by recursive bisection. Also provides vertex separators and
//! the nested dissection ordering built on them \[15, 23\].
//!
//! This crate is the substrate behind two of the paper's ordering schemes:
//! the METIS-induced ordering (§III-D, swept over k in Figure 7) and nested
//! dissection (§III-E).
//!
//! Matching and both refinements are serial scans (every decision reads
//! the ones before it); contraction and sub-graph extraction run on the
//! rayon pool the caller is in and are bit-identical at any width, so
//! [`PartitionConfig`] has no thread-count setting; bound the pool with
//! `reorderlab_graph::build_pool(t).install(|| partition_kway(..))`.
//!
//! ## Example
//!
//! ```
//! use reorderlab_datasets::grid2d;
//! use reorderlab_partition::{partition_kway, PartitionConfig};
//!
//! let g = grid2d(16, 16);
//! let p = partition_kway(&g, &PartitionConfig::new(8).seed(7));
//! assert_eq!(p.num_parts, 8);
//! assert!(p.edge_cut < g.num_edges() as f64 / 2.0);
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

mod bisect;
mod config;
mod kway;
mod kway_refine;
mod matching;
mod nd;
mod refine;
mod separator;

pub use config::PartitionConfig;
pub use kway::{partition_kway, Partitioning};
pub use nd::nested_dissection_order;
pub use refine::{edge_cut, fm_refine};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kway::kway_cut;
    use crate::kway_refine::kway_refine;
    use crate::matching::heavy_edge_matching;
    use crate::separator::vertex_separator;
    use proptest::prelude::*;
    use reorderlab_graph::{GraphBuilder, SelfLoopPolicy};

    fn arb_graph() -> impl Strategy<Value = reorderlab_graph::Csr> {
        (4usize..40).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..100)
                .prop_map(move |edges| GraphBuilder::undirected(n).edges(edges).build().unwrap())
        })
    }

    /// Weighted (halves, so every sum is exact), self-loops kept.
    fn arb_weighted_graph() -> impl Strategy<Value = reorderlab_graph::Csr> {
        (4usize..40).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..9), 0..100).prop_map(
                move |edges| {
                    GraphBuilder::undirected(n)
                        .self_loops(SelfLoopPolicy::Keep)
                        .weighted_edges(
                            edges.into_iter().map(|(u, v, h)| (u, v, f64::from(h) / 2.0)),
                        )
                        .build()
                        .unwrap()
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn partition_assignment_in_range((g, k, seed) in (arb_graph(), 2usize..6, any::<u64>())) {
            let p = partition_kway(&g, &PartitionConfig::new(k).seed(seed));
            prop_assert_eq!(p.assignment.len(), g.num_vertices());
            prop_assert!(p.assignment.iter().all(|&a| (a as usize) < k));
            prop_assert!((p.edge_cut - kway_cut(&g, &p.assignment)).abs() < 1e-9);
            let total: f64 = p.part_weights.iter().sum();
            prop_assert!((total - g.num_vertices() as f64).abs() < 1e-9);
        }

        #[test]
        fn fm_never_worsens_cut((g, seed) in (arb_graph(), any::<u64>())) {
            let n = g.num_vertices();
            let mut side: Vec<bool> = (0..n).map(|v| (v as u64 ^ seed) & 1 == 1).collect();
            let before = edge_cut(&g, &side);
            let vw = vec![1.0; n];
            let after = fm_refine(&g, &vw, &mut side, n as f64, n as f64, 4);
            prop_assert!(after <= before + 1e-9, "FM worsened cut {} -> {}", before, after);
            prop_assert!((after - edge_cut(&g, &side)).abs() < 1e-9);
        }

        /// The FM contract on weighted graphs with self-loops: the cut never
        /// rises and equals a recount, and a side inside its cap stays inside.
        /// (That the live `ext`/`int` survive every rollback exactly is
        /// asserted inside `fm_refine` itself in this crate's test build.)
        #[test]
        fn fm_contract_on_weighted_graphs(
            (g, seed, slack) in (arb_weighted_graph(), any::<u64>(), 0usize..4)
        ) {
            let n = g.num_vertices();
            let mut side: Vec<bool> = (0..n).map(|v| (v as u64 ^ seed) & 1 == 1).collect();
            let vw: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
            let weight_of = |side: &[bool], s: bool| -> f64 {
                (0..n).filter(|&v| side[v] == s).map(|v| vw[v]).sum()
            };
            let caps = [false, true].map(|s| weight_of(&side, s) + slack as f64);
            let before = edge_cut(&g, &side);
            let after = fm_refine(&g, &vw, &mut side, caps[0], caps[1], 4);
            prop_assert!(after <= before + 1e-9, "FM worsened cut {} -> {}", before, after);
            prop_assert_eq!(after, edge_cut(&g, &side));
            prop_assert!(weight_of(&side, false) <= caps[0] && weight_of(&side, true) <= caps[1]);
        }

        #[test]
        fn separator_actually_separates((g, seed) in (arb_graph(), any::<u64>())) {
            let s = vertex_separator(&g, &PartitionConfig::new(2).seed(seed));
            let n = g.num_vertices();
            let mut tag = vec![0u8; n];
            for &v in &s.right { tag[v as usize] = 1; }
            for &v in &s.separator { tag[v as usize] = 2; }
            prop_assert_eq!(s.left.len() + s.right.len() + s.separator.len(), n);
            for (u, v, _) in g.edges() {
                let (a, b) = (tag[u as usize], tag[v as usize]);
                prop_assert!(a == 2 || b == 2 || a == b);
            }
        }

        #[test]
        fn nd_order_is_permutation((g, seed) in (arb_graph(), any::<u64>())) {
            let order = nested_dissection_order(&g, 6, &PartitionConfig::new(2).seed(seed));
            prop_assert!(reorderlab_graph::Permutation::from_order(&order).is_ok());
        }

        #[test]
        fn matching_thread_invariant((g, seed) in (arb_graph(), any::<u64>())) {
            reorderlab_graph::assert_thread_invariant(|| heavy_edge_matching(&g, seed));
        }

        #[test]
        fn kway_refine_thread_invariant((g, k, seed) in (arb_graph(), 2usize..6, any::<u64>())) {
            let n = g.num_vertices();
            let start: Vec<u32> = (0..n as u32).map(|v| (v ^ seed as u32) % k as u32).collect();
            let vw = vec![1.0; n];
            reorderlab_graph::assert_thread_invariant(|| {
                let mut a = start.clone();
                let moves = kway_refine(&g, &mut a, k, &vw, 0.3, 4);
                (a, moves)
            });
        }

        #[test]
        fn partition_thread_invariant((g, k, seed) in (arb_graph(), 2usize..5, any::<u64>())) {
            let cfg = PartitionConfig::new(k).seed(seed);
            reorderlab_graph::assert_thread_invariant(|| partition_kway(&g, &cfg));
        }
    }
}
