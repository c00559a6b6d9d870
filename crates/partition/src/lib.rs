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
//! The matching, contraction and refinement kernels run on the rayon pool
//! the caller is in and are bit-identical at any width, so
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod config;
mod kway;
mod kway_refine;
mod matching;
mod nd;
mod refine;
mod separator;

pub use bisect::{bisect, Bisection};
pub use config::PartitionConfig;
pub use kway::{communication_volume, kway_cut, partition_kway, Partitioning};
pub use kway_refine::{kway_refine, kway_refine_serial};
pub use matching::{heavy_edge_matching, heavy_edge_matching_serial, Matching};
pub use nd::nested_dissection_order;
pub use refine::{edge_cut, fm_refine};
pub use separator::{vertex_separator, Separator};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use reorderlab_graph::GraphBuilder;

    fn arb_graph() -> impl Strategy<Value = reorderlab_graph::Csr> {
        (4usize..40).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..100)
                .prop_map(move |edges| GraphBuilder::undirected(n).edges(edges).build().unwrap())
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
        fn matching_matches_serial_oracle((g, seed) in (arb_graph(), any::<u64>())) {
            let expected = heavy_edge_matching_serial(&g, seed);
            let got = reorderlab_graph::assert_thread_invariant(|| heavy_edge_matching(&g, seed));
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn kway_refine_matches_serial_oracle((g, k, seed) in (arb_graph(), 2usize..6, any::<u64>())) {
            let n = g.num_vertices();
            let start: Vec<u32> = (0..n as u32).map(|v| (v ^ seed as u32) % k as u32).collect();
            let vw = vec![1.0; n];
            let mut expected = start.clone();
            let expected_moves = kway_refine_serial(&g, &mut expected, k, &vw, 0.3, 4);
            let got = reorderlab_graph::assert_thread_invariant(|| {
                let mut a = start.clone();
                let moves = kway_refine(&g, &mut a, k, &vw, 0.3, 4);
                (a, moves)
            });
            prop_assert_eq!(got, (expected, expected_moves));
        }

        #[test]
        fn partition_thread_invariant((g, k, seed) in (arb_graph(), 2usize..5, any::<u64>())) {
            let cfg = PartitionConfig::new(k).seed(seed);
            reorderlab_graph::assert_thread_invariant(|| partition_kway(&g, &cfg));
        }
    }
}
