//! # reorderlab-datasets
//!
//! Synthetic graph generators and the named instance suite that stands in
//! for the paper's Table I (25 small + 9 large graphs from KONECT and
//! DIMACS10, which are not redistributable).
//!
//! Each generator targets one structural class whose properties drive
//! reordering behaviour:
//!
//! - **road / power-grid** ([`road_network`], [`road_fragment`]): low
//!   degree, huge diameter, near-planar;
//! - **mesh** ([`tri_mesh`], [`grid2d`]): uniform moderate degree;
//! - **social / web** ([`barabasi_albert`], [`rmat`], [`hub_and_spokes`]):
//!   heavy-tailed degrees and hubs;
//! - **baseline randomness** ([`erdos_renyi_gnm`], [`watts_strogatz`],
//!   [`random_geometric`]).
//!
//! ## Example
//!
//! ```
//! use reorderlab_datasets::suite;
//!
//! let spec = suite::by_name("delaunay_n12").expect("known instance");
//! let g = spec.generate();
//! assert_eq!(g.num_vertices(), 4096);
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

mod degenerate;
mod mesh;
mod powerlaw;
mod random;
mod sbm;
mod simple;
pub mod suite;

pub use degenerate::{degenerate_suite, DegenerateCase};
pub use mesh::{road_fragment, road_network, tri_mesh};
pub use powerlaw::{barabasi_albert, hub_and_spokes, rmat, RmatParams};
pub use random::{erdos_renyi_gnm, random_geometric, watts_strogatz};
pub use sbm::{stochastic_block_model, PlantedPartition};
pub use simple::{binary_tree, clique_chain, complete, cycle, grid2d, path, star};
pub use suite::{by_name, full_suite, large_suite, small_suite, Domain, InstanceSpec, Recipe};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use reorderlab_graph::Components;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ba_always_connected(n in 10usize..200, m in 1usize..5, seed in any::<u64>()) {
            let g = barabasi_albert(n, m, seed);
            prop_assert!(Components::find(&g).count() <= 1);
            prop_assert_eq!(g.num_vertices(), n);
        }

        #[test]
        fn gnm_exact_m(n in 5usize..100, m in 0usize..200, seed in any::<u64>()) {
            let g = erdos_renyi_gnm(n, m, seed);
            let cap = n * (n - 1) / 2;
            prop_assert_eq!(g.num_edges(), m.min(cap));
        }

        #[test]
        fn road_network_always_connected(
            rows in 2usize..20,
            cols in 2usize..20,
            keep in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let g = road_network(rows, cols, keep, seed);
            prop_assert!(Components::find(&g).count() <= 1);
            prop_assert!(g.num_edges() >= rows * cols - 1);
        }

        #[test]
        fn tri_mesh_bounded_degree(
            rows in 2usize..20,
            cols in 2usize..20,
            flip in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let g = tri_mesh(rows, cols, flip, seed);
            prop_assert!(g.max_degree() <= 8);
            prop_assert!(Components::find(&g).count() <= 1);
        }

        #[test]
        fn rmat_respects_bounds(n in 4usize..256, m in 1usize..400, seed in any::<u64>()) {
            let g = rmat(n, m, RmatParams::graph500(), seed);
            prop_assert_eq!(g.num_vertices(), n);
            prop_assert!(g.num_edges() <= m);
        }
    }
}
