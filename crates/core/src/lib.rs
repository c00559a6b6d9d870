//! # reorderlab-core
//!
//! Vertex reordering schemes and linear-arrangement gap measures — the
//! primary contribution of *"Vertex Reordering for Real-World Graphs and
//! Applications: An Empirical Evaluation"* (IISWC 2020), reimplemented as a
//! library.
//!
//! ## What's here
//!
//! - **Gap measures** (§II-A): per-edge gap ξ, average gap profile ξ̂,
//!   graph bandwidth β, average graph bandwidth β̂, plus distribution
//!   summaries (violin plots, Fig. 8) and performance profiles (Figs. 1,
//!   4–7) in [`measures`].
//! - **Twenty-two ordering schemes** in [`schemes`], one row each in
//!   [`SCHEMES`] and uniformly dispatchable through [`Scheme`]. A row's
//!   [`Provenance`] says where the scheme comes from: the 11 the paper
//!   evaluates (§V: Natural, Random, Degree Sort, SlashBurn, Gorder, RCM,
//!   Nested Dissection, METIS-induced, Grappolo, Grappolo-RCM, Rabbit
//!   Order), the two it describes (§III: Hub Sort, Hub Clustering), and
//!   nine extensions (ascending Degree Sort, CDFS, the degree-grouping
//!   family DBG, HubSort-DBG and HubCluster-DBG, the community-major family
//!   Comm-BFS, Comm-DFS and Comm-Degree, and Adaptive).
//!
//! No scheme takes a thread count: every kernel is bit-identical at any
//! width, so a scheme runs on the rayon pool it is called in (bound it with
//! `reorderlab_graph::build_pool(t).install(..)`) and [`Scheme::spec`] is
//! width-free.
//!
//! ## Quick start
//!
//! ```
//! use reorderlab_core::{measures::gap_measures, Scheme};
//! use reorderlab_datasets::grid2d;
//!
//! let g = grid2d(16, 16);
//! let natural = gap_measures(&g, &Scheme::Natural.reorder(&g));
//! let rcm = gap_measures(&g, &Scheme::Rcm.reorder(&g));
//! assert!(rcm.bandwidth <= natural.bandwidth);
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

mod error;
pub mod measures;
mod scheme;
pub mod schemes;

pub use error::{MeasureError, SchemeError};
pub use measures::{CompressionMeasures, GapDistribution, GapMeasures, PerformanceProfile};
pub use scheme::{Provenance, Scheme, SchemeDef, SCHEMES};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use reorderlab_graph::{GraphBuilder, Permutation};

    fn arb_graph() -> impl Strategy<Value = reorderlab_graph::Csr> {
        (3usize..30).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..80)
                .prop_map(move |edges| GraphBuilder::undirected(n).edges(edges).build().unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn all_schemes_yield_valid_permutations((g, seed) in (arb_graph(), any::<u64>())) {
            for scheme in Scheme::evaluation_suite(seed) {
                match scheme.try_reorder(&g) {
                    Ok(pi) => {
                        prop_assert_eq!(pi.len(), g.num_vertices());
                        prop_assert!(
                            Permutation::from_ranks(pi.ranks().to_vec()).is_ok(),
                            "{} invalid", scheme
                        );
                    }
                    // The arbitrary graphs here have 3..30 vertices, so
                    // METIS's 32 parts are rightly rejected — any other
                    // error would be a bug.
                    Err(e) => prop_assert!(
                        matches!(e, SchemeError::PartsExceedVertices { .. }),
                        "{} unexpectedly failed: {}", scheme, e
                    ),
                }
            }
        }

        #[test]
        fn gap_measures_invariant_under_relabel((g, seed) in (arb_graph(), any::<u64>())) {
            // Measuring (G, Π) must equal measuring (Π(G), identity): the
            // measure depends only on the arrangement, not the labeling.
            let pi = schemes::random_order(&g, seed);
            let direct = measures::gap_measures(&g, &pi);
            let relabeled = g.permuted(&pi).unwrap();
            let id = Permutation::identity(g.num_vertices());
            let indirect = measures::gap_measures(&relabeled, &id);
            prop_assert!((direct.avg_gap - indirect.avg_gap).abs() < 1e-9);
            prop_assert_eq!(direct.bandwidth, indirect.bandwidth);
            prop_assert!((direct.avg_bandwidth - indirect.avg_bandwidth).abs() < 1e-9);
        }

        #[test]
        fn hybrid_and_extensions_yield_valid_permutations((g, seed) in (arb_graph(), any::<u64>())) {
            use schemes::{hybrid_multiscale_order, minla_anneal, cdfs_order, HybridConfig, MinlaConfig};
            let hybrid = hybrid_multiscale_order(&g, &HybridConfig::new().leaf_size(6));
            prop_assert!(Permutation::from_ranks(hybrid.ranks().to_vec()).is_ok());
            let cdfs = cdfs_order(&g);
            prop_assert!(Permutation::from_ranks(cdfs.ranks().to_vec()).is_ok());
            let start = schemes::random_order(&g, seed);
            let annealed = minla_anneal(&g, &start, &MinlaConfig::budget(g.num_vertices(), 10, seed));
            prop_assert!(Permutation::from_ranks(annealed.ranks().to_vec()).is_ok());
            // Annealing never worsens the average gap of the best-seen state.
            let before = measures::gap_measures(&g, &start).avg_gap;
            let after = measures::gap_measures(&g, &annealed).avg_gap;
            prop_assert!(after <= before + 1e-9);
        }

        #[test]
        fn log_gap_bounded_by_log_bandwidth((g, seed) in (arb_graph(), any::<u64>())) {
            let pi = schemes::random_order(&g, seed);
            let m = measures::gap_measures(&g, &pi);
            // log2(1+gap) per edge is at most log2(1+β).
            prop_assert!(m.avg_log_gap <= (1.0 + m.bandwidth as f64).log2() + 1e-9);
            prop_assert!(m.avg_log_gap >= 0.0);
        }

        #[test]
        fn bandwidth_bounds_hold((g, seed) in (arb_graph(), any::<u64>())) {
            let pi = schemes::random_order(&g, seed);
            let m = measures::gap_measures(&g, &pi);
            let n = g.num_vertices() as f64;
            prop_assert!(m.avg_gap <= m.bandwidth as f64 + 1e-9);
            prop_assert!(m.avg_bandwidth <= m.bandwidth as f64 + 1e-9);
            prop_assert!((m.bandwidth as f64) < n.max(1.0));
        }
    }
}
