//! Implementations of the individual reordering schemes (paper §III).
//!
//! Each scheme is a plain function from a graph to a validated
//! [`Permutation`](reorderlab_graph::Permutation); the
//! [`Scheme`](crate::Scheme) enum provides uniform dispatch over all of
//! them.

mod adaptive;
mod basic;
mod comm;
mod composite;
mod degree;
mod gorder;
mod hybrid;
mod lightweight;
mod minla;
mod rabbit;
mod rcm;
mod slashburn;

pub use adaptive::{adaptive_decide, adaptive_order, AdaptiveChoice, AdaptiveDecision};
pub use basic::{natural_order, random_order};
pub use comm::{comm_order, CommIntra};
pub(crate) use composite::{grappolo_order, grappolo_rcm_order};
pub use composite::{grappolo_order_with, metis_order, nd_order};
pub(crate) use degree::hub_sort;
pub use degree::{degree_sort, hub_cluster, hub_threshold, DegreeDirection};
pub use gorder::gorder;
pub use hybrid::{hybrid_multiscale_order, HybridConfig};
pub use lightweight::{dbg_order, hub_cluster_dbg_order, hub_sort_dbg_order};
pub use minla::{minla_anneal, MinlaConfig};
pub use rabbit::rabbit_order;
pub use rcm::{cdfs_order, rcm_order};
pub use slashburn::slashburn_order;

use reorderlab_community::{louvain, record_louvain_stats, CommunityResult, LouvainConfig};
use reorderlab_graph::{Csr, Permutation};

/// Louvain as the community schemes report it: the run under a `louvain`
/// span, its stats folded in once the span has closed. `louvain` itself
/// records nothing, since the Adaptive decision runs it only for a feature.
fn louvain_reported(graph: &Csr, cfg: &LouvainConfig) -> CommunityResult {
    let r = {
        let _louvain = reorderlab_trace::span("louvain");
        louvain(graph, cfg)
    };
    record_louvain_stats(&r);
    r
}

/// Finalizes a scheme's emission order (vertex ids in visit sequence) into a
/// validated [`Permutation`]. Every scheme routes through here so the
/// "emits each vertex exactly once" invariant has a single audited
/// enforcement point instead of a panic call per scheme.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..n` — a bug in the calling
/// scheme, never an input condition.
pub(crate) fn order_permutation(order: &[u32]) -> Permutation {
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: schemes emit each vertex exactly once by construction (their contract tests pin this)"
    )]
    Permutation::from_order(order).expect("scheme emitted a non-permutation order (scheme bug)")
}

/// Finalizes a scheme's rank table (`ranks[v]` = new position of `v`) into a
/// validated [`Permutation`]; the rank-shaped twin of [`order_permutation`].
///
/// # Panics
///
/// Panics if `ranks` is not a bijection onto `0..n` — a scheme bug.
pub(crate) fn ranks_permutation(ranks: Vec<u32>) -> Permutation {
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: callers assign each rank exactly once by construction"
    )]
    Permutation::from_ranks(ranks).expect("scheme emitted a non-bijective rank table (scheme bug)")
}
