//! Multiscale hybrid ordering — the paper's stated future direction
//! ("potential use of coarsening to explore the benefits of a multiscale
//! and/or hybrid ordering engines", §VII).
//!
//! The engine composes the study's two best per-measure schemes across
//! scales: community detection supplies the coarse structure (as in
//! Grappolo-RCM), RCM orders the communities *and recursively orders the
//! inside of each community*, so every level of the hierarchy — not just
//! the top — gets a bandwidth-aware arrangement.

use crate::schemes::rcm::rcm_order;
use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_graph::{build_pool, contract, Csr, Permutation};

/// Configuration for [`hybrid_multiscale_order`].
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Subgraphs of at most this many vertices are ordered directly by RCM.
    pub leaf_size: usize,
    /// Recursion depth cap (safety against non-shrinking community trees).
    pub max_depth: usize,
    /// Louvain settings used at every level.
    pub louvain: LouvainConfig,
}

impl HybridConfig {
    /// Default tuning: 256-vertex leaves, depth ≤ 8, default Louvain
    /// thresholds.
    pub fn new() -> Self {
        HybridConfig { leaf_size: 256, max_depth: 8, louvain: LouvainConfig::default() }
    }

    /// Sets the leaf size.
    pub fn leaf_size(mut self, n: usize) -> Self {
        self.leaf_size = n.max(2);
        self
    }
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig::new()
    }
}

/// Computes the multiscale hybrid ordering of `graph`.
///
/// Recursively: detect communities (Louvain), order the community graph by
/// RCM, then order each community's interior by the same procedure; leaves
/// fall back to plain RCM. Degenerate levels (a single community, or no
/// merging at all) also fall back to RCM, guaranteeing termination.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::{hybrid_multiscale_order, HybridConfig};
/// use reorderlab_datasets::clique_chain;
///
/// let g = clique_chain(4, 8);
/// let pi = hybrid_multiscale_order(&g, &HybridConfig::new().leaf_size(4));
/// assert_eq!(pi.len(), 32);
/// ```
pub fn hybrid_multiscale_order(graph: &Csr, config: &HybridConfig) -> Permutation {
    let n = graph.num_vertices();
    let mut order = Vec::with_capacity(n);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let all: Vec<u32> = (0..n as u32).collect();
    recurse(graph, &all, config, 0, &mut order);
    super::order_permutation(&order)
}

fn recurse(
    root: &Csr,
    vertices: &[u32],
    config: &HybridConfig,
    depth: usize,
    order: &mut Vec<u32>,
) {
    let (sub, originals) = root.induced_subgraph(vertices);
    if vertices.len() <= config.leaf_size || depth >= config.max_depth {
        emit_rcm(&sub, &originals, order);
        return;
    }
    // Subgraphs shrink geometrically with depth; a one-worker pool keeps
    // the many small Louvain runs from paying fork/join cost per level.
    let communities = build_pool(1).install(|| louvain(&sub, &config.louvain));
    let k = communities.num_communities;
    if k <= 1 || k == sub.num_vertices() {
        emit_rcm(&sub, &originals, order);
        return;
    }
    // Order the communities themselves by RCM on the coarse graph.
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: louvain's assignment is dense over exactly `k` labels, which is what `contract` validates"
    )]
    let coarse =
        contract(&sub, &communities.assignment, k).expect("louvain assignment is valid").coarse;
    let comm_rank = rcm_order(&coarse);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut comm_order: Vec<u32> = (0..k as u32).collect();
    comm_order.sort_by_key(|&c| comm_rank.rank(c));
    // Group members per community and recurse in community order.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (local, &c) in communities.assignment.iter().enumerate() {
        members[c as usize].push(originals[local]);
    }
    for c in comm_order {
        let group = &members[c as usize];
        if !group.is_empty() {
            recurse(root, group, config, depth + 1, order);
        }
    }
}

/// Orders `sub` by RCM and appends the result (translated back to original
/// ids) to `order`.
fn emit_rcm(sub: &Csr, originals: &[u32], order: &mut Vec<u32>) {
    let local = rcm_order(sub);
    for &v in &local.to_order() {
        order.push(originals[v as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::gap_measures;
    use crate::schemes::{grappolo_order_with, random_order};
    use reorderlab_datasets::{clique_chain, grid2d, path};
    use reorderlab_graph::GraphBuilder;

    fn small_cfg() -> HybridConfig {
        HybridConfig::new().leaf_size(8)
    }

    #[test]
    fn valid_permutation_on_structured_graph() {
        let g = clique_chain(6, 6);
        let pi = hybrid_multiscale_order(&g, &small_cfg());
        assert!(Permutation::from_ranks(pi.ranks().to_vec()).is_ok());
    }

    #[test]
    fn communities_stay_contiguous() {
        let g = clique_chain(5, 6);
        let pi = hybrid_multiscale_order(&g, &small_cfg());
        for c in 0..5u32 {
            let ranks: Vec<u32> = (0..6).map(|i| pi.rank(c * 6 + i)).collect();
            let span = ranks.iter().max().unwrap() - ranks.iter().min().unwrap();
            assert_eq!(span, 5, "clique {c} fragmented");
        }
    }

    #[test]
    fn beats_flat_grappolo_on_shuffled_grid_bandwidth() {
        // The hybrid's intra-community RCM should tighten arrangements a
        // flat community-contiguous order leaves loose.
        let g0 = grid2d(16, 16);
        let g = g0.permuted(&random_order(&g0, 31)).unwrap();
        let hybrid =
            gap_measures(&g, &hybrid_multiscale_order(&g, &HybridConfig::new().leaf_size(32)));
        let flat = gap_measures(&g, &grappolo_order_with(&g, &LouvainConfig::default()));
        assert!(
            hybrid.bandwidth <= flat.bandwidth,
            "hybrid β {} vs flat grappolo β {}",
            hybrid.bandwidth,
            flat.bandwidth
        );
    }

    #[test]
    fn leaf_only_equals_rcm() {
        // With a leaf size covering the whole graph, hybrid == RCM.
        let g = grid2d(6, 6);
        let pi = hybrid_multiscale_order(&g, &HybridConfig::new().leaf_size(100));
        assert_eq!(pi, crate::schemes::rcm_order(&g));
    }

    #[test]
    fn depth_cap_terminates_degenerate_recursion() {
        let g = path(64);
        let pi = hybrid_multiscale_order(
            &g,
            &HybridConfig { max_depth: 2, ..HybridConfig::new().leaf_size(2) },
        );
        assert_eq!(pi.len(), 64);
    }

    #[test]
    fn handles_disconnected_and_tiny() {
        let g = GraphBuilder::undirected(5).edge(0, 1).edge(3, 4).build().unwrap();
        assert_eq!(hybrid_multiscale_order(&g, &small_cfg()).len(), 5);
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        assert!(hybrid_multiscale_order(&g0, &small_cfg()).is_empty());
    }

    #[test]
    fn deterministic() {
        let g = clique_chain(4, 7);
        let cfg = small_cfg();
        assert_eq!(hybrid_multiscale_order(&g, &cfg), hybrid_multiscale_order(&g, &cfg));
    }
}
