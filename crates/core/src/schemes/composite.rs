//! Orderings induced by the partitioning and community-detection substrates
//! (paper §III-D and §III-E): METIS-style partition ordering, nested
//! dissection, the Grappolo community ordering, and the Grappolo-RCM
//! composite introduced by the paper.

use crate::schemes::louvain_reported;
use crate::schemes::rcm::rcm_order;
use reorderlab_community::LouvainConfig;
use reorderlab_graph::{contract, Csr, Permutation};
use reorderlab_partition::{nested_dissection_order, partition_kway, PartitionConfig};
use reorderlab_trace::{counter, span};

/// METIS-induced ordering (§III-D): partition into `parts` parts minimizing
/// edge cut with near-equal sizes, then label vertices contiguously by part
/// (vertices within a part in natural order).
///
/// The relative order of the parts themselves is arbitrary, mirroring
/// METIS's k-way partitioner whose part numbering carries no adjacency
/// meaning — our recursive bisection would otherwise leak a hierarchical
/// part order that real METIS does not provide. A seeded shuffle of the
/// part labels models this.
///
/// The paper sweeps `parts` from 8 to 256 and finds 32 best (Figure 7).
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::metis_order;
/// use reorderlab_datasets::grid2d;
///
/// let g = grid2d(12, 12);
/// let pi = metis_order(&g, 32, 0);
/// assert_eq!(pi.len(), 144);
/// ```
pub fn metis_order(graph: &Csr, parts: usize, seed: u64) -> Permutation {
    let p = partition_kway(graph, &PartitionConfig::new(parts).seed(seed));
    // Deterministically shuffle part labels (arbitrary part numbering).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: Scheme::validate rejects parts > num_vertices() <= u32::MAX before dispatch"
    )]
    let mut label: Vec<u32> = (0..parts as u32).collect();
    let mut x = seed ^ 0x7a3d_55aa;
    for i in (1..label.len()).rev() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        label.swap(i, (x >> 33) as usize % (i + 1));
    }
    let shuffled: Vec<u32> = p.assignment.iter().map(|&a| label[a as usize]).collect();
    order_by_group(&shuffled)
}

/// Nested dissection ordering (§III-E): recursive vertex separators, sides
/// first, separators last.
pub fn nd_order(graph: &Csr, seed: u64) -> Permutation {
    let order = nested_dissection_order(graph, 32, &PartitionConfig::new(2).seed(seed));
    super::order_permutation(&order)
}

/// Grappolo ordering (§III-D): detect communities with parallel Louvain and
/// label each community's vertices contiguously; the relative order of the
/// communities themselves is arbitrary (first-appearance order here).
pub(crate) fn grappolo_order(graph: &Csr) -> Permutation {
    grappolo_order_with(graph, &LouvainConfig::default())
}

/// `grappolo_order` with an explicit Louvain configuration (thread count,
/// thresholds). Records Louvain's `louvain` span, phase timings, sweep
/// counters and modularity trajectory, plus a `grappolo/communities`
/// counter.
pub fn grappolo_order_with(graph: &Csr, cfg: &LouvainConfig) -> Permutation {
    let r = louvain_reported(graph, cfg);
    counter("grappolo/communities", r.num_communities as u64);
    order_by_group(&r.assignment)
}

/// Grappolo-RCM (§III-D, introduced by the paper): communities from Louvain
/// are themselves ordered by running RCM on the community (coarsened) graph,
/// then vertices are labeled contiguously within each community.
///
/// "The intuition is to take advantage of the multilevel hierarchical
/// information exposed by Grappolo to achieve a relative ordering among
/// communities."
pub(crate) fn grappolo_rcm_order(graph: &Csr) -> Permutation {
    grappolo_rcm_order_with(graph, &LouvainConfig::default())
}

/// [`grappolo_rcm_order`] with an explicit Louvain configuration. Records
/// what [`grappolo_order_with`] does, the coarsening's `contract` span and
/// size counters, and the community-graph RCM pass.
pub(crate) fn grappolo_rcm_order_with(graph: &Csr, cfg: &LouvainConfig) -> Permutation {
    let r = louvain_reported(graph, cfg);
    counter("grappolo/communities", r.num_communities as u64);
    if r.num_communities == 0 {
        return Permutation::identity(graph.num_vertices());
    }
    // `contract` is shared with Louvain's phases and the partitioner, so
    // its span and counters live here, at the one call site that reports.
    let contracted = {
        let _contract = span("contract");
        contract(graph, &r.assignment, r.num_communities)
    };
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: louvain returns a dense assignment over exactly `num_communities` labels, which is what `contract` validates"
    )]
    let coarse = contracted.expect("louvain assignment is valid").coarse;
    counter("contract/runs", 1);
    counter("contract/coarse_vertices", coarse.num_vertices() as u64);
    counter("contract/coarse_edges", coarse.num_edges() as u64);
    let comm_rank = rcm_order(&coarse);
    // Order vertices by (RCM rank of their community, vertex id).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut order: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    order.sort_by_key(|&v| (comm_rank.rank(r.assignment[v as usize]), v));
    super::order_permutation(&order)
}

/// Labels vertices contiguously by group id: rank key is
/// `(group[v], v)`. Shared by the METIS and Grappolo orderings.
fn order_by_group(group: &[u32]) -> Permutation {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut order: Vec<u32> = (0..group.len() as u32).collect();
    order.sort_by_key(|&v| (group[v as usize], v));
    super::order_permutation(&order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::gap_measures;
    use crate::schemes::random_order;
    use reorderlab_datasets::{clique_chain, grid2d};
    use reorderlab_graph::GraphBuilder;

    fn shuffled_grid(seed: u64) -> Csr {
        let g = grid2d(12, 12);
        let pi = random_order(&g, seed);
        g.permuted(&pi).unwrap()
    }

    #[test]
    fn metis_order_groups_parts_contiguously() {
        let g = grid2d(10, 10);
        let parts = 4;
        let p = partition_kway(&g, &PartitionConfig::new(parts).seed(0));
        let pi = metis_order(&g, parts, 0);
        // Vertices of the same part must form a contiguous rank range.
        let order = pi.to_order();
        let mut seen_parts: Vec<u32> = Vec::new();
        for &v in &order {
            let part = p.assignment[v as usize];
            if seen_parts.last() != Some(&part) {
                assert!(!seen_parts.contains(&part), "part {part} is fragmented");
                seen_parts.push(part);
            }
        }
    }

    #[test]
    fn metis_order_improves_gap_on_shuffled_grid() {
        let g = shuffled_grid(1);
        let natural = gap_measures(&g, &Permutation::identity(144)).avg_gap;
        let metis = gap_measures(&g, &metis_order(&g, 16, 2)).avg_gap;
        assert!(metis < natural, "metis {metis} vs natural {natural}");
    }

    #[test]
    fn nd_order_is_valid() {
        let g = grid2d(9, 9);
        let pi = nd_order(&g, 1);
        assert!(Permutation::from_ranks(pi.ranks().to_vec()).is_ok());
    }

    #[test]
    fn grappolo_keeps_planted_communities_contiguous() {
        let g = clique_chain(5, 6);
        let pi = grappolo_order(&g);
        for c in 0..5u32 {
            let ranks: Vec<u32> = (0..6).map(|i| pi.rank(c * 6 + i)).collect();
            let span = ranks.iter().max().unwrap() - ranks.iter().min().unwrap();
            assert_eq!(span, 5, "community {c} must be contiguous");
        }
    }

    #[test]
    fn grappolo_rcm_orders_communities_along_chain() {
        // On a chain of cliques the community graph is a path; RCM on it
        // orders communities consecutively, so neighboring cliques must get
        // adjacent rank blocks.
        let g = clique_chain(6, 5);
        let pi = grappolo_rcm_order(&g);
        // Block index of each clique = mean rank / 5.
        let mut blocks: Vec<i64> = Vec::new();
        for c in 0..6u32 {
            let mean: u32 = (0..5).map(|i| pi.rank(c * 5 + i)).sum::<u32>() / 5;
            blocks.push(mean as i64 / 5);
        }
        // Adjacent cliques must be in adjacent blocks.
        for w in blocks.windows(2) {
            assert!((w[0] - w[1]).abs() == 1, "chain order broken: {blocks:?}");
        }
    }

    #[test]
    fn grappolo_rcm_beats_grappolo_on_chain_avg_gap() {
        // The paper's motivation: RCM over communities fixes the arbitrary
        // community order, tightening inter-community gaps.
        let g = clique_chain(12, 5);
        // Shuffle so Louvain's first-appearance community order is arbitrary.
        let g = g.permuted(&random_order(&g, 23)).unwrap();
        let plain = gap_measures(&g, &grappolo_order(&g)).avg_gap;
        let with_rcm = gap_measures(&g, &grappolo_rcm_order(&g)).avg_gap;
        assert!(
            with_rcm <= plain * 1.05,
            "grappolo-rcm {with_rcm} should not lose to grappolo {plain}"
        );
    }

    #[test]
    fn composite_schemes_on_empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        assert!(metis_order(&g, 8, 0).is_empty());
        assert!(nd_order(&g, 0).is_empty());
        assert!(grappolo_order(&g).is_empty());
        assert!(grappolo_rcm_order(&g).is_empty());
    }

    #[test]
    fn recorded_grappolo_variants_are_identical_and_report_louvain() {
        use reorderlab_trace::{recording, RunRecorder};
        let g = clique_chain(5, 6);
        let cfg = LouvainConfig::default();

        let (pi, rec) = recording(RunRecorder::new(), || grappolo_order_with(&g, &cfg));
        assert_eq!(pi, grappolo_order_with(&g, &cfg));
        assert_eq!(rec.counters()["grappolo/communities"], 5);
        assert!(rec.counters()["louvain/phases"] >= 1);
        assert_eq!(rec.spans()["louvain"].count, 1);

        let (pi, rec) = recording(RunRecorder::new(), || grappolo_rcm_order_with(&g, &cfg));
        assert_eq!(pi, grappolo_rcm_order_with(&g, &cfg));
        assert_eq!(rec.counters()["contract/coarse_vertices"], 5);
        assert_eq!(rec.spans()["contract"].count, 1);
        assert_eq!(rec.counters()["rcm/components"], 1, "community graph is one path");
    }

    #[test]
    fn composite_schemes_deterministic() {
        let g = grid2d(8, 8);
        assert_eq!(metis_order(&g, 8, 5), metis_order(&g, 8, 5));
        assert_eq!(nd_order(&g, 5), nd_order(&g, 5));
        let cfg = LouvainConfig::default();
        assert_eq!(grappolo_order_with(&g, &cfg), grappolo_order_with(&g, &cfg));
        assert_eq!(grappolo_rcm_order_with(&g, &cfg), grappolo_rcm_order_with(&g, &cfg));
    }
}
