//! Reverse Cuthill–McKee (paper §III-E, Cuthill & McKee \[9\]) and its
//! unsorted relaxation, CDFS.
//!
//! Per connected component: start from a pseudo-peripheral vertex found from
//! the component's minimum-degree vertex, BFS while visiting each vertex's
//! unvisited neighbors in non-decreasing degree order, then reverse the
//! whole visit sequence. RCM is the paper's clear winner on the graph
//! bandwidth measure β (Figure 6a).
//!
//! Both orderings are one FIFO queue loop. A parallel per-level gather of
//! the candidate lists lost to that loop at two threads on the benchmark
//! host (DESIGN.md §2), so there is no second body.

use reorderlab_graph::{pseudo_peripheral_in, Csr, LevelScratch, Permutation};
use reorderlab_trace::counter;
use std::collections::VecDeque;

/// Packed `(degree, id)` sort keys: one `u64` comparison replaces a tuple
/// compare with a repeated degree lookup.
fn degree_keys(graph: &Csr) -> Vec<u64> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    (0..graph.num_vertices() as u32)
        .map(|v| ((graph.degree(v) as u64) << 32) | u64::from(v))
        .collect()
}

/// Computes the Reverse Cuthill–McKee ordering of `graph`.
///
/// Components are processed in increasing order of their minimum-degree
/// vertex (ties by id), matching the classic formulation ("the search
/// resumes with another unvisited vertex of the smallest current degree").
/// Within a component the BFS is the classic FIFO queue, and each vertex's
/// unvisited neighbors are enqueued in `(degree, id)` order.
///
/// Records an `rcm/components` counter and one `pseudo_peripheral` span
/// per component on the installed recorder.
///
/// # Examples
///
/// On a path graph RCM achieves the optimal bandwidth of 1:
///
/// ```
/// use reorderlab_core::{measures::gap_measures, schemes::rcm_order};
/// use reorderlab_datasets::path;
///
/// let g = path(32);
/// let pi = rcm_order(&g);
/// assert_eq!(gap_measures(&g, &pi).bandwidth, 1);
/// ```
pub fn rcm_order(graph: &Csr) -> Permutation {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let key = degree_keys(graph);
    // One BFS scratch for the root searches of every component.
    let mut scratch = LevelScratch::new(n);
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut nbrs: Vec<u32> = Vec::new();

    // Vertices sorted by (degree, id) — candidate starting points.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut starts: Vec<u32> = (0..n as u32).collect();
    starts.sort_unstable_by_key(|&v| key[v as usize]);

    for &s in &starts {
        if visited[s as usize] {
            continue;
        }
        // Improve the start: walk to a pseudo-peripheral vertex of this
        // component so the level structure is deep and narrow.
        counter("rcm/components", 1);
        let root = pseudo_peripheral_in(graph, s, &mut scratch);
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            nbrs.clear();
            nbrs.extend(graph.neighbors(v).iter().copied().filter(|&u| !visited[u as usize]));
            nbrs.sort_unstable_by_key(|&u| key[u as usize]);
            for &u in &nbrs {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    // The "reverse" in RCM.
    order.reverse();
    super::order_permutation(&order)
}

/// Children Depth-First Search ordering (Banerjee et al. \[3\], the paper's
/// footnote 1): the RCM relaxation where "the renumbering of unvisited
/// neighbors follows an arbitrary order at every level" — i.e. a plain BFS
/// from a pseudo-peripheral start with neighbors in natural order, then
/// reversed. Cheaper than RCM (no per-vertex sort) at some bandwidth cost.
/// Records like [`rcm_order`], under a `cdfs/components` counter.
pub fn cdfs_order(graph: &Csr) -> Permutation {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let key = degree_keys(graph);
    let mut scratch = LevelScratch::new(n);
    let mut queue: VecDeque<u32> = VecDeque::new();

    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut starts: Vec<u32> = (0..n as u32).collect();
    starts.sort_unstable_by_key(|&v| key[v as usize]);

    for &s in &starts {
        if visited[s as usize] {
            continue;
        }
        counter("cdfs/components", 1);
        let root = pseudo_peripheral_in(graph, s, &mut scratch);
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in graph.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    super::order_permutation(&order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::gap_measures;
    use reorderlab_datasets::{grid2d, path, star};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn path_bandwidth_is_one() {
        let g = path(50);
        let m = gap_measures(&g, &rcm_order(&g));
        assert_eq!(m.bandwidth, 1);
        assert_eq!(m.avg_gap, 1.0);
    }

    #[test]
    fn grid_bandwidth_near_side_length() {
        // Optimal bandwidth of an r x c grid (r <= c) is r; RCM should land
        // close to it.
        let g = grid2d(8, 16);
        let m = gap_measures(&g, &rcm_order(&g));
        assert!(m.bandwidth <= 12, "grid bandwidth {} should be near 8", m.bandwidth);
    }

    #[test]
    fn rcm_beats_natural_on_shuffled_grid() {
        use crate::schemes::random_order;
        let g = grid2d(10, 10);
        let shuffled = g.permuted(&random_order(&g, 99)).unwrap();
        let natural = gap_measures(&shuffled, &Permutation::identity(100));
        let rcm = gap_measures(&shuffled, &rcm_order(&shuffled));
        assert!(
            rcm.bandwidth < natural.bandwidth / 2,
            "RCM {} vs natural {}",
            rcm.bandwidth,
            natural.bandwidth
        );
    }

    #[test]
    fn star_hub_gets_extreme_rank() {
        // On a star the hub neighbors everything; after reversal the hub
        // (visited first from the periphery... ) — all orderings give
        // bandwidth n-1-ish; just verify validity and determinism.
        let g = star(20);
        let a = rcm_order(&g);
        assert_eq!(a, rcm_order(&g));
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn disconnected_components_all_ordered() {
        let g =
            GraphBuilder::undirected(7).edges([(0, 1), (1, 2), (4, 5), (5, 6)]).build().unwrap();
        let pi = rcm_order(&g);
        assert_eq!(pi.len(), 7);
        // Bandwidth within each path component must be 1.
        let m = gap_measures(&g, &pi);
        assert_eq!(m.bandwidth, 1);
    }

    #[test]
    fn cdfs_is_valid_and_near_rcm_on_path() {
        let g = path(30);
        let pi = cdfs_order(&g);
        assert!(Permutation::from_ranks(pi.ranks().to_vec()).is_ok());
        // On a path there are no ties to sort, so CDFS equals RCM exactly.
        assert_eq!(gap_measures(&g, &pi).bandwidth, 1);
    }

    #[test]
    fn cdfs_bandwidth_bounded_by_level_widths() {
        let g = grid2d(8, 8);
        let m = gap_measures(&g, &cdfs_order(&g));
        // BFS-level ordering bounds bandwidth by twice the widest level.
        assert!(m.bandwidth <= 16, "cdfs bandwidth {}", m.bandwidth);
    }

    #[test]
    fn cdfs_covers_disconnected_graphs() {
        let g = GraphBuilder::undirected(6).edge(0, 1).edge(3, 4).build().unwrap();
        assert_eq!(cdfs_order(&g).len(), 6);
    }

    #[test]
    fn empty_and_singleton() {
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        assert!(rcm_order(&g0).is_empty());
        let g1 = GraphBuilder::undirected(1).build().unwrap();
        assert!(rcm_order(&g1).is_identity());
    }

    #[test]
    fn recorded_variants_are_identical_and_count_components() {
        use reorderlab_trace::{recording, RunRecorder};
        let g =
            GraphBuilder::undirected(7).edges([(0, 1), (1, 2), (4, 5), (5, 6)]).build().unwrap();
        let (pi, rec) = recording(RunRecorder::new(), || rcm_order(&g));
        assert_eq!(pi, rcm_order(&g));
        assert_eq!(rec.counters()["rcm/components"], 3, "two paths plus isolated vertex 3");
        assert_eq!(rec.counters()["pseudo_peripheral/runs"], 3);
        let (pi, rec) = recording(RunRecorder::new(), || cdfs_order(&g));
        assert_eq!(pi, cdfs_order(&g));
        assert_eq!(rec.counters()["cdfs/components"], 3);
    }

    #[test]
    fn isolated_vertices_ordered_first_after_reversal() {
        // Isolated vertices have degree 0, are picked as starts first, and
        // land at the *end* after reversal.
        let g = GraphBuilder::undirected(4).edge(2, 3).build().unwrap();
        let pi = rcm_order(&g);
        let order = pi.to_order();
        assert!(order[2..].contains(&0));
        assert!(order[2..].contains(&1));
    }
}
