//! Community-traversal orderings: Louvain communities laid out
//! cluster-major, with a configurable traversal order inside each cluster.
//!
//! Where Grappolo (see [`super::composite`]) keeps the natural order inside
//! each community, this family re-walks every community's induced subgraph:
//! a BFS (gap-tight frontiers), a DFS (depth-first runs, the
//! LeidenDFS-style layout of GraphBrew), or a per-community degree sort
//! (hub-first within the cluster). Communities themselves appear in
//! Louvain's deterministic first-appearance order, so the whole layout is a
//! pure function of the graph.
//!
//! Communities are independent, so the kernel maps over them in parallel
//! and concatenates the per-community orders positionally. The test-side
//! reference in `crates/core/tests/support` runs Louvain on one thread and
//! walks the communities in a plain loop; the two agree at any thread count.

use super::louvain_reported;
use rayon::prelude::*;
use reorderlab_community::LouvainConfig;
use reorderlab_graph::{Csr, Permutation};
use std::collections::VecDeque;

/// Traversal order applied inside each community.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommIntra {
    /// BFS from the lowest-id unvisited member, neighbors in adjacency
    /// (ascending-id) order, restricted to the community.
    Bfs,
    /// DFS from the lowest-id unvisited member, visiting lower-id
    /// neighbors first, restricted to the community.
    Dfs,
    /// Members sorted by degree, non-increasing, ties by id.
    Degree,
}

/// Community-traversal ordering: Louvain communities in first-appearance
/// order, each traversed per `intra`. Records Louvain's span, phase
/// timings, counters and trajectory, plus a `comm/communities` counter.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::{comm_order, CommIntra};
/// use reorderlab_datasets::clique_chain;
///
/// let g = clique_chain(4, 6);
/// let pi = comm_order(&g, CommIntra::Bfs);
/// assert_eq!(pi.len(), 24);
/// ```
pub fn comm_order(graph: &Csr, intra: CommIntra) -> Permutation {
    let r = louvain_reported(graph, &LouvainConfig::default());
    reorderlab_trace::counter("comm/communities", r.num_communities as u64);
    let members = community_members(graph, &r.assignment, r.num_communities);
    // Communities are independent; the order-preserving parallel collect
    // reproduces the serial concatenation exactly.
    let blocks: Vec<Vec<u32>> =
        members.into_par_iter().map(|m| intra_order(graph, m, intra)).collect();
    super::order_permutation(&blocks.concat())
}

/// Scatters vertices into per-community member lists; the natural scan
/// order makes each list id-ascending. Louvain's assignment is dense over
/// `0..num_communities` in first-appearance order.
fn community_members(graph: &Csr, assignment: &[u32], num_communities: usize) -> Vec<Vec<u32>> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_communities];
    for v in graph.vertices() {
        if let Some(list) = members.get_mut(assignment[v as usize] as usize) {
            list.push(v);
        }
    }
    members
}

/// Orders one community's members (an id-ascending list) per `intra`.
/// Membership tests use binary search on the sorted member list, which is
/// exactly the "same community" predicate.
fn intra_order(graph: &Csr, members: Vec<u32>, intra: CommIntra) -> Vec<u32> {
    match intra {
        CommIntra::Degree => {
            let mut m = members;
            m.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
            m
        }
        CommIntra::Bfs => bfs_local(graph, &members),
        CommIntra::Dfs => dfs_local(graph, &members),
    }
}

/// BFS over the community's induced subgraph: restart at the lowest-id
/// unvisited member, enqueue in-community neighbors in adjacency order.
fn bfs_local(graph: &Csr, members: &[u32]) -> Vec<u32> {
    let mut visited = vec![false; members.len()];
    let mut out: Vec<u32> = Vec::with_capacity(members.len());
    let mut queue: VecDeque<u32> = VecDeque::new();
    for (i, &root) in members.iter().enumerate() {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            out.push(v);
            for &u in graph.neighbors(v) {
                if let Ok(j) = members.binary_search(&u) {
                    if !visited[j] {
                        visited[j] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
    }
    out
}

/// DFS over the community's induced subgraph: restart at the lowest-id
/// unvisited member; pushing in-community neighbors in reverse adjacency
/// order makes lower ids surface first.
fn dfs_local(graph: &Csr, members: &[u32]) -> Vec<u32> {
    let mut visited = vec![false; members.len()];
    let mut out: Vec<u32> = Vec::with_capacity(members.len());
    let mut stack: Vec<u32> = Vec::new();
    for (i, &root) in members.iter().enumerate() {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        stack.push(root);
        while let Some(v) = stack.pop() {
            out.push(v);
            for &u in graph.neighbors(v).iter().rev() {
                if let Ok(j) = members.binary_search(&u) {
                    if !visited[j] {
                        visited[j] = true;
                        stack.push(u);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::clique_chain;
    use reorderlab_graph::GraphBuilder;
    use reorderlab_trace::{recording, RunRecorder};

    const ALL_INTRA: [CommIntra; 3] = [CommIntra::Bfs, CommIntra::Dfs, CommIntra::Degree];

    #[test]
    fn communities_stay_contiguous_under_every_intra_order() {
        let g = clique_chain(5, 6);
        for intra in ALL_INTRA {
            let pi = comm_order(&g, intra);
            for c in 0..5u32 {
                let ranks: Vec<u32> = (0..6).map(|i| pi.rank(c * 6 + i)).collect();
                let span = ranks.iter().max().unwrap() - ranks.iter().min().unwrap();
                assert_eq!(span, 5, "{intra:?}: community {c} must stay contiguous");
            }
        }
    }

    #[test]
    fn degree_intra_order_puts_community_hub_first() {
        // A star is one community; its hub must take rank 0.
        let g = reorderlab_datasets::star(8);
        let pi = comm_order(&g, CommIntra::Degree);
        assert_eq!(pi.rank(0), 0);
    }

    #[test]
    fn bfs_and_dfs_visit_whole_community_from_low_ids() {
        let g = clique_chain(3, 4);
        for intra in [CommIntra::Bfs, CommIntra::Dfs] {
            let pi = comm_order(&g, intra);
            assert_eq!(pi.len(), 12);
        }
    }

    #[test]
    fn handles_degenerate_graphs() {
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        let g1 = GraphBuilder::undirected(1).build().unwrap();
        let loops = GraphBuilder::undirected(3).edge(0, 0).edge(1, 2).build().unwrap();
        for intra in ALL_INTRA {
            assert!(comm_order(&g0, intra).is_empty());
            assert!(comm_order(&g1, intra).is_identity());
            assert_eq!(comm_order(&loops, intra).len(), 3);
        }
    }

    #[test]
    fn recorded_variant_is_identical_and_counts_communities() {
        let g = clique_chain(5, 6);
        let (pi, rec) = recording(RunRecorder::new(), || comm_order(&g, CommIntra::Bfs));
        assert_eq!(pi, comm_order(&g, CommIntra::Bfs));
        assert_eq!(rec.counters()["comm/communities"], 5);
        assert!(rec.counters()["louvain/phases"] >= 1);
    }
}
