//! Heavy-edge matching for multilevel coarsening.
//!
//! Following Karypis–Kumar, each coarsening level matches vertices with the
//! heaviest incident edge so the contracted graph retains as much edge
//! weight as possible inside super-vertices, making later cuts cheaper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::Csr;

/// The result of one matching round: a cluster assignment ready for
/// contraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Matching {
    /// `assignment[v]` is the coarse vertex id of `v`.
    pub assignment: Vec<u32>,
    /// Number of coarse vertices.
    pub num_coarse: usize,
}

/// The seeded Fisher–Yates visit permutation of the scan.
fn visit_order(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut visit: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        visit.swap(i, j);
    }
    visit
}

/// The heaviest still-unmatched neighbor of `u` (ties toward lower degree,
/// then lower id) under the matching state `mate`.
fn best_candidate(graph: &Csr, u: u32, mate: &[u32]) -> Option<u32> {
    let mut best: Option<(f64, usize, u32)> = None; // (weight, degree, id)
    for (v, w) in graph.weighted_neighbors(u) {
        if v == u || mate[v as usize] != u32::MAX {
            continue;
        }
        let deg = graph.degree(v);
        let better = match best {
            None => true,
            Some((bw, bdeg, bid)) => {
                w > bw || (w == bw && (deg < bdeg || (deg == bdeg && v < bid)))
            }
        };
        if better {
            best = Some((w, deg, v));
        }
    }
    best.map(|(_, _, v)| v)
}

/// Turns a `mate` array into coarse ids: the lower endpoint of each pair
/// claims the id, in vertex order.
fn coarse_ids(mate: &[u32]) -> Matching {
    let n = mate.len();
    let mut assignment = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if assignment[v as usize] != u32::MAX {
            continue;
        }
        let m = mate[v as usize];
        assignment[v as usize] = next;
        if m != v && m != u32::MAX {
            assignment[m as usize] = next;
        }
        next += 1;
    }
    Matching { assignment, num_coarse: next as usize }
}

/// Computes a heavy-edge matching of `graph`.
///
/// Vertices are visited in a random permutation (seeded); each unmatched
/// vertex is matched with its unmatched neighbor of maximum edge weight
/// (ties broken toward lower degree, then lower id, for determinism).
/// Unmatchable vertices become singleton coarse vertices.
///
/// The scan is serial: each decision reads the matches made before it, and
/// one candidate search is a single adjacency row.
pub(crate) fn heavy_edge_matching(graph: &Csr, seed: u64) -> Matching {
    let n = graph.num_vertices();
    let visit = visit_order(n, seed);
    let mut mate = vec![u32::MAX; n];
    for &u in &visit {
        if mate[u as usize] != u32::MAX {
            continue;
        }
        match best_candidate(graph, u, &mate) {
            Some(v) => {
                mate[u as usize] = v;
                mate[v as usize] = u;
            }
            None => mate[u as usize] = u, // singleton
        }
    }
    coarse_ids(&mate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn matching_covers_all_vertices() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
            .build()
            .unwrap();
        let m = heavy_edge_matching(&g, 3);
        assert_eq!(m.assignment.len(), 6);
        assert!(m.assignment.iter().all(|&c| (c as usize) < m.num_coarse));
        // A path matching halves the graph (possibly one singleton).
        assert!(m.num_coarse >= 3 && m.num_coarse <= 4, "got {}", m.num_coarse);
    }

    #[test]
    fn matching_pairs_have_size_at_most_two() {
        let g = GraphBuilder::undirected(8)
            .edges([(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (0, 7)])
            .build()
            .unwrap();
        let m = heavy_edge_matching(&g, 11);
        let mut counts = vec![0usize; m.num_coarse];
        for &c in &m.assignment {
            counts[c as usize] += 1;
        }
        assert!(counts.iter().all(|&c| (1..=2).contains(&c)));
    }

    #[test]
    fn heavy_edges_matched_first() {
        // Path with one heavy edge: under any visit order the heavy edge
        // (0,1) ends up matched — 1 prefers 0 by weight, 2 prefers 3 by the
        // lower-degree tie-break, so no visit sequence steals 1 away.
        let g = GraphBuilder::undirected(4)
            .weighted_edge(0, 1, 10.0)
            .weighted_edge(1, 2, 1.0)
            .weighted_edge(2, 3, 1.0)
            .build()
            .unwrap();
        for seed in 0..8 {
            let m = heavy_edge_matching(&g, seed);
            assert_eq!(m.assignment[0], m.assignment[1], "heavy edge unmatched for seed {seed}");
        }
    }

    #[test]
    fn isolated_vertices_become_singletons() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        let m = heavy_edge_matching(&g, 5);
        assert_eq!(m.num_coarse, 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = GraphBuilder::undirected(10).edges((0..9).map(|i| (i, i + 1))).build().unwrap();
        assert_eq!(heavy_edge_matching(&g, 9), heavy_edge_matching(&g, 9));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let m = heavy_edge_matching(&g, 0);
        assert_eq!(m.num_coarse, 0);
        assert!(m.assignment.is_empty());
    }

    #[test]
    fn batch_spanning_scan_matches_serial() {
        // A thousand-vertex small world, dense enough that most vertices
        // find their heaviest neighbor already taken: the scan under a 2-
        // and a 7-worker pool must repeat the one-worker run.
        let g = reorderlab_datasets::watts_strogatz(1117, 6, 0.3, 7);
        for seed in [0u64, 1, 42] {
            reorderlab_graph::assert_thread_invariant(|| heavy_edge_matching(&g, seed));
        }
    }
}
