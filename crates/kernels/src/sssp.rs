//! Single-source shortest paths — the second prototypical kernel of the
//! prior reordering studies (\[2, 8\]): frontier-based BFS for unweighted
//! graphs and binary-heap Dijkstra for weighted ones.

use reorderlab_graph::Csr;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Distances from a source; unreachable vertices are `f64::INFINITY`.
#[derive(Debug, Clone, PartialEq)]
pub struct SsspResult {
    /// `distance[v]` from the source.
    pub distance: Vec<f64>,
    /// Number of vertices settled (reached).
    pub reached: usize,
    /// Edges relaxed during the run.
    pub relaxations: u64,
}

/// Unweighted SSSP: level-synchronous BFS from `source` (edge weights are
/// ignored; every edge has length 1).
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub fn bfs_sssp(graph: &Csr, source: u32) -> SsspResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of bounds");
    let mut distance = vec![f64::INFINITY; n];
    distance[source as usize] = 0.0;
    let mut frontier = vec![source];
    let mut reached = 1usize;
    let mut relaxations = 0u64;
    let mut depth = 0.0f64;
    while !frontier.is_empty() {
        depth += 1.0;
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in graph.neighbors(v) {
                relaxations += 1;
                if distance[u as usize].is_infinite() {
                    distance[u as usize] = depth;
                    reached += 1;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    SsspResult { distance, reached, relaxations }
}

#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    vertex: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance (reverse), deterministic tie-break on id.
        other.dist.total_cmp(&self.dist).then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Weighted SSSP: Dijkstra with a binary heap and lazy deletion. Edge
/// weights must be non-negative (guaranteed by graph construction);
/// unweighted graphs behave as if every edge weighed 1.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Examples
///
/// ```
/// use reorderlab_graph::GraphBuilder;
/// use reorderlab_kernels::dijkstra;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = GraphBuilder::undirected(3)
///     .weighted_edge(0, 1, 5.0)
///     .weighted_edge(1, 2, 2.0)
///     .weighted_edge(0, 2, 9.0)
///     .build()?;
/// let r = dijkstra(&g, 0);
/// assert_eq!(r.distance[2], 7.0); // via vertex 1
/// # Ok(())
/// # }
/// ```
pub fn dijkstra(graph: &Csr, source: u32) -> SsspResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of bounds");
    let mut distance = vec![f64::INFINITY; n];
    distance[source as usize] = 0.0;
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem { dist: 0.0, vertex: source });
    let mut reached = 0usize;
    let mut relaxations = 0u64;
    while let Some(HeapItem { dist, vertex }) = heap.pop() {
        if settled[vertex as usize] {
            continue;
        }
        settled[vertex as usize] = true;
        reached += 1;
        for (u, w) in graph.weighted_neighbors(vertex) {
            relaxations += 1;
            let cand = dist + w;
            if cand < distance[u as usize] {
                distance[u as usize] = cand;
                heap.push(HeapItem { dist: cand, vertex: u });
            }
        }
    }
    SsspResult { distance, reached, relaxations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{grid2d, path, star};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let r = bfs_sssp(&g, 0);
        assert_eq!(r.distance, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.reached, 5);
    }

    #[test]
    fn bfs_unreachable_infinite() {
        let g = GraphBuilder::undirected(4).edge(0, 1).build().unwrap();
        let r = bfs_sssp(&g, 0);
        assert!(r.distance[2].is_infinite());
        assert_eq!(r.reached, 2);
    }

    #[test]
    fn bfs_matches_manhattan_on_grid_corner() {
        let g = grid2d(4, 5);
        let r = bfs_sssp(&g, 0);
        for row in 0..4u32 {
            for col in 0..5u32 {
                assert_eq!(r.distance[(row * 5 + col) as usize], (row + col) as f64);
            }
        }
    }

    #[test]
    fn dijkstra_equals_bfs_on_unweighted() {
        let g = grid2d(6, 6);
        let a = bfs_sssp(&g, 7);
        let b = dijkstra(&g, 7);
        assert_eq!(a.distance, b.distance);
        assert_eq!(a.reached, b.reached);
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        let g = GraphBuilder::undirected(4)
            .weighted_edge(0, 3, 10.0)
            .weighted_edge(0, 1, 1.0)
            .weighted_edge(1, 2, 1.0)
            .weighted_edge(2, 3, 1.0)
            .build()
            .unwrap();
        let r = dijkstra(&g, 0);
        assert_eq!(r.distance[3], 3.0);
    }

    #[test]
    fn relaxations_counted() {
        let g = star(10);
        let r = bfs_sssp(&g, 0);
        // Hub scans 9 edges, each leaf scans 1.
        assert_eq!(r.relaxations, 9 + 9);
    }

    #[test]
    fn distances_invariant_under_relabeling() {
        use reorderlab_graph::Permutation;
        let g = grid2d(5, 5);
        let pi = Permutation::from_order(&(0..25u32).rev().collect::<Vec<_>>()).unwrap();
        let h = g.permuted(&pi).unwrap();
        let rg = bfs_sssp(&g, 3);
        let rh = bfs_sssp(&h, pi.rank(3));
        for v in 0..25u32 {
            assert_eq!(rg.distance[v as usize], rh.distance[pi.rank(v) as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bfs_rejects_bad_source() {
        let g = path(3);
        let _ = bfs_sssp(&g, 9);
    }
}
