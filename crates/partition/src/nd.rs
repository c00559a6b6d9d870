//! Nested dissection ordering (George \[15\], as popularized by METIS \[23\]).
//!
//! Recursively: find a small vertex separator, order the left side, then the
//! right side, then the separator *last*. Small base cases fall back to an
//! approximate minimum-degree elimination order, mirroring how METIS's
//! `onmetis` switches to MMD on small blocks.

use crate::config::PartitionConfig;
use crate::separator::vertex_separator;
use reorderlab_graph::Csr;

/// Computes a nested dissection order of `graph`.
///
/// Returns the order as a vertex sequence: element `r` is the vertex given
/// rank `r`. Subgraphs of at most `min_size` vertices are ordered by
/// approximate minimum degree instead of further dissection.
///
/// # Examples
///
/// ```
/// use reorderlab_datasets::grid2d;
/// use reorderlab_partition::{nested_dissection_order, PartitionConfig};
///
/// let g = grid2d(8, 8);
/// let order = nested_dissection_order(&g, 8, &PartitionConfig::new(2).seed(1));
/// assert_eq!(order.len(), 64);
/// ```
pub fn nested_dissection_order(graph: &Csr, min_size: usize, cfg: &PartitionConfig) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut order = Vec::with_capacity(n);
    let all: Vec<u32> = (0..n as u32).collect();
    dissect(graph, &all, min_size.max(2), cfg, 0, &mut order);
    order
}

fn dissect(
    root: &Csr,
    vertices: &[u32],
    min_size: usize,
    cfg: &PartitionConfig,
    depth: u64,
    order: &mut Vec<u32>,
) {
    if vertices.len() <= min_size {
        base_case(root, vertices, order);
        return;
    }
    let (sub, originals) = root.induced_subgraph(vertices);
    let sub_cfg =
        PartitionConfig { seed: cfg.seed ^ depth.wrapping_mul(0x9e3779b97f4a7c15), ..cfg.clone() };
    let s = vertex_separator(&sub, &sub_cfg);
    // Degenerate separator (e.g. a clique where one side emptied): stop
    // recursing to guarantee progress.
    if s.left.is_empty() || s.right.is_empty() {
        base_case(root, vertices, order);
        return;
    }
    let to_orig = |ids: &[u32]| ids.iter().map(|&i| originals[i as usize]).collect::<Vec<u32>>();
    dissect(root, &to_orig(&s.left), min_size, cfg, depth * 2 + 1, order);
    dissect(root, &to_orig(&s.right), min_size, cfg, depth * 2 + 2, order);
    // Separator vertices are eliminated last.
    order.extend(to_orig(&s.separator));
}

/// Approximate minimum-degree elimination order of the subgraph induced by
/// `vertices`: repeatedly emit the vertex with the fewest *remaining*
/// neighbors (ties toward lower id), decrementing neighbor counts. (True
/// MMD also adds fill edges; this degree-only approximation is the standard
/// lightweight stand-in and is exact for chordal subgraphs.)
fn base_case(root: &Csr, vertices: &[u32], order: &mut Vec<u32>) {
    let (sub, originals) = root.induced_subgraph(vertices);
    let n = sub.num_vertices();
    let mut degree: Vec<usize> = (0..n as u32).map(|v| sub.degree(v)).collect();
    let mut eliminated = vec![false; n];
    for _ in 0..n {
        #[expect(
            clippy::expect_used,
            reason = "SAFETY: the elimination loop runs exactly n times, so an uneliminated vertex always remains"
        )]
        let v = (0..n)
            .filter(|&v| !eliminated[v])
            .min_by_key(|&v| (degree[v], v))
            .expect("uneliminated vertex remains");
        eliminated[v] = true;
        order.push(originals[v]);
        for &w in sub.neighbors(v as u32) {
            if !eliminated[w as usize] {
                degree[w as usize] = degree[w as usize].saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{complete, grid2d, path, star};
    use reorderlab_graph::Permutation;

    fn assert_is_permutation(order: &[u32], n: usize) {
        assert_eq!(order.len(), n);
        assert!(Permutation::from_order(order).is_ok(), "order must be a bijection");
    }

    #[test]
    fn nd_on_grid_is_a_permutation() {
        let g = grid2d(9, 9);
        let order = nested_dissection_order(&g, 8, &PartitionConfig::new(2).seed(3));
        assert_is_permutation(&order, 81);
    }

    #[test]
    fn nd_separator_vertices_come_last_at_top_level() {
        // For a path, the top-level separator is ~1 vertex near the middle;
        // it must receive one of the final ranks.
        let g = path(63);
        let order = nested_dissection_order(&g, 4, &PartitionConfig::new(2).seed(1));
        assert_is_permutation(&order, 63);
        let last = *order.last().unwrap();
        // The final vertex should be an interior vertex (a separator), not
        // an endpoint of the path.
        assert!(last != 0 && last != 62, "last-eliminated vertex {last} should be a separator");
    }

    #[test]
    fn nd_on_clique_degenerates_gracefully() {
        let g = complete(12);
        let order = nested_dissection_order(&g, 4, &PartitionConfig::new(2).seed(2));
        assert_is_permutation(&order, 12);
    }

    #[test]
    fn nd_on_star_orders_hub_late() {
        let g = star(33);
        let order = nested_dissection_order(&g, 4, &PartitionConfig::new(2).seed(5));
        assert_is_permutation(&order, 33);
        let hub_rank = order.iter().position(|&v| v == 0).unwrap();
        assert!(hub_rank >= 16, "hub (degree 32) should be eliminated late, rank {hub_rank}");
    }

    #[test]
    fn nd_tiny_graphs() {
        let g = path(1);
        assert_eq!(nested_dissection_order(&g, 4, &PartitionConfig::new(2)), vec![0]);
        let g0 = reorderlab_graph::GraphBuilder::undirected(0).build().unwrap();
        assert!(nested_dissection_order(&g0, 4, &PartitionConfig::new(2)).is_empty());
    }

    #[test]
    fn nd_deterministic() {
        let g = grid2d(7, 7);
        let cfg = PartitionConfig::new(2).seed(9);
        assert_eq!(nested_dissection_order(&g, 6, &cfg), nested_dissection_order(&g, 6, &cfg));
    }

    #[test]
    fn base_case_min_degree_first() {
        // Path of 5 ordered entirely by the base case: endpoints (degree 1)
        // are eliminated before interior vertices of higher remaining degree.
        let g = path(5);
        let order = nested_dissection_order(&g, 10, &PartitionConfig::new(2));
        assert_eq!(order[0], 0, "vertex 0 has min degree and lowest id");
        assert_is_permutation(&order, 5);
    }
}
