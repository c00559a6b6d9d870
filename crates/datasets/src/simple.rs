//! Deterministic elementary graph families.
//!
//! These are used both as components of the synthetic instance suite and as
//! fixtures with known-optimal orderings in tests (e.g. RCM achieves
//! bandwidth 1 on a path and bandwidth `cols` on a grid).

use reorderlab_graph::{Csr, GraphBuilder};

/// A path graph `0 - 1 - … - (n-1)`.
///
/// # Examples
///
/// ```
/// let g = reorderlab_datasets::path(4);
/// assert_eq!(g.num_edges(), 3);
/// ```
pub fn path(n: usize) -> Csr {
    let edges = (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1));
    GraphBuilder::undirected(n).edges(edges).build_expect()
}

/// A cycle graph on `n >= 3` vertices (for `n < 3` this degenerates to a
/// path).
pub fn cycle(n: usize) -> Csr {
    let mut b = GraphBuilder::undirected(n);
    b = b.edges((0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)));
    if n >= 3 {
        b = b.edge(n as u32 - 1, 0);
    }
    b.build_expect()
}

/// A star: vertex 0 is the hub connected to all others.
pub fn star(n: usize) -> Csr {
    let edges = (1..n as u32).map(|i| (0, i));
    GraphBuilder::undirected(n).edges(edges).build_expect()
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Csr {
    let mut b = GraphBuilder::undirected(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b = b.edge(u, v);
        }
    }
    b.build_expect()
}

/// A `rows x cols` 4-neighbor lattice (the skeleton of road networks).
pub fn grid2d(rows: usize, cols: usize) -> Csr {
    let n = rows * cols;
    let mut b = GraphBuilder::undirected(n).reserve(2 * n);
    for r in 0..rows as u32 {
        for c in 0..cols as u32 {
            let v = r * cols as u32 + c;
            if c + 1 < cols as u32 {
                b = b.edge(v, v + 1);
            }
            if r + 1 < rows as u32 {
                b = b.edge(v, v + cols as u32);
            }
        }
    }
    b.build_expect()
}

/// A complete binary tree on `n` vertices (vertex `i` has children `2i+1`,
/// `2i+2`).
pub fn binary_tree(n: usize) -> Csr {
    let mut b = GraphBuilder::undirected(n);
    for v in 1..n as u32 {
        b = b.edge((v - 1) / 2, v);
    }
    b.build_expect()
}

/// `k` disjoint cliques of `size` vertices each, with consecutive cliques
/// bridged by a single edge — a planted community structure with known
/// optimal clustering.
pub fn clique_chain(k: usize, size: usize) -> Csr {
    let n = k * size;
    let mut b = GraphBuilder::undirected(n);
    for c in 0..k {
        let base = (c * size) as u32;
        for i in 0..size as u32 {
            for j in (i + 1)..size as u32 {
                b = b.edge(base + i, base + j);
            }
        }
        if c + 1 < k {
            b = b.edge(base + size as u32 - 1, base + size as u32);
        }
    }
    b.build_expect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::{Components, GraphStats};

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn path_degenerate() {
        assert_eq!(path(0).num_vertices(), 0);
        assert_eq!(path(1).num_edges(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        for v in 0..6 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn cycle_small_degenerates_to_path() {
        assert_eq!(cycle(2).num_edges(), 1);
        assert_eq!(cycle(1).num_edges(), 0);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(GraphStats::compute(&g).triangles, 10);
    }

    #[test]
    fn grid_shape() {
        let g = grid2d(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17
        assert_eq!(g.num_edges(), 17);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior
        assert!(Components::find(&g).count() <= 1);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
        assert!(Components::find(&g).count() <= 1);
    }

    #[test]
    fn clique_chain_shape() {
        let g = clique_chain(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // 3 cliques of C(4,2)=6 edges + 2 bridges
        assert_eq!(g.num_edges(), 20);
        assert!(Components::find(&g).count() <= 1);
    }
}
