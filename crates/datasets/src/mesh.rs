//! Mesh-like and road-like generators.
//!
//! These model the paper's DIMACS10 finite-element meshes (`delaunay_n*`,
//! `fe_4elt2`, `cs4`, `cti`, `wing_nodal`) and its road networks (Chicago,
//! Euroroad, US power grid, California roadnet): low, near-uniform degree,
//! large diameter, and strong geometric locality.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{Csr, GraphBuilder};

/// A triangulated `rows x cols` grid: the 4-neighbor lattice plus one
/// diagonal per cell, giving interior degree 6 — the degree profile of a
/// Delaunay triangulation.
///
/// With `flip_prob > 0`, each cell's diagonal direction is randomized, which
/// perturbs the regularity the way point-set Delaunay meshes are irregular.
pub fn tri_mesh(rows: usize, cols: usize, flip_prob: f64, seed: u64) -> Csr {
    assert!((0.0..=1.0).contains(&flip_prob), "flip_prob must be a probability");
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::undirected(n).reserve(3 * n);
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b = b.edge(at(r, c), at(r, c + 1));
            }
            if r + 1 < rows {
                b = b.edge(at(r, c), at(r + 1, c));
            }
            if r + 1 < rows && c + 1 < cols {
                // One diagonal per cell; direction possibly flipped.
                if rng.gen::<f64>() < flip_prob {
                    b = b.edge(at(r, c + 1), at(r + 1, c));
                } else {
                    b = b.edge(at(r, c), at(r + 1, c + 1));
                }
            }
        }
    }
    b.build_expect()
}

/// A road-network-like graph: a random spanning tree of the `rows x cols`
/// lattice guarantees connectivity, and each remaining lattice edge is kept
/// with probability `keep_prob`.
///
/// `keep_prob = 0` yields a tree (m = n − 1, like the paper's *Chicago Road*
/// where m < n); `keep_prob = 1` yields the full grid.
pub fn road_network(rows: usize, cols: usize, keep_prob: f64, seed: u64) -> Csr {
    assert!((0.0..=1.0).contains(&keep_prob), "keep_prob must be a probability");
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    // Enumerate lattice edges.
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut lattice: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                lattice.push((at(r, c), at(r, c + 1)));
            }
            if r + 1 < rows {
                lattice.push((at(r, c), at(r + 1, c)));
            }
        }
    }
    // Random spanning tree via randomized Kruskal.
    for i in (1..lattice.len()).rev() {
        let j = rng.gen_range(0..=i);
        lattice.swap(i, j);
    }
    let mut uf = reorderlab_graph::UnionFind::new(n);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut extras: Vec<(u32, u32)> = Vec::new();
    for &(u, v) in &lattice {
        if uf.union(u, v) {
            edges.push((u, v));
        } else {
            extras.push((u, v));
        }
    }
    for &(u, v) in &extras {
        if rng.gen::<f64>() < keep_prob {
            edges.push((u, v));
        }
    }
    GraphBuilder::undirected(n).edges(edges).build_expect()
}

/// A sparse forest-like road fragment: `road_network` with some tree edges
/// *removed*, modelling disconnected road extracts such as the paper's
/// *Chicago Road* instance (1 467 vertices but only 1 298 edges).
pub fn road_fragment(rows: usize, cols: usize, drop_prob: f64, seed: u64) -> Csr {
    assert!((0.0..=1.0).contains(&drop_prob), "drop_prob must be a probability");
    let tree = road_network(rows, cols, 0.0, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let kept = tree.edges().filter(|_| rng.gen::<f64>() >= drop_prob).map(|(u, v, _)| (u, v));
    GraphBuilder::undirected(tree.num_vertices()).edges(kept).build_expect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::{Components, GraphStats};

    #[test]
    fn tri_mesh_degree_profile() {
        let g = tri_mesh(20, 20, 0.0, 1);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 400);
        // Interior degree 6, so max degree is 6 and σ is small.
        assert_eq!(s.max_degree, 6);
        assert!(s.degree_std_dev < 1.5);
        assert!(Components::find(&g).count() <= 1);
    }

    #[test]
    fn tri_mesh_edge_count() {
        // edges = rows*(cols-1) + cols*(rows-1) + (rows-1)*(cols-1)
        let g = tri_mesh(5, 7, 0.3, 2);
        assert_eq!(g.num_edges(), 5 * 6 + 7 * 4 + 4 * 6);
    }

    #[test]
    fn tri_mesh_has_triangles() {
        let g = tri_mesh(10, 10, 0.5, 3);
        assert!(GraphStats::compute(&g).triangles > 0);
    }

    #[test]
    fn road_network_tree_when_keep_zero() {
        let g = road_network(15, 15, 0.0, 4);
        assert_eq!(g.num_edges(), 15 * 15 - 1);
        assert!(Components::find(&g).count() <= 1);
    }

    #[test]
    fn road_network_full_grid_when_keep_one() {
        let g = road_network(6, 6, 1.0, 4);
        assert_eq!(g.num_edges(), 2 * 6 * 5);
    }

    #[test]
    fn road_network_connected_at_any_density() {
        for &p in &[0.0, 0.2, 0.5] {
            let g = road_network(12, 12, p, 5);
            assert!(Components::find(&g).count() <= 1, "disconnected at keep={p}");
        }
    }

    #[test]
    fn road_network_low_degree() {
        let g = road_network(30, 30, 0.3, 6);
        assert!(g.max_degree() <= 4);
    }

    #[test]
    fn road_fragment_loses_edges() {
        let g = road_fragment(20, 20, 0.15, 7);
        assert!(g.num_edges() < 399);
        assert!(Components::find(&g).count() > 1);
    }

    #[test]
    fn generators_deterministic() {
        assert_eq!(tri_mesh(8, 8, 0.4, 9), tri_mesh(8, 8, 0.4, 9));
        assert_eq!(road_network(8, 8, 0.4, 9), road_network(8, 8, 0.4, 9));
    }
}
