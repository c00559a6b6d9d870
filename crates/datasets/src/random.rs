//! Randomized graph models with low degree skew: Erdős–Rényi, random
//! geometric, and Watts–Strogatz small-world graphs.
//!
//! All generators are deterministic given their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{Csr, DuplicatePolicy, GraphBuilder};
#[expect(
    clippy::disallowed_types,
    reason = "a membership set that is never iterated (the generators run in set-up, outside every timed region)"
)]
use std::collections::HashSet;

/// An Erdős–Rényi `G(n, m)` graph: exactly `m` distinct edges sampled
/// uniformly (capped at `C(n, 2)`).
///
/// # Panics
///
/// Panics if `n < 2` and `m > 0`.
pub fn erdos_renyi_gnm(n: usize, m: usize, seed: u64) -> Csr {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_m);
    assert!(m == 0 || n >= 2, "G(n, m) needs at least two vertices for any edge");
    let mut rng = StdRng::seed_from_u64(seed);
    #[expect(clippy::disallowed_types, reason = "membership-only: the set is never iterated")]
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            edges.push(key);
        }
    }
    GraphBuilder::undirected(n).edges(edges).build_expect()
}

/// A random geometric graph: `n` points uniform in the unit square, an edge
/// whenever two points are within `radius`. Uses grid buckets, so it runs in
/// roughly `O(n + m)`.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Csr {
    assert!(radius > 0.0 && radius.is_finite(), "radius must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let cells = (1.0 / radius).floor().max(1.0) as usize;
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in points.iter().enumerate() {
        buckets[cell_of(y) * cells + cell_of(x)].push(i as u32);
    }
    let r2 = radius * radius;
    let mut b = GraphBuilder::undirected(n);
    for (i, &(x, y)) in points.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dy in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for dx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                for &j in &buckets[dy * cells + dx] {
                    if j as usize <= i {
                        continue;
                    }
                    let (px, py) = points[j as usize];
                    if (px - x).powi(2) + (py - y).powi(2) <= r2 {
                        b = b.edge(i as u32, j);
                    }
                }
            }
        }
    }
    b.build_expect()
}

/// A Watts–Strogatz small-world graph: a ring lattice where each vertex
/// connects to its `k/2` nearest neighbors on each side, with every edge
/// rewired to a random endpoint with probability `beta`.
///
/// # Panics
///
/// Panics if `k` is odd or `k >= n`, or if `beta` is outside `\[0, 1\]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Csr {
    assert!(k.is_multiple_of(2), "watts_strogatz requires even k");
    assert!(k < n, "watts_strogatz requires k < n");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * k / 2);
    for u in 0..n as u32 {
        for step in 1..=(k / 2) as u32 {
            let v = (u + step) % n as u32;
            if rng.gen::<f64>() < beta {
                // Rewire the far endpoint to a uniformly random non-self target.
                let mut w = rng.gen_range(0..n as u32);
                while w == u {
                    w = rng.gen_range(0..n as u32);
                }
                edges.push((u, w));
            } else {
                edges.push((u, v));
            }
        }
    }
    GraphBuilder::undirected(n).duplicates(DuplicatePolicy::KeepFirst).edges(edges).build_expect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::GraphStats;

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = erdos_renyi_gnm(50, 120, 7);
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 120);
    }

    #[test]
    fn gnm_caps_at_complete() {
        let g = erdos_renyi_gnm(5, 1000, 7);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn gnm_deterministic_per_seed() {
        assert_eq!(erdos_renyi_gnm(30, 60, 1), erdos_renyi_gnm(30, 60, 1));
        assert_ne!(erdos_renyi_gnm(30, 60, 1), erdos_renyi_gnm(30, 60, 2));
    }

    #[test]
    fn gnm_empty() {
        let g = erdos_renyi_gnm(10, 0, 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn geometric_radius_controls_density() {
        let sparse = random_geometric(200, 0.05, 11);
        let dense = random_geometric(200, 0.2, 11);
        assert!(dense.num_edges() > sparse.num_edges());
    }

    #[test]
    fn geometric_matches_bruteforce() {
        let n = 60;
        let g = random_geometric(n, 0.25, 5);
        // Re-derive points with the same RNG stream and brute-force check.
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let mut expect = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                if d2 <= 0.25 * 0.25 {
                    expect += 1;
                    assert!(g.neighbors(i as u32).contains(&(j as u32)), "missing edge ({i},{j})");
                }
            }
        }
        assert_eq!(g.num_edges(), expect);
    }

    #[test]
    fn ws_zero_beta_is_ring_lattice() {
        let g = watts_strogatz(20, 4, 0.0, 9);
        assert_eq!(g.num_edges(), 40);
        for v in 0..20 {
            assert_eq!(g.degree(v), 4);
        }
        // High clustering is the signature of the lattice.
        assert!(GraphStats::compute(&g).clustering_coefficient > 0.4);
    }

    #[test]
    fn ws_rewiring_reduces_clustering() {
        let lattice = watts_strogatz(200, 8, 0.0, 9);
        let random = watts_strogatz(200, 8, 1.0, 9);
        let c0 = GraphStats::compute(&lattice).clustering_coefficient;
        let c1 = GraphStats::compute(&random).clustering_coefficient;
        assert!(c1 < c0 / 2.0, "rewiring should destroy clustering ({c0} -> {c1})");
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn ws_rejects_odd_k() {
        let _ = watts_strogatz(10, 3, 0.1, 0);
    }
}
