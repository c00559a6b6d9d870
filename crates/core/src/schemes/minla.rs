//! Simulated-annealing refinement for the Minimum Linear Arrangement
//! objective (paper §III-A).
//!
//! The paper surveys MinLA \[33\] as the canonical gap-based formulation and
//! notes that its heuristics (simulated annealing \[26, 34\]) "do not have
//! efficient implementations in practice and are considered expensive". It
//! is therefore *not* part of the 11-scheme evaluation — but it is the
//! natural extension feature: a local-search refiner that takes any
//! scheme's output as the starting arrangement and anneals the total gap
//! downward with incremental swap evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{Csr, Permutation};

/// Configuration for the MinLA annealer.
#[derive(Debug, Clone, PartialEq)]
pub struct MinlaConfig {
    /// Number of proposed swaps.
    pub iterations: usize,
    /// Initial temperature, in units of total-gap cost.
    pub initial_temperature: f64,
    /// Multiplicative cooling applied every `iterations / 100` steps.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MinlaConfig {
    /// A budgeted configuration: roughly `per_vertex` proposals per vertex.
    pub fn budget(n: usize, per_vertex: usize, seed: u64) -> Self {
        MinlaConfig {
            iterations: n.saturating_mul(per_vertex).max(1),
            initial_temperature: (n as f64).sqrt().max(1.0),
            cooling: 0.97,
            seed,
        }
    }
}

impl Default for MinlaConfig {
    fn default() -> Self {
        MinlaConfig { iterations: 10_000, initial_temperature: 8.0, cooling: 0.97, seed: 0 }
    }
}

/// Total linear-arrangement cost `Σ_e ξ(e)` of an order (`order[r]` =
/// vertex at rank `r`).
fn total_gap(graph: &Csr, ranks: &[u32]) -> u64 {
    graph.edges().map(|(u, v, _)| ranks[u as usize].abs_diff(ranks[v as usize]) as u64).sum()
}

/// Cost contribution of vertex `v` at rank `ranks[v]`: the sum of gaps of
/// its incident edges (self loops contribute 0).
fn vertex_cost(graph: &Csr, ranks: &[u32], v: u32) -> i64 {
    graph.neighbors(v).iter().map(|&u| ranks[v as usize].abs_diff(ranks[u as usize]) as i64).sum()
}

/// Refines `initial` toward a lower total linear-arrangement gap with
/// simulated annealing over rank swaps. Returns the best permutation seen.
///
/// Each proposal swaps the ranks of two random vertices; the cost delta is
/// evaluated incrementally over the two adjacency lists, so a proposal
/// costs `O(deg(a) + deg(b))`.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::{minla_anneal, random_order, MinlaConfig};
/// use reorderlab_core::measures::gap_measures;
/// use reorderlab_datasets::path;
///
/// let g = path(64);
/// let start = random_order(&g, 3);
/// let refined = minla_anneal(&g, &start, &MinlaConfig::budget(64, 200, 1));
/// assert!(
///     gap_measures(&g, &refined).avg_gap <= gap_measures(&g, &start).avg_gap
/// );
/// ```
pub fn minla_anneal(graph: &Csr, initial: &Permutation, config: &MinlaConfig) -> Permutation {
    let n = graph.num_vertices();
    assert_eq!(initial.len(), n, "initial permutation must cover the graph");
    if n < 2 {
        return initial.clone();
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ranks: Vec<u32> = initial.ranks().to_vec();
    #[expect(
        clippy::cast_possible_wrap,
        reason = "SAFETY: the total gap is at most num_arcs * num_vertices < 2^63"
    )]
    let mut cost = total_gap(graph, &ranks) as i64;
    let mut best_ranks = ranks.clone();
    let mut best_cost = cost;
    let mut temperature = config.initial_temperature.max(1e-9);
    let cool_every = (config.iterations / 100).max(1);

    for step in 0..config.iterations {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let a = rng.gen_range(0..n as u32);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let mut b = rng.gen_range(0..n as u32);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        while b == a {
            b = rng.gen_range(0..n as u32);
        }
        // Incremental delta: only edges at a and b change. If a and b are
        // adjacent, the shared edge's gap is unchanged by the swap and is
        // counted once from each side both before and after — consistent.
        let before = vertex_cost(graph, &ranks, a) + vertex_cost(graph, &ranks, b);
        ranks.swap(a as usize, b as usize);
        let after = vertex_cost(graph, &ranks, a) + vertex_cost(graph, &ranks, b);
        let delta = after - before;
        let accept =
            delta <= 0 || rng.gen::<f64>() < (-(delta as f64) / temperature.max(1e-12)).exp();
        if accept {
            cost += delta;
            if cost < best_cost {
                best_cost = cost;
                best_ranks.copy_from_slice(&ranks);
            }
        } else {
            ranks.swap(a as usize, b as usize); // undo
        }
        if step % cool_every == cool_every - 1 {
            temperature *= config.cooling;
        }
    }
    Permutation::from_ranks_unchecked(best_ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::gap_measures;
    use crate::schemes::{random_order, rcm_order};
    use reorderlab_datasets::{cycle, grid2d, path};

    #[test]
    fn never_worse_than_start() {
        let g = grid2d(6, 6);
        let start = random_order(&g, 9);
        let refined = minla_anneal(&g, &start, &MinlaConfig::budget(36, 100, 2));
        assert!(
            gap_measures(&g, &refined).avg_gap <= gap_measures(&g, &start).avg_gap + 1e-12,
            "the best-seen state can never be worse than the start"
        );
    }

    #[test]
    fn recovers_path_locality_from_shuffle() {
        let g = path(48);
        let start = random_order(&g, 4);
        let refined = minla_anneal(&g, &start, &MinlaConfig::budget(48, 800, 7));
        let before = gap_measures(&g, &start).avg_gap;
        let after = gap_measures(&g, &refined).avg_gap;
        assert!(
            after < before / 2.0,
            "annealing should strongly improve a shuffled path: {before} -> {after}"
        );
    }

    #[test]
    fn refines_rcm_no_worse() {
        let g = cycle(40);
        let start = rcm_order(&g);
        let refined = minla_anneal(&g, &start, &MinlaConfig::budget(40, 200, 3));
        assert!(gap_measures(&g, &refined).avg_gap <= gap_measures(&g, &start).avg_gap + 1e-12);
    }

    #[test]
    fn internal_cost_matches_recount() {
        // best_cost bookkeeping must agree with a from-scratch recount.
        let g = grid2d(5, 5);
        let start = random_order(&g, 1);
        let refined = minla_anneal(&g, &start, &MinlaConfig::budget(25, 300, 5));
        let recount = total_gap(&g, refined.ranks());
        let measured = gap_measures(&g, &refined).avg_gap * g.num_edges() as f64;
        assert!((recount as f64 - measured).abs() < 1e-6);
    }

    #[test]
    fn deterministic() {
        let g = grid2d(4, 4);
        let start = random_order(&g, 2);
        let cfg = MinlaConfig::budget(16, 100, 11);
        assert_eq!(minla_anneal(&g, &start, &cfg), minla_anneal(&g, &start, &cfg));
    }

    #[test]
    fn tiny_graphs() {
        let g = path(1);
        let p = minla_anneal(&g, &Permutation::identity(1), &MinlaConfig::default());
        assert!(p.is_identity());
    }
}
