//! Newman modularity \[31\] for weighted graphs.
//!
//! Conventions: the adjacency contribution of an edge `{i, j}` with `i != j`
//! is `w_ij` in each direction; a self loop `{i, i}` of weight `w` counts as
//! `2w` on the diagonal. Thus `k_i = Σ_j A_ij` equals the weighted degree
//! plus the self-loop weight counted twice, and `2m = Σ_i k_i`.

use rayon::prelude::*;
use reorderlab_graph::Adjacency;

/// Per-vertex modularity bookkeeping for a weighted graph.
#[derive(Debug, Clone)]
pub struct ModularityContext {
    /// `k[v]`: weighted degree with self loops counted twice.
    pub k: Vec<f64>,
    /// `self_weight[v]`: weight of the self loop at `v` (0 if none).
    pub self_weight: Vec<f64>,
    /// Total adjacency weight `2m = Σ k`.
    pub total: f64,
}

impl ModularityContext {
    /// Precomputes degrees and totals for `graph`, one contiguous vertex
    /// span of near-equal arcs per worker of the ambient pool
    /// ([`rayon::arc_spans`]). Each `k[v]` is its own row's sum in row order
    /// and `total` is the serial sum of `k`, so the context is the same bit
    /// for bit at any width, and every [`Adjacency`] accumulates the
    /// identical float sequence: the contexts of a flat and a compressed
    /// graph match too.
    pub fn new<G: Adjacency>(graph: &G) -> Self {
        let n = graph.num_vertices();
        let mut k = vec![0.0f64; n];
        let mut self_weight = vec![0.0f64; n];
        let spans = rayon::arc_spans(graph.offsets());
        spans
            .iter()
            .zip(rayon::span_slices(&mut k, &spans))
            .zip(rayon::span_slices(&mut self_weight, &spans))
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|((span, k), self_weight)| {
                let mut row: Vec<u32> = Vec::new();
                for ((v, kv), sv) in span.clone().map(|v| v as u32).zip(k).zip(self_weight) {
                    graph.for_each_weighted(v, &mut row, |u, w| {
                        if u == v {
                            *sv = w;
                            *kv += 2.0 * w;
                        } else {
                            *kv += w;
                        }
                    });
                }
            });
        let total = k.iter().sum();
        ModularityContext { k, self_weight, total }
    }
}

/// Computes the modularity `Q` of `assignment` on `graph`.
///
/// `Q = Σ_c [ in_c / 2m − (tot_c / 2m)² ]` where `in_c` is the total
/// adjacency weight inside community `c` (ordered pairs, self loops counted
/// twice) and `tot_c` the sum of its vertices' `k`.
///
/// Returns `0.0` for an edgeless graph.
///
/// # Panics
///
/// Panics if `assignment` does not cover every vertex.
pub fn modularity<G: Adjacency>(graph: &G, assignment: &[u32]) -> f64 {
    modularity_with(graph, &ModularityContext::new(graph), assignment)
}

/// [`modularity`] against an already-built context of `graph`: the one
/// serial arc pass that counts `in_c` and `tot_c` from scratch.
pub(crate) fn modularity_with<G: Adjacency>(
    graph: &G,
    ctx: &ModularityContext,
    assignment: &[u32],
) -> f64 {
    let n = graph.num_vertices();
    assert_eq!(assignment.len(), n, "assignment must cover every vertex");
    let num_comms = assignment.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut internal = vec![0.0f64; num_comms];
    let mut tot = vec![0.0f64; num_comms];
    let mut row: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        let cv = assignment[v as usize] as usize;
        tot[cv] += ctx.k[v as usize];
        graph.for_each_weighted(v, &mut row, |u, w| {
            if u == v {
                internal[cv] += 2.0 * w; // diagonal convention
            } else if assignment[u as usize] as usize == cv {
                internal[cv] += w; // counted once from each endpoint
            }
        });
    }
    sum_q(internal.into_iter().zip(tot), ctx.total)
}

/// `Σ_c in_c / 2m − (tot_c / 2m)²` over `(in_c, tot_c)` pairs, summed in the
/// order given; `0.0` when `2m` is zero. The one expression behind every Q
/// this crate reports, so a Q read from Louvain's live `in`/`tot` arrays and
/// one recounted from the assignment run the same float operations in the
/// same order.
pub(crate) fn sum_q(communities: impl Iterator<Item = (f64, f64)>, m2: f64) -> f64 {
    if m2 == 0.0 {
        return 0.0;
    }
    communities.map(|(inc, t)| inc / m2 - (t / m2).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::{Csr, GraphBuilder, SelfLoopPolicy};

    fn two_triangles_bridge() -> Csr {
        GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn singleton_communities_negative_or_zero() {
        let g = two_triangles_bridge();
        let q = modularity(&g, &[0, 1, 2, 3, 4, 5]);
        // All-singleton Q = -Σ (k_i/2m)^2 < 0.
        assert!(q < 0.0);
    }

    #[test]
    fn planted_communities_score_high() {
        let g = two_triangles_bridge();
        let q = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        // Known value: in = [6,6] (+0 bridge), tot = [7,7], 2m = 14.
        let expect = (6.0 / 14.0 - (7.0f64 / 14.0).powi(2)) * 2.0;
        assert!((q - expect).abs() < 1e-12, "{q} vs {expect}");
        assert!(q > modularity(&g, &[0, 0, 1, 1, 2, 2]));
    }

    #[test]
    fn one_community_is_zero() {
        let g = two_triangles_bridge();
        let q = modularity(&g, &[0; 6]);
        assert!(q.abs() < 1e-12, "single community has Q = 0, got {q}");
    }

    #[test]
    fn modularity_bounded() {
        let g = two_triangles_bridge();
        for a in [[0u32, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1], [2, 2, 1, 1, 0, 0]] {
            let q = modularity(&g, &a);
            assert!((-1.0..=1.0).contains(&q));
        }
    }

    #[test]
    fn empty_graph_zero() {
        let g = GraphBuilder::undirected(3).build().unwrap();
        assert_eq!(modularity(&g, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn context_degrees_with_self_loops() {
        let g = GraphBuilder::undirected(2)
            .self_loops(SelfLoopPolicy::Keep)
            .weighted_edge(0, 0, 2.0)
            .weighted_edge(0, 1, 3.0)
            .build()
            .unwrap();
        let ctx = ModularityContext::new(&g);
        assert_eq!(ctx.self_weight[0], 2.0);
        assert_eq!(ctx.k[0], 3.0 + 4.0); // neighbor + 2*self
        assert_eq!(ctx.k[1], 3.0);
        assert_eq!(ctx.total, 10.0);
    }

    #[test]
    fn contraction_preserves_modularity() {
        // Louvain invariant: contracting by the assignment and scoring the
        // coarse graph with singleton communities gives the same Q.
        let g = two_triangles_bridge();
        let assignment = [0u32, 0, 0, 1, 1, 1];
        let q_fine = modularity(&g, &assignment);
        let c = reorderlab_graph::contract(&g, &assignment, 2).unwrap();
        let q_coarse = modularity(&c.coarse, &[0, 1]);
        assert!((q_fine - q_coarse).abs() < 1e-12, "{q_fine} vs {q_coarse}");
    }
}
