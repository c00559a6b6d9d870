//! Multilevel graph bisection: heavy-edge matching coarsening, greedy
//! graph-growing initial bisection, FM refinement at every uncoarsening
//! level.

use crate::matching::heavy_edge_matching;
use crate::refine::{edge_cut, fm_refine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{contract, Csr};

/// A two-way split of a vertex set.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Bisection {
    /// `side[v]` is `false` for the left part, `true` for the right.
    pub side: Vec<bool>,
    /// Edge weight crossing the split.
    pub cut: f64,
}

/// Tuning knobs shared by every level of the recursion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BisectParams {
    pub left_frac: f64,
    pub epsilon: f64,
    pub coarsen_until: usize,
    pub refine_passes: usize,
    pub seed: u64,
}

/// Bisects `graph` into a left part holding roughly `left_frac` of the total
/// vertex weight (ε slack on each side).
///
/// # Panics
///
/// Panics if `left_frac` is not in `(0, 1)` or `vertex_weights` has the
/// wrong length.
pub(crate) fn bisect(
    graph: &Csr,
    vertex_weights: &[f64],
    left_frac: f64,
    epsilon: f64,
    coarsen_until: usize,
    refine_passes: usize,
    seed: u64,
) -> Bisection {
    assert!(left_frac > 0.0 && left_frac < 1.0, "left_frac must be in (0, 1)");
    assert_eq!(vertex_weights.len(), graph.num_vertices());
    let params = BisectParams {
        left_frac,
        epsilon,
        coarsen_until: coarsen_until.max(2),
        refine_passes,
        seed,
    };
    multilevel_bisect(graph, vertex_weights, &params, 0)
}

fn multilevel_bisect(
    graph: &Csr,
    vertex_weights: &[f64],
    params: &BisectParams,
    depth: u32,
) -> Bisection {
    let n = graph.num_vertices();
    if n == 0 {
        return Bisection { side: Vec::new(), cut: 0.0 };
    }
    let total: f64 = vertex_weights.iter().sum();
    let max_left = (1.0 + params.epsilon) * params.left_frac * total;
    let max_right = (1.0 + params.epsilon) * (1.0 - params.left_frac) * total;

    if n <= params.coarsen_until {
        let mut side = initial_bisection(graph, vertex_weights, params, depth);
        let cut =
            fm_refine(graph, vertex_weights, &mut side, max_left, max_right, params.refine_passes);
        return Bisection { side, cut };
    }

    // Coarsen.
    let matching = heavy_edge_matching(graph, params.seed ^ (depth as u64).wrapping_mul(0x9e37));
    if matching.num_coarse as f64 > 0.95 * n as f64 {
        // Matching stalled (e.g. a star); bisect directly at this level.
        let mut side = initial_bisection(graph, vertex_weights, params, depth);
        let cut =
            fm_refine(graph, vertex_weights, &mut side, max_left, max_right, params.refine_passes);
        return Bisection { side, cut };
    }
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: `matching.assignment` maps every vertex into 0..num_coarse by construction in `match_vertices`"
    )]
    let contraction = contract(graph, &matching.assignment, matching.num_coarse)
        .expect("matching produces a valid assignment");
    let mut coarse_weights = vec![0.0f64; matching.num_coarse];
    for (v, &c) in matching.assignment.iter().enumerate() {
        coarse_weights[c as usize] += vertex_weights[v];
    }

    // Recurse.
    let coarse = multilevel_bisect(&contraction.coarse, &coarse_weights, params, depth + 1);

    // Project and refine.
    let mut side: Vec<bool> =
        matching.assignment.iter().map(|&c| coarse.side[c as usize]).collect();
    let cut =
        fm_refine(graph, vertex_weights, &mut side, max_left, max_right, params.refine_passes);
    Bisection { side, cut }
}

/// Greedy graph-growing initial bisection: BFS from a random start, claiming
/// vertices for the left part until its weight target is met. Several
/// starts are tried and the best resulting cut kept.
fn initial_bisection(
    graph: &Csr,
    vertex_weights: &[f64],
    params: &BisectParams,
    depth: u32,
) -> Vec<bool> {
    let n = graph.num_vertices();
    let total: f64 = vertex_weights.iter().sum();
    let target_left = params.left_frac * total;
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xb10c ^ (depth as u64) << 17);

    let trials = 4.min(n).max(1);
    let mut best: Option<(f64, Vec<bool>)> = None;
    for _ in 0..trials {
        let start = rng.gen_range(0..n as u32);
        let side = grow_from(graph, vertex_weights, target_left, start);
        let cut = edge_cut(graph, &side);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: the trial loop above runs at least once (trials >= 1 is clamped in the config), so a best cut exists"
    )]
    best.expect("at least one trial ran").1
}

/// Grows the left region by BFS from `start` (jumping to unvisited vertices
/// when a component is exhausted) until the left weight reaches the target.
fn grow_from(graph: &Csr, vertex_weights: &[f64], target_left: f64, start: u32) -> Vec<bool> {
    let n = graph.num_vertices();
    let mut side = vec![true; n]; // right by default
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut left_weight = 0.0f64;
    let mut next_probe = 0u32;

    queue.push_back(start);
    visited[start as usize] = true;
    while left_weight < target_left {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Jump to the next unvisited vertex (another component).
                let mut found = None;
                while (next_probe as usize) < n {
                    if !visited[next_probe as usize] {
                        found = Some(next_probe);
                        break;
                    }
                    next_probe += 1;
                }
                match found {
                    Some(v) => {
                        visited[v as usize] = true;
                        v
                    }
                    None => break, // everything claimed
                }
            }
        };
        side[v as usize] = false;
        left_weight += vertex_weights[v as usize];
        for &w in graph.neighbors(v) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::GraphBuilder;

    fn grid(rows: usize, cols: usize) -> Csr {
        let mut b = GraphBuilder::undirected(rows * cols);
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
        b.build().unwrap()
    }

    #[test]
    fn bisect_balances_grid() {
        let g = grid(12, 12);
        let vw = vec![1.0; 144];
        let b = bisect(&g, &vw, 0.5, 0.05, 40, 6, 7);
        let left = b.side.iter().filter(|&&s| !s).count();
        assert!((60..=84).contains(&left), "left side {left} out of balance");
        // A 12x12 grid has a width-12 minimum bisection; allow some slack.
        assert!(b.cut <= 24.0, "cut {} too large", b.cut);
        assert_eq!(b.cut, edge_cut(&g, &b.side));
    }

    #[test]
    fn bisect_finds_bridge_between_cliques() {
        // Two 8-cliques joined by one edge.
        let mut bld = GraphBuilder::undirected(16);
        for base in [0u32, 8] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    bld = bld.edge(base + i, base + j);
                }
            }
        }
        let g = bld.edge(7, 8).build().unwrap();
        let b = bisect(&g, &[1.0; 16], 0.5, 0.05, 8, 6, 3);
        assert_eq!(b.cut, 1.0);
    }

    #[test]
    fn bisect_asymmetric_fraction() {
        let g = grid(10, 10);
        let vw = vec![1.0; 100];
        let b = bisect(&g, &vw, 0.25, 0.08, 30, 6, 1);
        let left = b.side.iter().filter(|&&s| !s).count();
        assert!((17..=33).contains(&left), "left side {left} should be near 25");
    }

    #[test]
    fn bisect_disconnected_graph() {
        let g = GraphBuilder::undirected(6).edge(0, 1).edge(2, 3).edge(4, 5).build().unwrap();
        let b = bisect(&g, &[1.0; 6], 0.5, 0.1, 10, 4, 0);
        let left = b.side.iter().filter(|&&s| !s).count();
        assert!((2..=4).contains(&left));
        // A perfect split cuts nothing.
        assert!(b.cut <= 1.0);
    }

    #[test]
    fn bisect_single_vertex() {
        let g = GraphBuilder::undirected(1).build().unwrap();
        let b = bisect(&g, &[1.0], 0.5, 0.05, 4, 2, 0);
        assert_eq!(b.side.len(), 1);
        assert_eq!(b.cut, 0.0);
    }

    #[test]
    fn bisect_empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let b = bisect(&g, &[], 0.5, 0.05, 4, 2, 0);
        assert!(b.side.is_empty());
    }

    #[test]
    fn bisect_deterministic() {
        let g = grid(9, 9);
        let vw = vec![1.0; 81];
        let a = bisect(&g, &vw, 0.5, 0.05, 20, 4, 5);
        let b = bisect(&g, &vw, 0.5, 0.05, 20, 4, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn bisect_star_does_not_stall() {
        // Matching on a star stalls (one pair), exercising the fallback.
        let g = GraphBuilder::undirected(101).edges((1..101).map(|i| (0, i))).build().unwrap();
        let b = bisect(&g, &vec![1.0; 101], 0.5, 0.1, 10, 4, 2);
        let left = b.side.iter().filter(|&&s| !s).count();
        assert!((40..=61).contains(&left), "left {left}");
    }
}
