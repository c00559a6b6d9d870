//! Direct k-way boundary refinement.
//!
//! Recursive bisection fixes each cut in isolation; a final greedy k-way
//! pass (the refinement step of Karypis–Kumar's k-way framework) moves
//! boundary vertices between *any* pair of parts when that lowers the cut
//! without violating balance, repairing the seams bisection cannot see.

use reorderlab_graph::Csr;

/// Epoch-stamped scatter array for per-vertex part connectivity. Candidate
/// parts are visited in first-touch (adjacency) order, which — unlike the
/// `HashMap` this replaces — is a deterministic order for the epsilon
/// tie-break below.
struct ConnScratch {
    acc: Vec<f64>,
    stamp: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
}

impl ConnScratch {
    fn new(num_parts: usize) -> Self {
        ConnScratch {
            acc: vec![0.0; num_parts],
            stamp: vec![0; num_parts],
            epoch: 0,
            touched: Vec::new(),
        }
    }
}

/// One vertex's move decision against the state in `assignment`: the best
/// alternative part with its connectivity, plus the vertex's connectivity
/// to its current part. `None` when no alternative part is adjacent.
fn propose(
    graph: &Csr,
    v: u32,
    assignment: &[u32],
    s: &mut ConnScratch,
) -> Option<(f64, f64, u32)> {
    let cur = assignment[v as usize];
    s.epoch += 1;
    s.touched.clear();
    for (u, w) in graph.weighted_neighbors(v) {
        if u == v {
            continue;
        }
        let p = assignment[u as usize];
        if s.stamp[p as usize] != s.epoch {
            s.stamp[p as usize] = s.epoch;
            s.acc[p as usize] = w;
            s.touched.push(p);
        } else {
            s.acc[p as usize] += w;
        }
    }
    let here = if s.stamp[cur as usize] == s.epoch { s.acc[cur as usize] } else { 0.0 };
    // Best alternative part by connectivity (ties to lower id).
    let mut best: Option<(f64, u32)> = None;
    for &p in &s.touched {
        if p == cur {
            continue;
        }
        let w = s.acc[p as usize];
        let better = match best {
            None => true,
            Some((bw, bp)) => w > bw + 1e-12 || ((w - bw).abs() <= 1e-12 && p < bp),
        };
        if better {
            best = Some((w, p));
        }
    }
    best.map(|(w, p)| (here, w, p))
}

/// Greedily refines a k-way `assignment` in place; returns the number of
/// moves applied.
///
/// Each pass scans vertices in id order, computes the connectivity of each
/// vertex to every adjacent part, and moves it to the best-connected part
/// when the gain is positive and the target stays under
/// `(1 + epsilon) · total / k`. Passes repeat until no move fires or
/// `max_passes` is reached. The scan is serial: each decision reads the
/// moves made before it.
///
/// # Panics
///
/// Panics if `assignment` does not cover every vertex or mentions a part
/// `>= num_parts`.
pub(crate) fn kway_refine(
    graph: &Csr,
    assignment: &mut [u32],
    num_parts: usize,
    vertex_weights: &[f64],
    epsilon: f64,
    max_passes: usize,
) -> usize {
    let n = graph.num_vertices();
    assert_eq!(assignment.len(), n, "assignment must cover every vertex");
    assert_eq!(vertex_weights.len(), n, "weights must cover every vertex");
    assert!(
        assignment.iter().all(|&p| (p as usize) < num_parts),
        "assignment mentions an out-of-range part"
    );
    if num_parts <= 1 || n == 0 {
        return 0;
    }
    let total: f64 = vertex_weights.iter().sum();
    let cap = (1.0 + epsilon) * total / num_parts as f64;
    let mut part_weight = vec![0.0f64; num_parts];
    for (v, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += vertex_weights[v];
    }

    let mut total_moves = 0usize;
    let mut scratch = ConnScratch::new(num_parts);
    for _ in 0..max_passes {
        let mut moves = 0usize;
        for v in 0..n as u32 {
            if let Some((here, w, p)) = propose(graph, v, assignment, &mut scratch) {
                let vw = vertex_weights[v as usize];
                if w > here + 1e-12 && part_weight[p as usize] + vw <= cap {
                    let cur = assignment[v as usize];
                    part_weight[cur as usize] -= vw;
                    part_weight[p as usize] += vw;
                    assignment[v as usize] = p;
                    moves += 1;
                }
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway::kway_cut;
    use reorderlab_datasets::{clique_chain, grid2d};

    #[test]
    fn repairs_a_misassigned_vertex() {
        // Two cliques; one vertex planted on the wrong side.
        let g = clique_chain(2, 6);
        let mut a: Vec<u32> = (0..12).map(|v| if v < 6 { 0 } else { 1 }).collect();
        a[3] = 1; // misplaced
        let before = kway_cut(&g, &a);
        let moves = kway_refine(&g, &mut a, 2, &[1.0; 12], 0.3, 4);
        assert!(moves >= 1);
        assert_eq!(a[3], 0, "misplaced vertex must return home");
        assert!(kway_cut(&g, &a) < before);
    }

    #[test]
    fn never_worsens_cut() {
        let g = grid2d(10, 10);
        let mut a: Vec<u32> = (0..100u32).map(|v| v % 4).collect(); // terrible striping
        let before = kway_cut(&g, &a);
        kway_refine(&g, &mut a, 4, &vec![1.0; 100], 0.15, 6);
        let after = kway_cut(&g, &a);
        assert!(after <= before, "refinement worsened the cut {before} -> {after}");
        assert!(after < before / 2.0, "striped grid should improve a lot: {before} -> {after}");
    }

    #[test]
    fn respects_balance_cap() {
        let g = clique_chain(2, 8);
        // Start balanced; epsilon 0 forbids any move that tips the scale.
        let mut a: Vec<u32> = (0..16).map(|v| if v < 8 { 0 } else { 1 }).collect();
        a[0] = 1;
        a[15] = 0; // two swapped vertices keep weights equal
        kway_refine(&g, &mut a, 2, &[1.0; 16], 0.0, 4);
        let left = a.iter().filter(|&&p| p == 0).count();
        assert_eq!(left, 8, "epsilon 0 must preserve exact balance");
    }

    #[test]
    fn noop_on_single_part_or_empty() {
        let g = grid2d(3, 3);
        let mut a = vec![0u32; 9];
        assert_eq!(kway_refine(&g, &mut a, 1, &[1.0; 9], 0.1, 3), 0);
        let g0 = reorderlab_graph::GraphBuilder::undirected(0).build().unwrap();
        let mut a0: Vec<u32> = Vec::new();
        assert_eq!(kway_refine(&g0, &mut a0, 4, &[], 0.1, 3), 0);
    }

    #[test]
    fn converges_and_is_deterministic() {
        let g = grid2d(8, 8);
        let make = || -> Vec<u32> { (0..64u32).map(|v| (v / 2) % 4).collect() };
        let mut a = make();
        let mut b = make();
        kway_refine(&g, &mut a, 4, &vec![1.0; 64], 0.2, 10);
        kway_refine(&g, &mut b, 4, &vec![1.0; 64], 0.2, 10);
        assert_eq!(a, b);
        // A second invocation must be a fixed point.
        let mut c = a.clone();
        assert_eq!(kway_refine(&g, &mut c, 4, &vec![1.0; 64], 0.2, 10), 0);
    }
}
