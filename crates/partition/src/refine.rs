//! Boundary Fiduccia–Mattheyses refinement for bisections.
//!
//! METIS's two-way refinement: single-vertex moves taken from a gain-ordered
//! queue of *boundary* vertices, per-pass locking, a bounded hill-climb and
//! rollback to the best prefix. The weight each vertex has across (`ext`)
//! and inside (`int`) the cut is swept once per call and kept exact by
//! every move and every rollback, so a pass costs what its boundary costs,
//! not what the graph costs. This is the refinement engine run at every
//! uncoarsening level of the multilevel bisection, mirroring the "iterative
//! refinements employed during the un-coarsening phases" the paper cites
//! (Kernighan–Lin \[25\]).

use reorderlab_graph::Csr;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Computes the weight of edges crossing the bisection `side`.
pub fn edge_cut(graph: &Csr, side: &[bool]) -> f64 {
    graph.edges().filter(|&(u, v, _)| side[u as usize] != side[v as usize]).map(|(_, _, w)| w).sum()
}

/// A heap entry ordered by gain (then vertex id for determinism).
#[derive(Debug, PartialEq)]
struct Entry {
    gain: f64,
    vertex: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain.total_cmp(&other.gain).then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The state one [`fm_refine`] call keeps live across its passes.
struct Refiner<'a> {
    graph: &'a Csr,
    vertex_weights: &'a [f64],
    side: &'a mut [bool],
    /// Incident weight of each vertex across the cut (self-loops excluded).
    ext: Vec<f64>,
    /// Incident weight of each vertex inside its own side.
    int: Vec<f64>,
    cut: f64,
    weights: [f64; 2],
    caps: [f64; 2],
    /// How many moves a pass may make beyond its best prefix (METIS's rule).
    limit: usize,
    /// `locked[v] == pass` once `v` moved, or was refused, in this pass.
    locked: Vec<u32>,
    pass: u32,
    heap: BinaryHeap<Entry>,
    /// The tentative moves of the current pass, in order.
    moves: Vec<u32>,
}

/// One O(|E|) sweep: the `(ext, int)` arrays of `side`.
fn incident_weights(graph: &Csr, side: &[bool]) -> (Vec<f64>, Vec<f64>) {
    let n = graph.num_vertices();
    let (mut ext, mut int) = (vec![0.0f64; n], vec![0.0f64; n]);
    for u in 0..n as u32 {
        for (v, w) in graph.weighted_neighbors(u) {
            if v == u {
                continue;
            }
            if side[u as usize] != side[v as usize] {
                ext[u as usize] += w;
            } else {
                int[u as usize] += w;
            }
        }
    }
    (ext, int)
}

impl<'a> Refiner<'a> {
    fn new(
        graph: &'a Csr,
        vertex_weights: &'a [f64],
        side: &'a mut [bool],
        max_left: f64,
        max_right: f64,
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(side.len(), n, "side length must match vertex count");
        assert_eq!(vertex_weights.len(), n, "weight length must match vertex count");
        let (ext, int) = incident_weights(graph, side);
        // Every cut edge is external to both of its endpoints.
        let cut = ext.iter().sum::<f64>() / 2.0;
        let mut weights = [0.0f64; 2];
        for v in 0..n {
            weights[side[v] as usize] += vertex_weights[v];
        }
        Refiner {
            graph,
            vertex_weights,
            side,
            ext,
            int,
            cut,
            weights,
            caps: [max_left, max_right],
            limit: (n / 100).clamp(15, 100),
            locked: vec![0; n],
            pass: 0,
            heap: BinaryHeap::new(),
            moves: Vec::new(),
        }
    }

    /// Moves `v` to the other side and shifts the weight of each incident
    /// edge between `ext` and `int` at both endpoints. Flipping twice
    /// restores every array, which is how a pass rolls back. With `requeue`
    /// the unlocked neighbors that are on the boundary afterwards enter the
    /// queue at their new gain.
    fn flip(&mut self, v: u32, requeue: bool) {
        let vi = v as usize;
        let from = self.side[vi] as usize;
        self.side[vi] = !self.side[vi];
        self.weights[from] -= self.vertex_weights[vi];
        self.weights[1 - from] += self.vertex_weights[vi];
        std::mem::swap(&mut self.ext[vi], &mut self.int[vi]);
        for (u, w) in self.graph.weighted_neighbors(v) {
            if u == v {
                continue;
            }
            let ui = u as usize;
            let joined = if self.side[ui] == self.side[vi] { w } else { -w };
            self.ext[ui] -= joined;
            self.int[ui] += joined;
            if requeue && self.locked[ui] != self.pass && self.ext[ui] > 0.0 {
                self.heap.push(Entry { gain: self.ext[ui] - self.int[ui], vertex: u });
            }
        }
    }

    /// One pass: tentatively moves boundary vertices in order of decreasing
    /// gain (each at most once), gives up `limit` moves after the best
    /// prefix, rolls back to that prefix and returns its length.
    fn pass(&mut self) -> usize {
        self.pass += 1;
        self.moves.clear();
        self.heap.clear();
        self.heap.extend(
            (0..self.ext.len())
                .filter(|&v| self.ext[v] > 0.0)
                .map(|v| Entry { gain: self.ext[v] - self.int[v], vertex: v as u32 }),
        );

        let mut running_cut = self.cut;
        let mut best_prefix = 0usize;
        while let Some(Entry { gain, vertex: v }) = self.heap.pop() {
            let vi = v as usize;
            if self.locked[vi] == self.pass || gain != self.ext[vi] - self.int[vi] {
                continue; // stale entry
            }
            // Locked whether it moves or not: a vertex the cap refuses is
            // not looked at again in this pass.
            self.locked[vi] = self.pass;
            let to = 1 - self.side[vi] as usize;
            if self.weights[to] + self.vertex_weights[vi] > self.caps[to] {
                continue;
            }
            self.flip(v, true);
            self.moves.push(v);
            running_cut -= gain;
            if running_cut < self.cut - 1e-12 {
                self.cut = running_cut;
                best_prefix = self.moves.len();
            } else if self.moves.len() - best_prefix >= self.limit {
                break;
            }
        }
        for i in (best_prefix..self.moves.len()).rev() {
            self.flip(self.moves[i], false);
        }
        best_prefix
    }

    /// Every move and rollback must leave the live arrays equal to a fresh
    /// sweep, and the running cut equal to a recount.
    #[cfg(test)]
    fn assert_exact(&self) {
        let (ext, int) = incident_weights(self.graph, self.side);
        assert_eq!((&self.ext, &self.int), (&ext, &int), "ext/int drifted from a fresh sweep");
        assert!((self.cut - edge_cut(self.graph, self.side)).abs() < 1e-9, "cut drifted");
    }
}

/// Refines a bisection in place with up to `passes` boundary FM passes.
///
/// `side[v]` is `false` for the left part, `true` for the right.
/// `max_left` / `max_right` cap the total vertex weight of each side; moves
/// that would violate the cap are skipped. Returns the resulting edge cut.
///
/// Each pass tentatively moves boundary vertices in order of decreasing
/// gain (each vertex at most once), stops once `clamp(n / 100, 15, 100)`
/// moves in a row have not produced a new best cut, then rolls back to the
/// best prefix. Passes stop early when no improvement is found. The cut and
/// the gains are read from out-rows, which is exact on an undirected graph.
///
/// # Panics
///
/// Panics if the input slices disagree in length with the graph.
pub fn fm_refine(
    graph: &Csr,
    vertex_weights: &[f64],
    side: &mut [bool],
    max_left: f64,
    max_right: f64,
    passes: usize,
) -> f64 {
    let mut refiner = Refiner::new(graph, vertex_weights, side, max_left, max_right);
    for _ in 0..passes {
        if refiner.pass() == 0 {
            break;
        }
    }
    #[cfg(test)]
    refiner.assert_exact();
    refiner.cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::GraphBuilder;

    fn two_cliques_with_bridge() -> Csr {
        // Vertices 0..4 form a clique, 4..8 form a clique, one bridge 3-4.
        let mut b = GraphBuilder::undirected(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b = b.edge(base + i, base + j);
                }
            }
        }
        b.edge(3, 4).build().unwrap()
    }

    #[test]
    fn edge_cut_counts_crossings() {
        let g = two_cliques_with_bridge();
        let side = vec![false, false, false, false, true, true, true, true];
        assert_eq!(edge_cut(&g, &side), 1.0);
        let bad = vec![false, true, false, true, false, true, false, true];
        assert!(edge_cut(&g, &bad) > 1.0);
    }

    #[test]
    fn fm_recovers_natural_cut() {
        let g = two_cliques_with_bridge();
        // Start from a poor balanced bisection.
        let mut side = vec![false, true, false, true, false, true, false, true];
        let vw = vec![1.0; 8];
        let cut = fm_refine(&g, &vw, &mut side, 5.0, 5.0, 8);
        assert_eq!(cut, 1.0, "FM should find the single-bridge cut");
        // The two cliques should be separated.
        assert_eq!(side[0], side[1]);
        assert_eq!(side[0], side[2]);
        assert_eq!(side[0], side[3]);
        assert_ne!(side[0], side[4]);
    }

    #[test]
    fn fm_respects_balance_caps() {
        let g = two_cliques_with_bridge();
        let mut side = vec![false, false, false, false, true, true, true, true];
        let vw = vec![1.0; 8];
        // Caps allow no movement at all: cut must stay 1 and sides intact.
        let cut = fm_refine(&g, &vw, &mut side, 4.0, 4.0, 4);
        assert_eq!(cut, 1.0);
        assert_eq!(side.iter().filter(|&&s| s).count(), 4);
    }

    #[test]
    fn fm_cut_matches_recount() {
        let g = two_cliques_with_bridge();
        let mut side = vec![true, false, true, false, true, false, false, true];
        let vw = vec![1.0; 8];
        let cut = fm_refine(&g, &vw, &mut side, 5.0, 5.0, 6);
        assert!((cut - edge_cut(&g, &side)).abs() < 1e-9, "returned cut must match the sides");
    }

    #[test]
    fn fm_weighted_graph() {
        // Path with one very heavy edge in the middle: cut should avoid it.
        let g = GraphBuilder::undirected(4)
            .weighted_edge(0, 1, 1.0)
            .weighted_edge(1, 2, 100.0)
            .weighted_edge(2, 3, 1.0)
            .build()
            .unwrap();
        let mut side = vec![false, true, false, true];
        let vw = vec![1.0; 4];
        let cut = fm_refine(&g, &vw, &mut side, 3.0, 3.0, 6);
        assert!(cut <= 2.0, "cut {cut} should avoid the heavy edge");
        assert_eq!(side[1], side[2], "heavy edge must stay internal");
    }

    /// A pass costs what the boundary costs: the tentative moves of a call
    /// exceed the kept ones by at most the hill-climb bound per pass. (The
    /// whole-graph pass this replaced moved every vertex in every pass.)
    #[test]
    fn work_is_bounded_by_the_hill_climb_not_the_graph() {
        let g = reorderlab_datasets::grid2d(128, 128);
        let n = g.num_vertices();
        let vw = vec![1.0; n];
        // The coarsest level's grown bisection, projected back unrefined.
        let mut side = crate::bisect::bisect(&g, &vw, 0.5, 0.05, 80, 0, 1).side;

        let cap = 1.05 * n as f64 / 2.0;
        let mut r = Refiner::new(&g, &vw, &mut side, cap, cap);
        let (mut tentative, mut kept, mut passes) = (0usize, 0usize, 0usize);
        loop {
            let k = r.pass();
            passes += 1;
            tentative += r.moves.len();
            kept += k;
            if k == 0 || passes == 6 {
                break;
            }
        }
        assert_eq!(r.limit, 100);
        assert!(
            tentative <= kept + passes * (r.limit + 1),
            "{tentative} tentative moves for {kept} kept in {passes} passes"
        );
        r.assert_exact();
    }

    #[test]
    fn fm_empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let mut side: Vec<bool> = Vec::new();
        assert_eq!(fm_refine(&g, &[], &mut side, 1.0, 1.0, 3), 0.0);
    }
}
