//! Gorder (paper §III-C, Wei et al. \[37\]): the window-based,
//! cache-miss-minimizing greedy ordering.
//!
//! Vertices are emitted one at a time; the next vertex is the one with the
//! highest *Gscore* against the last `w` emitted vertices, where
//! `S(i, j) = S_s(i, j) + S_n(i, j)` counts shared neighbors plus direct
//! edges. The exact problem is NP-hard; this is the standard greedy
//! approximation that runs in time proportional to the sum of squared
//! degrees, with the usual hub cap that skips two-hop score propagation
//! through very-high-degree intermediates.
//!
//! Each pick reads the keys the picks before it left, so the scan has one
//! serial body; `crates/core/tests/ordering_goldens.rs` pins its output.

use reorderlab_graph::{Csr, Permutation};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug, PartialEq, Eq)]
struct Entry {
    key: i64,
    vertex: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max key first; ties toward the smaller vertex id.
        self.key.cmp(&other.key).then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes a Gorder permutation with the given window size (the original
/// paper's default is `w = 5`).
///
/// `hub_cap` bounds two-hop Gscore propagation: shared-neighbor credit is
/// not propagated *through* intermediates of degree above the cap, which
/// keeps the cost near `Σ deg²` on skewed graphs (the same engineering
/// concession the reference implementation makes).
///
/// A window of `n` or more never evicts a vertex, so every such window
/// yields the order of `window = n`.
///
/// # Panics
///
/// Panics if `window == 0`.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::gorder;
/// use reorderlab_datasets::clique_chain;
///
/// let g = clique_chain(3, 5);
/// let pi = gorder(&g, 5, usize::MAX);
/// assert_eq!(pi.len(), 15);
/// ```
pub fn gorder(graph: &Csr, window: usize, hub_cap: usize) -> Permutation {
    assert!(window >= 1, "window must be at least 1");
    let n = graph.num_vertices();
    let mut key = vec![0i64; n];
    let mut placed = vec![false; n];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    // The window holds at most `n` vertices, whatever the caller asked for.
    let mut recent: VecDeque<u32> = VecDeque::with_capacity(window.min(n) + 1);
    let mut order: Vec<u32> = Vec::with_capacity(n);

    // Fallback seeds: vertices by decreasing degree (Gorder starts from the
    // highest-degree vertex and reseeds there when a region is exhausted).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_by_key(|&v| (Reverse(graph.degree(v)), v));
    let mut seed_cursor = 0usize;

    // Applies the Gscore delta of `v` entering (+1) or leaving (-1) the
    // window to all unplaced candidates.
    let apply =
        |v: u32, delta: i64, key: &mut [i64], placed: &[bool], heap: &mut BinaryHeap<Entry>| {
            for &u in graph.neighbors(v) {
                if u != v && !placed[u as usize] {
                    key[u as usize] += delta; // S_n: direct edge credit
                    if delta > 0 {
                        heap.push(Entry { key: key[u as usize], vertex: u });
                    }
                }
                // S_s: shared-neighbor credit through intermediate u.
                if graph.degree(u) <= hub_cap {
                    for &t in graph.neighbors(u) {
                        if t != v && !placed[t as usize] {
                            key[t as usize] += delta;
                            if delta > 0 {
                                heap.push(Entry { key: key[t as usize], vertex: t });
                            }
                        }
                    }
                }
            }
        };

    for _ in 0..n {
        // Select the unplaced vertex with max key; fall back to the next
        // unplaced high-degree seed when the window has no live candidates.
        let mut chosen: Option<u32> = None;
        while let Some(top) = heap.peek() {
            if placed[top.vertex as usize] || top.key != key[top.vertex as usize] {
                heap.pop(); // stale
                continue;
            }
            if top.key > 0 {
                chosen = heap.pop().map(|entry| entry.vertex);
            }
            break;
        }
        let v = match chosen {
            Some(v) => v,
            None => {
                while placed[seeds[seed_cursor] as usize] {
                    seed_cursor += 1;
                }
                seeds[seed_cursor]
            }
        };

        placed[v as usize] = true;
        order.push(v);
        recent.push_back(v);
        apply(v, 1, &mut key, &placed, &mut heap);
        if recent.len() > window {
            if let Some(evicted) = recent.pop_front() {
                apply(evicted, -1, &mut key, &placed, &mut heap);
            }
        }
    }

    super::order_permutation(&order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::gap_measures;
    use crate::schemes::random_order;
    use reorderlab_datasets::{clique_chain, erdos_renyi_gnm, grid2d, path};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn valid_permutation_on_random_graph() {
        let g = erdos_renyi_gnm(120, 400, 3);
        let pi = gorder(&g, 5, usize::MAX);
        assert!(Permutation::from_ranks(pi.ranks().to_vec()).is_ok());
    }

    #[test]
    fn keeps_cliques_contiguous() {
        // Cliques are the best case for Gscore: once a clique member is
        // placed, the rest of the clique dominates the window scores.
        let g = clique_chain(4, 6);
        let pi = gorder(&g, 5, usize::MAX);
        for c in 0..4u32 {
            let ranks: Vec<u32> = (0..6).map(|i| pi.rank(c * 6 + i)).collect();
            let (lo, hi) =
                (*ranks.iter().min().expect("non-empty"), *ranks.iter().max().expect("non-empty"));
            assert!(hi - lo <= 7, "clique {c} spread over ranks {lo}..{hi}");
        }
    }

    #[test]
    fn improves_avg_gap_over_random_on_shuffled_grid() {
        let g0 = grid2d(12, 12);
        let g = g0.permuted(&random_order(&g0, 5)).unwrap();
        let rand_gap = gap_measures(&g, &random_order(&g, 7)).avg_gap;
        let gord_gap = gap_measures(&g, &gorder(&g, 5, usize::MAX)).avg_gap;
        assert!(gord_gap < rand_gap, "gorder {gord_gap} vs random {rand_gap}");
    }

    #[test]
    fn window_one_still_valid() {
        let g = path(20);
        let pi = gorder(&g, 1, usize::MAX);
        assert_eq!(pi.len(), 20);
    }

    #[test]
    fn path_ordered_contiguously() {
        // On a path, greedy Gorder walks the path: each neighbor of the
        // window's last vertex scores highest.
        let g = path(30);
        let pi = gorder(&g, 5, usize::MAX);
        let m = gap_measures(&g, &pi);
        assert!(m.avg_gap <= 2.0, "path should stay near-contiguous, ξ̂ = {}", m.avg_gap);
    }

    #[test]
    fn hub_cap_changes_nothing_on_low_degree_graphs() {
        let g = grid2d(8, 8);
        assert_eq!(gorder(&g, 5, usize::MAX), gorder(&g, 5, 4));
    }

    #[test]
    fn disconnected_components_all_placed() {
        let g =
            GraphBuilder::undirected(8).edges([(0, 1), (1, 2), (5, 6), (6, 7)]).build().unwrap();
        let pi = gorder(&g, 5, usize::MAX);
        assert_eq!(pi.len(), 8);
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi_gnm(80, 200, 9);
        assert_eq!(gorder(&g, 5, usize::MAX), gorder(&g, 5, usize::MAX));
    }

    #[test]
    fn windows_past_the_vertex_count_equal_window_n() {
        let g = clique_chain(3, 5);
        let n = g.num_vertices();
        let expected = gorder(&g, n, 4096);
        assert_eq!(gorder(&g, 1 << 40, 4096), expected);
        assert_eq!(gorder(&g, usize::MAX, 4096), expected);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        assert!(gorder(&g, 5, usize::MAX).is_empty());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_zero_window() {
        let g = path(4);
        let _ = gorder(&g, 0, usize::MAX);
    }
}
