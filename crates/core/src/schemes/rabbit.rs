//! Rabbit Order (paper §III-D, Arai et al. \[1\]): community detection by
//! incremental aggregation, followed by hierarchical DFS numbering.
//!
//! Vertices are scanned in increasing degree order; each is merged into the
//! neighboring community with the largest (positive) modularity gain,
//! building a dendrogram of merges. Ranks are then assigned by depth-first
//! traversal of each dendrogram tree, so vertices merged together early —
//! the tightest sub-communities — receive the closest ids, mapping the
//! community hierarchy onto the cache hierarchy.
//!
//! Neighbor-community weights are aggregated with an epoch-stamped scatter
//! array in *first-touch (adjacency) order* rather than a `HashMap`. Besides
//! being faster, this removes a latent nondeterminism: the merge tie-break
//! compares gains within an epsilon, so the candidate iteration order is
//! observable, and `std::collections::HashMap` iterates in a per-process
//! randomized order. The scan is serial: each merge decision reads the
//! union-find and the volumes the merges before it left.

use reorderlab_graph::{Csr, Permutation, UnionFind};

/// Scatter scratch for aggregating edge weight per neighboring community.
struct WsumScratch {
    acc: Vec<f64>,
    stamp: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
}

impl WsumScratch {
    fn new(n: usize) -> Self {
        WsumScratch { acc: vec![0.0; n], stamp: vec![0; n], epoch: 0, touched: Vec::new() }
    }
}

/// The community vertex `v` should merge into under the current community
/// state: the neighboring one with the largest positive modularity gain.
/// Candidate communities are visited in first-touch (adjacency) order, which
/// fixes the epsilon tie-break order deterministically.
fn best_merge(
    graph: &Csr,
    v: u32,
    uf: &UnionFind,
    tot: &[f64],
    m2: f64,
    s: &mut WsumScratch,
) -> Option<u32> {
    let a = uf.root(v);
    s.epoch += 1;
    s.touched.clear();
    for (u, w) in graph.weighted_neighbors(v) {
        if u == v {
            continue;
        }
        let b = uf.root(u);
        if b == a {
            continue;
        }
        if s.stamp[b as usize] != s.epoch {
            s.stamp[b as usize] = s.epoch;
            s.acc[b as usize] = w;
            s.touched.push(b);
        } else {
            s.acc[b as usize] += w;
        }
    }
    // Best positive modularity merge gain:
    //   ΔQ(a, b) = 2 [ w_ab / 2m − tot_a · tot_b / (2m)² ]
    let mut best: Option<(f64, u32)> = None;
    for &b in &s.touched {
        let gain = 2.0 * (s.acc[b as usize] / m2 - tot[a as usize] * tot[b as usize] / (m2 * m2));
        if gain > 1e-15 {
            let better = match best {
                None => true,
                Some((bg, bb)) => gain > bg + 1e-18 || (gain >= bg - 1e-18 && b < bb),
            };
            if better {
                best = Some((gain, b));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Merges `v`'s community into community `b`, maintaining the dendrogram.
fn merge_into(
    v: u32,
    b: u32,
    uf: &mut UnionFind,
    tot: &mut [f64],
    tree_root: &mut [u32],
    children: &mut [Vec<u32>],
) {
    let a = uf.find(v);
    let (ra, rb) = (tree_root[a as usize], tree_root[b as usize]);
    let merged_tot = tot[a as usize] + tot[b as usize];
    uf.union(a, b);
    let new_root = uf.find(a);
    tot[new_root as usize] = merged_tot;
    // v's community tree hangs under the absorbing community's root.
    children[rb as usize].push(ra);
    tree_root[new_root as usize] = rb;
}

/// DFS numbering: every final community is one dendrogram tree; traverse
/// each tree (roots in increasing id order) emitting vertices preorder.
fn dendrogram_order(
    n: usize,
    uf: &UnionFind,
    tree_root: &[u32],
    children: &[Vec<u32>],
) -> Permutation {
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut is_root = vec![false; n];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    for v in 0..n as u32 {
        let r = uf.root(v);
        is_root[tree_root[r as usize] as usize] = true;
    }
    let mut stack: Vec<u32> = Vec::new();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    for v in 0..n as u32 {
        if !is_root[v as usize] {
            continue;
        }
        stack.push(v);
        while let Some(x) = stack.pop() {
            order.push(x);
            // Children pushed in reverse so earlier merges are visited
            // first (they are the tighter sub-communities).
            for &c in children[x as usize].iter().rev() {
                stack.push(c);
            }
        }
    }
    super::order_permutation(&order)
}

/// Computes a Rabbit Order permutation.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::rabbit_order;
/// use reorderlab_datasets::clique_chain;
///
/// let g = clique_chain(3, 6);
/// let pi = rabbit_order(&g);
/// // Each planted clique occupies a contiguous rank range.
/// let ranks: Vec<u32> = (0..6).map(|v| pi.rank(v)).collect();
/// assert!(ranks.iter().max().unwrap() - ranks.iter().min().unwrap() == 5);
/// ```
pub fn rabbit_order(graph: &Csr) -> Permutation {
    let n = graph.num_vertices();
    if n == 0 {
        return Permutation::identity(0);
    }
    // Louvain-style degree sums, their total, and the increasing-degree
    // scan schedule.
    let mut tot = vec![0.0f64; n];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    for v in 0..n as u32 {
        for (u, w) in graph.weighted_neighbors(v) {
            tot[v as usize] += if u == v { 2.0 * w } else { w };
        }
    }
    let m2: f64 = tot.iter().sum();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut scan: Vec<u32> = (0..n as u32).collect();
    scan.sort_unstable_by_key(|&v| ((graph.degree(v) as u64) << 32) | u64::from(v));

    let mut uf = UnionFind::new(n);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut tree_root: Vec<u32> = (0..n as u32).collect();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut scratch = WsumScratch::new(n);
    for &v in &scan {
        if let Some(b) = best_merge(graph, v, &uf, &tot, m2, &mut scratch) {
            merge_into(v, b, &mut uf, &mut tot, &mut tree_root, &mut children);
        }
    }
    dendrogram_order(n, &uf, &tree_root, &children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::gap_measures;
    use crate::schemes::random_order;
    use reorderlab_datasets::{barabasi_albert, clique_chain, grid2d, path};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn valid_permutation() {
        let g = barabasi_albert(300, 3, 11);
        let pi = rabbit_order(&g);
        assert!(Permutation::from_ranks(pi.ranks().to_vec()).is_ok());
    }

    #[test]
    fn planted_cliques_are_contiguous() {
        let g = clique_chain(5, 7);
        let pi = rabbit_order(&g);
        for c in 0..5u32 {
            let ranks: Vec<u32> = (0..7).map(|i| pi.rank(c * 7 + i)).collect();
            let span = ranks.iter().max().unwrap() - ranks.iter().min().unwrap();
            assert_eq!(span, 6, "clique {c} must occupy a contiguous range");
        }
    }

    #[test]
    fn improves_avg_gap_over_random_on_shuffled_grid() {
        let g0 = grid2d(12, 12);
        let g = g0.permuted(&random_order(&g0, 17)).unwrap();
        let rabbit = gap_measures(&g, &rabbit_order(&g)).avg_gap;
        let random = gap_measures(&g, &random_order(&g, 4)).avg_gap;
        assert!(rabbit < random, "rabbit {rabbit} vs random {random}");
    }

    #[test]
    fn handles_disconnected_graph() {
        let g =
            GraphBuilder::undirected(9).edges([(0, 1), (1, 2), (4, 5), (7, 8)]).build().unwrap();
        let pi = rabbit_order(&g);
        assert_eq!(pi.len(), 9);
    }

    #[test]
    fn deterministic() {
        let g = barabasi_albert(150, 2, 3);
        assert_eq!(rabbit_order(&g), rabbit_order(&g));
    }

    #[test]
    fn path_stays_local() {
        let g = path(40);
        let m = gap_measures(&g, &rabbit_order(&g));
        assert!(m.avg_gap < 6.0, "path under rabbit should stay local, ξ̂ = {}", m.avg_gap);
    }

    #[test]
    fn tiny_graphs() {
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        assert!(rabbit_order(&g0).is_empty());
        let g1 = GraphBuilder::undirected(1).build().unwrap();
        assert!(rabbit_order(&g1).is_identity());
        let g2 = GraphBuilder::undirected(2).edge(0, 1).build().unwrap();
        assert_eq!(rabbit_order(&g2).len(), 2);
    }

    #[test]
    fn edgeless_graph_identity() {
        let g = GraphBuilder::undirected(5).build().unwrap();
        assert!(rabbit_order(&g).is_identity());
    }

    #[test]
    fn batch_spanning_scan_matches_serial() {
        // A thousand-vertex power-law graph, hubs scanned last against
        // communities hundreds of merges old: the scan under a 2- and a
        // 7-worker pool must repeat the one-worker run.
        let g = barabasi_albert(1101, 3, 5);
        reorderlab_graph::assert_thread_invariant(|| rabbit_order(&g));
    }
}
