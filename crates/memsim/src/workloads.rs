//! Replay kernels: the memory-access streams of the paper's two hot
//! routines, driven through the simulated hierarchy.
//!
//! The kernels issue the *same address sequence* the real algorithms issue
//! over a CSR laid out by a given ordering, which is exactly what makes
//! cache behaviour ordering-sensitive:
//!
//! - [`replay_louvain_scan`]: Grappolo's hot routine — for every vertex,
//!   scan its neighbors, look up each neighbor's community, and update a
//!   per-vertex community map (the "C++ map" auxiliary structure of §VI-B).
//! - [`replay_rr_sampling`]: Ripples' hot routine — probabilistic reverse
//!   BFS traversals touching offsets, targets, and a visited array (§VI-C).
//!
//! [`replay_louvain_move`] and [`replay_rr_kernel`] replay the same two
//! traversals under the memory layout this workspace's own kernels use (the
//! packed scatter slots of the Louvain move scan, the 8-byte visited stamps
//! of the RR sampler).
//!
//! Array regions are placed in disjoint address ranges mirroring separate
//! allocations.

use crate::hierarchy::Hierarchy;
use reorderlab_graph::Csr;

/// Base address of the CSR offsets array (8 bytes/entry).
const OFFSETS_BASE: u64 = 0x1000_0000_0000;
/// Base address of the CSR targets array (4 bytes/entry).
const TARGETS_BASE: u64 = 0x2000_0000_0000;
/// Base address of the per-vertex community array (4 bytes/entry).
const COMMUNITY_BASE: u64 = 0x3000_0000_0000;
/// Base address of the per-thread community-weight map.
const MAP_BASE: u64 = 0x4000_0000_0000;
/// Base address of the visited bitmap/array (1 byte/entry).
const VISITED_BASE: u64 = 0x5000_0000_0000;

#[inline]
fn offsets_addr(v: u64) -> u64 {
    OFFSETS_BASE + v * 8
}

#[inline]
fn targets_addr(i: u64) -> u64 {
    TARGETS_BASE + i * 4
}

#[inline]
fn community_addr(v: u64) -> u64 {
    COMMUNITY_BASE + v * 4
}

#[inline]
fn visited_addr(v: u64) -> u64 {
    VISITED_BASE + v
}

/// Base address of the packed (stamp, weight) slots (16 bytes/entry).
const PACKED_BASE: u64 = 0x9000_0000_0000;
/// Base address of the sampler's full-size visited stamps (8 bytes/entry).
const SAMPLER_STAMP_BASE: u64 = 0xC000_0000_0000;

/// Replays the address stream of one Louvain move iteration over `graph`
/// *as laid out* (i.e. pass the CSR already permuted by the ordering under
/// study), under the memory layout of the community crate's move scan.
///
/// Per vertex `v`: one offsets load; per neighbor: one targets load, one
/// community load (the ordering-sensitive indirection), and one access to
/// the neighbor community's packed 16-byte (stamp, weight) slot
/// (communities are taken as the initial self-labels, so the slot index is
/// the neighbor id).
pub fn replay_louvain_move(graph: &Csr, hier: &mut Hierarchy) {
    replay_neighbor_scan(graph, hier, |t| PACKED_BASE + t * 16);
}

/// Replays Grappolo's hot routine as the paper profiles it (§VI-B,
/// Figure 10): the per-neighbor accumulator is a per-vertex community map,
/// modeled as one hashed 16-byte access into `map_slots` slots.
pub fn replay_louvain_scan(graph: &Csr, map_slots: u64, hier: &mut Hierarchy) {
    // Map update keyed by the neighbor's community; initially the community
    // of a vertex is itself, so the hash mixes the neighbor id.
    replay_neighbor_scan(graph, hier, |t| MAP_BASE + (splitmix(t) % map_slots.max(1)) * 16);
}

/// The neighbor-community scan both Louvain replays share: offsets, targets
/// and community loads, plus one accumulator access at `accumulator(t)` per
/// neighbor `t`.
fn replay_neighbor_scan(graph: &Csr, hier: &mut Hierarchy, accumulator: impl Fn(u64) -> u64) {
    let n = graph.num_vertices() as u64;
    let offsets = graph.offsets();
    let targets = graph.targets();
    for v in 0..n {
        hier.load(offsets_addr(v));
        let lo = offsets[v as usize] as u64;
        let hi = offsets[v as usize + 1] as u64;
        for i in lo..hi {
            hier.load(targets_addr(i));
            let t = targets[i as usize] as u64;
            hier.load(community_addr(t));
            hier.load(accumulator(t));
        }
    }
}

/// Replays the address stream of `num_sets` IC reverse-BFS samples over
/// `graph` (pass the transpose for directed graphs, already permuted by the
/// ordering under study).
///
/// `labels[v]` is a layout-independent stable id for vertex `v` (pass the
/// inverse permutation when the graph was relabeled, or `0..n` for the
/// natural layout). Roots and per-edge coin flips are hashed from *stable*
/// ids, so every layout replays the exact same logical traversal — only the
/// addresses differ. That is precisely the comparison the paper's Figure 12
/// makes: same work, different placement.
///
/// Per visited vertex: one offsets load; per examined in-edge: one targets
/// load and one visited-array load.
///
/// # Panics
///
/// Panics if `labels` does not cover every vertex or `probability` is not
/// in `\[0, 1\]`.
pub fn replay_rr_sampling(
    graph: &Csr,
    labels: &[u32],
    probability: f64,
    num_sets: usize,
    seed: u64,
    hier: &mut Hierarchy,
) {
    replay_reverse_bfs(graph, labels, probability, num_sets, seed, hier, visited_addr);
}

/// [`replay_rr_sampling`] under the influence crate's sampler layout: the
/// visited check reads one full-size 8-byte epoch stamp per vertex where the
/// paper's model reads a 1-byte visited array. The logical traversal
/// (roots, coins, visit order) is identical, so any counter delta is
/// attributable purely to the layout.
///
/// # Panics
///
/// Panics if `labels` does not cover every vertex or `probability` is not
/// in `\[0, 1\]`.
pub fn replay_rr_kernel(
    graph: &Csr,
    labels: &[u32],
    probability: f64,
    num_sets: usize,
    seed: u64,
    hier: &mut Hierarchy,
) {
    replay_reverse_bfs(graph, labels, probability, num_sets, seed, hier, |t| {
        SAMPLER_STAMP_BASE + t * 8
    });
}

/// The probabilistic reverse BFS both RR replays share; `visited_at(t)` is
/// the address a visited check of vertex `t` loads.
fn replay_reverse_bfs(
    graph: &Csr,
    labels: &[u32],
    probability: f64,
    num_sets: usize,
    seed: u64,
    hier: &mut Hierarchy,
    visited_at: impl Fn(u64) -> u64,
) {
    assert!((0.0..=1.0).contains(&probability), "probability must be in [0, 1]");
    let n = graph.num_vertices();
    assert_eq!(labels.len(), n, "labels must cover every vertex");
    if n == 0 {
        return;
    }
    // stable id -> layout vertex, for picking roots deterministically.
    let mut by_label = vec![0u32; n];
    for (v, &l) in labels.iter().enumerate() {
        by_label[l as usize] = v as u32;
    }
    let offsets = graph.offsets();
    let targets = graph.targets();
    let mut visited = vec![u32::MAX; n]; // epoch-tagged visited array
    for s in 0..num_sets {
        let set_seed = splitmix(seed ^ (s as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let root = by_label[(set_seed % n as u64) as usize];
        let epoch = s as u32;
        visited[root as usize] = epoch;
        let mut frontier = vec![root];
        let mut head = 0usize;
        while head < frontier.len() {
            let v = frontier[head];
            head += 1;
            hier.load(offsets_addr(v as u64));
            let lo = offsets[v as usize];
            let hi = offsets[v as usize + 1];
            #[expect(
                clippy::needless_range_loop,
                reason = "`i` doubles as the simulated address of the adjacency slot"
            )]
            for i in lo..hi {
                hier.load(targets_addr(i as u64));
                let t = targets[i];
                hier.load(visited_at(t as u64));
                if visited[t as usize] != epoch
                    && edge_coin(set_seed, labels[v as usize], labels[t as usize]) < probability
                {
                    visited[t as usize] = epoch;
                    frontier.push(t);
                }
            }
        }
    }
}

/// Base address of the PageRank score arrays (8 bytes/entry).
const SCORES_BASE: u64 = 0x6000_0000_0000;

/// Replays the address stream of one pull-style PageRank iteration over
/// `graph` as laid out: per vertex one offsets load, per in-edge one
/// targets load and one score gather (`scores[neighbor]` — the
/// ordering-sensitive indirection), plus one store-side access to the
/// output slot.
///
/// This is the kernel the lightweight-reordering literature (\[2, 12\])
/// profiles; exposed so the prior-work baseline suite can be compared on
/// the same simulated hierarchy as the paper's two applications.
pub fn replay_pagerank_iteration(graph: &Csr, hier: &mut Hierarchy) {
    let n = graph.num_vertices() as u64;
    let offsets = graph.offsets();
    let targets = graph.targets();
    for v in 0..n {
        hier.load(offsets_addr(v));
        let lo = offsets[v as usize];
        let hi = offsets[v as usize + 1];
        #[expect(
            clippy::needless_range_loop,
            reason = "`i` doubles as the simulated address of the adjacency slot"
        )]
        for i in lo..hi {
            hier.load(targets_addr(i as u64));
            let t = targets[i] as u64;
            hier.load(SCORES_BASE + t * 8); // gather scores[neighbor]
        }
        hier.load(SCORES_BASE + (n + v) * 8); // write next[v] (second array)
    }
}

/// A uniform `[0, 1)` coin for the *undirected* edge `{a, b}` in set
/// `set_seed`, independent of traversal direction and layout.
fn edge_coin(set_seed: u64, a: u32, b: u32) -> f64 {
    let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
    let h = splitmix(set_seed ^ (lo << 32 | hi));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64 finalizer used as the map hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use reorderlab_graph::{GraphBuilder, Permutation};

    fn ring(n: usize) -> Csr {
        let mut b = GraphBuilder::undirected(n);
        for i in 0..n as u32 {
            b = b.edge(i, (i + 1) % n as u32);
        }
        b.build().unwrap()
    }

    #[test]
    fn louvain_replay_load_count() {
        let g = ring(100);
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        replay_louvain_scan(&g, 4096, &mut h);
        // 1 offsets load per vertex + 3 loads per arc.
        assert_eq!(h.loads(), 100 + 3 * g.num_arcs() as u64);
    }

    #[test]
    fn local_ordering_beats_shuffled_on_community_loads() {
        // A large ring: natural layout accesses community[t] for t = v±1
        // (sequential), while a shuffled layout scatters them.
        let g = ring(20_000);
        let shuffled = {
            // Deterministic shuffle via an LCG-built permutation.
            let n = g.num_vertices();
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut x = 99u64;
            for i in (1..n).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(i, (x >> 33) as usize % (i + 1));
            }
            g.permuted(&Permutation::from_order(&order).unwrap()).unwrap()
        };
        let mut h_nat = Hierarchy::new(HierarchyConfig::tiny());
        replay_louvain_scan(&g, 4096, &mut h_nat);
        let mut h_shuf = Hierarchy::new(HierarchyConfig::tiny());
        replay_louvain_scan(&shuffled, 4096, &mut h_shuf);
        let nat = h_nat.report();
        let shuf = h_shuf.report();
        assert!(
            nat.avg_latency < shuf.avg_latency,
            "natural ring {} vs shuffled {}",
            nat.avg_latency,
            shuf.avg_latency
        );
    }

    #[test]
    fn rr_replay_touches_memory() {
        let g = ring(500);
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        let labels: Vec<u32> = (0..500).collect();
        replay_rr_sampling(&g, &labels, 0.3, 20, 7, &mut h);
        assert!(h.loads() > 20, "each sample must load at least the root's row");
    }

    #[test]
    fn rr_replay_deterministic() {
        let g = ring(300);
        let mut a = Hierarchy::new(HierarchyConfig::tiny());
        let mut b = Hierarchy::new(HierarchyConfig::tiny());
        let labels: Vec<u32> = (0..300).collect();
        replay_rr_sampling(&g, &labels, 0.25, 10, 3, &mut a);
        replay_rr_sampling(&g, &labels, 0.25, 10, 3, &mut b);
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn rr_replay_zero_probability_touches_roots_only() {
        let g = ring(100);
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        let labels: Vec<u32> = (0..100).collect();
        replay_rr_sampling(&g, &labels, 0.0, 5, 1, &mut h);
        // Per sample: 1 offsets load + 2 arcs * (target + visited) loads.
        assert_eq!(h.loads(), 5 * (1 + 2 * 2));
    }

    #[test]
    fn rr_replay_logical_traversal_is_layout_invariant() {
        // Under any relabeling, the replay must perform the *same logical
        // work* (roots and coins hash stable ids), so the load count is
        // identical across layouts — only the addresses (and thus cache
        // behaviour) change.
        let g = ring(500);
        let labels_nat: Vec<u32> = (0..500).collect();
        let mut h_nat = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_sampling(&g, &labels_nat, 0.4, 25, 9, &mut h_nat);

        let mut order: Vec<u32> = (0..500u32).collect();
        let mut x = 7u64;
        for i in (1..order.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (x >> 33) as usize % (i + 1));
        }
        let pi = Permutation::from_order(&order).unwrap();
        let shuffled = g.permuted(&pi).unwrap();
        // Vertex v of the shuffled graph is original vertex order[v].
        let labels_shuf: Vec<u32> = pi.to_order();
        let mut h_shuf = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_sampling(&shuffled, &labels_shuf, 0.4, 25, 9, &mut h_shuf);

        assert_eq!(h_nat.loads(), h_shuf.loads(), "identical logical traversal");
    }

    #[test]
    fn edge_coin_symmetric_and_uniformish() {
        assert_eq!(edge_coin(5, 3, 9), edge_coin(5, 9, 3));
        let mean: f64 = (0..1000).map(|i| edge_coin(42, i, i + 1)).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "coin mean {mean} should be near 0.5");
    }

    #[test]
    fn pagerank_replay_load_count() {
        let g = ring(50);
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        replay_pagerank_iteration(&g, &mut h);
        // Per vertex: offsets + output store; per arc: target + gather.
        assert_eq!(h.loads(), 2 * 50 + 2 * g.num_arcs() as u64);
    }

    #[test]
    fn pagerank_replay_prefers_local_layout() {
        let g = ring(20_000);
        let shuffled = {
            let n = g.num_vertices();
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut x = 5u64;
            for i in (1..n).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(i, (x >> 33) as usize % (i + 1));
            }
            g.permuted(&Permutation::from_order(&order).unwrap()).unwrap()
        };
        let mut a = Hierarchy::new(HierarchyConfig::tiny());
        replay_pagerank_iteration(&g, &mut a);
        let mut b = Hierarchy::new(HierarchyConfig::tiny());
        replay_pagerank_iteration(&shuffled, &mut b);
        assert!(a.report().avg_latency < b.report().avg_latency);
    }

    #[test]
    fn empty_graph_replays() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_sampling(&g, &[], 0.5, 10, 0, &mut h);
        replay_louvain_scan(&g, 64, &mut h);
        replay_pagerank_iteration(&g, &mut h);
        replay_louvain_move(&g, &mut h);
        replay_rr_kernel(&g, &[], 0.5, 10, 0, &mut h);
        assert_eq!(h.loads(), 0);
    }

    #[test]
    fn louvain_move_load_count() {
        let g = ring(100);
        let mut h = Hierarchy::new(HierarchyConfig::tiny());
        replay_louvain_move(&g, &mut h);
        // 1 offsets load per vertex + 3 per arc (target, community, one
        // 16-byte packed slot).
        assert_eq!(h.loads(), 100 + 3 * g.num_arcs() as u64);
    }

    #[test]
    fn rr_kernel_replay_deterministic_and_accounted() {
        let g = ring(400);
        let labels: Vec<u32> = (0..400).collect();
        // p = 0: only roots visit, so per sample the stream is exactly
        // 1 offsets load + 2 checks of (targets + visited stamps).
        let mut classic = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_kernel(&g, &labels, 0.0, 8, 5, &mut classic);
        assert_eq!(classic.loads(), 8 * (1 + 2 * 2));
        // Re-running replays the identical stream.
        let mut again = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_kernel(&g, &labels, 0.0, 8, 5, &mut again);
        assert_eq!(classic.report(), again.report());
    }

    #[test]
    fn rr_kernel_traversal_matches_paper_replay() {
        // The kernel replay performs the same logical traversal as
        // `replay_rr_sampling`: same roots, same coins, so the offsets and
        // targets portions of the stream are identical and only the
        // visited-stamp addresses differ. Load counts match exactly
        // (1 visited access per check each).
        let g = ring(600);
        let labels: Vec<u32> = (0..600).collect();
        let mut paper = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_sampling(&g, &labels, 0.35, 20, 11, &mut paper);
        let mut classic = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_kernel(&g, &labels, 0.35, 20, 11, &mut classic);
        assert_eq!(paper.loads(), classic.loads());
        assert_ne!(paper.report().level_hits, classic.report().level_hits);
    }

    #[test]
    fn degenerate_suite_replays_stay_finite() {
        // Satellite regression: zero-load and near-zero-load replays (empty
        // and edgeless graphs) must report finite metrics, never NaN.
        for case in reorderlab_datasets::degenerate_suite() {
            let g = &case.graph;
            let labels: Vec<u32> = (0..g.num_vertices() as u32).collect();
            let mut h = Hierarchy::new(HierarchyConfig::tiny());
            replay_louvain_scan(g, 64, &mut h);
            replay_louvain_move(g, &mut h);
            replay_pagerank_iteration(g, &mut h);
            if g.num_vertices() > 0 {
                replay_rr_kernel(g, &labels, 0.5, 4, 1, &mut h);
            }
            let r = h.report();
            assert!(r.avg_latency.is_finite(), "{}: avg_latency", case.name);
            assert!(r.bound.iter().all(|b| b.is_finite()), "{}: bound", case.name);
            assert!(r.l1_hit_rate().is_finite(), "{}", case.name);
            assert!(r.l1_hit_rate().is_finite(), "{}", case.name);
            let bound_sum: f64 = r.bound.iter().sum();
            assert!(bound_sum == 0.0 || (bound_sum - 1.0).abs() < 1e-9, "{}", case.name);
        }
    }
}
