//! Direction-optimizing BFS (Beamer's push/pull switching) — the standard
//! systems optimization for BFS on low-diameter skewed graphs, included in
//! the kernel suite because its *pull* phase (scan every unvisited vertex's
//! neighbor list until an active parent is found) is among the most
//! layout-sensitive access patterns in graph processing.

use reorderlab_graph::Csr;

/// Counters from a direction-optimizing BFS run.
#[derive(Debug, Clone, PartialEq)]
pub struct DoBfsResult {
    /// `distance[v]` from the source (`u32::MAX` if unreachable).
    pub distance: Vec<u32>,
    /// Vertices reached (including the source).
    pub reached: usize,
    /// Edges examined in push (top-down) steps.
    pub push_edges: u64,
    /// Edges examined in pull (bottom-up) steps.
    pub pull_edges: u64,
    /// Number of levels processed bottom-up.
    pub pull_levels: usize,
}

/// Tuning for the push/pull switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoBfsConfig {
    /// Switch to pull when the frontier's out-edge count exceeds
    /// `remaining edges / alpha` (Beamer's α, default 15).
    pub alpha: f64,
    /// Switch back to push when the frontier shrinks below
    /// `n / beta` vertices (Beamer's β, default 18).
    pub beta: f64,
}

impl Default for DoBfsConfig {
    fn default() -> Self {
        DoBfsConfig { alpha: 15.0, beta: 18.0 }
    }
}

/// Runs a direction-optimizing BFS from `source` on an undirected graph.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Examples
///
/// ```
/// use reorderlab_datasets::star;
/// use reorderlab_kernels::{direction_optimizing_bfs, DoBfsConfig};
///
/// let g = star(1000);
/// let r = direction_optimizing_bfs(&g, 0, &DoBfsConfig::default());
/// assert_eq!(r.reached, 1000);
/// assert!(r.pull_levels > 0, "a star's huge frontier should trigger pull");
/// ```
pub fn direction_optimizing_bfs(graph: &Csr, source: u32, config: &DoBfsConfig) -> DoBfsResult {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of bounds");
    let mut distance = vec![u32::MAX; n];
    distance[source as usize] = 0;
    let mut frontier: Vec<u32> = vec![source];
    let mut depth = 0u32;
    let mut reached = 1usize;
    let mut push_edges = 0u64;
    let mut pull_edges = 0u64;
    let mut pull_levels = 0usize;
    let total_arcs = graph.num_arcs() as u64;
    let mut scanned = 0u64;

    while !frontier.is_empty() {
        depth += 1;
        // Heuristic: edges the frontier would push vs edges remaining.
        let frontier_edges: u64 = frontier.iter().map(|&v| graph.degree(v) as u64).sum();
        let use_pull = config.alpha > 0.0
            && frontier_edges as f64 > (total_arcs.saturating_sub(scanned)) as f64 / config.alpha
            && frontier.len() as f64 > n as f64 / config.beta.max(1.0) / 8.0;

        let mut next: Vec<u32> = Vec::new();
        if use_pull {
            pull_levels += 1;
            // Bottom-up: every unvisited vertex looks for a parent at the
            // current depth; early exit on the first hit.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            for v in 0..n as u32 {
                if distance[v as usize] != u32::MAX {
                    continue;
                }
                for &u in graph.neighbors(v) {
                    pull_edges += 1;
                    if distance[u as usize] == depth - 1 {
                        distance[v as usize] = depth;
                        next.push(v);
                        break;
                    }
                }
            }
        } else {
            // Top-down push.
            for &v in &frontier {
                for &u in graph.neighbors(v) {
                    push_edges += 1;
                    if distance[u as usize] == u32::MAX {
                        distance[u as usize] = depth;
                        next.push(u);
                    }
                }
            }
        }
        scanned += frontier_edges;
        reached += next.len();
        frontier = next;
    }
    DoBfsResult { distance, reached, push_edges, pull_edges, pull_levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::bfs_sssp;
    use reorderlab_datasets::{barabasi_albert, grid2d, path, star};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn distances_match_plain_bfs() {
        for g in [grid2d(8, 8), barabasi_albert(300, 3, 5), path(40)] {
            let plain = bfs_sssp(&g, 0);
            let fancy = direction_optimizing_bfs(&g, 0, &DoBfsConfig::default());
            assert_eq!(plain.reached, fancy.reached);
            for v in 0..g.num_vertices() {
                let a = plain.distance[v];
                let b = fancy.distance[v];
                if a.is_finite() {
                    assert_eq!(a as u32, b, "vertex {v}");
                } else {
                    assert_eq!(b, u32::MAX, "vertex {v}");
                }
            }
        }
    }

    #[test]
    fn star_uses_pull_and_saves_edges() {
        let g = star(5_000);
        let r = direction_optimizing_bfs(&g, 0, &DoBfsConfig::default());
        assert!(r.pull_levels >= 1, "star frontier covers all edges: pull must fire");
        // Pull from the leaves: each finds the hub in one probe.
        assert!(r.pull_edges <= 5_000);
    }

    #[test]
    fn path_never_pulls() {
        let g = path(200);
        let r = direction_optimizing_bfs(&g, 0, &DoBfsConfig::default());
        assert_eq!(r.pull_levels, 0, "a width-1 frontier should always push");
        assert_eq!(r.reached, 200);
    }

    #[test]
    fn alpha_zero_disables_pull() {
        let g = star(1_000);
        let r = direction_optimizing_bfs(&g, 0, &DoBfsConfig { alpha: 0.0, beta: 18.0 });
        assert_eq!(r.pull_levels, 0);
        assert_eq!(r.reached, 1_000);
    }

    #[test]
    fn disconnected_unreached_marked() {
        let g = GraphBuilder::undirected(5).edge(0, 1).build().unwrap();
        let r = direction_optimizing_bfs(&g, 0, &DoBfsConfig::default());
        assert_eq!(r.reached, 2);
        assert_eq!(r.distance[3], u32::MAX);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_bad_source() {
        let g = path(3);
        let _ = direction_optimizing_bfs(&g, 7, &DoBfsConfig::default());
    }
}
