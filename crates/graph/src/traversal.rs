//! Graph traversals: BFS, DFS, level structures, and pseudo-peripheral
//! vertex search.
//!
//! These are the building blocks of several reordering schemes — RCM is an
//! interleaved BFS/DFS with degree tie-breaking, SlashBurn peels hubs between
//! component searches, and the influence-maximization sampler runs stochastic
//! reverse BFS.
//!
//! Each traversal is one serial body. A BFS level costs a few operations per
//! arc, so a parallel per-level gather paid more in spawns and in its
//! gather-then-commit double pass than it saved, and lost to this loop at
//! two threads (DESIGN.md §2).

use crate::csr::Csr;
use std::collections::VecDeque;

/// Breadth-first iterator over the vertices reachable from a source.
///
/// Yields each reachable vertex exactly once, in BFS order, starting with the
/// source itself.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use reorderlab_graph::{GraphBuilder, Bfs};
/// let g = GraphBuilder::undirected(4).edge(0, 1).edge(1, 2).edge(0, 3).build()?;
/// let order: Vec<u32> = Bfs::new(&g, 0).collect();
/// assert_eq!(order, vec![0, 1, 3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Bfs<'a> {
    graph: &'a Csr,
    queue: VecDeque<u32>,
    visited: Vec<bool>,
}

impl<'a> Bfs<'a> {
    /// Starts a BFS from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn new(graph: &'a Csr, source: u32) -> Self {
        assert!((source as usize) < graph.num_vertices(), "BFS source out of bounds");
        let mut visited = vec![false; graph.num_vertices()];
        visited[source as usize] = true;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        Bfs { graph, queue, visited }
    }
}

impl Iterator for Bfs<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let v = self.queue.pop_front()?;
        for &w in self.graph.neighbors(v) {
            if !self.visited[w as usize] {
                self.visited[w as usize] = true;
                self.queue.push_back(w);
            }
        }
        Some(v)
    }
}

/// The rooted level structure of a BFS: which level each reachable vertex
/// occupies, plus the vertices grouped per level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LevelStructure {
    /// `levels[v]` is the BFS depth of `v`, or `u32::MAX` if unreachable.
    pub levels: Vec<u32>,
    /// Vertices grouped by level; `tiers[d]` lists the vertices at depth `d`.
    pub tiers: Vec<Vec<u32>>,
}

impl LevelStructure {
    /// Eccentricity of the root within its component: the index of the last
    /// non-empty level.
    pub(crate) fn eccentricity(&self) -> usize {
        self.tiers.len().saturating_sub(1)
    }
}

/// Computes the BFS level structure rooted at `source`: one FIFO pass that
/// appends each vertex's unvisited neighbors, in adjacency order, to the
/// next level.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub(crate) fn bfs_levels(graph: &Csr, source: u32) -> LevelStructure {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "bfs_levels source out of bounds");
    let mut levels = vec![u32::MAX; n];
    let mut tiers: Vec<Vec<u32>> = Vec::new();
    levels[source as usize] = 0;
    let mut frontier = vec![source];
    while !frontier.is_empty() {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let depth = tiers.len() as u32;
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in graph.neighbors(v) {
                if levels[w as usize] == u32::MAX {
                    levels[w as usize] = depth + 1;
                    next.push(w);
                }
            }
        }
        tiers.push(frontier);
        frontier = next;
    }
    LevelStructure { levels, tiers }
}

/// BFS scratch that the root searches of one ordering run share, so that a
/// search costs what its component costs, not what the graph costs: depths
/// are written into one `n`-sized array and only the entries a search
/// touched are reset after it.
#[derive(Debug)]
pub struct LevelScratch {
    /// BFS depth per vertex; all `u32::MAX` between searches.
    levels: Vec<u32>,
    /// The vertices of the running search in discovery order, level by level.
    reached: Vec<u32>,
}

impl LevelScratch {
    /// Scratch for graphs of `n` vertices; a search on a larger graph grows
    /// it.
    pub fn new(n: usize) -> Self {
        LevelScratch { levels: vec![u32::MAX; n], reached: Vec::new() }
    }
}

/// Finds a pseudo-peripheral vertex of the component containing `start`,
/// using the classic George–Liu iteration: repeatedly move to a
/// minimum-degree vertex in the last BFS level until the eccentricity stops
/// growing.
///
/// RCM quality is sensitive to the starting vertex; starting from a
/// pseudo-peripheral vertex yields narrow level structures and therefore low
/// bandwidth.
///
/// # Panics
///
/// Panics if `start` is out of bounds.
pub fn pseudo_peripheral(graph: &Csr, start: u32) -> u32 {
    pseudo_peripheral_in(graph, start, &mut LevelScratch::new(graph.num_vertices()))
}

/// [`pseudo_peripheral`] on a caller-held scratch, for callers that search
/// once per component. Each search runs under a `pseudo_peripheral` span
/// and adds one to the `pseudo_peripheral/runs` counter of the installed
/// recorder.
///
/// # Panics
///
/// Panics if `start` is out of bounds.
pub fn pseudo_peripheral_in(graph: &Csr, start: u32, scratch: &mut LevelScratch) -> u32 {
    let _span = reorderlab_trace::span("pseudo_peripheral");
    reorderlab_trace::counter("pseudo_peripheral/runs", 1);
    let n = graph.num_vertices();
    assert!((start as usize) < n, "pseudo_peripheral start out of bounds");
    // The scratch is caller-built and may come from a smaller graph.
    if scratch.levels.len() < n {
        scratch.levels.resize(n, u32::MAX);
    }
    // An isolated vertex is its own component and its own periphery.
    if graph.degree(start) == 0 {
        return start;
    }
    let mut current = start;
    let (mut ecc, mut candidate) = bfs_summary(graph, current, scratch);
    loop {
        if candidate == current {
            return current;
        }
        let (next_ecc, next_candidate) = bfs_summary(graph, candidate, scratch);
        if next_ecc > ecc {
            current = candidate;
            ecc = next_ecc;
            candidate = next_candidate;
        } else {
            return candidate;
        }
    }
}

/// One George–Liu step's worth of BFS, reduced to what [`pseudo_peripheral`]
/// actually consumes: the root's eccentricity and the min-(degree, id)
/// vertex of the deepest level. Because only level *sets* matter — never
/// discovery order — the traversal is free to run direction-optimized
/// (Beamer-style): top-down while the frontier is narrow, bottom-up over
/// the unvisited vertices once the frontier's out-degree dominates, which
/// skips most edge inspections on small-diameter graphs.
fn bfs_summary(graph: &Csr, source: u32, scratch: &mut LevelScratch) -> (usize, u32) {
    let n = graph.num_vertices();
    let LevelScratch { levels, reached } = scratch;
    levels[source as usize] = 0;
    reached.push(source);
    // The current level is `reached[level_start..level_end]`.
    let (mut level_start, mut level_end) = (0usize, 1usize);
    let mut depth = 0u32;
    // Bottom-up is only valid when the adjacency is symmetric.
    let bottom_up_ok = !graph.is_directed();
    // Degree mass still unvisited, for the direction heuristic.
    let mut unvisited_deg = graph.num_arcs() as u64;

    loop {
        let frontier_deg: u64 =
            reached[level_start..level_end].iter().map(|&v| graph.degree(v) as u64).sum();
        unvisited_deg = unvisited_deg.saturating_sub(frontier_deg);
        if bottom_up_ok && frontier_deg * 4 > unvisited_deg {
            // Bottom-up: each unvisited vertex probes its neighbors for a
            // parent in the current level and exits at the first hit.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            for v in 0..n as u32 {
                if levels[v as usize] != u32::MAX {
                    continue;
                }
                for &u in graph.neighbors(v) {
                    if levels[u as usize] == depth {
                        levels[v as usize] = depth + 1;
                        reached.push(v);
                        break;
                    }
                }
            }
        } else {
            for i in level_start..level_end {
                for &u in graph.neighbors(reached[i]) {
                    if levels[u as usize] == u32::MAX {
                        levels[u as usize] = depth + 1;
                        reached.push(u);
                    }
                }
            }
        }
        if reached.len() == level_end {
            break;
        }
        (level_start, level_end) = (level_end, reached.len());
        depth += 1;
    }
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: the deepest BFS level always holds at least the search source"
    )]
    let deepest = reached[level_start..level_end]
        .iter()
        .copied()
        .min_by_key(|&v| (graph.degree(v), v))
        .expect("deepest level holds at least the source");
    for v in reached.drain(..) {
        levels[v as usize] = u32::MAX;
    }
    (depth as usize, deepest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path(n: usize) -> Csr {
        GraphBuilder::undirected(n).edges((0..n as u32 - 1).map(|i| (i, i + 1))).build().unwrap()
    }

    /// Reference implementation of [`pseudo_peripheral`] on top of the full
    /// [`bfs_levels`] level structure: the oracle for the
    /// direction-optimizing summary BFS, which must always return the same
    /// vertex.
    fn pseudo_peripheral_serial(graph: &Csr, start: u32) -> u32 {
        let mut current = start;
        let mut ls = bfs_levels(graph, current);
        let mut ecc = ls.eccentricity();
        loop {
            let last = match ls.tiers.last() {
                Some(t) if !t.is_empty() => t,
                _ => return current,
            };
            // Min-(degree, id) vertex in the deepest level — an order-free
            // rule, so any traversal producing the same level *sets* agrees.
            let candidate =
                *last.iter().min_by_key(|&&v| (graph.degree(v), v)).expect("non-empty level");
            if candidate == current {
                return current;
            }
            let next_ls = bfs_levels(graph, candidate);
            let next_ecc = next_ls.eccentricity();
            if next_ecc > ecc {
                current = candidate;
                ls = next_ls;
                ecc = next_ecc;
            } else {
                return candidate;
            }
        }
    }

    #[test]
    fn bfs_visits_reachable_once() {
        let g = GraphBuilder::undirected(6)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 3)
            .edge(4, 5)
            .build()
            .unwrap();
        let order: Vec<u32> = Bfs::new(&g, 0).collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn levels_on_path() {
        let g = path(5);
        let ls = bfs_levels(&g, 0);
        assert_eq!(ls.levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(ls.eccentricity(), 4);
        assert!(ls.tiers.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn levels_unreachable_marked() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        let ls = bfs_levels(&g, 0);
        assert_eq!(ls.levels[2], u32::MAX);
        assert_eq!(ls.tiers.concat(), vec![0, 1]);
    }

    #[test]
    fn pseudo_peripheral_on_path_is_endpoint() {
        let g = path(7);
        let p = pseudo_peripheral(&g, 3); // start in the middle
        assert!(p == 0 || p == 6, "expected an endpoint, got {p}");
    }

    #[test]
    fn pseudo_peripheral_on_star_reaches_leaf() {
        let g = GraphBuilder::undirected(5).edges((1..5).map(|i| (0, i))).build().unwrap();
        let p = pseudo_peripheral(&g, 0);
        assert_ne!(p, 0, "a leaf is more peripheral than the hub");
    }

    #[test]
    fn pseudo_peripheral_isolated_vertex() {
        let g = GraphBuilder::undirected(2).build().unwrap();
        assert_eq!(pseudo_peripheral(&g, 1), 1);
    }

    #[test]
    fn levels_match_serial_oracle() {
        // Dense-ish random-looking graph exercising duplicate candidates.
        let n = 600u32;
        let g = GraphBuilder::undirected(n as usize)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .edges((0..n).map(|i| (i, (i.wrapping_mul(7) + 3) % n)))
            .build()
            .unwrap();
        let got = crate::determinism::assert_thread_invariant(|| bfs_levels(&g, 5));
        // The levels, read in order, are the FIFO queue's visit sequence.
        let fifo: Vec<u32> = Bfs::new(&g, 5).collect();
        assert_eq!(got.tiers.concat(), fifo);
        for (depth, tier) in got.tiers.iter().enumerate() {
            assert!(tier.iter().all(|&v| got.levels[v as usize] == depth as u32));
        }
    }

    #[test]
    fn pseudo_peripheral_matches_serial_oracle() {
        // Dense enough that the direction-optimizing summary BFS flips to
        // bottom-up mid-traversal, plus a sparse ring keeping depth > 1.
        let n = 400u32;
        let g = GraphBuilder::undirected(n as usize)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .edges((0..n).map(|i| (i, (i.wrapping_mul(13) + 5) % n)))
            .edges((0..n / 2).map(|i| (i, (i.wrapping_mul(29) + 11) % n)))
            .build()
            .unwrap();
        for start in [0u32, 7, 123, n - 1] {
            let got = crate::determinism::assert_thread_invariant(|| pseudo_peripheral(&g, start));
            assert_eq!(got, pseudo_peripheral_serial(&g, start), "start {start}");
        }
    }

    #[test]
    fn pseudo_peripheral_matches_serial_oracle_on_directed() {
        // Directed adjacency forbids the bottom-up step; the top-down
        // summary must still agree with the level-structure oracle.
        let n = 120u32;
        let g = GraphBuilder::directed(n as usize)
            .edges((0..n - 1).map(|i| (i, i + 1)))
            .edges((0..n).step_by(3).map(|i| (i, (i + 7) % n)))
            .build()
            .unwrap();
        for start in [0u32, 40, 119] {
            assert_eq!(
                pseudo_peripheral(&g, start),
                pseudo_peripheral_serial(&g, start),
                "start {start}"
            );
        }
    }

    #[test]
    fn pseudo_peripheral_matches_serial_oracle_on_disconnected() {
        let g = GraphBuilder::undirected(9)
            .edges([(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)])
            .build()
            .unwrap();
        for start in 0..9u32 {
            assert_eq!(pseudo_peripheral(&g, start), pseudo_peripheral_serial(&g, start));
        }
    }

    #[test]
    fn shared_scratch_is_clean_between_searches() {
        // Components of every kind on one scratch: two paths, an isolated
        // vertex, a self-loop-only vertex, and a clique dense enough for
        // the bottom-up step.
        let g = GraphBuilder::undirected(20)
            .self_loops(crate::builder::SelfLoopPolicy::Keep)
            .edges([(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (8, 8)])
            .edges((10..20).flat_map(|u| (u + 1..20).map(move |v| (u, v))))
            .build()
            .unwrap();
        let mut scratch = LevelScratch::new(20);
        for start in (0..20u32).chain(0..20) {
            assert_eq!(
                pseudo_peripheral_in(&g, start, &mut scratch),
                pseudo_peripheral_serial(&g, start),
                "start {start}"
            );
            assert!(scratch.reached.is_empty() && scratch.levels.iter().all(|&l| l == u32::MAX));
        }
    }

    #[test]
    fn pseudo_peripheral_in_records_one_span_per_search() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
            .build()
            .unwrap();
        let mut scratch = LevelScratch::new(g.num_vertices());
        let ((), rec) = reorderlab_trace::recording(reorderlab_trace::RunRecorder::new(), || {
            for start in [2, 5, 2] {
                assert_eq!(
                    pseudo_peripheral_in(&g, start, &mut scratch),
                    pseudo_peripheral_serial(&g, start),
                    "a reused scratch must not change the answer"
                );
            }
        });
        assert_eq!(rec.counters()["pseudo_peripheral/runs"], 3);
        assert_eq!(rec.spans()["pseudo_peripheral"].count, 3);
    }

    #[test]
    fn pseudo_peripheral_in_grows_a_scratch_built_for_a_smaller_graph() {
        // A 10-vertex path and a clique: the clique is dense enough for the
        // bottom-up step, which scans every vertex of the graph.
        let g = GraphBuilder::undirected(20)
            .edges((0..9u32).map(|i| (i, i + 1)))
            .edges((10..20u32).flat_map(|u| (u + 1..20).map(move |v| (u, v))))
            .build()
            .unwrap();
        let mut scratch = LevelScratch::new(4);
        for start in [0, 19, 4, 12] {
            assert_eq!(
                pseudo_peripheral_in(&g, start, &mut scratch),
                pseudo_peripheral(&g, start),
                "start {start}"
            );
        }
    }

    #[test]
    fn bfs_level_structure_grid() {
        // 3x3 grid, root at corner: levels should be the Manhattan distance.
        let mut b = GraphBuilder::undirected(9);
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    b = b.edge(v, v + 1);
                }
                if r + 1 < 3 {
                    b = b.edge(v, v + 3);
                }
            }
        }
        let g = b.build().unwrap();
        let ls = bfs_levels(&g, 0);
        assert_eq!(ls.eccentricity(), 4);
        assert_eq!(ls.levels[8], 4);
        assert_eq!(ls.tiers[2].len(), 3); // anti-diagonal
    }
}
