//! Betweenness centrality (Brandes' algorithm) — the third kernel of the
//! prior reordering studies the paper cites (\[2, 12\]). Exact over all
//! sources, or estimated from a sampled source subset; sources are
//! processed in parallel with per-thread accumulation.

use rayon::prelude::*;
use reorderlab_graph::Csr;

/// Betweenness scores (unnormalized; undirected conventions halve pair
/// contributions at the end).
#[derive(Debug, Clone, PartialEq)]
pub struct BcResult {
    /// `score[v]`: betweenness centrality of `v`.
    pub score: Vec<f64>,
    /// Number of source vertices processed.
    pub sources: usize,
}

impl BcResult {
    /// The vertex with the highest score (ties to the lower id); `None`
    /// for an empty graph.
    pub fn top(&self) -> Option<u32> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        (0..self.score.len() as u32).max_by(|&a, &b| {
            self.score[a as usize].total_cmp(&self.score[b as usize]).then(b.cmp(&a))
        })
    }
}

/// Exact betweenness centrality over every source.
pub fn betweenness(graph: &Csr) -> BcResult {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let sources: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    betweenness_from(graph, &sources)
}

/// Betweenness accumulated from the given source subset (Brandes'
/// single-source dependency accumulation per source, summed). With all
/// sources this is exact; with a sample it is the standard estimator.
pub fn betweenness_from(graph: &Csr, sources: &[u32]) -> BcResult {
    let n = graph.num_vertices();
    let partials: Vec<Vec<f64>> =
        sources.par_iter().map(|&s| single_source_dependency(graph, s)).collect();
    let mut score = vec![0.0f64; n];
    for partial in partials {
        for (v, d) in partial.into_iter().enumerate() {
            score[v] += d;
        }
    }
    if !graph.is_directed() {
        for s in score.iter_mut() {
            *s /= 2.0; // each unordered pair counted from both endpoints
        }
    }
    BcResult { score, sources: sources.len() }
}

/// One Brandes pass: BFS from `s` counting shortest paths, then dependency
/// accumulation in reverse BFS order.
fn single_source_dependency(graph: &Csr, s: u32) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut sigma = vec![0.0f64; n]; // shortest-path counts
    let mut dist = vec![i64::MAX; n];
    let mut order: Vec<u32> = Vec::new(); // BFS visit order
    sigma[s as usize] = 1.0;
    dist[s as usize] = 0;
    let mut frontier = vec![s];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            order.push(v);
            for &u in graph.neighbors(v) {
                if dist[u as usize] == i64::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    next.push(u);
                }
                if dist[u as usize] == dist[v as usize] + 1 {
                    sigma[u as usize] += sigma[v as usize];
                }
            }
        }
        frontier = next;
    }
    // Dependency accumulation, deepest first.
    let mut delta = vec![0.0f64; n];
    for &v in order.iter().rev() {
        for &u in graph.neighbors(v) {
            if dist[u as usize] == dist[v as usize] + 1 && sigma[u as usize] > 0.0 {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[u as usize] * (1.0 + delta[u as usize]);
            }
        }
    }
    delta[s as usize] = 0.0;
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{complete, cycle, path, star};

    #[test]
    fn path_middle_has_max_betweenness() {
        // Path 0-1-2-3-4: vertex 2 sits on the most shortest paths.
        let g = path(5);
        let r = betweenness(&g);
        assert_eq!(r.top(), Some(2));
        // Exact value for the middle of a 5-path: pairs (0,3),(0,4),(1,3),
        // (1,4) and (0..1 vs 3..4) — classic result is 4.
        assert!((r.score[2] - 4.0).abs() < 1e-9, "got {}", r.score[2]);
        assert_eq!(r.score[0], 0.0);
    }

    #[test]
    fn star_hub_carries_everything() {
        let g = star(6);
        let r = betweenness(&g);
        // Hub lies on all C(5,2) = 10 leaf pairs.
        assert!((r.score[0] - 10.0).abs() < 1e-9);
        for leaf in 1..6 {
            assert_eq!(r.score[leaf], 0.0);
        }
    }

    #[test]
    fn complete_graph_zero_everywhere() {
        let g = complete(6);
        let r = betweenness(&g);
        for &s in &r.score {
            assert!(s.abs() < 1e-9);
        }
    }

    #[test]
    fn cycle_symmetric() {
        let g = cycle(8);
        let r = betweenness(&g);
        for w in r.score.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "cycle must be symmetric: {:?}", r.score);
        }
        assert!(r.score[0] > 0.0);
    }

    #[test]
    fn sampled_sources_scale_down() {
        let g = path(9);
        let exact = betweenness(&g);
        let sampled = betweenness_from(&g, &[0, 4, 8]);
        assert_eq!(sampled.sources, 3);
        assert_eq!(exact.top(), Some(4));
        // Under this source sample the estimator's maximum shifts to a
        // near-middle vertex (sources contribute no dependency to
        // themselves), but it must stay in the center of the path.
        assert!(matches!(sampled.top(), Some(3..=5)), "top {:?}", sampled.top());
        // Endpoints still score zero.
        assert_eq!(sampled.score[0], 0.0);
        assert_eq!(sampled.score[8], 0.0);
    }

    #[test]
    fn invariant_under_relabeling() {
        use reorderlab_graph::Permutation;
        let g = path(7);
        let pi = Permutation::from_ranks(vec![6, 2, 4, 0, 5, 1, 3]).unwrap();
        let h = g.permuted(&pi).unwrap();
        let rg = betweenness(&g);
        let rh = betweenness(&h);
        for v in 0..7u32 {
            assert!(
                (rg.score[v as usize] - rh.score[pi.rank(v) as usize]).abs() < 1e-9,
                "score of {v} changed"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = reorderlab_graph::GraphBuilder::undirected(0).build().unwrap();
        let r = betweenness(&g);
        assert!(r.score.is_empty());
        assert_eq!(r.top(), None);
    }
}
