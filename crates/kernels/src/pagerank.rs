//! PageRank \[32\] — the canonical kernel of the lightweight-reordering
//! literature the paper positions itself against (\[2, 12\]): a pull-style
//! power iteration whose per-edge indirection (`scores[neighbor]`) is
//! exactly the access pattern vertex reordering tries to make local.

use rayon::prelude::*;
use reorderlab_graph::{det_sum_f64, Adjacency, CompressError, CompressedCsr, Csr};

/// Configuration for [`pagerank`].
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor `d` (the classic value is 0.85).
    pub damping: f64,
    /// Stop when the L1 change between iterations drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl PageRankConfig {
    /// The standard configuration: `d = 0.85`, tolerance `1e-8`, 200
    /// iterations max (the geometric rate `d^k` needs ~115 iterations to
    /// cross `1e-8`).
    pub fn new() -> Self {
        PageRankConfig { damping: 0.85, tolerance: 1e-8, max_iterations: 200 }
    }

    /// Sets the convergence tolerance.
    ///
    /// # Panics
    ///
    /// Panics unless `t > 0`.
    pub fn tolerance(mut self, t: f64) -> Self {
        assert!(t > 0.0, "tolerance must be positive");
        self.tolerance = t;
        self
    }
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig::new()
    }
}

/// The outcome of a PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// Final scores, summing to 1 (within numerical error).
    pub scores: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the cap.
    pub converged: bool,
}

impl PageRankResult {
    /// Vertices sorted by decreasing score (ties by id).
    pub fn ranking(&self) -> Vec<u32> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let mut order: Vec<u32> = (0..self.scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            self.scores[b as usize].total_cmp(&self.scores[a as usize]).then(a.cmp(&b))
        });
        order
    }
}

/// Runs pull-based PageRank on `graph` (for directed graphs pass the graph
/// itself; the pull iteration internally uses the transpose).
///
/// Dangling vertices (out-degree 0) redistribute their mass uniformly, the
/// standard correction.
///
/// # Examples
///
/// ```
/// use reorderlab_datasets::star;
/// use reorderlab_kernels::{pagerank, PageRankConfig};
///
/// let g = star(50);
/// let r = pagerank(&g, &PageRankConfig::new());
/// assert!(r.converged);
/// assert_eq!(r.ranking()[0], 0, "the hub collects the most rank");
/// ```
pub fn pagerank(graph: &Csr, config: &PageRankConfig) -> PageRankResult {
    // Pull iteration reads in-neighbors: an undirected adjacency is
    // symmetric, so the graph is its own pull view; a directed one pulls
    // over its transpose.
    if graph.is_directed() {
        pagerank_pull(graph, &graph.transposed(), config)
    } else {
        pagerank_pull(graph, graph, config)
    }
}

/// Runs pull-based PageRank directly on the compressed form, decoding
/// nothing but (for directed graphs) the transpose it pulls over.
///
/// Bit-identical to [`pagerank`] on the [`CompressedCsr::decode`] of the
/// same graph: the pull loop visits in-neighbors in exactly the same
/// order, via the zero-copy gap-stream iterator instead of a flat slice.
///
/// # Errors
///
/// [`CompressError::UnsortedRow`] — provably unreachable (a transpose of
/// a decoded graph always has sorted rows), surfaced as a typed error
/// rather than a panic to keep library code panic-free.
pub fn pagerank_compressed(
    cz: &CompressedCsr,
    config: &PageRankConfig,
) -> Result<PageRankResult, CompressError> {
    Ok(if cz.is_directed() {
        pagerank_pull(cz, &CompressedCsr::from_csr(&cz.decode().transposed())?, config)
    } else {
        pagerank_pull(cz, cz, config)
    })
}

/// The pull iteration over any [`Adjacency`]: out-degrees come from `graph`,
/// in-neighbor rows from `pull` (its transpose, or `graph` itself when the
/// adjacency is symmetric). One body for every storage form, so they
/// execute the identical float-operation sequence (the order-fixed delta
/// reduction included) and differ only in how a row is decoded.
///
/// An iteration is one parallel pass over the vertices. Vertex `v` gathers
/// `share[u] = scores[u] / out_degree(u)` over its in-neighbours (one 8-byte
/// read per arc, no division), then writes its new score, its own share
/// for the next iteration, and its change `|scores[v] - next[v]|`. The
/// bits are those of dividing per arc: a pull neighbour always has
/// out-degree ≥ 1, so its share is the same quotient, and a dangling
/// vertex's share of `0.0` added to an accumulator that starts at `+0.0`
/// changes no bit.
fn pagerank_pull<G: Adjacency>(graph: &G, pull: &G, config: &PageRankConfig) -> PageRankResult {
    let n = graph.num_vertices();
    if n == 0 {
        return PageRankResult { scores: Vec::new(), iterations: 0, converged: true };
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let out_degree: Vec<f64> = (0..n as u32).map(|v| graph.degree(v) as f64).collect();
    let dangling: Vec<usize> = (0..n).filter(|&v| out_degree[v] == 0.0).collect();
    let d = config.damping;
    let base = (1.0 - d) / n as f64;
    let mut scores = vec![1.0 / n as f64; n];
    let mut share: Vec<f64> = out_degree.iter().map(|&k| share_of(scores[0], k)).collect();
    let mut next = vec![0.0f64; n];
    let mut next_share = vec![0.0f64; n];
    let mut diff = vec![0.0f64; n];
    let spans = rayon::arc_spans(pull.offsets());
    let mut iterations = 0;
    let mut converged = false;

    while iterations < config.max_iterations {
        iterations += 1;
        // Mass of dangling vertices, redistributed uniformly; summed in
        // index order.
        let dangling_mass: f64 = dangling.iter().map(|&v| scores[v]).sum();
        let dangling_share = d * dangling_mass / n as f64;

        // One loop per span of near-equal pulled arcs; every vertex's
        // values are its own, so the spans never change a bit.
        spans
            .iter()
            .zip(rayon::span_slices(&mut next, &spans))
            .zip(rayon::span_slices(&mut next_share, &spans))
            .zip(rayon::span_slices(&mut diff, &spans))
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|(((span, next), next_share), diff)| {
                for (i, v) in span.clone().enumerate() {
                    // `fold`, not a `for` loop: compressed rows specialize
                    // `fold` into a single tight pass over the gap byte
                    // stream, and the flat-slice path compiles identically
                    // either way.
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
                    )]
                    let acc = pull.neighbors(v as u32).fold(0.0, |acc, u| acc + share[u as usize]);
                    let score = base + dangling_share + d * acc;
                    next[i] = score;
                    next_share[i] = share_of(score, out_degree[v]);
                    diff[i] = (scores[v] - score).abs();
                }
            });

        // The rayon shim has no parallel `sum`: the float reduction goes
        // through the order-fixed wrapper, so the accumulation never
        // depends on the schedule.
        let delta = det_sum_f64(&diff);
        std::mem::swap(&mut scores, &mut next);
        std::mem::swap(&mut share, &mut next_share);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }
    PageRankResult { scores, iterations, converged }
}

/// What a vertex with `score` and `out_degree` sends along each out-arc:
/// the score split evenly, or nothing from a dangling vertex (whose mass is
/// redistributed uniformly instead).
fn share_of(score: f64, out_degree: f64) -> f64 {
    if out_degree > 0.0 {
        score / out_degree
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{complete, cycle, path, star};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn scores_sum_to_one() {
        let g = star(20);
        let r = pagerank(&g, &PageRankConfig::new());
        let total: f64 = r.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn regular_graph_uniform_scores() {
        let g = cycle(12);
        let r = pagerank(&g, &PageRankConfig::new());
        for &s in &r.scores {
            assert!((s - 1.0 / 12.0).abs() < 1e-9);
        }
        assert!(r.converged);
    }

    #[test]
    fn hub_outranks_leaves() {
        let g = star(50);
        let r = pagerank(&g, &PageRankConfig::new());
        assert!(r.scores[0] > 10.0 * r.scores[1]);
        assert_eq!(r.ranking()[0], 0);
    }

    #[test]
    fn directed_chain_accumulates_downstream() {
        let g = GraphBuilder::directed(3).edge(0, 1).edge(1, 2).build().unwrap();
        let r = pagerank(&g, &PageRankConfig::new());
        assert!(r.scores[2] > r.scores[1]);
        assert!(r.scores[1] > r.scores[0]);
        let total: f64 = r.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "dangling correction keeps mass: {total}");
    }

    #[test]
    fn invariant_under_relabeling() {
        use reorderlab_graph::Permutation;
        let g = complete(6);
        let mut gb = GraphBuilder::undirected(8);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                gb = gb.edge(u, v);
            }
        }
        let g2 = gb.edge(0, 6).edge(6, 7).build().unwrap();
        let _ = g;
        let r = pagerank(&g2, &PageRankConfig::new());
        let pi = Permutation::from_ranks(vec![3, 0, 5, 1, 7, 2, 6, 4]).unwrap();
        let h = g2.permuted(&pi).unwrap();
        let rh = pagerank(&h, &PageRankConfig::new());
        for v in 0..8u32 {
            assert!(
                (r.scores[v as usize] - rh.scores[pi.rank(v) as usize]).abs() < 1e-9,
                "vertex {v} score changed under relabeling"
            );
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let g = path(100);
        let r = pagerank(
            &g,
            &PageRankConfig { max_iterations: 3, ..PageRankConfig::new().tolerance(1e-15) },
        );
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let r = pagerank(&g, &PageRankConfig::new());
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    /// The acceptance contract: compressed-mode PageRank is bit-identical
    /// to the flat oracle at 1, 2, and 7 threads, on undirected and
    /// directed graphs alike.
    #[test]
    fn compressed_matches_flat_bit_for_bit() {
        use reorderlab_graph::{build_pool, CompressedCsr};
        let directed_ring = {
            let mut gb = GraphBuilder::directed(9);
            for v in 0..9u32 {
                gb = gb.edge(v, (v + 1) % 9).edge(v, (v + 3) % 9);
            }
            gb.build().unwrap()
        };
        let cases = [star(40), cycle(25), path(30), directed_ring];
        let cfg = PageRankConfig::new();
        for g in &cases {
            let cz = CompressedCsr::from_csr(g).unwrap();
            let oracle = pagerank(g, &cfg);
            for threads in [1usize, 2, 7] {
                let (flat, packed) = build_pool(threads)
                    .install(|| (pagerank(g, &cfg), pagerank_compressed(&cz, &cfg).unwrap()));
                assert_eq!(flat.iterations, packed.iterations);
                assert_eq!(flat.converged, packed.converged);
                let flat_bits: Vec<u64> = flat.scores.iter().map(|s| s.to_bits()).collect();
                let packed_bits: Vec<u64> = packed.scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(flat_bits, packed_bits, "{threads} threads");
                let oracle_bits: Vec<u64> = oracle.scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(flat_bits, oracle_bits, "thread invariance at {threads}");
            }
        }
    }
}
