//! The IMM algorithm (Tang, Shi & Xiao \[36\]) with its martingale-based
//! stopping rule, plus the parallel sampling engine modeled on Ripples [30]:
//! many probabilistic reverse BFS traversals run concurrently to keep all
//! CPUs busy.

use crate::config::ImmConfig;
use crate::greedy::celf_max_coverage;
use crate::rrset::{RrSampler, RrTrace, SampleScratch};
use rayon::prelude::*;
use reorderlab_graph::{Adjacency, CompressError, CompressedCsr, Csr};
use std::time::{Duration, Instant};

/// Instrumentation from one IMM run — the quantities behind the paper's
/// Figure 11 (sampling throughput and total time).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingStats {
    /// Wall time spent generating RR sets.
    pub sampling_time: Duration,
    /// Wall time spent in greedy seed selection.
    pub selection_time: Duration,
    /// Total wall time of the run: sampling plus selection. Building the
    /// sampler's reverse view (a transpose for directed input, a borrow
    /// otherwise) happens before the clock starts.
    pub total_time: Duration,
    /// Number of RR sets generated.
    pub rr_sets: usize,
    /// RR sets generated per second of sampling time (the paper's
    /// "throughput of the Sampling procedure").
    pub throughput: f64,
    /// Total in-edges examined across all reverse BFS traversals.
    pub edges_examined: u64,
    /// Total vertices entered into RR sets.
    pub vertices_visited: u64,
    /// Mean RR-set size.
    pub mean_rr_size: f64,
}

/// The result of an IMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct ImmResult {
    /// Selected seed vertices (up to `k`).
    pub seeds: Vec<u32>,
    /// Estimated expected influence of the seed set (vertices).
    pub influence_estimate: f64,
    /// Performance counters.
    pub stats: SamplingStats,
}

/// Runs IMM on `graph` (directed or undirected) with the given
/// configuration, returning the `(1 − 1/e − ε)`-approximate seed set and
/// sampling statistics.
///
/// # Examples
///
/// ```
/// use reorderlab_datasets::star;
/// use reorderlab_influence::{imm, ImmConfig};
///
/// let g = star(100);
/// let r = imm(&g, &ImmConfig::new(1).seed(3));
/// assert_eq!(r.seeds, vec![0], "the hub dominates influence on a star");
/// ```
pub fn imm(graph: &Csr, cfg: &ImmConfig) -> ImmResult {
    imm_core(&RrSampler::new(graph, cfg.model), cfg)
}

/// [`imm`] running directly on the compressed form: every reverse BFS of
/// the sampling phase streams in-neighbors from the varint gap bytes.
///
/// Bit-identical to [`imm`] on the [`CompressedCsr::decode`] of the same
/// graph — seed sets, RR-set counts, and traversal counters all match
/// exactly, at any thread count (only the wall-clock stats differ).
///
/// # Errors
///
/// [`CompressError::UnsortedRow`] — provably unreachable (see
/// [`RrSampler::from_gap_rows`]), surfaced as a typed error
/// rather than a panic.
pub fn imm_compressed(cz: &CompressedCsr, cfg: &ImmConfig) -> Result<ImmResult, CompressError> {
    Ok(imm_core(&RrSampler::from_gap_rows(cz, cfg.model)?, cfg))
}

/// The IMM driver over any sampler: every storage form executes the
/// identical martingale schedule over identical `(seed, index)` sample
/// streams.
fn imm_core<G: Adjacency + Clone>(sampler: &RrSampler<'_, G>, cfg: &ImmConfig) -> ImmResult {
    let start = Instant::now();
    let n = sampler.num_vertices();
    if n == 0 {
        return ImmResult { seeds: Vec::new(), influence_estimate: 0.0, stats: empty_stats() };
    }
    let k = cfg.k.min(n);
    let nf = n as f64;
    let ln_n = nf.ln().max(1.0);
    // ℓ is inflated by ln 2 / ln n so the union bound over both IMM phases
    // still yields 1 − 1/n^ℓ overall (Tang et al., §4.2).
    let ell = cfg.ell * (1.0 + 2f64.ln() / ln_n);
    let eps = cfg.epsilon;
    let eps_prime = (2.0f64).sqrt() * eps;
    let log_cnk = log_binomial(n, k);

    let lambda_prime =
        (2.0 + 2.0 * eps_prime / 3.0) * (log_cnk + ell * ln_n + nf.log2().max(1.0).ln()) * nf
            / (eps_prime * eps_prime);

    let mut rr_sets: Vec<Vec<u32>> = Vec::new();
    let mut trace = RrTrace::default();
    let mut sampling_time = Duration::ZERO;
    let mut lb = 1.0f64;

    let max_rounds = (nf.log2().ceil() as u32).max(1);
    for i in 1..=max_rounds {
        let x = nf / 2f64.powi(i as i32);
        let theta_i = (lambda_prime / x).ceil() as usize;
        sampling_time += extend_samples(sampler, cfg, &mut rr_sets, theta_i, &mut trace);
        let cov = celf_max_coverage(&rr_sets, n, k);
        let frac = cov.covered as f64 / rr_sets.len() as f64;
        if nf * frac >= (1.0 + eps_prime) * x {
            lb = nf * frac / (1.0 + eps_prime);
            break;
        }
    }

    let alpha = (ell * ln_n + 2f64.ln()).sqrt();
    let e = std::f64::consts::E;
    let beta = ((1.0 - 1.0 / e) * (log_cnk + ell * ln_n + 2f64.ln())).sqrt();
    let lambda_star = 2.0 * nf * ((1.0 - 1.0 / e) * alpha + beta).powi(2) / (eps * eps);
    let theta = (lambda_star / lb).ceil() as usize;
    sampling_time += extend_samples(sampler, cfg, &mut rr_sets, theta, &mut trace);

    let sel_start = Instant::now();
    // CELF lazy greedy: provably identical output to plain greedy (see
    // greedy.rs tests), with far fewer gain recomputations.
    let cov = celf_max_coverage(&rr_sets, n, k);
    let selection_time = sel_start.elapsed();
    let influence = nf * cov.covered as f64 / rr_sets.len() as f64;

    let rr_count = rr_sets.len();
    let stats = SamplingStats {
        sampling_time,
        selection_time,
        total_time: start.elapsed(),
        rr_sets: rr_count,
        throughput: if sampling_time.is_zero() {
            0.0
        } else {
            rr_count as f64 / sampling_time.as_secs_f64()
        },
        edges_examined: trace.edges_examined,
        vertices_visited: trace.vertices_visited,
        mean_rr_size: if rr_count == 0 {
            0.0
        } else {
            trace.vertices_visited as f64 / rr_count as f64
        },
    };
    ImmResult { seeds: cov.seeds, influence_estimate: influence, stats }
}

/// [`imm`] with run recording: emits the sampling/selection wall-time split
/// (spans `imm/sampling`, `imm/selection`), RR-set counters
/// (`imm/rr_sets`, `imm/edges_examined`, `imm/vertices_visited`), and the
/// selected seed count into `rec`.
///
/// Recording folds in the stats the engine collects anyway, after the
/// computation finishes, so the result is bit-identical to [`imm`] with any
/// recorder at any thread count.
pub fn imm_recorded(
    graph: &Csr,
    cfg: &ImmConfig,
    rec: &mut dyn reorderlab_trace::Recorder,
) -> ImmResult {
    rec.span_enter("imm");
    let r = imm(graph, cfg);
    rec.span_exit("imm");
    record_sampling_stats(&r, rec);
    r
}

/// Folds an already-computed [`ImmResult`]'s instrumentation into a
/// recorder (shared by [`imm_recorded`] and harness code).
pub fn record_sampling_stats(r: &ImmResult, rec: &mut dyn reorderlab_trace::Recorder) {
    let s = &r.stats;
    rec.span_add("imm/sampling", s.sampling_time);
    rec.span_add("imm/selection", s.selection_time);
    rec.counter("imm/rr_sets", s.rr_sets as u64);
    rec.counter("imm/edges_examined", s.edges_examined);
    rec.counter("imm/vertices_visited", s.vertices_visited);
    rec.counter("imm/seeds", r.seeds.len() as u64);
    rec.series("imm/throughput", s.throughput);
    rec.series("imm/mean_rr_size", s.mean_rr_size);
}

/// RR sets generated per parallel task.
const SAMPLE_BATCH: usize = 64;

/// Grows `rr_sets` to at least `target` sets using parallel batched
/// sampling; RR set `i` always comes from stream `(seed, i)`, so results
/// are thread-count independent. Returns the wall time spent.
fn extend_samples<G: Adjacency + Clone>(
    sampler: &RrSampler<'_, G>,
    cfg: &ImmConfig,
    rr_sets: &mut Vec<Vec<u32>>,
    target: usize,
    trace: &mut RrTrace,
) -> Duration {
    let have = rr_sets.len();
    if target <= have {
        return Duration::ZERO;
    }
    let t0 = Instant::now();
    let missing = target - have;
    let batches = missing.div_ceil(SAMPLE_BATCH);
    // Each worker keeps one `SampleScratch` across its whole share of the
    // batches: the per-sample `n`-byte visited array and queue allocations
    // of the naive loop disappear, leaving only the (unavoidable) exact-size
    // copy of each finished set. Set `i` still comes from stream `(seed, i)`
    // regardless of which worker draws it.
    let new: Vec<(Vec<Vec<u32>>, RrTrace)> = (0..batches)
        .into_par_iter()
        .map_init(
            || SampleScratch::new(sampler.num_vertices()),
            |scratch, b| {
                let lo = have + b * SAMPLE_BATCH;
                let hi = (lo + SAMPLE_BATCH).min(target);
                let mut sets = Vec::with_capacity(hi - lo);
                let mut tr = RrTrace::default();
                for i in lo..hi {
                    let (set, t) = sampler.sample_with(cfg.seed, i as u64, scratch);
                    tr.edges_examined += t.edges_examined;
                    tr.vertices_visited += t.vertices_visited;
                    sets.push(set.to_vec());
                }
                (sets, tr)
            },
        )
        .collect();
    for (sets, tr) in new {
        rr_sets.extend(sets);
        trace.edges_examined += tr.edges_examined;
        trace.vertices_visited += tr.vertices_visited;
    }
    t0.elapsed()
}

fn empty_stats() -> SamplingStats {
    SamplingStats {
        sampling_time: Duration::ZERO,
        selection_time: Duration::ZERO,
        total_time: Duration::ZERO,
        rr_sets: 0,
        throughput: 0.0,
        edges_examined: 0,
        vertices_visited: 0,
        mean_rr_size: 0.0,
    }
}

/// `ln C(n, k)` via the telescoping product — exact enough for IMM's
/// thresholds and safe from overflow.
fn log_binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k.min(n));
    (1..=k).map(|i| ((n - k + i) as f64 / i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiffusionModel;
    use reorderlab_datasets::{clique_chain, erdos_renyi_gnm, star};
    use reorderlab_graph::{build_pool, GraphBuilder};

    fn quick_cfg(k: usize) -> ImmConfig {
        ImmConfig::new(k).model(DiffusionModel::IndependentCascade { probability: 0.1 }).seed(11)
    }

    #[test]
    fn star_hub_is_top_seed() {
        let g = star(200);
        let r = imm(&g, &quick_cfg(1));
        assert_eq!(r.seeds, vec![0]);
        assert!(r.influence_estimate >= 1.0);
    }

    #[test]
    fn seeds_spread_across_communities() {
        // 4 cliques, k = 4: greedy should take one seed per clique.
        let g = clique_chain(4, 10);
        let r = imm(&g, &ImmConfig::new(4).seed(5));
        let mut cliques: Vec<u32> = r.seeds.iter().map(|&s| s / 10).collect();
        cliques.sort_unstable();
        cliques.dedup();
        assert_eq!(cliques.len(), 4, "seeds {:?} must cover all 4 cliques", r.seeds);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = erdos_renyi_gnm(150, 400, 9);
        let a = build_pool(1).install(|| imm(&g, &quick_cfg(3)));
        let b = build_pool(4).install(|| imm(&g, &quick_cfg(3)));
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.rr_sets, b.stats.rr_sets);
        assert_eq!(a.influence_estimate, b.influence_estimate);
    }

    #[test]
    fn stats_are_consistent() {
        let g = erdos_renyi_gnm(100, 300, 2);
        let r = imm(&g, &quick_cfg(2));
        let s = &r.stats;
        assert!(s.rr_sets > 0);
        assert!(s.throughput > 0.0);
        assert!(s.vertices_visited >= s.rr_sets as u64, "each set holds at least its root");
        assert!(s.mean_rr_size >= 1.0);
        assert!(s.total_time >= s.sampling_time);
    }

    #[test]
    fn influence_bounded_by_n() {
        let g = erdos_renyi_gnm(80, 200, 4);
        let r = imm(&g, &quick_cfg(5));
        assert!(r.influence_estimate <= 80.0);
        assert!(r.influence_estimate >= r.seeds.len() as f64 * 0.5);
    }

    #[test]
    fn k_capped_at_n() {
        let g = GraphBuilder::undirected(3).edge(0, 1).edge(1, 2).build().unwrap();
        let r = imm(&g, &ImmConfig::new(10).seed(0));
        assert!(r.seeds.len() <= 3);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let r = imm(&g, &ImmConfig::new(1));
        assert!(r.seeds.is_empty());
        assert_eq!(r.influence_estimate, 0.0);
    }

    #[test]
    fn linear_threshold_end_to_end() {
        let g = star(150);
        let r = imm(&g, &ImmConfig::new(1).model(DiffusionModel::LinearThreshold).seed(4));
        // Under LT with uniform weights, every leaf's reverse walk hits the
        // hub: the hub dominates coverage.
        assert_eq!(r.seeds, vec![0]);
        assert!(r.stats.rr_sets > 0);
    }

    #[test]
    fn weighted_cascade_end_to_end() {
        let g = clique_chain(3, 8);
        let r = imm(&g, &ImmConfig::new(3).model(DiffusionModel::WeightedCascade).seed(8));
        assert_eq!(r.seeds.len(), 3);
        assert!(r.influence_estimate <= 24.0);
    }

    #[test]
    fn log_binomial_sane() {
        assert!((log_binomial(10, 0) - 0.0).abs() < 1e-12);
        assert!((log_binomial(10, 10) - 0.0).abs() < 1e-12);
        assert!((log_binomial(10, 1) - 10f64.ln()).abs() < 1e-12);
        // C(10, 5) = 252
        assert!((log_binomial(10, 5) - 252f64.ln()).abs() < 1e-9);
        // Symmetric.
        assert!((log_binomial(20, 3) - log_binomial(20, 17)).abs() < 1e-9);
    }

    #[test]
    fn recorded_run_is_bit_identical_and_counts_samples() {
        let g = erdos_renyi_gnm(120, 350, 5);
        let plain = imm(&g, &quick_cfg(2));
        let mut rec = reorderlab_trace::RunRecorder::new();
        let recorded = imm_recorded(&g, &quick_cfg(2), &mut rec);
        assert_eq!(plain.seeds, recorded.seeds);
        assert_eq!(plain.influence_estimate, recorded.influence_estimate);
        assert_eq!(plain.stats.rr_sets, recorded.stats.rr_sets);
        assert_eq!(rec.counters()["imm/rr_sets"], plain.stats.rr_sets as u64);
        assert_eq!(rec.counters()["imm/edges_examined"], plain.stats.edges_examined);
        assert_eq!(rec.counters()["imm/seeds"], plain.seeds.len() as u64);
        assert_eq!(rec.spans()["imm"].count, 1);
        assert!(rec.spans()["imm/sampling"].wall <= rec.spans()["imm"].wall);
        let noop = imm_recorded(&g, &quick_cfg(2), &mut reorderlab_trace::NoopRecorder);
        assert_eq!(noop.seeds, plain.seeds);
    }

    #[test]
    fn compressed_imm_bit_identical_at_acceptance_thread_counts() {
        // The acceptance criterion: IMM over the compressed form matches
        // the flat oracle bit for bit at 1, 2, and 7 threads.
        use reorderlab_graph::CompressedCsr;
        let g = erdos_renyi_gnm(150, 400, 9);
        let cz = CompressedCsr::from_csr(&g).unwrap();
        let cfg = quick_cfg(3);
        for threads in [1usize, 2, 7] {
            let (flat, packed) =
                build_pool(threads).install(|| (imm(&g, &cfg), imm_compressed(&cz, &cfg).unwrap()));
            assert_eq!(flat.seeds, packed.seeds, "{threads} threads");
            assert_eq!(flat.influence_estimate, packed.influence_estimate);
            assert_eq!(flat.stats.rr_sets, packed.stats.rr_sets);
            assert_eq!(flat.stats.edges_examined, packed.stats.edges_examined);
            assert_eq!(flat.stats.vertices_visited, packed.stats.vertices_visited);
        }
    }

    #[test]
    fn compressed_imm_empty_graph() {
        use reorderlab_graph::CompressedCsr;
        let g = GraphBuilder::undirected(0).build().unwrap();
        let cz = CompressedCsr::from_csr(&g).unwrap();
        let r = imm_compressed(&cz, &ImmConfig::new(1)).unwrap();
        assert!(r.seeds.is_empty());
    }

    #[test]
    fn higher_probability_grows_rr_sets() {
        let g = erdos_renyi_gnm(200, 600, 6);
        let low = imm(&g, &quick_cfg(2));
        let high = imm(
            &g,
            &ImmConfig::new(2)
                .model(DiffusionModel::IndependentCascade { probability: 0.4 })
                .seed(11),
        );
        assert!(high.stats.mean_rr_size > low.stats.mean_rr_size);
    }
}
