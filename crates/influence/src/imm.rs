//! The IMM algorithm (Tang, Shi & Xiao \[36\]) with its martingale-based
//! stopping rule, plus the parallel sampling engine modeled on Ripples [30]:
//! many probabilistic reverse BFS traversals run concurrently to keep all
//! CPUs busy.

use crate::config::ImmConfig;
use crate::greedy::{celf_from_counts, Coverage};
use crate::rrset::{ChunkWriter, RrSampler, RrSets, RrTrace, SampleScratch};
use rayon::prelude::*;
use reorderlab_graph::{Adjacency, CompressError, CompressedCsr, Csr};
use std::time::{Duration, Instant};

/// Instrumentation from one IMM run — the quantities behind the paper's
/// Figure 11 (sampling throughput and total time).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingStats {
    /// Wall time spent generating RR sets: every parallel sampling call, in
    /// which each worker writes its sets into chunks of its own and counts
    /// their members, and the merge that appends those chunks to the store
    /// and adds the counts to the per-vertex counts selection starts from.
    pub sampling_time: Duration,
    /// Wall time spent in greedy seed selection: every CELF call of the run,
    /// the one per martingale round and the final one (each time the choice
    /// of a candidate window, the index of its sets, the heap loop, and any
    /// rerun on a wider window). The per-vertex counts it starts from are
    /// kept up to date in the merge, under `sampling_time`.
    pub selection_time: Duration,
    /// Total wall time of the run. Sampling and selection are all of it but
    /// the threshold arithmetic, so `sampling_time + selection_time` is at
    /// most this and close to it. Building the sampler's reverse view (a
    /// transpose for directed input, a borrow otherwise) happens before the
    /// clock starts.
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
/// `RrSampler::from_gap_rows`), surfaced as a typed error
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
    // `k = 0` (the fields are public, so `ImmConfig::new`'s check can be
    // bypassed) covers nothing, so no round would raise the lower bound.
    if n == 0 || cfg.k == 0 {
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

    let mut rr_sets = RrSets::default();
    // `hits[v]`: how many of `rr_sets` hold `v`. Sets are only ever
    // appended, so the counts grow with them and no round recounts.
    let mut hits = vec![0u32; n];
    let mut trace = RrTrace::default();
    let mut sampling_time = Duration::ZERO;
    let mut selection_time = Duration::ZERO;
    let mut lb = 1.0f64;

    let max_rounds = (nf.log2().ceil() as u32).max(1);
    for i in 1..=max_rounds {
        let x = nf / 2f64.powi(i as i32);
        let theta_i = (lambda_prime / x).ceil() as usize;
        sampling_time += extend_samples(sampler, cfg, &mut rr_sets, &mut hits, theta_i, &mut trace);
        let cov = timed_selection(&rr_sets, &hits, k, &mut selection_time);
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
    sampling_time += extend_samples(sampler, cfg, &mut rr_sets, &mut hits, theta, &mut trace);

    let cov = timed_selection(&rr_sets, &hits, k, &mut selection_time);
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

/// One seed selection of the run, its wall time added to `selection_time`.
/// CELF lazy greedy: provably identical output to plain greedy (see
/// greedy.rs tests), with far fewer gain recomputations.
fn timed_selection(
    rr_sets: &RrSets,
    hits: &[u32],
    k: usize,
    selection_time: &mut Duration,
) -> Coverage {
    let t0 = Instant::now();
    let cov = celf_from_counts(rr_sets, hits, k);
    *selection_time += t0.elapsed();
    cov
}

/// Grows `rr_sets` to at least `target` sets, and `hits` by their members,
/// in one parallel call; RR set `i` always comes from stream `(seed, i)`,
/// so results are thread-count independent. Returns the wall time spent.
fn extend_samples<G: Adjacency + Clone>(
    sampler: &RrSampler<'_, G>,
    cfg: &ImmConfig,
    rr_sets: &mut RrSets,
    hits: &mut [u32],
    target: usize,
    trace: &mut RrTrace,
) -> Duration {
    let have = rr_sets.len();
    if target <= have {
        return Duration::ZERO;
    }
    let t0 = Instant::now();
    // One contiguous span of the new indices per worker, which samples it
    // with one scratch into sets and hits of its own; appending them in span
    // order puts set `i` at index `i`, and the merge moves no member.
    let per_worker = (target - have).div_ceil(rayon::current_num_threads().max(1));
    let spans: Vec<_> =
        (have..target).step_by(per_worker).map(|lo| lo..(lo + per_worker).min(target)).collect();
    let new: Vec<(RrSets, Vec<u32>, RrTrace)> = spans
        .into_par_iter()
        .map(|span| {
            let mut scratch = SampleScratch::new(sampler.num_vertices());
            let mut writer = ChunkWriter::default();
            let mut hits = vec![0u32; sampler.num_vertices()];
            let mut tr = RrTrace::default();
            for i in span {
                let (set, t) = sampler.sample_with(cfg.seed, i as u64, &mut scratch);
                tr.edges_examined += t.edges_examined;
                tr.vertices_visited += t.vertices_visited;
                for &v in set {
                    hits[v as usize] += 1;
                }
                writer.push(set);
            }
            (writer.finish(), hits, tr)
        })
        .collect();
    for (sets, worker_hits, tr) in new {
        rr_sets.extend(sets);
        for (h, w) in hits.iter_mut().zip(worker_hits) {
            *h += w;
        }
        trace.edges_examined += tr.edges_examined;
        trace.vertices_visited += tr.vertices_visited;
    }
    let elapsed = t0.elapsed();
    #[cfg(test)]
    tests::assert_hits_match_recount(rr_sets, hits);
    elapsed
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

    /// The hook [`extend_samples`] calls after every extension in the test
    /// build: the counts kept as sets are appended equal a recount of every
    /// set, so every IMM run of this crate's tests checks them.
    pub(super) fn assert_hits_match_recount(rr_sets: &RrSets, hits: &[u32]) {
        let mut fresh = vec![0u32; hits.len()];
        for set in rr_sets.iter() {
            for &v in set {
                fresh[v as usize] += 1;
            }
        }
        assert_eq!(hits, fresh, "counts kept across extensions vs a recount");
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
    fn zero_k_returns_before_sampling() {
        // `ImmConfig`'s fields are public, so `k = 0` can skip `new`'s
        // check; no seed can cover a set, and sampling θ for that is waste.
        let g = erdos_renyi_gnm(100, 300, 2);
        let cfg = ImmConfig { k: 0, ..quick_cfg(1) };
        let cz = reorderlab_graph::CompressedCsr::from_csr(&g).unwrap();
        for r in [imm(&g, &cfg), imm_compressed(&cz, &cfg).unwrap()] {
            assert!(r.seeds.is_empty());
            assert_eq!(r.stats.rr_sets, 0);
            assert_eq!(r.influence_estimate, 0.0);
        }
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

    /// `(instance, model, seeds, rr_sets, edges_examined, vertices_visited,
    /// influence_estimate bits)` for `k = 8`, seed 11: taken from the commit
    /// before RR sets became one flat array under a counting-sort index.
    type Golden = (&'static str, DiffusionModel, [u32; 8], usize, u64, u64, u64);

    const GOLDENS: [Golden; 6] = [
        (
            "pgp",
            DiffusionModel::IndependentCascade { probability: 0.1 },
            [0, 568, 315, 929, 1693, 1876, 5117, 5419],
            6987,
            26210554,
            1735538,
            0x409a643452380ef3,
        ),
        (
            "pgp",
            DiffusionModel::WeightedCascade,
            [0, 1, 16, 8, 4096, 64, 8192, 2151],
            12698,
            1443045,
            68386,
            0x408c8b47a6a5e1c2,
        ),
        (
            "pgp",
            DiffusionModel::LinearThreshold,
            [0, 16, 1, 2151, 4096, 2, 256, 8],
            10046,
            52781,
            55623,
            0x4091ce9d479b4ac4,
        ),
        (
            "euroroad",
            DiffusionModel::IndependentCascade { probability: 0.1 },
            [601, 227, 195, 209, 694, 550, 45, 422],
            71018,
            220026,
            91101,
            0x402c8d81c340d5a1,
        ),
        (
            "euroroad",
            DiffusionModel::WeightedCascade,
            [819, 1090, 597, 689, 345, 548, 1005, 747],
            20614,
            170762,
            66952,
            0x4047526f8534158f,
        ),
        (
            "euroroad",
            DiffusionModel::LinearThreshold,
            [227, 254, 538, 730, 58, 345, 1090, 154],
            20974,
            69638,
            69638,
            0x4046b1dc1d961ab5,
        ),
    ];

    #[test]
    fn results_equal_the_goldens_at_every_width_and_on_compressed() {
        use reorderlab_graph::CompressedCsr;
        for (name, model, seeds, rr_sets, edges, visited, influence_bits) in GOLDENS {
            let g = reorderlab_datasets::by_name(name).expect("suite instance exists").generate();
            let cz = CompressedCsr::from_csr(&g).unwrap();
            let cfg = ImmConfig::new(8).model(model).seed(11);
            let mut runs: Vec<(String, ImmResult)> = [1usize, 2, 7]
                .iter()
                .map(|&t| (format!("{t} threads"), build_pool(t).install(|| imm(&g, &cfg))))
                .collect();
            runs.push(("compressed".into(), imm_compressed(&cz, &cfg).unwrap()));
            for (tag, r) in runs {
                let tag = format!("{name} {model:?} {tag}");
                assert_eq!(r.seeds, seeds, "{tag}");
                assert_eq!(r.stats.rr_sets, rr_sets, "{tag}");
                assert_eq!(r.stats.edges_examined, edges, "{tag}");
                assert_eq!(r.stats.vertices_visited, visited, "{tag}");
                assert_eq!(r.influence_estimate.to_bits(), influence_bits, "{tag}");
            }
        }
    }

    #[test]
    fn every_selection_is_in_selection_time() {
        // A round ends the martingale loop only when the seeds cover about
        // (1 + ε')/2^i of the RR sets; on a path one seed reaches about one
        // vertex in 400, so this run selects in several rounds before the
        // final one, and all of them are accounted for.
        let g = reorderlab_datasets::path(512);
        let r = imm(&g, &quick_cfg(1));
        assert!(r.influence_estimate < 512.0 / 8.0, "premise: no exit in the first rounds");
        let s = &r.stats;
        assert!(!s.selection_time.is_zero());
        assert!(s.sampling_time + s.selection_time <= s.total_time);
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
