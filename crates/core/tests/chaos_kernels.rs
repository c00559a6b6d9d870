//! Chaos-schedules tier for the two application kernels and PageRank.
//!
//! The Louvain move scan, the RR sampler behind IMM and the PageRank pass
//! must reproduce their own 1-thread run bit-for-bit even when the rayon
//! shim's seeded adversarial scheduler perturbs span boundaries, spawn
//! order, and join order. Eight seeds × {2, 7} worker threads, same contract as
//! `chaos_schedules.rs`.
//!
//! Compiles to nothing without `--features chaos`; tier-1 `cargo test` is
//! unaffected. CI's `chaos-schedules` job runs it with the core suite.
#![cfg(feature = "chaos")]

mod support;

use reorderlab_community::{louvain, CommunityResult, LouvainConfig};
use reorderlab_datasets::{barabasi_albert, clique_chain, erdos_renyi_gnm, grid2d};
use reorderlab_graph::{build_pool, CompressedCsr, Csr};
use reorderlab_influence::{imm, ImmConfig};
use reorderlab_kernels::{pagerank, pagerank_compressed, PageRankConfig, PageRankResult};

const SEEDS: std::ops::Range<u64> = 0..8;
const THREADS: [usize; 2] = [2, 7];

/// Small corpus with hubs (long rows in the scatter scan), a mesh,
/// community structure (multi-phase Louvain), and the hub-heavy graphs on
/// which rows cut by arcs and rows cut by count part differently,
/// affordable under 8 seeds × 2 thread counts.
fn corpus() -> Vec<(&'static str, Csr)> {
    let mut corpus = vec![
        ("clique-chain", clique_chain(5, 6)),
        ("grid", grid2d(10, 10)),
        ("random", erdos_renyi_gnm(80, 240, 11)),
        ("powerlaw", barabasi_albert(150, 3, 5)),
    ];
    corpus.extend(support::skewed_corpus());
    corpus
}

/// Everything a Louvain run decides, down to per-iteration counters.
fn louvain_fingerprint(r: &CommunityResult) -> (Vec<u32>, usize, u64, Vec<(usize, u64, u64)>) {
    let iters = r
        .stats
        .phases
        .iter()
        .flat_map(|p| p.iterations.iter())
        .map(|it| (it.moves, it.modularity.to_bits(), it.loads))
        .collect();
    (r.assignment.clone(), r.num_communities, r.modularity.to_bits(), iters)
}

/// Louvain, on every corpus graph, reproduces its 1-thread run
/// bit-for-bit across all adversarial schedules at 2 and 7 threads.
#[test]
fn louvain_bit_identical_under_adversarial_schedules() {
    for (gname, g) in corpus() {
        let cfg = LouvainConfig::default();
        let oracle = build_pool(1).install(|| louvain_fingerprint(&louvain(&g, &cfg)));
        for seed in SEEDS {
            rayon::chaos::set_seed(seed);
            for threads in THREADS {
                let got = build_pool(threads).install(|| louvain_fingerprint(&louvain(&g, &cfg)));
                assert_eq!(
                    got, oracle,
                    "{gname}: diverged from the 1-thread run at seed {seed}, {threads} threads"
                );
            }
        }
    }
}

/// IMM reproduces its 1-thread run — seed set, influence estimate, and
/// traversal counters — across all adversarial schedules at 2 and 7
/// threads.
#[test]
fn imm_bit_identical_under_adversarial_schedules() {
    let mut graphs =
        vec![("random", erdos_renyi_gnm(120, 420, 17)), ("powerlaw", barabasi_albert(150, 3, 5))];
    graphs.extend(support::skewed_corpus());
    for (gname, g) in graphs {
        let cfg = ImmConfig::new(3).seed(9);
        let oracle = build_pool(1).install(|| imm(&g, &cfg));
        for seed in SEEDS {
            rayon::chaos::set_seed(seed);
            for threads in THREADS {
                let got = build_pool(threads).install(|| imm(&g, &cfg));
                assert_eq!(
                    (got.seeds.clone(), got.influence_estimate.to_bits()),
                    (oracle.seeds.clone(), oracle.influence_estimate.to_bits()),
                    "{gname}: seed set diverged at seed {seed}, {threads} threads"
                );
                assert_eq!(
                    (got.stats.rr_sets, got.stats.edges_examined, got.stats.vertices_visited),
                    (
                        oracle.stats.rr_sets,
                        oracle.stats.edges_examined,
                        oracle.stats.vertices_visited
                    ),
                    "{gname}: traversal counters diverged at seed {seed}, {threads} threads"
                );
            }
        }
    }
}

/// Everything a PageRank run decides: iterations, convergence and the bits
/// of every score.
fn pagerank_fingerprint(r: &PageRankResult) -> (usize, bool, Vec<u64>) {
    (r.iterations, r.converged, r.scores.iter().map(|s| s.to_bits()).collect())
}

/// PageRank, flat and compressed, reproduces its 1-thread run bit-for-bit
/// across all adversarial schedules at 2 and 7 threads.
#[test]
fn pagerank_bit_identical_under_adversarial_schedules() {
    let cfg = PageRankConfig::new();
    for (gname, g) in corpus() {
        let cz = CompressedCsr::from_csr(&g).expect("compressible");
        let oracle = build_pool(1).install(|| pagerank_fingerprint(&pagerank(&g, &cfg)));
        for seed in SEEDS {
            rayon::chaos::set_seed(seed);
            for threads in THREADS {
                let (flat, packed) = build_pool(threads).install(|| {
                    let packed = pagerank_compressed(&cz, &cfg).expect("sorted rows");
                    (pagerank_fingerprint(&pagerank(&g, &cfg)), pagerank_fingerprint(&packed))
                });
                assert_eq!(
                    flat, oracle,
                    "{gname}: flat diverged at seed {seed}, {threads} threads"
                );
                assert_eq!(
                    packed, oracle,
                    "{gname}: compressed diverged at seed {seed}, {threads} threads"
                );
            }
        }
    }
}
