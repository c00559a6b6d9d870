//! Chaos-schedules tier for the two application kernels.
//!
//! The Louvain move scan and the RR sampler behind IMM must reproduce
//! their own 1-thread run bit-for-bit even when the rayon shim's seeded
//! adversarial scheduler perturbs chunk boundaries, spawn order, and join
//! order. Eight seeds × {2, 7} worker threads, same contract as
//! `chaos_schedules.rs`.
//!
//! Compiles to nothing without `--features chaos`; tier-1 `cargo test` is
//! unaffected. CI runs it in the `chaos-schedules` leg.
#![cfg(feature = "chaos")]

use reorderlab_community::{louvain, CommunityResult, LouvainConfig};
use reorderlab_datasets::{barabasi_albert, clique_chain, erdos_renyi_gnm, grid2d};
use reorderlab_graph::{build_pool, Csr};
use reorderlab_influence::{imm, ImmConfig};

const SEEDS: std::ops::Range<u64> = 0..8;
const THREADS: [usize; 2] = [2, 7];

/// Small corpus with hubs (long rows in the scatter scan), a mesh, and
/// community structure (multi-phase Louvain), affordable under 8 seeds × 2
/// thread counts.
fn corpus() -> Vec<(&'static str, Csr)> {
    vec![
        ("clique-chain", clique_chain(5, 6)),
        ("grid", grid2d(10, 10)),
        ("random", erdos_renyi_gnm(80, 240, 11)),
        ("powerlaw", barabasi_albert(150, 3, 5)),
    ]
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
    for (gname, g) in
        [("random", erdos_renyi_gnm(120, 420, 17)), ("powerlaw", barabasi_albert(150, 3, 5))]
    {
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
