//! Chaos-schedules tier: re-runs the scheme-contract and
//! recording-differential guarantees under adversarial rayon schedules.
//!
//! With `--features chaos` the rayon shim draws, per parallel call, uneven
//! chunk boundaries, a permuted spawn order, permuted yield pressure, and
//! swapped `join` arms from a seed (`REORDERLAB_CHAOS_SEED`, or the
//! in-process `rayon::chaos::set_seed` override used here). Eight seeds ×
//! {2, 7} threads must all reproduce the 1-thread result bit-for-bit — the
//! 1-thread path never engages the chaos scheduler, so it is the oracle.
//!
//! This file compiles to nothing without the feature; tier-1 `cargo test`
//! is unaffected. CI's `chaos-schedules` job runs it with the core suite.
#![cfg(feature = "chaos")]

mod support;

use reorderlab_core::measures::gap_measures;
use reorderlab_core::Scheme;
use reorderlab_datasets::{barabasi_albert, clique_chain, erdos_renyi_gnm, grid2d, tri_mesh};
use reorderlab_graph::{Csr, GraphBuilder, Permutation};
use reorderlab_trace::RunRecorder;

const SEEDS: std::ops::Range<u64> = 0..8;
const THREADS: [usize; 2] = [2, 7];

/// A slice of the scheme-contract corpus that still exercises every
/// parallel path (hubs for SlashBurn's and DBG's scoring, a 700-vertex
/// graph whose coarse rows span several work blocks, a disconnected graph for the
/// component sweeps) while keeping 8 seeds × 2 thread counts × every scheme
/// affordable.
fn corpus() -> Vec<(&'static str, Csr)> {
    vec![
        (
            "disconnected",
            GraphBuilder::undirected(12)
                .edges([(0, 1), (1, 2), (4, 5), (7, 8), (8, 9), (9, 7)])
                .build_expect(),
        ),
        ("random", erdos_renyi_gnm(60, 150, 7)),
        ("clique-chain", clique_chain(6, 8)),
        ("grid", grid2d(9, 8)),
        ("mesh", tri_mesh(8, 8, 0.3, 9)),
        ("powerlaw-700", barabasi_albert(700, 3, 21)),
    ]
}

/// Runs `f` inside a dedicated pool of `threads` workers.
fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    reorderlab_graph::build_pool(threads).install(f)
}

fn measure_bits(g: &Csr, pi: &Permutation) -> [u64; 4] {
    let m = gap_measures(g, pi);
    [
        m.avg_gap.to_bits(),
        u64::from(m.bandwidth),
        m.avg_bandwidth.to_bits(),
        m.avg_log_gap.to_bits(),
    ]
}

/// Scheme-contract guarantee under chaos: every scheme, on every corpus
/// graph, reproduces its 1-thread permutation and gap measures bit-for-bit
/// across all eight adversarial schedules at 2 and 7 threads.
#[test]
fn every_scheme_is_bit_identical_under_adversarial_schedules() {
    for (gname, g) in corpus() {
        for scheme in Scheme::all_schemes(42) {
            if scheme.validate(g.num_vertices()).is_err() {
                continue; // e.g. METIS parts > n on the tiny graphs
            }
            let oracle = with_threads(1, || scheme.reorder(&g));
            let oracle_bits = measure_bits(&g, &oracle);
            for seed in SEEDS {
                rayon::chaos::set_seed(seed);
                for threads in THREADS {
                    let pi = with_threads(threads, || scheme.reorder(&g));
                    assert_eq!(
                        pi,
                        oracle,
                        "{} on {gname}: permutation diverged at seed {seed}, {threads} threads",
                        scheme.name()
                    );
                    assert_eq!(
                        measure_bits(&g, &pi),
                        oracle_bits,
                        "{} on {gname}: measures diverged at seed {seed}, {threads} threads",
                        scheme.name()
                    );
                }
            }
        }
    }
}

/// Recording-differential guarantee under chaos: a recorded run under an
/// adversarial schedule still matches the silent 1-thread oracle, and the
/// recorder's books (span paths and counts, counters, series, notes) stay
/// balanced and deterministic.
#[test]
fn recorded_runs_are_bit_identical_under_adversarial_schedules() {
    for (gname, g) in corpus() {
        for scheme in Scheme::all_schemes(42) {
            if scheme.validate(g.num_vertices()).is_err() {
                continue;
            }
            let (oracle, oracle_books) = with_threads(1, || {
                let mut rec = RunRecorder::new();
                let pi = scheme.try_reorder_recorded(&g, &mut rec).expect("oracle run succeeds");
                (pi, support::recorded_fingerprint(&rec))
            });
            for seed in SEEDS {
                rayon::chaos::set_seed(seed);
                for threads in THREADS {
                    let (pi, rec) = with_threads(threads, || {
                        let mut rec = RunRecorder::new();
                        let pi = scheme
                            .try_reorder_recorded(&g, &mut rec)
                            .expect("recorded run succeeds");
                        (pi, rec)
                    });
                    assert_eq!(
                        pi.ranks(),
                        oracle.ranks(),
                        "{} on {gname}: recorded permutation diverged at seed {seed}, {threads} threads",
                        scheme.name()
                    );
                    assert_eq!(
                        rec.open_spans(),
                        0,
                        "{} on {gname}: unbalanced spans at seed {seed}, {threads} threads",
                        scheme.name()
                    );
                    assert_eq!(
                        support::recorded_fingerprint(&rec),
                        oracle_books,
                        "{} on {gname}: recorded books diverged at seed {seed}, {threads} threads",
                        scheme.name()
                    );
                }
            }
        }
    }
}
