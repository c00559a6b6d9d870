//! Differential guarantee of the observability layer: turning recording on
//! must never change any result. Every scheme is run twice per thread count
//! — once through `try_reorder` with no recorder installed and once through
//! `try_reorder_recorded` with a live `RunRecorder` — and the permutations
//! and downstream gap measures must be bit-identical, at 1, 2, and 7
//! threads.

mod support;

use reorderlab_core::measures::gap_measures;
use reorderlab_core::Scheme;
use reorderlab_datasets::{barabasi_albert, clique_chain, grid2d};
use reorderlab_graph::{build_pool, Csr};
use reorderlab_trace::RunRecorder;

fn corpus() -> Vec<(&'static str, Csr)> {
    vec![
        ("clique_chain", clique_chain(6, 8)),
        ("grid2d", grid2d(9, 8)),
        ("barabasi_albert", barabasi_albert(160, 3, 7)),
    ]
}

#[test]
fn recording_never_changes_any_result_at_any_thread_count() {
    for (graph_name, g) in corpus() {
        for scheme in Scheme::all_schemes(42) {
            if scheme.validate(g.num_vertices()).is_err() {
                continue; // e.g. METIS parts > n on the tiny graphs
            }
            // The silent run at the default thread count is the reference.
            let silent = scheme.try_reorder(&g).expect("silent run succeeds");
            let silent_measures = gap_measures(&g, &silent);
            for threads in [1usize, 2, 7] {
                let (recorded, rec) = build_pool(threads).install(|| {
                    let mut rec = RunRecorder::new();
                    let pi =
                        scheme.try_reorder_recorded(&g, &mut rec).expect("recorded run succeeds");
                    (pi, rec)
                });
                assert_eq!(
                    recorded.ranks(),
                    silent.ranks(),
                    "{} on {graph_name}: recorded permutation diverged at {threads} threads",
                    scheme.name()
                );
                let m = gap_measures(&g, &recorded);
                assert_eq!(
                    (m.avg_gap, m.bandwidth, m.avg_bandwidth, m.avg_log_gap),
                    (
                        silent_measures.avg_gap,
                        silent_measures.bandwidth,
                        silent_measures.avg_bandwidth,
                        silent_measures.avg_log_gap
                    ),
                    "{} on {graph_name}: measures diverged at {threads} threads",
                    scheme.name()
                );
                // The recorder closed every span it opened.
                assert_eq!(
                    rec.open_spans(),
                    0,
                    "{} on {graph_name}: unbalanced spans at {threads} threads",
                    scheme.name()
                );
                assert_eq!(
                    rec.spans().get("reorder").map(|s| s.count),
                    Some(1),
                    "{} on {graph_name}: missing outer reorder span",
                    scheme.name()
                );
            }
        }
    }
}

/// The recorder's books are themselves deterministic: every scheme's span
/// paths and counts, counters, series and notes agree across thread counts.
/// A counter inside a parallel closure breaks this, since pool workers do
/// not inherit the caller's recorder.
#[test]
fn recorded_counters_are_thread_invariant() {
    for (graph_name, g) in corpus() {
        for scheme in Scheme::all_schemes(42) {
            if scheme.validate(g.num_vertices()).is_err() {
                continue;
            }
            let fingerprint = |threads: usize| {
                build_pool(threads).install(|| {
                    let mut rec = RunRecorder::new();
                    scheme.try_reorder_recorded(&g, &mut rec).expect("runs");
                    support::recorded_fingerprint(&rec)
                })
            };
            let base = fingerprint(1);
            assert!(base.contains("\"reorder\", 1"), "{}: {base}", scheme.name());
            for threads in [2usize, 7] {
                assert_eq!(
                    fingerprint(threads),
                    base,
                    "{} on {graph_name}: recorded books diverged at {threads} threads",
                    scheme.name()
                );
            }
        }
    }
}
