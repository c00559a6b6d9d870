//! The degenerate-graph contract (DESIGN.md §"Degenerate-graph contract"):
//! every scheme × every measure × Louvain × IMM must be total over the
//! degenerate corpus — empty, single-vertex, zero-edge, all-self-loop,
//! disconnected, star, duplicate-heavy graphs — at 1, 2, and 7 threads,
//! producing valid permutations and finite, NaN-free metrics, or a typed
//! error; never a panic.
//!
//! A second group pins scheme parameter validation on tiny graphs:
//! SlashBurn `k_frac` rounding, Gorder windows larger than the graph,
//! METIS `parts > n`, RCM on disconnected inputs. A third sets every key of
//! every row of the scheme table to hostile values.

mod support;

use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_core::measures::{
    try_edge_gaps, try_gap_measures, try_packing_factor, try_vertex_bandwidths, GapDistribution,
};
use reorderlab_core::{Scheme, SchemeError, SCHEMES};
use reorderlab_datasets::{by_name, degenerate_suite, star};
use reorderlab_graph::{assert_thread_invariant, build_pool, Csr, GraphBuilder, Permutation};
use reorderlab_influence::{imm, DiffusionModel, ImmConfig};
use support::assert_bijective;

/// Every measure the paper evaluates, computed through the fallible entry
/// points; asserts every reported number is finite and returns the bundle
/// for thread-invariance comparison.
fn all_measures(g: &Csr, pi: &Permutation, ctx: &str) -> (Vec<f64>, Vec<u32>, Vec<u32>) {
    let m = try_gap_measures(g, pi).unwrap_or_else(|e| panic!("{ctx}: gap_measures: {e}"));
    for (name, v) in
        [("avg_gap", m.avg_gap), ("avg_bandwidth", m.avg_bandwidth), ("avg_log_gap", m.avg_log_gap)]
    {
        assert!(v.is_finite(), "{ctx}: {name} = {v} is not finite");
    }
    let gaps = try_edge_gaps(g, pi).unwrap_or_else(|e| panic!("{ctx}: edge_gaps: {e}"));
    assert_eq!(gaps.len(), g.num_edges(), "{ctx}: one gap per edge");
    let dist = GapDistribution::from_gaps(&gaps);
    assert!(dist.mean.is_finite(), "{ctx}: distribution mean {}", dist.mean);
    assert!(dist.median.is_finite(), "{ctx}: distribution median {}", dist.median);
    let bands =
        try_vertex_bandwidths(g, pi).unwrap_or_else(|e| panic!("{ctx}: vertex_bandwidths: {e}"));
    assert_eq!(bands.len(), g.num_vertices(), "{ctx}: one bandwidth per vertex");
    let p = try_packing_factor(g, pi, 4, 64).unwrap_or_else(|e| panic!("{ctx}: packing: {e}"));
    assert!(p.factor.is_finite(), "{ctx}: packing factor {}", p.factor);
    (vec![m.avg_gap, m.avg_bandwidth, m.avg_log_gap, dist.mean, dist.median, p.factor], gaps, bands)
}

/// The tentpole contract: every scheme × every measure over the degenerate
/// corpus, with results bit-identical at 1, 2, and 7 rayon threads.
#[test]
fn every_scheme_and_measure_is_total_and_finite_on_the_degenerate_corpus() {
    for case in degenerate_suite() {
        let g = &case.graph;
        let n = g.num_vertices();
        for scheme in Scheme::all_schemes(42) {
            let ctx = format!("{scheme} on {}", case.name);
            match scheme.try_reorder(g) {
                Ok(pi) => {
                    assert_bijective(&pi, n, &ctx);
                    // Scheme + every measure, invariant across 1/2/7 threads.
                    let bundle = assert_thread_invariant(|| {
                        let pi = scheme
                            .try_reorder(g)
                            .unwrap_or_else(|e| panic!("{ctx}: became fallible under pool: {e}"));
                        let measures = all_measures(g, &pi, &ctx);
                        (pi, measures)
                    });
                    assert_eq!(bundle.0, pi, "{ctx}: permutation differs under explicit pool");
                }
                Err(e) => {
                    // The corpus graphs are all small, so METIS's 32 parts
                    // are rightly rejected; any other refusal breaks the
                    // contract.
                    assert!(
                        matches!(e, SchemeError::PartsExceedVertices { .. }),
                        "{ctx}: unexpected error {e}"
                    );
                }
            }
        }
    }
}

/// Louvain must return finite modularity (and finite per-phase stats) on
/// every corpus graph at every thread count.
#[test]
fn louvain_is_finite_on_the_degenerate_corpus() {
    for case in degenerate_suite() {
        let g = &case.graph;
        for threads in [1usize, 2, 7] {
            let r = build_pool(threads).install(|| louvain(g, &LouvainConfig::default()));
            let ctx = format!("louvain on {} at {threads} threads", case.name);
            assert!(r.modularity.is_finite(), "{ctx}: modularity {}", r.modularity);
            assert_eq!(r.assignment.len(), g.num_vertices(), "{ctx}: one label per vertex");
            for phase in &r.stats.phases {
                assert!(phase.modularity.is_finite(), "{ctx}: phase modularity");
            }
        }
    }
}

/// IMM must return finite influence estimates and sampling statistics on
/// every corpus graph at every thread count.
#[test]
fn imm_is_finite_on_the_degenerate_corpus() {
    for case in degenerate_suite() {
        let g = &case.graph;
        let n = g.num_vertices();
        let cfg = ImmConfig::new(2)
            .epsilon(0.9)
            .model(DiffusionModel::IndependentCascade { probability: 0.3 })
            .seed(11);
        for threads in [1usize, 2, 7] {
            let r = build_pool(threads).install(|| imm(g, &cfg));
            let ctx = format!("imm on {} at {threads} threads", case.name);
            assert!(r.influence_estimate.is_finite(), "{ctx}: estimate {}", r.influence_estimate);
            assert!(r.influence_estimate >= 0.0, "{ctx}: negative estimate");
            assert!(r.stats.throughput.is_finite(), "{ctx}: throughput {}", r.stats.throughput);
            assert!(r.stats.mean_rr_size.is_finite(), "{ctx}: mean RR size");
            assert!(r.seeds.len() <= 2.min(n), "{ctx}: too many seeds");
            for &s in &r.seeds {
                assert!((s as usize) < n, "{ctx}: seed {s} out of range");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scheme parameter validation on tiny graphs (satellite: never a panic —
// a valid permutation or a typed SchemeError).
// ---------------------------------------------------------------------------

fn tiny_graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("singleton", GraphBuilder::undirected(1).build().unwrap()),
        ("pair", GraphBuilder::undirected(2).edge(0, 1).build().unwrap()),
        ("triangle", GraphBuilder::undirected(3).edges([(0, 1), (1, 2), (2, 0)]).build().unwrap()),
        ("disconnected", GraphBuilder::undirected(5).edges([(0, 1), (3, 4)]).build().unwrap()),
    ]
}

#[test]
fn slashburn_k_frac_rounding_never_stalls_or_panics() {
    // Fractions whose per-round hub count rounds to < 1 on tiny graphs must
    // still terminate with a bijection; out-of-range fractions must be the
    // typed error.
    for (gname, g) in tiny_graphs() {
        for k_frac in [1e-9, 0.005, 0.5, 1.0] {
            let scheme = Scheme::SlashBurn { k_frac };
            let pi = scheme
                .try_reorder(&g)
                .unwrap_or_else(|e| panic!("SlashBurn({k_frac}) on {gname}: {e}"));
            assert_bijective(&pi, g.num_vertices(), &format!("SlashBurn({k_frac}) on {gname}"));
        }
        for k_frac in [0.0, -0.5, 1.5, f64::NAN] {
            let err = Scheme::SlashBurn { k_frac }.try_reorder(&g).unwrap_err();
            assert!(
                matches!(err, SchemeError::KFracOutOfRange { .. }),
                "SlashBurn({k_frac}) on {gname}: expected KFracOutOfRange, got {err}"
            );
        }
    }
}

#[test]
fn gorder_window_larger_than_graph_is_fine() {
    for (gname, g) in tiny_graphs() {
        for window in [1usize, 2, 100, 4096] {
            let scheme = Scheme::Gorder { window };
            let pi = scheme
                .try_reorder(&g)
                .unwrap_or_else(|e| panic!("Gorder(w={window}) on {gname}: {e}"));
            assert_bijective(&pi, g.num_vertices(), &format!("Gorder(w={window}) on {gname}"));
        }
        let err = Scheme::Gorder { window: 0 }.try_reorder(&g).unwrap_err();
        assert!(matches!(err, SchemeError::WindowTooSmall { .. }), "{gname}: {err}");
    }
}

#[test]
fn metis_parts_exceeding_vertices_is_a_typed_error() {
    for (gname, g) in tiny_graphs() {
        let n = g.num_vertices();
        let err = Scheme::Metis { parts: n + 1, seed: 1 }.try_reorder(&g).unwrap_err();
        assert!(
            matches!(err, SchemeError::PartsExceedVertices { parts, vertices }
                if parts == n + 1 && vertices == n),
            "METIS on {gname}: {err}"
        );
        // parts == n is the boundary and must succeed.
        let pi = Scheme::Metis { parts: n, seed: 1 }
            .try_reorder(&g)
            .unwrap_or_else(|e| panic!("METIS(parts={n}) on {gname}: {e}"));
        assert_bijective(&pi, n, &format!("METIS(parts={n}) on {gname}"));
        let err = Scheme::Metis { parts: 0, seed: 1 }.try_reorder(&g).unwrap_err();
        assert!(matches!(err, SchemeError::PartsTooSmall { .. }), "METIS(0) on {gname}: {err}");
    }
}

#[test]
fn rcm_and_cdfs_cover_disconnected_graphs() {
    let g = GraphBuilder::undirected(9)
        .edges([(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)])
        .build()
        .unwrap();
    for scheme in [Scheme::Rcm, Scheme::Cdfs] {
        let pi = scheme.try_reorder(&g).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_bijective(&pi, 9, &format!("{scheme} on disconnected"));
    }
    // A star's RCM ordering must still be bijective with the hub anywhere.
    let s = star(6);
    let pi = Scheme::Rcm.try_reorder(&s).unwrap();
    assert_bijective(&pi, 6, "RCM on star");
}

/// Every key of every row of the scheme table, set alone to each of
/// {0, 1, n − 1, n, n + 1, 2^32, 2^40, `usize::MAX`, NaN, ±∞}, on every
/// degenerate-suite graph and `euroroad`. Each case ends in a valid
/// permutation or in a typed value or range error; a panic fails it. A
/// number that sizes work before anything checks it (a Gorder window of
/// 2^40, say) shows up here as a panic or an abort.
#[test]
fn hostile_parameters_end_in_a_permutation_or_a_typed_error() {
    let mut graphs: Vec<(&str, Csr)> =
        degenerate_suite().into_iter().map(|case| (case.name, case.graph)).collect();
    graphs.push(("euroroad", by_name("euroroad").expect("in the suite").generate()));
    let mut panicked = Vec::new();
    for (gname, g) in &graphs {
        let n = g.num_vertices();
        let numbers = [0, 1, n.saturating_sub(1), n, n + 1, 1 << 32, 1 << 40, usize::MAX];
        let values = numbers
            .map(|v| v.to_string())
            .into_iter()
            .chain(["NaN", "inf", "-inf"].map(String::from));
        for value in values {
            for def in SCHEMES {
                for key in def.keys {
                    let spec = format!("{}:{key}={value}", def.spec);
                    let ctx = format!("{spec} on {gname}");
                    let run = std::panic::catch_unwind(|| {
                        Scheme::parse(&spec).and_then(|scheme| scheme.try_reorder(g))
                    });
                    match run {
                        Err(_) => panicked.push(ctx),
                        Ok(Ok(pi)) => assert_bijective(&pi, n, &ctx),
                        Ok(Err(e)) => assert!(
                            matches!(
                                e,
                                SchemeError::InvalidValue { .. }
                                    | SchemeError::KFracOutOfRange { .. }
                                    | SchemeError::WindowTooSmall { .. }
                                    | SchemeError::PartsTooSmall { .. }
                                    | SchemeError::PartsExceedVertices { .. }
                            ),
                            "{ctx}: {e}"
                        ),
                    }
                }
            }
        }
    }
    assert!(panicked.is_empty(), "hostile parameters panicked:\n{}", panicked.join("\n"));
}
