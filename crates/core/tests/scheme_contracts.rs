//! Scheme-contract suite: every registered scheme must produce a valid,
//! bijective, deterministic permutation on every generator family —
//! including degenerate graphs (empty, singleton, disconnected, self-loops)
//! — and the result must be bit-identical at 1, 2, and 7 rayon threads.
//!
//! A second group of differential tests pins each parallelized kernel, and
//! RCM and CDFS, whose one body packs its sort keys, exactly equal to the
//! plain serial references in `support`. The serial schemes (Rabbit, METIS,
//! ND) have no reference to differ from; theirs are determinism runs on
//! graphs large enough for their sub-steps to fan out. Gorder's one serial
//! body is pinned by `ordering_goldens.rs`.

mod support;

use reorderlab_core::schemes::{
    adaptive_order, cdfs_order, comm_order, dbg_order, gorder, hub_cluster_dbg_order,
    hub_sort_dbg_order, metis_order, nd_order, rabbit_order, rcm_order, slashburn_order, CommIntra,
};
use reorderlab_core::{Scheme, SchemeError};
use reorderlab_datasets::{
    barabasi_albert, erdos_renyi_gnm, grid2d, stochastic_block_model, tri_mesh, watts_strogatz,
};
use reorderlab_graph::{assert_thread_invariant, Csr, GraphBuilder, Permutation, SelfLoopPolicy};
use support::{
    adaptive_serial, assert_bijective, comm_serial, cuthill_mckee_serial, dbg_serial,
    hub_cluster_dbg_serial, hub_sort_dbg_serial, slashburn_serial,
};

/// One instance per generator family from `reorderlab-datasets`
/// (random / sbm / powerlaw / mesh) plus the degenerate corner cases the
/// schemes must survive: the empty graph, a single vertex, an edgeless
/// graph, a disconnected graph, and a graph with self-loops.
fn contract_corpus() -> Vec<(&'static str, Csr)> {
    vec![
        ("empty", GraphBuilder::undirected(0).build().unwrap()),
        ("singleton", GraphBuilder::undirected(1).build().unwrap()),
        ("edgeless", GraphBuilder::undirected(6).build().unwrap()),
        (
            "disconnected",
            GraphBuilder::undirected(12)
                .edges([(0, 1), (1, 2), (4, 5), (7, 8), (8, 9), (9, 7)])
                .build()
                .unwrap(),
        ),
        (
            "self-loops",
            GraphBuilder::undirected(8)
                .self_loops(SelfLoopPolicy::Keep)
                .edges([(0, 0), (0, 1), (1, 2), (3, 3), (4, 5), (5, 6), (6, 4), (2, 2)])
                .build()
                .unwrap(),
        ),
        ("random", erdos_renyi_gnm(60, 150, 7)),
        ("small-world", watts_strogatz(48, 4, 0.2, 11)),
        ("sbm", stochastic_block_model(60, 3, 0.4, 0.02, 3).graph),
        ("powerlaw", barabasi_albert(80, 2, 5)),
        ("mesh", tri_mesh(8, 8, 0.3, 9)),
    ]
}

/// Every scheme in the extended suite × every corpus graph: bijective,
/// stable across repeated runs, and thread-count invariant.
#[test]
fn every_scheme_on_every_generator_is_a_thread_invariant_bijection() {
    for (gname, g) in contract_corpus() {
        for scheme in Scheme::all_schemes(42) {
            let ctx = format!("{scheme} on {gname}");
            if let Err(e) = scheme.validate(g.num_vertices()) {
                // The degenerate corpus graphs have fewer than 32 vertices,
                // so METIS's 32 parts are rightly rejected — any other
                // refusal would be a contract break. The rejection itself
                // must be consistent between validate and try_reorder.
                assert!(
                    matches!(e, SchemeError::PartsExceedVertices { .. }),
                    "{ctx}: unexpected validation error {e}"
                );
                assert_eq!(scheme.try_reorder(&g).unwrap_err(), e, "{ctx}");
                continue;
            }
            let pi = assert_thread_invariant(|| scheme.reorder(&g));
            assert_bijective(&pi, g.num_vertices(), &ctx);
            assert_eq!(pi, scheme.reorder(&g), "{ctx}: repeated run diverged");
        }
    }
}

/// The degenerate cases once more for the schemes with non-default
/// parameters that the suites don't cover (aggressive SlashBurn fraction,
/// tiny Gorder window).
#[test]
fn parameter_extremes_survive_degenerate_graphs() {
    for (gname, g) in contract_corpus() {
        let n = g.num_vertices();
        assert_bijective(&slashburn_order(&g, 1.0), n, &format!("SlashBurn(1.0) on {gname}"));
        assert_bijective(&gorder(&g, 1, 4096), n, &format!("Gorder(w=1) on {gname}"));
    }
}

// ---------------------------------------------------------------------------
// Differential tests: kernel == serial reference, at 1/2/7 threads.
// ---------------------------------------------------------------------------

fn assert_matches_oracle<F, S>(name: &str, parallel: F, serial: S)
where
    F: Fn(&Csr) -> Permutation,
    S: Fn(&Csr) -> Permutation,
{
    for (gname, g) in contract_corpus() {
        let expected = serial(&g);
        let got = assert_thread_invariant(|| parallel(&g));
        assert_eq!(got, expected, "{name} diverged from serial reference on {gname}");
    }
}

#[test]
fn rcm_matches_serial_oracle() {
    assert_matches_oracle("rcm_order", rcm_order, |g| cuthill_mckee_serial(g, true));
}

#[test]
fn cdfs_matches_serial_oracle() {
    assert_matches_oracle("cdfs_order", cdfs_order, |g| cuthill_mckee_serial(g, false));
}

#[test]
fn slashburn_matches_serial_oracle() {
    assert_matches_oracle(
        "slashburn_order",
        |g| slashburn_order(g, 0.05),
        |g| slashburn_serial(g, 0.05),
    );
}

#[test]
fn dbg_family_matches_serial_oracle() {
    assert_matches_oracle("dbg_order", dbg_order, dbg_serial);
    assert_matches_oracle("hub_sort_dbg_order", hub_sort_dbg_order, hub_sort_dbg_serial);
    assert_matches_oracle("hub_cluster_dbg_order", hub_cluster_dbg_order, hub_cluster_dbg_serial);
}

#[test]
fn community_traversal_matches_serial_oracle() {
    for intra in [CommIntra::Bfs, CommIntra::Dfs, CommIntra::Degree] {
        assert_matches_oracle(
            &format!("comm_order({intra:?})"),
            |g| comm_order(g, intra),
            |g| comm_serial(g, intra),
        );
    }
}

#[test]
fn adaptive_matches_serial_oracle() {
    assert_matches_oracle("adaptive_order", adaptive_order, adaptive_serial);
}

/// The three schemes built on serial scans, on graphs of a thousand
/// vertices and more, where contraction and sub-graph extraction under them
/// do fan out: bit-identical at 1/2/7 threads.
#[test]
fn serial_scan_schemes_are_thread_invariant_on_thousand_vertex_graphs() {
    let big = vec![
        ("powerlaw-1300", barabasi_albert(1300, 3, 21)),
        ("sbm-1200", stochastic_block_model(1200, 3, 0.05, 0.002, 17).graph),
        ("grid-1350", grid2d(27, 50)),
    ];
    for (gname, g) in big {
        let rabbit = assert_thread_invariant(|| rabbit_order(&g));
        assert_bijective(&rabbit, g.num_vertices(), &format!("rabbit on {gname}"));
        let metis = assert_thread_invariant(|| metis_order(&g, 32, 42));
        assert_bijective(&metis, g.num_vertices(), &format!("metis on {gname}"));
        let nd = assert_thread_invariant(|| nd_order(&g, 42));
        assert_bijective(&nd, g.num_vertices(), &format!("nd on {gname}"));
    }
}
