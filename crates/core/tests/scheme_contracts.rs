//! Scheme-contract suite: every registered scheme must produce a valid,
//! bijective, deterministic permutation on every generator family —
//! including degenerate graphs (empty, singleton, disconnected, self-loops)
//! — and the result must be bit-identical at 1, 2, and 7 rayon threads.
//!
//! A second group of differential tests pins each parallelized kernel
//! exactly equal to its retained serial oracle, and RCM and CDFS, whose one
//! body packs its sort keys, to the textbook queue loops below. The serial
//! schemes (Rabbit, METIS, ND) have no oracle to differ from; theirs are
//! determinism runs on graphs large enough for their sub-steps to fan out.

use reorderlab_core::schemes::{
    adaptive_order, adaptive_order_serial, cdfs_order, comm_order, comm_order_serial, dbg_order,
    dbg_order_serial, gorder, gorder_serial, hub_cluster_dbg_order, hub_cluster_dbg_order_serial,
    hub_sort_dbg_order, hub_sort_dbg_order_serial, metis_order, nd_order, rabbit_order, rcm_order,
    slashburn_order, slashburn_order_serial, CommIntra,
};
use reorderlab_core::{Scheme, SchemeError};
use reorderlab_datasets::{
    barabasi_albert, clique_chain, erdos_renyi_gnm, grid2d, star, stochastic_block_model, tri_mesh,
    watts_strogatz,
};
use reorderlab_graph::{
    assert_thread_invariant, pseudo_peripheral, Csr, GraphBuilder, Permutation, SelfLoopPolicy,
};
use std::collections::VecDeque;

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

fn assert_bijective(pi: &Permutation, n: usize, ctx: &str) {
    assert_eq!(pi.len(), n, "{ctx}: permutation length");
    assert!(
        Permutation::from_ranks(pi.ranks().to_vec()).is_ok(),
        "{ctx}: ranks are not a bijection"
    );
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
// Differential tests: parallel kernel == serial oracle, at 1/2/7 threads.
// ---------------------------------------------------------------------------

fn assert_matches_oracle<F, S>(name: &str, parallel: F, serial: S)
where
    F: Fn(&Csr) -> Permutation,
    S: Fn(&Csr) -> Permutation,
{
    for (gname, g) in contract_corpus() {
        let expected = serial(&g);
        let got = assert_thread_invariant(|| parallel(&g));
        assert_eq!(got, expected, "{name} diverged from serial oracle on {gname}");
    }
}

/// Reference RCM or CDFS: components in `(degree, id)` order of their
/// cheapest vertex, each a FIFO BFS from its pseudo-peripheral root that
/// enqueues a vertex's unvisited neighbors sorted by `(degree, id)` when
/// `sorted` (RCM) or in adjacency order (CDFS); the visit sequence reversed.
fn cuthill_mckee_serial(graph: &Csr, sorted: bool) -> Permutation {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut starts: Vec<u32> = (0..n as u32).collect();
    starts.sort_by_key(|&v| (graph.degree(v), v));
    for &s in &starts {
        if visited[s as usize] {
            continue;
        }
        let root = pseudo_peripheral(graph, s);
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<u32> =
                graph.neighbors(v).iter().copied().filter(|&u| !visited[u as usize]).collect();
            if sorted {
                nbrs.sort_by_key(|&u| (graph.degree(u), u));
            }
            for u in nbrs {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_order(&order).expect("every vertex is visited once")
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
        |g| slashburn_order_serial(g, 0.05),
    );
}

#[test]
fn gorder_matches_serial_oracle() {
    assert_matches_oracle("gorder", |g| gorder(g, 5, 4096), |g| gorder_serial(g, 5, 4096));
}

#[test]
fn dbg_family_matches_serial_oracle() {
    assert_matches_oracle("dbg_order", dbg_order, dbg_order_serial);
    assert_matches_oracle("hub_sort_dbg_order", hub_sort_dbg_order, hub_sort_dbg_order_serial);
    assert_matches_oracle(
        "hub_cluster_dbg_order",
        hub_cluster_dbg_order,
        hub_cluster_dbg_order_serial,
    );
}

#[test]
fn community_traversal_matches_serial_oracle() {
    for intra in [CommIntra::Bfs, CommIntra::Dfs, CommIntra::Degree] {
        assert_matches_oracle(
            &format!("comm_order({intra:?})"),
            |g| comm_order(g, intra),
            |g| comm_order_serial(g, intra),
        );
    }
}

#[test]
fn adaptive_matches_serial_oracle() {
    assert_matches_oracle("adaptive_order", adaptive_order, adaptive_order_serial);
}

/// Gorder's parallel two-hop gather only engages for vertices with degree
/// ≥ 32 when more than one thread is installed — exercise it explicitly
/// with hub-heavy graphs so the differential test covers the parallel path,
/// not just the serial fallback.
#[test]
fn gorder_parallel_gather_path_matches_oracle_on_hub_graphs() {
    let hubs = vec![
        ("star", star(200)),
        ("dense-powerlaw", barabasi_albert(300, 16, 13)),
        ("clique-chain", clique_chain(4, 40)),
    ];
    for (gname, g) in hubs {
        let expected = gorder_serial(&g, 5, 4096);
        let got = assert_thread_invariant(|| gorder(&g, 5, 4096));
        assert_eq!(got, expected, "gorder parallel path diverged on {gname}");
    }
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
