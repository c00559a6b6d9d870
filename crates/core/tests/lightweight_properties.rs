//! Permutation-validity properties for the lightweight + adaptive family
//! (DBG / HubSortDBG / HubClusterDBG, CommBFS / CommDFS / CommDegree,
//! Adaptive): on randomized generator graphs each scheme must produce a
//! bijection on `0..n`, be deterministic across repeated runs and thread
//! counts, and match its serial reference in `support` exactly. The chaos-seed
//! axis (8 seeds × {2, 7} threads) for the same family runs in
//! `chaos_schedules.rs` under `--features chaos`.

mod support;

use proptest::prelude::*;
use reorderlab_core::schemes::CommIntra;
use reorderlab_core::Scheme;
use reorderlab_datasets::{barabasi_albert, erdos_renyi_gnm, grid2d, stochastic_block_model};
use reorderlab_graph::{assert_thread_invariant, Csr, Permutation};
use support::{
    adaptive_serial, assert_bijective, comm_serial, dbg_serial, hub_cluster_dbg_serial,
    hub_sort_dbg_serial,
};

type Oracle = fn(&Csr) -> Permutation;

/// The seven schemes the family adds, paired with their serial references.
fn family() -> Vec<(Scheme, Oracle)> {
    vec![
        (Scheme::Dbg, dbg_serial),
        (Scheme::HubSortDbg, hub_sort_dbg_serial),
        (Scheme::HubClusterDbg, hub_cluster_dbg_serial),
        (Scheme::CommunityBfs, |g| comm_serial(g, CommIntra::Bfs)),
        (Scheme::CommunityDfs, |g| comm_serial(g, CommIntra::Dfs)),
        (Scheme::CommunityDegree, |g| comm_serial(g, CommIntra::Degree)),
        (Scheme::Adaptive, adaptive_serial),
    ]
}

/// Pick one of four structurally distinct generators from the drawn
/// parameters: Erdős–Rényi (flat), Barabási–Albert (skewed), SBM
/// (modular), 2-D grid (high diameter).
fn build_graph(family: usize, n: usize, density: usize, seed: u64) -> Csr {
    match family % 4 {
        0 => erdos_renyi_gnm(n, n * density, seed),
        1 => barabasi_albert(n, density.max(1), seed),
        2 => stochastic_block_model(n, 3, 0.3, 0.01, seed).graph,
        _ => grid2d(density.max(2), n / density.max(2) + 1),
    }
}

fn assert_family_contract(g: &Csr, ctx: &str) {
    let n = g.num_vertices();
    for (scheme, oracle) in family() {
        let label = format!("{scheme} on {ctx}");
        let pi = assert_thread_invariant(|| scheme.reorder(g));
        assert_bijective(&pi, n, &label);
        assert_eq!(pi, scheme.reorder(g), "{label}: repeated run diverged");
        assert_eq!(pi, oracle(g), "{label}: diverged from serial reference");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn family_is_bijective_deterministic_and_oracle_equal(
        gen in 0usize..4,
        n in 8usize..120,
        density in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let g = build_graph(gen, n, density, seed);
        assert_family_contract(&g, &format!("generator {gen} (n={n}, d={density}, seed={seed})"));
    }
}

/// The same contract on the structured fixtures the proptest ranges can
/// miss: a hub-dominated star and a two-scale SBM.
#[test]
fn family_contract_on_structured_fixtures() {
    let fixtures = vec![
        ("star-100", reorderlab_datasets::star(100)),
        ("sbm-2scale", stochastic_block_model(90, 9, 0.6, 0.005, 23).graph),
    ];
    for (name, g) in fixtures {
        assert_family_contract(&g, name);
    }
}
