//! Application-level integration: community detection and influence
//! maximization running on reordered graphs (the §VI pipeline).

use reorderlab::community::{louvain, modularity, LouvainConfig};
use reorderlab::core::Scheme;
use reorderlab::datasets::{barabasi_albert, clique_chain};
use reorderlab::graph::build_pool;
use reorderlab::influence::{imm, DiffusionModel, ImmConfig};

/// Louvain's solution quality is ordering-robust: modularity on any
/// relabeling stays close to the natural-order result (the paper's
/// "Modularity" heat map shows small spreads).
#[test]
fn louvain_quality_stable_across_orderings() {
    let g = clique_chain(8, 6);
    let baseline = louvain(&g, &LouvainConfig::default()).modularity;
    for scheme in Scheme::application_suite() {
        let pi = scheme.reorder(&g);
        let h = g.permuted(&pi).expect("valid permutation");
        let q = louvain(&h, &LouvainConfig::default()).modularity;
        assert!(
            (q - baseline).abs() < 0.05,
            "{scheme}: modularity {q} far from baseline {baseline}"
        );
    }
}

/// Communities found on the relabeled graph map back to communities of the
/// original graph with the same modularity.
#[test]
fn louvain_communities_map_back_through_permutation() {
    let g = barabasi_albert(400, 3, 7);
    let pi = Scheme::Rcm.reorder(&g);
    let h = g.permuted(&pi).expect("valid permutation");
    let r = louvain(&h, &LouvainConfig::default());
    // Pull the assignment back: original vertex v lives at rank pi(v).
    let back: Vec<u32> =
        (0..g.num_vertices() as u32).map(|v| r.assignment[pi.rank(v) as usize]).collect();
    let q_back = modularity(&g, &back);
    assert!(
        (q_back - r.modularity).abs() < 1e-9,
        "pulled-back assignment must score identically: {q_back} vs {}",
        r.modularity
    );
}

/// IMM finds high-degree seeds regardless of the vertex labeling, and the
/// seed quality (influence estimate) is ordering-robust.
#[test]
fn imm_influence_stable_across_orderings() {
    let g = barabasi_albert(800, 3, 3);
    let cfg =
        ImmConfig::new(4).model(DiffusionModel::IndependentCascade { probability: 0.05 }).seed(17);
    let baseline = imm(&g, &cfg).influence_estimate;
    for scheme in Scheme::application_suite() {
        let pi = scheme.reorder(&g);
        let h = g.permuted(&pi).expect("valid permutation");
        let est = imm(&h, &cfg).influence_estimate;
        let rel = (est - baseline).abs() / baseline.max(1.0);
        assert!(rel < 0.35, "{scheme}: influence {est} deviates {rel:.2} from baseline {baseline}");
    }
}

/// Seeds selected on the relabeled graph, mapped back through the inverse
/// permutation, are high-degree vertices of the original graph.
#[test]
fn imm_seeds_map_back_to_influential_vertices() {
    let g = barabasi_albert(600, 2, 9);
    let pi = Scheme::DegreeSort { direction: Default::default() }.reorder(&g);
    let h = g.permuted(&pi).expect("valid permutation");
    let cfg =
        ImmConfig::new(3).model(DiffusionModel::IndependentCascade { probability: 0.08 }).seed(2);
    let r = imm(&h, &cfg);
    let inv = pi.inverse();
    let mean_deg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
    for &s in &r.seeds {
        let original = inv.rank(s);
        let deg = g.degree(original);
        assert!(
            deg as f64 > mean_deg,
            "seed {original} (degree {deg}) should be above the mean degree {mean_deg:.1}"
        );
    }
}

/// The memory replay kernels accept every application-scheme layout and
/// produce internally consistent reports.
#[test]
fn memory_replays_consistent_across_orderings() {
    use reorderlab::memsim::{replay_louvain_scan, replay_rr_sampling, Hierarchy, HierarchyConfig};
    let g = barabasi_albert(2_000, 4, 5);
    for scheme in Scheme::application_suite() {
        let pi = scheme.reorder(&g);
        let h = g.permuted(&pi).expect("valid permutation");
        let mut hier = Hierarchy::new(HierarchyConfig::tiny());
        replay_louvain_scan(&h, 1024, &mut hier);
        let expected = g.num_vertices() as u64 + 3 * g.num_arcs() as u64;
        assert_eq!(hier.loads(), expected, "{scheme}: load count is layout-independent");
        let r = hier.report();
        assert!((r.bound.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{scheme}");

        let mut hier2 = Hierarchy::new(HierarchyConfig::tiny());
        replay_rr_sampling(&h, &pi.to_order(), 0.1, 5, 3, &mut hier2);
        assert!(hier2.loads() > 0, "{scheme}");
    }
}

/// Serial and parallel Louvain agree exactly (snapshot + ordered apply),
/// which is what makes the paper's serial-vs-parallel comparison clean.
#[test]
fn louvain_thread_count_invariance_on_reordered_graph() {
    let g = clique_chain(10, 5);
    let pi = Scheme::Grappolo.reorder(&g);
    let h = g.permuted(&pi).expect("valid permutation");
    let cfg = LouvainConfig::default();
    let serial = build_pool(1).install(|| louvain(&h, &cfg));
    let parallel = build_pool(4).install(|| louvain(&h, &cfg));
    assert_eq!(serial.assignment, parallel.assignment);
    assert_eq!(serial.modularity, parallel.modularity);
}
