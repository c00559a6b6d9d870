//! End-to-end pipeline tests: dataset generation → reordering → relabeling
//! → measurement, across every crate boundary.

use reorderlab::core::measures::{edge_gaps, gap_measures};
use reorderlab::core::Scheme;
use reorderlab::datasets::{by_name, clique_chain};
use reorderlab::graph::{GraphStats, Permutation};

/// Every scheme yields a valid permutation on a real suite instance, and
/// relabeling by it preserves the graph structure.
#[test]
fn all_schemes_on_a_suite_instance() {
    let spec = by_name("euroroad").expect("euroroad is in the suite");
    let g = spec.generate();
    let before = GraphStats::compute(&g);
    for scheme in Scheme::evaluation_suite(5) {
        let pi = scheme.reorder(&g);
        assert_eq!(pi.len(), g.num_vertices(), "{scheme}");
        let h = g.permuted(&pi).expect("valid permutation");
        let after = GraphStats::compute(&h);
        assert_eq!(before.num_edges, after.num_edges, "{scheme}");
        assert_eq!(before.max_degree, after.max_degree, "{scheme}");
        assert_eq!(before.triangles, after.triangles, "{scheme}");
    }
}

/// Measuring (G, Π) equals measuring (Π(G), identity) for every scheme.
#[test]
fn measures_commute_with_relabeling() {
    // 36 vertices: enough for every suite scheme (METIS needs ≥ 32).
    let g = clique_chain(6, 6);
    for scheme in Scheme::evaluation_suite(9) {
        let pi = scheme.reorder(&g);
        let direct = gap_measures(&g, &pi);
        let relabeled = g.permuted(&pi).expect("valid permutation");
        let id = Permutation::identity(g.num_vertices());
        let indirect = gap_measures(&relabeled, &id);
        assert!((direct.avg_gap - indirect.avg_gap).abs() < 1e-9, "{scheme}");
        assert_eq!(direct.bandwidth, indirect.bandwidth, "{scheme}");
    }
}

/// The whole pipeline is deterministic: same instance + same scheme (with
/// fixed seeds and one thread) twice gives identical measures.
#[test]
fn pipeline_is_deterministic() {
    let spec = by_name("chicago_road").expect("chicago_road is in the suite");
    let schemes = [
        Scheme::Random { seed: 4 },
        Scheme::SlashBurn { k_frac: 0.005 },
        Scheme::Gorder { window: 5 },
        Scheme::Metis { parts: 8, seed: 2 },
        Scheme::Grappolo,
        Scheme::RabbitOrder,
    ];
    for scheme in schemes {
        let a = {
            let g = spec.generate();
            gap_measures(&g, &scheme.reorder(&g))
        };
        let b = {
            let g = spec.generate();
            gap_measures(&g, &scheme.reorder(&g))
        };
        assert_eq!(a, b, "{scheme} was not deterministic");
    }
}

/// Gap profiles (the violin-plot raw data) agree with the scalar measures.
#[test]
fn distributions_match_scalar_measures() {
    use reorderlab::core::GapDistribution;
    let spec = by_name("euroroad").expect("in suite");
    let g = spec.generate();
    for scheme in
        [Scheme::Natural, Scheme::Rcm, Scheme::DegreeSort { direction: Default::default() }]
    {
        let pi = scheme.reorder(&g);
        let gaps = edge_gaps(&g, &pi);
        let dist = GapDistribution::from_gaps(&gaps);
        let m = gap_measures(&g, &pi);
        assert!((dist.mean - m.avg_gap).abs() < 1e-9, "{scheme}");
        assert_eq!(dist.max, m.bandwidth, "{scheme}");
        assert_eq!(dist.count, g.num_edges(), "{scheme}");
    }
}

/// The facade crate re-exports are wired: each sub-crate is reachable.
#[test]
fn facade_reexports_work() {
    let g = reorderlab::datasets::path(8);
    let pi = reorderlab::core::Scheme::Rcm.reorder(&g);
    assert_eq!(reorderlab::core::measures::gap_measures(&g, &pi).bandwidth, 1);
    let p = reorderlab::partition::partition_kway(
        &g,
        &reorderlab::partition::PartitionConfig::new(2).seed(0),
    );
    assert_eq!(p.num_parts, 2);
    let mut h = reorderlab::memsim::Hierarchy::new(reorderlab::memsim::HierarchyConfig::tiny());
    reorderlab::memsim::replay_louvain_scan(&g, 64, &mut h);
    assert!(h.loads() > 0);
}
