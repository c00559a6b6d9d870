//! Determinism guarantees across the whole stack: identical inputs and
//! seeds must give bit-identical outputs regardless of thread counts and
//! repeated invocation — the property that makes every experiment in
//! EXPERIMENTS.md reproducible.

use reorderlab::community::{louvain, LouvainConfig};
use reorderlab::core::measures::edge_gaps;
use reorderlab::core::schemes::{hybrid_multiscale_order, minla_anneal, HybridConfig, MinlaConfig};
use reorderlab::core::Scheme;
use reorderlab::datasets::{by_name, full_suite, stochastic_block_model};
use reorderlab::graph::build_pool;
use reorderlab::influence::{estimate_spread, imm, DiffusionModel, ImmConfig};
use reorderlab::partition::{partition_kway, PartitionConfig};

/// Every suite instance regenerates identically (seeds derive from names).
#[test]
fn suite_generation_is_reproducible() {
    for spec in full_suite().into_iter().take(8) {
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b, "{} regenerated differently", spec.name);
    }
}

/// Every evaluation scheme is a pure function of (graph, seed).
#[test]
fn all_schemes_are_deterministic() {
    let g = by_name("euroroad").expect("in suite").generate();
    for scheme in Scheme::evaluation_suite(99) {
        assert_eq!(scheme.reorder(&g), scheme.reorder(&g), "{scheme}");
    }
    let cfg = HybridConfig::new().leaf_size(64);
    assert_eq!(hybrid_multiscale_order(&g, &cfg), hybrid_multiscale_order(&g, &cfg));
    let start = Scheme::Random { seed: 5 }.reorder(&g);
    let mcfg = MinlaConfig::budget(g.num_vertices(), 20, 3);
    assert_eq!(minla_anneal(&g, &start, &mcfg), minla_anneal(&g, &start, &mcfg));
}

/// Louvain: same result for 1, 2, and 4 worker threads.
#[test]
fn louvain_thread_invariance() {
    let pp = stochastic_block_model(600, 6, 0.08, 0.002, 3);
    let results: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&t| build_pool(t).install(|| louvain(&pp.graph, &LouvainConfig::default())))
        .collect();
    for r in &results[1..] {
        assert_eq!(r.assignment, results[0].assignment);
        assert_eq!(r.modularity, results[0].modularity);
        assert_eq!(r.num_communities, results[0].num_communities);
    }
}

/// IMM: same seeds and estimates for 1 vs 3 sampling threads.
#[test]
fn imm_thread_invariance() {
    let g = by_name("chicago_road").expect("in suite").generate();
    let base =
        ImmConfig::new(4).model(DiffusionModel::IndependentCascade { probability: 0.2 }).seed(7);
    let a = build_pool(1).install(|| imm(&g, &base));
    let b = build_pool(3).install(|| imm(&g, &base));
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.influence_estimate, b.influence_estimate);
    assert_eq!(a.stats.rr_sets, b.stats.rr_sets);
}

/// Forward Monte-Carlo spread: thread-count independent.
#[test]
fn spread_estimation_thread_invariance() {
    let g = by_name("chicago_road").expect("in suite").generate();
    let m = DiffusionModel::IndependentCascade { probability: 0.3 };
    let a = estimate_spread(&g, &[0, 5], m, 300, 11);
    let b = estimate_spread(&g, &[0, 5], m, 300, 11);
    assert_eq!(a, b);
}

/// Partitioner: pure function of (graph, config).
#[test]
fn partitioner_determinism() {
    let g = by_name("delaunay_n11").expect("in suite").generate();
    for k in [4usize, 17, 32] {
        let cfg = PartitionConfig::new(k).seed(21);
        assert_eq!(partition_kway(&g, &cfg), partition_kway(&g, &cfg), "k={k}");
    }
}

/// The full measurement pipeline: generate → reorder → relabel → measure,
/// twice, bit-identical gap profile.
#[test]
fn end_to_end_gap_profile_reproducible() {
    let run = || {
        let g = by_name("figeys").expect("in suite").generate();
        let pi = build_pool(2).install(|| Scheme::GrappoloRcm.reorder(&g));
        let h = g.permuted(&pi).expect("valid permutation");
        edge_gaps(&h, &reorderlab::graph::Permutation::identity(h.num_vertices()))
    };
    assert_eq!(run(), run());
}
