//! Integration of the prior-work kernel suite with the reordering pipeline:
//! every kernel must compute layout-invariant *results* on reordered graphs
//! (only performance may change), closing the loop the paper's §VI
//! introduction draws between its applications and the PageRank/SSSP/BC
//! tradition.

use reorderlab::core::Scheme;
use reorderlab::datasets::{by_name, stochastic_block_model};
use reorderlab::kernels::{betweenness_from, bfs_sssp, pagerank, PageRankConfig};

#[test]
fn pagerank_ranking_is_layout_invariant() {
    let g = by_name("euroroad").expect("in suite").generate();
    let base = pagerank(&g, &PageRankConfig::new().tolerance(1e-10));
    for scheme in Scheme::application_suite() {
        let pi = scheme.reorder(&g);
        let h = g.permuted(&pi).expect("valid permutation");
        let r = pagerank(&h, &PageRankConfig::new().tolerance(1e-10));
        for v in 0..g.num_vertices() as u32 {
            let delta = (base.scores[v as usize] - r.scores[pi.rank(v) as usize]).abs();
            assert!(delta < 1e-9, "{scheme}: score of {v} drifted by {delta}");
        }
    }
}

#[test]
fn bfs_distances_are_layout_invariant() {
    let g = by_name("chicago_road").expect("in suite").generate();
    let src = 17u32;
    let base = bfs_sssp(&g, src);
    for scheme in Scheme::application_suite() {
        let pi = scheme.reorder(&g);
        let h = g.permuted(&pi).expect("valid permutation");
        let r = bfs_sssp(&h, pi.rank(src));
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(
                base.distance[v as usize],
                r.distance[pi.rank(v) as usize],
                "{scheme}: distance of {v} changed"
            );
        }
        // The amount of work is also layout-invariant for plain BFS.
        assert_eq!(base.relaxations, r.relaxations, "{scheme}");
    }
}

#[test]
fn betweenness_top_vertex_survives_relabeling() {
    let g = by_name("euroroad").expect("in suite").generate();
    let sources: Vec<u32> = (0..16).map(|k| k * 70 % g.num_vertices() as u32).collect();
    let base = betweenness_from(&g, &sources);
    let top = base.top().expect("non-empty");
    let pi = Scheme::Rcm.reorder(&g);
    let h = g.permuted(&pi).expect("valid permutation");
    let mapped: Vec<u32> = sources.iter().map(|&s| pi.rank(s)).collect();
    let re = betweenness_from(&h, &mapped);
    assert_eq!(
        re.top().expect("non-empty"),
        pi.rank(top),
        "the most-between vertex must map through the permutation"
    );
}

#[test]
fn louvain_recovers_planted_blocks_and_orders_by_them() {
    use reorderlab::community::{louvain, nmi, LouvainConfig};
    use reorderlab::core::measures::gap_measures;
    let pp = stochastic_block_model(800, 4, 0.08, 0.001, 5);
    let r = louvain(&pp.graph, &LouvainConfig::default());
    let score = nmi(&r.assignment, &pp.blocks);
    assert!(score > 0.9, "crisp planted blocks must be recovered, NMI {score}");
    // The recovered communities drive a strong Grappolo ordering.
    let pi = Scheme::Grappolo.reorder(&pp.graph);
    let grappolo = gap_measures(&pp.graph, &pi).avg_gap;
    let random = gap_measures(&pp.graph, &Scheme::Random { seed: 1 }.reorder(&pp.graph)).avg_gap;
    assert!(
        grappolo < random / 2.0,
        "community order should beat random decisively: {grappolo} vs {random}"
    );
}
