//! Hybrid multiscale ordering — the paper's §VII future-work idea, built:
//! communities supply coarse structure, RCM arranges both the communities
//! and (recursively) their interiors. Compared here against its two
//! ingredients and validated on a prior-work kernel (PageRank) through the
//! cache simulator.
//!
//! Run with: `cargo run --release --example hybrid_engine`

use reorderlab::core::measures::{gap_measures, packing_factor};
use reorderlab::core::schemes::{hybrid_multiscale_order, HybridConfig};
use reorderlab::core::Scheme;
use reorderlab::datasets::by_name;
use reorderlab::memsim::{replay_pagerank_iteration, Hierarchy, HierarchyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = by_name("pgp").expect("pgp is in the small suite");
    let graph = spec.generate();
    println!(
        "Hybrid multiscale engine on {} (|V| = {}, |E| = {})\n",
        spec.name,
        graph.num_vertices(),
        graph.num_edges()
    );

    let candidates: Vec<(String, reorderlab::graph::Permutation)> = vec![
        ("Natural".into(), Scheme::Natural.reorder(&graph)),
        ("RCM".into(), Scheme::Rcm.reorder(&graph)),
        ("Grappolo".into(), Scheme::Grappolo.reorder(&graph)),
        ("Grappolo-RCM".into(), Scheme::GrappoloRcm.reorder(&graph)),
        ("Hybrid".into(), hybrid_multiscale_order(&graph, &HybridConfig::new().leaf_size(128))),
    ];

    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "ordering", "avg gap", "bandwidth", "avg band", "packing", "PR lat (cyc)"
    );
    for (name, pi) in &candidates {
        let m = gap_measures(&graph, pi);
        let pf = packing_factor(&graph, pi, 4, 64);
        // Feed one pull-PageRank iteration's address stream through the
        // simulated hierarchy under this layout.
        let laid_out = graph.permuted(pi)?;
        let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
        replay_pagerank_iteration(&laid_out, &mut hier);
        println!(
            "{:<14} {:>10.1} {:>10} {:>10.1} {:>9.2} {:>12.1}",
            name,
            m.avg_gap,
            m.bandwidth,
            m.avg_bandwidth,
            pf.factor,
            hier.report().avg_latency
        );
    }

    println!(
        "\nThe hybrid engine recursively applies RCM inside each community, \
         combining Grappolo's gap profile with RCM's bandwidth control — the \
         multiscale composition the paper proposes as future work."
    );
    Ok(())
}
