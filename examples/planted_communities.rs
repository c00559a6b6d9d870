//! Planted-community recovery: generate stochastic block models of varying
//! strength, run parallel Louvain, and score the recovered communities
//! against the ground truth with NMI and the adjusted Rand index — then
//! show how the recovered structure feeds the Grappolo ordering.
//!
//! Run with: `cargo run --release --example planted_communities`

use reorderlab::community::{adjusted_rand_index, louvain, nmi, LouvainConfig};
use reorderlab::core::measures::gap_measures;
use reorderlab::core::Scheme;
use reorderlab::datasets::stochastic_block_model;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 2_000;
    let k = 8;
    let p_in = 0.05;
    println!("Stochastic block model: n = {n}, k = {k}, p_in = {p_in}\n");
    println!(
        "{:>8} {:>8} {:>12} {:>8} {:>8} {:>14}",
        "p_out", "edges", "communities", "NMI", "ARI", "grappolo ξ̂"
    );

    // Sweep the planted structure from crisp to dissolved.
    for p_out in [0.0005, 0.002, 0.008, 0.02, 0.05] {
        let pp = stochastic_block_model(n, k, p_in, p_out, 42);
        let r = louvain(&pp.graph, &LouvainConfig::default());
        // Score the recovered partition against the planted one.
        let score_nmi = nmi(&r.assignment, &pp.blocks);
        let score_ari = adjusted_rand_index(&r.assignment, &pp.blocks);
        // Community-based reordering quality tracks recovery quality.
        let pi = Scheme::Grappolo.reorder(&pp.graph);
        let gap = gap_measures(&pp.graph, &pi).avg_gap;
        println!(
            "{:>8} {:>8} {:>12} {:>8.3} {:>8.3} {:>14.1}",
            p_out,
            pp.graph.num_edges(),
            r.num_communities,
            score_nmi,
            score_ari,
            gap
        );
    }

    println!(
        "\nAs p_out approaches p_in the planted structure dissolves: recovery \
         scores fall and community-based reordering loses the structure it \
         exploits — the mechanism behind the paper's per-input variance."
    );
    Ok(())
}
