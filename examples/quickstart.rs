//! Quickstart: build a graph, reorder it, and see locality improve.
//!
//! Run with: `cargo run --release --example quickstart`

use reorderlab::core::measures::gap_measures;
use reorderlab::core::Scheme;
use reorderlab::datasets::watts_strogatz;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small-world network: mostly a ring, with a sprinkle of shortcuts —
    // then shuffled, the way real-world inputs arrive with arbitrary ids.
    let ring = watts_strogatz(2_000, 8, 0.05, 7);
    let shuffle = Scheme::Random { seed: 99 }.reorder(&ring);
    let graph = ring.permuted(&shuffle)?;

    println!(
        "Input: |V| = {}, |E| = {} (small-world, shuffled ids)\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!("{:<14} {:>12} {:>12} {:>12}", "scheme", "avg gap ξ̂", "bandwidth β", "avg band β̂");

    for scheme in [
        Scheme::Natural,
        Scheme::DegreeSort { direction: Default::default() },
        Scheme::Rcm,
        Scheme::Grappolo,
        Scheme::Metis { parts: 32, seed: 1 },
    ] {
        // Every scheme returns a validated permutation Π: vertex -> rank.
        let pi = scheme.reorder(&graph);
        // Gap measures quantify how far apart Π places connected vertices.
        let m = gap_measures(&graph, &pi);
        println!(
            "{:<14} {:>12.1} {:>12} {:>12.1}",
            scheme.name(),
            m.avg_gap,
            m.bandwidth,
            m.avg_bandwidth
        );
    }

    println!("\nLower is better: locality-aware schemes pack neighbors into nearby ranks.");
    Ok(())
}
