//! Figure 10: memory metrics of the Louvain hot routine (neighbor-community
//! scan) on the five largest graphs × 4 orderings, via the trace-driven
//! hierarchy simulator: average load latency (cycles) and L1/L2/L3/DRAM
//! boundedness.
//!
//! Expected shape (paper §VI-B): community-aware orderings lower average
//! latency; the interpretation of boundedness is "involved" — lower latency
//! does not always mean less DRAM-bound, because the auxiliary map
//! dominates part of the stream.

use rayon::prelude::*;
use reorderlab_bench::args::maybe_write_csv;
use reorderlab_bench::{HarnessArgs, Table};
use reorderlab_core::Scheme;
use reorderlab_datasets::large_suite;
use reorderlab_memsim::{replay_louvain_scan, Hierarchy, HierarchyConfig, MemReport};

fn main() {
    let args = HarnessArgs::from_env(
        "Figure 10: Louvain hot-routine memory metrics (latency, L1/L2/L3/DRAM bound) on the 5 largest instances",
    );
    let mut instances = large_suite();
    // The paper focuses on the five largest graphs; ours are ordered by
    // paper size, so take the tail.
    let keep = if args.quick { 2 } else { 5 };
    let skip = instances.len().saturating_sub(keep);
    instances.drain(..skip);

    let schemes = Scheme::application_suite();
    let scheme_names: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();
    println!(
        "Replaying the Louvain neighbor-community scan through a simulated (scaled) Cascade Lake hierarchy…\n"
    );

    let mut csv = Vec::new();
    for spec in &instances {
        let g = spec.generate();
        let reports: Vec<MemReport> = schemes
            .par_iter()
            .map(|scheme| {
                let pi = scheme.reorder(&g);
                let h = g.permuted(&pi).expect("valid permutation");
                let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
                replay_louvain_scan(&h, 4096, &mut hier);
                hier.report()
            })
            .collect();

        println!("=== {} (|V|={}, |E|={}) ===\n", spec.name, g.num_vertices(), g.num_edges());
        let mut table = Table::new(["Order", "Lat (cyc)", "L1", "L2", "L3", "DRAM"]);
        for (name, r) in scheme_names.iter().zip(&reports) {
            table.row([
                name.clone(),
                format!("{:.1}", r.avg_latency),
                format!("{:.0}%", r.bound[0] * 100.0),
                format!("{:.0}%", r.bound[1] * 100.0),
                format!("{:.0}%", r.bound[2] * 100.0),
                format!("{:.0}%", r.bound[3] * 100.0),
            ]);
            csv.push(format!(
                "{},{},{:.2},{:.4},{:.4},{:.4},{:.4}",
                spec.name, name, r.avg_latency, r.bound[0], r.bound[1], r.bound[2], r.bound[3]
            ));
        }
        println!("{}", table.render());

        let best = scheme_names
            .iter()
            .zip(&reports)
            .min_by(|a, b| a.1.avg_latency.total_cmp(&b.1.avg_latency))
            .expect("non-empty");
        let worst = scheme_names
            .iter()
            .zip(&reports)
            .max_by(|a, b| a.1.avg_latency.total_cmp(&b.1.avg_latency))
            .expect("non-empty");
        println!(
            "Latency spread: {} {:.1} vs {} {:.1} cycles ({:.1}x; paper reports up to 2.6x).\n",
            best.0,
            best.1.avg_latency,
            worst.0,
            worst.1.avg_latency,
            worst.1.avg_latency / best.1.avg_latency.max(1e-9)
        );
    }
    maybe_write_csv(
        &args.csv,
        "instance,scheme,avg_latency_cycles,l1_bound,l2_bound,l3_bound,dram_bound",
        &csv,
    );
}
