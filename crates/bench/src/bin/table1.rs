//! Table I: summary statistics of the 25 small and 9 large instances —
//! vertices, edges, maximum degree Δ, degree standard deviation — plus the
//! paper-reported sizes for side-by-side comparison, and the connectivity
//! indicators (clustering coefficient, triangles) the paper mentions.

use rayon::prelude::*;
use reorderlab_bench::args::maybe_write_csv;
use reorderlab_bench::{HarnessArgs, Table};
use reorderlab_datasets::{full_suite, InstanceSpec};
use reorderlab_graph::GraphStats;

fn main() {
    let args = HarnessArgs::from_env("Table I: instance statistics (synthetic suite vs paper)");
    let mut instances = full_suite();
    if args.quick {
        instances.truncate(6);
    }

    let stats: Vec<(InstanceSpec, GraphStats)> = instances
        .into_par_iter()
        .map(|spec| {
            let g = spec.generate();
            let s = GraphStats::compute(&g);
            (spec, s)
        })
        .collect();

    let mut table = Table::new([
        "Input",
        "Domain",
        "|V|",
        "|E|",
        "Δ",
        "StdDev",
        "ClustCoef",
        "Triangles",
        "Paper|V|",
        "Paper|E|",
        "Scale",
    ]);
    let mut csv_rows = Vec::new();
    for (spec, s) in &stats {
        table.row([
            spec.name.to_string(),
            spec.domain.to_string(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            s.max_degree.to_string(),
            format!("{:.3}", s.degree_std_dev),
            format!("{:.4}", s.clustering_coefficient),
            s.triangles.to_string(),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            if spec.is_scaled() { format!("1/{}", spec.scale_denominator) } else { "1".into() },
        ]);
        csv_rows.push(format!(
            "{},{},{},{},{},{:.3},{:.4},{},{},{},{}",
            spec.name,
            spec.domain,
            s.num_vertices,
            s.num_edges,
            s.max_degree,
            s.degree_std_dev,
            s.clustering_coefficient,
            s.triangles,
            spec.paper_vertices,
            spec.paper_edges,
            spec.scale_denominator
        ));
    }

    println!("=== Table I: instance summary (synthetic stand-ins) ===\n");
    println!("{}", table.render());
    maybe_write_csv(
        &args.csv,
        "input,domain,vertices,edges,max_degree,degree_stddev,clustering,triangles,paper_vertices,paper_edges,scale_denominator",
        &csv_rows,
    );
}
