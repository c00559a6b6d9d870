//! Table I: summary statistics of the 25 small and 9 large instances —
//! vertices, edges, maximum degree Δ, degree standard deviation — plus the
//! paper-reported sizes for side-by-side comparison, and the connectivity
//! indicators (clustering coefficient, triangles) the paper mentions.

use super::{Ctx, FigureText};
use crate::render::Table;
use rayon::prelude::*;
use reorderlab_datasets::{full_suite, InstanceSpec};
use reorderlab_graph::GraphStats;
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let stats: Vec<(InstanceSpec, GraphStats)> = full_suite()
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
    }

    let mut out = String::new();
    writeln!(out, "=== Table I: instance summary (synthetic stand-ins) ===\n")?;
    writeln!(out, "{}", table.render())?;
    Ok(out)
}
