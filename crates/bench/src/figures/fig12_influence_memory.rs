//! Figure 12: memory-performance counters for the hotspot of Ripples'
//! sampling (the reverse-reachability generator) on the skitter instance,
//! across orderings: average load latency and L1/L2/L3/DRAM boundedness,
//! via the trace-driven hierarchy simulator.
//!
//! Expected shape (paper §VI-C): Degree Sort and Grappolo improve the
//! fraction of loads bound by L1, yet end-to-end effects in Figure 11 stay
//! marginal — the paper's point that cache placement alone does not decide
//! sampling throughput.

use super::{Ctx, FigureText};
use crate::render::Table;
use rayon::prelude::*;
use reorderlab_core::Scheme;
use reorderlab_datasets::by_name;
use reorderlab_memsim::{replay_rr_sampling, Hierarchy, HierarchyConfig, MemReport};
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let spec = by_name("skitter").expect("skitter is in the large suite");
    let g = spec.generate();
    let num_sets = 64;
    let schemes = Scheme::application_suite();
    let scheme_names: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();

    let mut out = String::new();
    writeln!(
        out,
        "Replaying {num_sets} IC reverse-BFS samples (p = 0.25) on {} (|V|={}, |E|={})…\n",
        spec.name,
        g.num_vertices(),
        g.num_edges()
    )?;

    let reports: Vec<MemReport> = schemes
        .par_iter()
        .map(|scheme| {
            let pi = scheme.reorder(&g);
            let h = g.permuted(&pi).expect("valid permutation");
            // Stable labels: vertex v of the permuted graph is original
            // vertex pi^-1(v), so every ordering replays the same logical
            // traversal and differs only in placement.
            let labels = pi.to_order();
            let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
            replay_rr_sampling(&h.transposed(), &labels, 0.25, num_sets, 42, &mut hier);
            hier.report()
        })
        .collect();

    let mut table = Table::new(["Order", "LL (cyc)", "L1", "L2", "L3", "DRAM", "loads"]);
    for (name, r) in scheme_names.iter().zip(&reports) {
        table.row([
            name.clone(),
            format!("{:.1}", r.avg_latency),
            format!("{:.0}%", r.bound[0] * 100.0),
            format!("{:.0}%", r.bound[1] * 100.0),
            format!("{:.0}%", r.bound[2] * 100.0),
            format!("{:.0}%", r.bound[3] * 100.0),
            r.loads.to_string(),
        ]);
    }
    writeln!(out, "{}", table.render())?;

    let best_l1 = scheme_names
        .iter()
        .zip(&reports)
        .max_by(|a, b| a.1.bound[0].total_cmp(&b.1.bound[0]))
        .expect("non-empty");
    writeln!(
        out,
        "Most L1-bound ordering: {} ({:.0}% of stall cycles at L1) — the paper singles out \
         Degree Sort and Grappolo on this metric.",
        best_l1.0,
        best_l1.1.bound[0] * 100.0
    )?;
    Ok(out)
}
