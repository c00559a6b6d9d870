//! Prior-work baseline suite: the prototypical kernels earlier reordering
//! studies profile (\[2, 12\]: PageRank, SSSP, betweenness centrality) run
//! under the application orderings — the comparison point the paper's §VI
//! introduction invokes when motivating its choice of more complex
//! applications.
//!
//! Reports per-kernel wall time and, for PageRank, simulated memory metrics
//! on the same scaled hierarchy as Figures 10/12.

use super::{Ctx, FigureText};
use crate::render::{render_heatmap, Table};
use reorderlab_core::Scheme;
use reorderlab_datasets::large_suite;
use reorderlab_kernels::{betweenness_from, bfs_sssp, pagerank, PageRankConfig};
use reorderlab_memsim::{replay_pagerank_iteration, Hierarchy, HierarchyConfig};
use std::fmt::Write;
use std::time::Instant;

pub(super) fn run(_: &Ctx) -> FigureText {
    let mut instances = large_suite();
    instances.truncate(5); // BC is O(n·m); keep the suite tractable
    let schemes = Scheme::application_suite();
    let scheme_names: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();
    let bc_sources = 16usize;

    let mut rows = Vec::new();
    let mut pr_time: Vec<Vec<f64>> = Vec::new();
    let mut sssp_time: Vec<Vec<f64>> = Vec::new();
    let mut bc_time: Vec<Vec<f64>> = Vec::new();
    let mut out = String::new();

    for spec in &instances {
        let g = spec.generate();
        let mut pr_row = Vec::new();
        let mut sssp_row = Vec::new();
        let mut bc_row = Vec::new();
        writeln!(out, "=== {} (|V|={}, |E|={}) ===\n", spec.name, g.num_vertices(), g.num_edges())?;
        let mut mem_table = Table::new(["Order", "PR Lat (cyc)", "L1", "L2", "L3", "DRAM"]);
        for (scheme, name) in schemes.iter().zip(&scheme_names) {
            let pi = scheme.reorder(&g);
            let h = g.permuted(&pi).expect("valid permutation");

            let t0 = Instant::now();
            let _ = pagerank(&h, &PageRankConfig::new().tolerance(1e-6));
            let pr_secs = t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            // 8 sources spread over the id space, mapped through the
            // permutation so every ordering solves the same logical sources.
            let n = g.num_vertices() as u32;
            for k in 0..8u32 {
                let _ = bfs_sssp(&h, pi.rank(k * (n / 8).max(1) % n));
            }
            let sssp_secs = t1.elapsed().as_secs_f64();

            let t2 = Instant::now();
            let sources: Vec<u32> = (0..bc_sources as u32)
                .map(|k| pi.rank(k * (n / bc_sources as u32).max(1) % n))
                .collect();
            let _ = betweenness_from(&h, &sources);
            let bc_secs = t2.elapsed().as_secs_f64();

            let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
            replay_pagerank_iteration(&h, &mut hier);
            let mem = hier.report();
            mem_table.row([
                name.clone(),
                format!("{:.1}", mem.avg_latency),
                format!("{:.0}%", mem.bound[0] * 100.0),
                format!("{:.0}%", mem.bound[1] * 100.0),
                format!("{:.0}%", mem.bound[2] * 100.0),
                format!("{:.0}%", mem.bound[3] * 100.0),
            ]);

            pr_row.push(pr_secs);
            sssp_row.push(sssp_secs);
            bc_row.push(bc_secs);
        }
        writeln!(out, "{}", mem_table.render())?;
        rows.push(spec.name.to_string());
        pr_time.push(pr_row);
        sssp_time.push(sssp_row);
        bc_time.push(bc_row);
    }

    writeln!(out, "{}", render_heatmap("PageRank (s)", &rows, &scheme_names, &pr_time, true, 3))?;
    writeln!(out, "{}", render_heatmap("SSSP x8 (s)", &rows, &scheme_names, &sssp_time, true, 3))?;
    writeln!(
        out,
        "{}",
        render_heatmap(&format!("BC x{bc_sources} (s)"), &rows, &scheme_names, &bc_time, true, 3)
    )?;
    Ok(out)
}
