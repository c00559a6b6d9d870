//! Figure 8: gap-distribution summaries ("violin plots") for three
//! representative inputs — Chicago Road, fe_4elt2, and vsp — under every
//! evaluation scheme, plus the best/worst factors for ξ̂, β, and β̂ the
//! paper quotes (41×/39×/28×, 4×/22×/2×, 93×/17×/4×).

use super::{Ctx, FigureText};
use crate::render::{render_violin, Table};
use reorderlab_core::measures::{edge_gaps, gap_measures};
use reorderlab_core::{GapDistribution, Scheme};
use reorderlab_datasets::by_name;
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let schemes = Scheme::evaluation_suite(42);
    let mut out = String::new();
    for name in ["chicago_road", "fe_4elt2", "vsp"] {
        let spec = by_name(name).expect("instance exists");
        let g = spec.generate();
        writeln!(out, "=== {} (|V|={}, |E|={}) ===\n", name, g.num_vertices(), g.num_edges())?;
        let mut table = Table::new([
            "scheme",
            "min",
            "q1",
            "median",
            "q3",
            "max",
            "mean(ξ̂)",
            "≤10 frac",
            "log-decades",
        ]);
        let mut best_worst: Vec<(String, f64, f64, f64)> = Vec::new();
        for scheme in &schemes {
            let pi = scheme.reorder(&g);
            let gaps = edge_gaps(&g, &pi);
            let d = GapDistribution::from_gaps(&gaps);
            let m = gap_measures(&g, &pi);
            let short = d.fraction_at_most(10, &gaps);
            let decades: Vec<String> = d.log_buckets.iter().map(|c| c.to_string()).collect();
            table.row([
                scheme.name().to_string(),
                d.min.to_string(),
                format!("{:.1}", d.q1),
                format!("{:.1}", d.median),
                format!("{:.1}", d.q3),
                d.max.to_string(),
                format!("{:.2}", d.mean),
                format!("{:.2}", short),
                decades.join("/"),
            ]);
            best_worst.push((
                scheme.name().to_string(),
                m.avg_gap,
                m.bandwidth as f64,
                m.avg_bandwidth,
            ));
        }
        writeln!(out, "{}", table.render())?;

        // Visual violins for the extremes of ξ̂ on this instance.
        let best_idx = best_worst
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, _)| i)
            .expect("schemes present");
        let worst_idx = best_worst
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .map(|(i, _)| i)
            .expect("schemes present");
        for idx in [best_idx, worst_idx] {
            let scheme = &schemes[idx];
            let gaps = edge_gaps(&g, &scheme.reorder(&g));
            let d = GapDistribution::from_gaps(&gaps);
            writeln!(out, "{}", render_violin(scheme.name(), &d, 40))?;
        }

        for (label, idx) in [("ξ̂", 1usize), ("β", 2), ("β̂", 3)] {
            let vals = |i: usize, t: &(String, f64, f64, f64)| match i {
                1 => t.1,
                2 => t.2,
                _ => t.3,
            };
            let best = best_worst
                .iter()
                .min_by(|a, b| vals(idx, a).total_cmp(&vals(idx, b)))
                .expect("schemes present");
            let worst = best_worst
                .iter()
                .max_by(|a, b| vals(idx, a).total_cmp(&vals(idx, b)))
                .expect("schemes present");
            let factor =
                if vals(idx, best) > 0.0 { vals(idx, worst) / vals(idx, best) } else { 0.0 };
            writeln!(
                out,
                "{label}: best {} ({:.1}) vs worst {} ({:.1}) — {:.0}x spread",
                best.0,
                vals(idx, best),
                worst.0,
                vals(idx, worst),
                factor
            )?;
        }
        writeln!(out)?;
    }
    Ok(out)
}
