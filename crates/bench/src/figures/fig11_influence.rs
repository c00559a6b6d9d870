//! Figure 11: impact of vertex ordering on influence maximization
//! (IMM/Ripples, IC model, edge probability 0.25): heat maps of Sampling
//! throughput (RR sets/s, higher better) and Total execution time (lower
//! better) across orderings and the 9 large instances.
//!
//! Expected shape (paper §VI-C): effects are *marginal* — no scheme stands
//! out; throughput correlates with total time; smaller inputs mildly prefer
//! the natural order while the largest start to favor Grappolo/RCM.

use super::{Ctx, FigureText};
use crate::render::render_heatmap;
use reorderlab_core::Scheme;
use reorderlab_datasets::large_suite;
use reorderlab_influence::{imm, DiffusionModel, ImmConfig};
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let instances = large_suite();
    let schemes = Scheme::application_suite();
    let scheme_names: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();

    let mut out = String::new();
    writeln!(
        out,
        "Running IMM (IC, p = 0.25, k = 16, ε = 0.7) on {} instances × {} orderings…\n",
        instances.len(),
        schemes.len()
    )?;

    let mut rows = Vec::new();
    let mut throughput: Vec<Vec<f64>> = Vec::new();
    let mut total: Vec<Vec<f64>> = Vec::new();
    for spec in &instances {
        let g = spec.generate();
        let mut tp_row = Vec::new();
        let mut tt_row = Vec::new();
        for scheme in &schemes {
            let pi = scheme.reorder(&g);
            let h = g.permuted(&pi).expect("valid permutation");
            let cfg = ImmConfig::new(16)
                .epsilon(0.7)
                .model(DiffusionModel::IndependentCascade { probability: 0.25 })
                .seed(42);
            let r = imm(&h, &cfg);
            tp_row.push(r.stats.throughput);
            tt_row.push(r.stats.total_time.as_secs_f64());
        }
        rows.push(spec.name.to_string());
        throughput.push(tp_row);
        total.push(tt_row);
    }

    writeln!(
        out,
        "{}",
        render_heatmap("Sampling (RR sets/s)", &rows, &scheme_names, &throughput, false, 0)
    )?;
    writeln!(out, "{}", render_heatmap("Total time (s)", &rows, &scheme_names, &total, true, 3))?;

    // Headline: how marginal are the effects?
    let mut max_spread = 1.0f64;
    for row in &total {
        let best = row.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = row.iter().copied().fold(0.0f64, f64::max);
        if best > 0.0 {
            max_spread = max_spread.max(worst / best);
        }
    }
    writeln!(
        out,
        "Max best-vs-worst total-time spread: {max_spread:.2}x \
         (paper: marginal — no scheme stands out)."
    )?;
    Ok(out)
}
