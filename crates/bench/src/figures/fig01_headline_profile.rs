//! Figure 1 (the headline figure): profile of relative performance of the
//! average linear-arrangement gap across all evaluated schemes on the 25
//! small inputs, plus the headline statistic — the factor between the best
//! and poorest scheme (the paper reports up to 40×).

use super::{Ctx, FigureText};
use crate::render::render_profile;
use reorderlab_core::PerformanceProfile;
use std::fmt::Write;

pub(super) fn run(ctx: &Ctx) -> FigureText {
    let sweep = ctx.evaluation_sweep();
    let profile = PerformanceProfile::new(
        &sweep.schemes,
        &sweep.avg_gap,
        &PerformanceProfile::default_taus(),
    );

    let mut out = String::new();
    writeln!(out, "=== Figure 1: relative avg-gap performance profile ===\n")?;
    writeln!(out, "{}", render_profile(&profile))?;

    // Headline: spread between best and poorest scheme per instance.
    let mut worst_factor = 0.0f64;
    let mut worst_instance = String::new();
    for (i, inst) in sweep.instances.iter().enumerate() {
        let col: Vec<f64> = sweep.avg_gap.iter().map(|row| row[i]).collect();
        let best = col.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = col.iter().copied().fold(0.0f64, f64::max);
        if best > 0.0 && worst / best > worst_factor {
            worst_factor = worst / best;
            worst_instance = inst.clone();
        }
    }
    writeln!(
        out,
        "Best-vs-poorest ξ̂ spread: up to {worst_factor:.1}x (on {worst_instance}); the paper reports up to 40x.",
    )?;
    Ok(out)
}
