//! Figure 6: performance profiles of graph bandwidth β (left, Fig. 6a) and
//! average graph bandwidth β̂ (right, Fig. 6b) for the 11 schemes over the
//! 25 small instances.
//!
//! Expected shape (paper §V-A): RCM clearly dominates β (everything else
//! 2–22× worse); β̂ shows no clear winner.

use super::{Ctx, FigureText};
use crate::render::render_profile;
use reorderlab_core::PerformanceProfile;
use std::fmt::Write;

pub(super) fn run(ctx: &Ctx) -> FigureText {
    let sweep = ctx.evaluation_sweep();

    let band_profile = PerformanceProfile::try_new(
        &sweep.schemes,
        &sweep.bandwidth,
        &PerformanceProfile::default_taus(),
    )
    .map_err(|e| format!("cannot build bandwidth profile: {e}"))?;
    let mut out = String::new();
    writeln!(out, "=== Figure 6a: graph bandwidth (β) — fraction within τ × best ===\n")?;
    writeln!(out, "{}", render_profile(&band_profile))?;

    let avg_profile = PerformanceProfile::try_new(
        &sweep.schemes,
        &sweep.avg_bandwidth,
        &PerformanceProfile::default_taus(),
    )
    .map_err(|e| format!("cannot build avg-bandwidth profile: {e}"))?;
    writeln!(out, "=== Figure 6b: average graph bandwidth (β̂) — fraction within τ × best ===\n")?;
    writeln!(out, "{}", render_profile(&avg_profile))?;

    // Shape check the paper highlights: RCM wins β on most inputs.
    if let Some(rcm) = band_profile.methods.iter().position(|m| m == "RCM") {
        let wins = band_profile.win_fraction();
        writeln!(
            out,
            "RCM is best on {:.0}% of inputs for β (paper: RCM clearly outperforms all others).",
            wins[rcm] * 100.0
        )?;
    }
    Ok(out)
}
