//! Figure 5: profile of relative performance of the average gap profile
//! (ξ̂) for the 11 evaluation schemes over the 25 small instances.
//!
//! Expected shape (paper §V-A): METIS-32, Grappolo, and Rabbit-Order form
//! the top tier; RCM is a close second tier; a mixed third tier sits
//! 5–25× off; the degree-/hub-based schemes trail 10–40× off.

use super::{Ctx, FigureText};
use crate::render::{render_profile, Table};
use reorderlab_core::PerformanceProfile;
use std::fmt::Write;

pub(super) fn run(ctx: &Ctx) -> FigureText {
    let sweep = ctx.evaluation_sweep();

    let mut out = String::new();
    writeln!(out, "=== Raw ξ̂ per scheme × instance ===\n")?;
    let mut raw =
        Table::new(std::iter::once("scheme".to_string()).chain(sweep.instances.iter().cloned()));
    for (s, name) in sweep.schemes.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(sweep.avg_gap[s].iter().map(|v| format!("{v:.1}")));
        raw.row(row);
    }
    writeln!(out, "{}", raw.render())?;

    let profile = PerformanceProfile::new(
        &sweep.schemes,
        &sweep.avg_gap,
        &PerformanceProfile::default_taus(),
    );
    writeln!(out, "=== Figure 5: fraction of inputs within τ × best (ξ̂) ===\n")?;
    writeln!(out, "{}", render_profile(&profile))?;
    Ok(out)
}
