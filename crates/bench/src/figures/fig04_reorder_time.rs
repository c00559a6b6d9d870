//! Figure 4: performance profile of reordering *compute time* for the four
//! representative schemes — RCM, Degree Sort, Grappolo, METIS-32 — over the
//! 9 large instances.
//!
//! Expected shape (paper §III-F): Degree Sort and RCM are the cheapest;
//! Grappolo and METIS-32 cost more but stay within a modest factor.

use super::{Ctx, FigureText};
use crate::render::{render_profile, Table};
use crate::sweep::gap_sweep;
use reorderlab_core::schemes::DegreeDirection;
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::large_suite;
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let schemes = vec![
        Scheme::Rcm,
        Scheme::DegreeSort { direction: DegreeDirection::Decreasing },
        Scheme::Grappolo,
        Scheme::Metis { parts: 32, seed: 42 },
    ];
    let sweep = gap_sweep(&large_suite(), &schemes);

    let mut out = String::new();
    writeln!(out, "=== Reordering wall time (seconds) per scheme × instance ===\n")?;
    let mut raw =
        Table::new(std::iter::once("scheme".to_string()).chain(sweep.instances.iter().cloned()));
    for (s, name) in sweep.schemes.iter().enumerate() {
        let mut row = vec![name.clone()];
        row.extend(sweep.reorder_secs[s].iter().map(|v| format!("{v:.3}")));
        raw.row(row);
    }
    writeln!(out, "{}", raw.render())?;

    // A wider factor grid than the gap figures: a Rust sort (Degree Sort)
    // on a scaled-down graph is microseconds, so the heavyweight schemes
    // land at much larger relative factors than the paper's C/C++ tools on
    // full-size inputs.
    let taus = [
        1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
        50000.0,
    ];
    let profile = PerformanceProfile::try_new(&sweep.schemes, &sweep.reorder_secs, &taus)
        .map_err(|e| format!("cannot build timing profile: {e}"))?;
    writeln!(out, "=== Figure 4: fraction of inputs within τ × fastest ===\n")?;
    writeln!(out, "{}", render_profile(&profile))?;
    Ok(out)
}
