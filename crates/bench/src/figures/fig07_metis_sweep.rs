//! Figure 7: performance profile of ξ̂ for METIS-induced orderings with
//! different part counts (8, 16, 32, 64, 128, 256) over the 25 small
//! instances.
//!
//! Expected shape (paper §V, footnote 2): 32 parts is the sweet spot.

use super::{Ctx, FigureText};
use crate::render::render_profile;
use crate::sweep::gap_sweep;
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::small_suite;
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let part_counts = [8usize, 16, 32, 64, 128, 256];
    let schemes: Vec<Scheme> =
        part_counts.iter().map(|&parts| Scheme::Metis { parts, seed: 42 }).collect();
    let names: Vec<String> = part_counts.iter().map(|p| format!("METIS-{p}")).collect();

    let sweep = gap_sweep(&small_suite(), &schemes);
    let profile =
        PerformanceProfile::new(&names, &sweep.avg_gap, &PerformanceProfile::default_taus());

    let mut out = String::new();
    writeln!(out, "=== Figure 7: ξ̂ profile across METIS part counts ===\n")?;
    writeln!(out, "{}", render_profile(&profile))?;

    let auc = profile.auc();
    let best = names.iter().zip(&auc).max_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty sweep");
    writeln!(out, "Best configuration by profile dominance: {} (paper: 32 parts).", best.0)?;
    Ok(out)
}
