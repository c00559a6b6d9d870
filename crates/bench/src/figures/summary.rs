//! One-page summary card: runs a compact version of the paper's entire
//! pipeline — gap measures on a handful of small instances, one community-
//! detection and one influence-maximization contrast, and one memory
//! replay — and prints the headline findings next to the paper's claims.
//!
//! This is the "does the whole reproduction hang together" smoke artifact;
//! the other registered figures are the real experiments.

use super::{Ctx, FigureText};
use crate::render::Table;
use crate::sweep::gap_sweep;
use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_core::{PerformanceProfile, Scheme};
use reorderlab_datasets::{by_name, small_suite, InstanceSpec};
use reorderlab_influence::{imm, DiffusionModel, ImmConfig};
use reorderlab_memsim::{replay_louvain_scan, Hierarchy, HierarchyConfig};
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let count = 10;
    let instances: Vec<InstanceSpec> = small_suite().into_iter().take(count).collect();
    let schemes = Scheme::evaluation_suite(42);
    let mut out = String::new();

    writeln!(out, "════════════════════════════════════════════════════════════════")?;
    writeln!(out, " reorderlab summary — IISWC 2020 vertex-reordering reproduction")?;
    writeln!(out, "════════════════════════════════════════════════════════════════\n")?;

    // 1. Gap measures (§V).
    let sweep = gap_sweep(&instances, &schemes);
    let profile = PerformanceProfile::try_new(
        &sweep.schemes,
        &sweep.avg_gap,
        &PerformanceProfile::default_taus(),
    )
    .map_err(|e| format!("cannot build avg-gap profile: {e}"))?;
    let auc = profile.auc();
    let mut ranked: Vec<(String, f64)> =
        profile.methods.iter().cloned().zip(auc.iter().copied()).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    writeln!(
        out,
        "1. Gap study ({} instances × {} schemes), ξ̂ profile ranking:",
        count,
        schemes.len()
    )?;
    let mut t = Table::new(["rank", "scheme", "profile AUC"]);
    for (i, (name, a)) in ranked.iter().enumerate() {
        t.row([(i + 1).to_string(), name.clone(), format!("{a:.3}")]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(out, "   Paper §V: partition/community tier on top, degree/random at the bottom.\n")?;

    // 2. Bandwidth winner (Fig. 6a).
    let band = PerformanceProfile::try_new(
        &sweep.schemes,
        &sweep.bandwidth,
        &PerformanceProfile::default_taus(),
    )
    .map_err(|e| format!("cannot build bandwidth profile: {e}"))?;
    let rcm_idx = band.methods.iter().position(|m| m == "RCM").expect("RCM in suite");
    writeln!(
        out,
        "2. Graph bandwidth β: RCM best on {:.0}% of instances (paper: clear winner).\n",
        band.win_fraction()[rcm_idx] * 100.0
    )?;

    // 3. Community detection contrast (Fig. 9, one instance).
    let g = by_name("livemocha").expect("in suite").generate();
    let mut comm = Table::new(["ordering", "phase (s)", "iter (ms)", "#iters", "modularity"]);
    for scheme in Scheme::application_suite() {
        let h = g.permuted(&scheme.reorder(&g)).expect("valid permutation");
        let r = louvain(&h, &LouvainConfig::default());
        let p = r.stats.first_phase().expect("one phase");
        comm.row([
            scheme.name().to_string(),
            format!("{:.3}", p.duration.as_secs_f64()),
            format!("{:.2}", p.time_per_iteration().as_secs_f64() * 1e3),
            p.iterations.len().to_string(),
            format!("{:.3}", r.modularity),
        ]);
    }
    writeln!(out, "3. Community detection on livemocha (first phase):")?;
    writeln!(out, "{}", comm.render())?;

    // 4. Influence maximization contrast (Fig. 11, one instance).
    let cfg = ImmConfig::new(8)
        .epsilon(0.7)
        .model(DiffusionModel::IndependentCascade { probability: 0.25 })
        .seed(42);
    let mut inf = Table::new(["ordering", "RR/s", "total (s)"]);
    for scheme in Scheme::application_suite() {
        let h = g.permuted(&scheme.reorder(&g)).expect("valid permutation");
        let r = imm(&h, &cfg);
        inf.row([
            scheme.name().to_string(),
            format!("{:.0}", r.stats.throughput),
            format!("{:.2}", r.stats.total_time.as_secs_f64()),
        ]);
    }
    writeln!(out, "4. Influence maximization on livemocha (IC, p = 0.25):")?;
    writeln!(out, "{}", inf.render())?;
    writeln!(out, "   Paper §VI-C: effects are marginal — no scheme stands out.\n")?;

    // 5. Memory behaviour (Fig. 10, one instance).
    let mut mem = Table::new(["ordering", "lat (cyc)", "DRAM bound"]);
    for scheme in Scheme::application_suite() {
        let h = g.permuted(&scheme.reorder(&g)).expect("valid permutation");
        let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
        replay_louvain_scan(&h, 4096, &mut hier);
        let r = hier.report();
        mem.row([
            scheme.name().to_string(),
            format!("{:.1}", r.avg_latency),
            format!("{:.0}%", r.bound[3] * 100.0),
        ]);
    }
    writeln!(out, "5. Simulated Louvain-scan memory behaviour on livemocha:")?;
    writeln!(out, "{}", mem.render())?;
    writeln!(out, "See EXPERIMENTS.md for the full per-figure record.")?;
    Ok(out)
}
