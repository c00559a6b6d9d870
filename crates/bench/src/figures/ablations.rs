//! Ablation studies on the design choices inside the ordering schemes —
//! beyond the paper's figures, probing *why* the schemes behave as they do:
//!
//! 1. **Gorder window**: the paper fixes `w = 5`; sweep it.
//! 2. **SlashBurn slash fraction**: the paper uses 0.5%; sweep it.
//! 3. **Community order** (the Grappolo-RCM idea): arbitrary vs RCM vs
//!    Rabbit's dendrogram DFS — how much does inter-community order matter?
//! 4. **RCM's degree sort**: RCM vs CDFS (footnote 1) — what does the
//!    per-level sort buy?
//! 5. **MinLA annealing headroom**: how much does local search improve each
//!    scheme's ξ̂ (the §III-A class the paper calls too expensive)?

use super::{Ctx, FigureText};
use crate::render::Table;
use reorderlab_core::measures::gap_measures;
use reorderlab_core::schemes::{minla_anneal, MinlaConfig};
use reorderlab_core::Scheme;
use reorderlab_datasets::by_name;
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let instances = ["euroroad", "delaunay_n12", "figeys", "hamster_small", "pgp"];
    let mut out = String::new();

    // 1. Gorder window sweep.
    writeln!(out, "=== Ablation 1: Gorder window size (ξ̂) ===\n")?;
    let windows = [1usize, 2, 3, 5, 10, 20];
    let mut t = Table::new(
        std::iter::once("instance".to_string()).chain(windows.iter().map(|w| format!("w={w}"))),
    );
    for name in &instances {
        let g = by_name(name).expect("instance in suite").generate();
        let mut row = vec![name.to_string()];
        for &w in &windows {
            let m = gap_measures(&g, &Scheme::Gorder { window: w }.reorder(&g));
            row.push(format!("{:.1}", m.avg_gap));
        }
        t.row(row);
    }
    writeln!(out, "{}", t.render())?;

    // 2. SlashBurn slash-fraction sweep.
    writeln!(out, "=== Ablation 2: SlashBurn slash fraction (ξ̂) ===\n")?;
    let fracs = [0.001f64, 0.005, 0.02, 0.05];
    let mut t = Table::new(
        std::iter::once("instance".to_string()).chain(fracs.iter().map(|f| format!("k={f}"))),
    );
    for name in &instances {
        let g = by_name(name).expect("instance in suite").generate();
        let mut row = vec![name.to_string()];
        for &f in &fracs {
            let m = gap_measures(&g, &Scheme::SlashBurn { k_frac: f }.reorder(&g));
            row.push(format!("{:.1}", m.avg_gap));
        }
        t.row(row);
    }
    writeln!(out, "{}", t.render())?;

    // 3. Community-order ablation.
    writeln!(out, "=== Ablation 3: inter-community order (ξ̂) — the Grappolo-RCM idea ===\n")?;
    let mut t = Table::new(["instance", "Grappolo (arbitrary)", "Grappolo-RCM", "Rabbit (DFS)"]);
    for name in &instances {
        let g = by_name(name).expect("instance in suite").generate();
        let ga = gap_measures(&g, &Scheme::Grappolo.reorder(&g)).avg_gap;
        let gr = gap_measures(&g, &Scheme::GrappoloRcm.reorder(&g)).avg_gap;
        let rb = gap_measures(&g, &Scheme::RabbitOrder.reorder(&g)).avg_gap;
        t.row([name.to_string(), format!("{ga:.1}"), format!("{gr:.1}"), format!("{rb:.1}")]);
    }
    writeln!(out, "{}", t.render())?;

    // 4. RCM vs CDFS (degree-sort ablation) on bandwidth.
    writeln!(out, "=== Ablation 4: RCM's per-level degree sort (β) ===\n")?;
    let mut t = Table::new(["instance", "RCM β", "CDFS β", "RCM ξ̂", "CDFS ξ̂"]);
    for name in &instances {
        let g = by_name(name).expect("instance in suite").generate();
        let rcm = gap_measures(&g, &Scheme::Rcm.reorder(&g));
        let cdfs = gap_measures(&g, &Scheme::Cdfs.reorder(&g));
        t.row([
            name.to_string(),
            rcm.bandwidth.to_string(),
            cdfs.bandwidth.to_string(),
            format!("{:.1}", rcm.avg_gap),
            format!("{:.1}", cdfs.avg_gap),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    // 5. MinLA annealing headroom over each base scheme.
    writeln!(out, "=== Ablation 5: MinLA annealing headroom (ξ̂ before -> after) ===\n")?;
    let bases = [
        Scheme::Natural,
        Scheme::DegreeSort { direction: Default::default() },
        Scheme::Rcm,
        Scheme::Grappolo,
    ];
    let mut t = Table::new(
        std::iter::once("instance".to_string()).chain(bases.iter().map(|b| b.name().to_string())),
    );
    for name in &instances {
        let g = by_name(name).expect("instance in suite").generate();
        let n = g.num_vertices();
        let mut row = vec![name.to_string()];
        for base in &bases {
            let start = base.reorder(&g);
            let before = gap_measures(&g, &start).avg_gap;
            let refined = minla_anneal(&g, &start, &MinlaConfig::budget(n, 50, 9));
            let after = gap_measures(&g, &refined).avg_gap;
            row.push(format!("{before:.1}->{after:.1}"));
        }
        t.row(row);
    }
    writeln!(out, "{}", t.render())?;

    // 6. IC edge-probability sweep (the paper "tested with lower and higher
    // edge probability settings" and presents p = 0.25): how the diffusion
    // rate changes RR-set size and sampling cost.
    writeln!(out, "=== Ablation 6: IC edge probability (RR-set size, sampling cost) ===\n")?;
    {
        use reorderlab_influence::{DiffusionModel, RrSampler};
        let g = reorderlab_datasets::by_name("livemocha").expect("in suite").generate();
        let probs = [0.01f64, 0.05, 0.1, 0.25, 0.5];
        let sets = 256;
        let mut t = Table::new(["p", "mean RR size", "edges examined / set"]);
        for &p in &probs {
            let sampler = RrSampler::new(&g, DiffusionModel::IndependentCascade { probability: p });
            let mut vertices = 0u64;
            let mut edges = 0u64;
            for i in 0..sets {
                let (_, trace) = sampler.sample(7, i);
                vertices += trace.vertices_visited;
                edges += trace.edges_examined;
            }
            t.row([
                format!("{p}"),
                format!("{:.1}", vertices as f64 / sets as f64),
                format!("{:.0}", edges as f64 / sets as f64),
            ]);
        }
        writeln!(out, "{}", t.render())?;
        writeln!(
            out,
            "Above the percolation threshold RR sets engulf the graph — the regime \
             where IMM needs few but expensive samples (the paper's p = 0.25 setting).\n"
        )?;
    }
    Ok(out)
}
