//! Extra experiment: the community-detectability transition and its effect
//! on reordering quality.
//!
//! The paper observes that the benefit of community-based orderings varies
//! widely per input (e.g. vsp barely responds, Figure 8). This experiment
//! makes the mechanism explicit: on stochastic block models, sweep the
//! planted structure from crisp to dissolved and track (a) Louvain's
//! recovery quality against ground truth (NMI/ARI) and (b) the ξ̂ of the
//! community-based orderings versus RCM and Random.

use super::{Ctx, FigureText};
use crate::render::Table;
use reorderlab_community::{adjusted_rand_index, louvain, nmi, LouvainConfig};
use reorderlab_core::measures::gap_measures;
use reorderlab_core::Scheme;
use reorderlab_datasets::stochastic_block_model;
use std::fmt::Write;

pub(super) fn run(_: &Ctx) -> FigureText {
    let n = 4_000;
    let k = 8;
    let p_in = 0.04;
    let p_outs = [0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.04];
    let mut out = String::new();

    writeln!(out, "SBM sweep: n = {n}, k = {k}, p_in = {p_in}\n")?;
    let mut table = Table::new([
        "p_out",
        "edges",
        "comms",
        "NMI",
        "ARI",
        "ξ̂ Grappolo",
        "ξ̂ Rabbit",
        "ξ̂ RCM",
        "ξ̂ Random",
    ]);
    for p_out in p_outs {
        let pp = stochastic_block_model(n, k, p_in, p_out, 42);
        let g = &pp.graph;
        let r = louvain(g, &LouvainConfig::default());
        let score_nmi = nmi(&r.assignment, &pp.blocks);
        let score_ari = adjusted_rand_index(&r.assignment, &pp.blocks);
        let gap = |s: Scheme| gap_measures(g, &s.reorder(g)).avg_gap;
        let grap = gap(Scheme::Grappolo);
        let rabbit = gap(Scheme::RabbitOrder);
        let rcm = gap(Scheme::Rcm);
        let random = gap(Scheme::Random { seed: 3 });
        table.row([
            format!("{p_out}"),
            g.num_edges().to_string(),
            r.num_communities.to_string(),
            format!("{score_nmi:.3}"),
            format!("{score_ari:.3}"),
            format!("{grap:.0}"),
            format!("{rabbit:.0}"),
            format!("{rcm:.0}"),
            format!("{random:.0}"),
        ]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "Reading: while NMI ≈ 1 the community orderings crush Random; once the \
         transition dissolves the blocks (NMI → 0), their edge disappears — the \
         per-input variance the paper reports, reproduced with a controlled knob."
    )?;
    Ok(out)
}
