//! Row passes on hub-heavy graphs.
//!
//! `ModularityContext::new`, the gap measures, `Csr::permuted` and
//! `Csr::transposed` cut their rows into spans of near-equal arcs
//! (`rayon::arc_spans`), so on a hub-heavy graph their span boundaries sit
//! elsewhere than an even vertex count would put them, and move with the
//! width. Each pass must still give the same bits at 1, 2 and 7 threads.

mod support;

use reorderlab_community::ModularityContext;
use reorderlab_core::measures::gap_measures;
use reorderlab_core::schemes::dbg_order;
use reorderlab_graph::{assert_thread_invariant, CompressedCsr, Csr, GraphBuilder, Permutation};
use support::skewed_corpus;

/// `g` with every edge `{u, v}` kept as one weighted arc from the larger id
/// to the smaller, so the hub-first star's hub takes every in-arc and the
/// hub-last star's hub every out-arc.
fn directed(g: &Csr) -> Csr {
    GraphBuilder::directed(g.num_vertices())
        .weighted_edges(
            g.edges().map(|(u, v, _)| (u.max(v), u.min(v), 1.0 + f64::from((u + v) % 7) * 0.5)),
        )
        .build()
        .expect("valid arcs")
}

/// The identity, the graph's DBG order, and the reversal, which moves the
/// hubs to the other end.
fn orders(g: &Csr) -> Vec<Permutation> {
    let n = g.num_vertices() as u32;
    vec![
        Permutation::identity(g.num_vertices()),
        dbg_order(g),
        Permutation::from_order(&(0..n).rev().collect::<Vec<_>>()).expect("a reversal"),
    ]
}

#[cfg(not(feature = "chaos"))]
#[test]
fn arc_spans_cut_the_skewed_corpus_off_the_even_count() {
    for (name, g) in skewed_corpus() {
        let n = g.num_vertices();
        let spans = reorderlab_graph::build_pool(2).install(|| rayon::arc_spans(g.offsets()));
        assert_eq!(spans.len(), 2, "{name}");
        assert_ne!(spans[0].end, n.div_ceil(2), "{name}: the cut fell on the even count");
    }
}

#[test]
fn modularity_context_is_thread_invariant_on_skewed_graphs() {
    for (name, g) in skewed_corpus() {
        let fingerprint = |ctx: ModularityContext| {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(&ctx.k), bits(&ctx.self_weight), ctx.total.to_bits())
        };
        let flat = assert_thread_invariant(|| fingerprint(ModularityContext::new(&g)));
        let cz = CompressedCsr::from_csr(&g).expect("sorted rows");
        let packed = assert_thread_invariant(|| fingerprint(ModularityContext::new(&cz)));
        assert_eq!(packed, flat, "{name}: compressed context differs from flat");
    }
}

#[test]
fn gap_measures_are_thread_invariant_on_skewed_graphs() {
    for (name, g) in skewed_corpus() {
        for g in [g.clone(), directed(&g)] {
            for pi in orders(&g) {
                let m = assert_thread_invariant(|| {
                    let m = gap_measures(&g, &pi);
                    (
                        m.avg_gap.to_bits(),
                        m.bandwidth,
                        m.avg_bandwidth.to_bits(),
                        m.avg_log_gap.to_bits(),
                    )
                });
                assert!(f64::from_bits(m.3).is_finite(), "{name}");
            }
        }
    }
}

#[test]
fn permuted_is_thread_invariant_on_skewed_graphs() {
    for (name, g) in skewed_corpus() {
        for g in [g.clone(), directed(&g)] {
            for pi in orders(&g) {
                let h = assert_thread_invariant(|| g.permuted(&pi).expect("length matches"));
                assert_eq!(h.num_arcs(), g.num_arcs(), "{name}");
                assert_eq!(h.permuted(&pi.inverse()).expect("length matches"), g, "{name}");
            }
        }
    }
}

#[test]
fn transposed_is_thread_invariant_on_skewed_graphs() {
    for (name, g) in skewed_corpus() {
        let g = directed(&g);
        let t = assert_thread_invariant(|| g.transposed());
        assert_eq!(t.transposed(), g, "{name}: transposing twice");
    }
}
