//! The `Adaptive` meta-scheme: pick a lightweight ordering from cheap
//! structural features, GraphBrew's `AdaptiveOrder` recast over this
//! crate's scheme registry.
//!
//! The decision is a fixed-threshold tree over integer-valued features, in
//! evaluation order:
//!
//! 1. an empty or edgeless graph keeps its natural order;
//! 2. **degree skew** `max_degree / mean_degree ≥ 3` → [`hub_sort_dbg_order`]
//!    (hub-dominated, social/web-like);
//! 3. **clustering** `3·triangles ≥ edges` *and* **community strength**
//!    (Louvain modularity `≥ 0.3`) → [`comm_order`] with BFS intra-order
//!    (community-dominated);
//! 4. **diameter class** `diameter² ≥ n` via the double-sweep BFS bound →
//!    [`rcm_order`] (long-and-thin, mesh/road-like);
//! 5. otherwise → [`dbg_order`] (low-skew, low-structure fallback).
//!
//! Every feature is computed in integers or bit-stable f64 reductions, so
//! the choice is a pure function of the graph: deterministic across thread
//! counts, chaos schedules, and recorder presence. Features are evaluated
//! lazily — a rule that fires short-circuits the remaining features, which
//! then report as zero in the [`AdaptiveDecision`] trail.

use super::basic::natural_order;
use super::comm::{comm_order, CommIntra};
use super::lightweight::{dbg_order, hub_sort_dbg_order};
use super::rcm::rcm_order;
use reorderlab_community::{louvain, LouvainConfig};
use reorderlab_graph::{approx_diameter, count_triangles, Csr, Permutation};
use reorderlab_trace::{counter, note};

/// Degree-skew threshold (×1000): fire the hub rule at 3× mean degree.
const SKEW_THRESHOLD_X1000: u64 = 3000;
/// Clustering threshold (×1000): fire when each edge carries ⅓ triangle.
const TRIANGLE_THRESHOLD_X1000: u64 = 1000;
/// Modularity threshold (×1000): Louvain Q ≥ 0.3 counts as community-strong.
const MODULARITY_THRESHOLD_X1000: u64 = 300;

/// The scheme [`adaptive_order`] delegates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveChoice {
    /// Empty or edgeless graph: nothing to optimize.
    Natural,
    /// Hub-dominated degree distribution.
    HubSortDbg,
    /// Strong clustering and community structure.
    CommBfs,
    /// Long-and-thin (mesh/road-like) topology.
    Rcm,
    /// Low-skew, low-structure fallback.
    Dbg,
}

impl AdaptiveChoice {
    /// The chosen scheme's canonical spec string, as recorded in the
    /// manifest note `adaptive/choice`.
    pub fn spec(self) -> &'static str {
        match self {
            AdaptiveChoice::Natural => "natural",
            AdaptiveChoice::HubSortDbg => "hubsort-dbg",
            AdaptiveChoice::CommBfs => "comm-bfs",
            AdaptiveChoice::Rcm => "rcm",
            AdaptiveChoice::Dbg => "dbg",
        }
    }
}

/// The recorded decision trail of one [`adaptive_order`] run: the feature
/// values (fixed-point ×1000 where fractional) and the winning scheme.
/// Features past the rule that fired are not computed and report zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveDecision {
    /// `max_degree · 1000 / mean_degree`; 0 on empty/edgeless graphs.
    pub skew_x1000: u64,
    /// `3 · triangles · 1000 / edges`; 0 when not evaluated.
    pub triangle_rate_x1000: u64,
    /// Louvain modularity ×1000, clamped at 0; 0 when not evaluated.
    pub modularity_x1000: u64,
    /// Double-sweep BFS diameter lower bound; 0 when not evaluated.
    pub diameter: usize,
    /// The scheme the tree selected.
    pub choice: AdaptiveChoice,
}

/// Evaluates the decision tree without computing the permutation.
/// Deterministic: a pure function of the graph.
pub fn adaptive_decide(graph: &Csr) -> AdaptiveDecision {
    let n = graph.num_vertices();
    let m = graph.num_arcs();
    let mut d = AdaptiveDecision {
        skew_x1000: 0,
        triangle_rate_x1000: 0,
        modularity_x1000: 0,
        diameter: 0,
        choice: AdaptiveChoice::Natural,
    };
    if n == 0 || m == 0 {
        return d;
    }
    // skew = max_degree / (m / n), in ×1000 fixed point; u128 keeps the
    // product exact for any u32-bounded vertex count.
    d.skew_x1000 = clamp_u64(graph.max_degree() as u128 * 1000 * n as u128 / m as u128);
    if d.skew_x1000 >= SKEW_THRESHOLD_X1000 {
        d.choice = AdaptiveChoice::HubSortDbg;
        return d;
    }
    let edges = graph.num_edges();
    if edges > 0 {
        d.triangle_rate_x1000 =
            clamp_u64(u128::from(count_triangles(graph)) * 3000 / edges as u128);
    }
    if d.triangle_rate_x1000 >= TRIANGLE_THRESHOLD_X1000 {
        let q = louvain(graph, &LouvainConfig::default()).modularity;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "SAFETY: 0 < Q <= 1 on this branch, so Q * 1000 lies in (0, 1000]"
        )]
        if q > 0.0 {
            d.modularity_x1000 = (q * 1000.0) as u64;
        }
        if d.modularity_x1000 >= MODULARITY_THRESHOLD_X1000 {
            d.choice = AdaptiveChoice::CommBfs;
            return d;
        }
    }
    d.diameter = approx_diameter(graph);
    d.choice = if (d.diameter as u128) * (d.diameter as u128) >= n as u128 {
        AdaptiveChoice::Rcm
    } else {
        AdaptiveChoice::Dbg
    };
    d
}

fn clamp_u64(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// Adaptive ordering: run [`adaptive_decide`] and delegate to the chosen
/// scheme's parallel kernel.
///
/// The decision trail goes to the installed recorder: counters
/// `adaptive/skew_x1000`, `adaptive/triangle_rate_x1000`,
/// `adaptive/modularity_x1000`, and `adaptive/diameter` hold the feature
/// values, the note `adaptive/choice` names the chosen scheme's spec, and
/// the chosen scheme records underneath.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::{adaptive_decide, adaptive_order, AdaptiveChoice};
/// use reorderlab_datasets::grid2d;
///
/// let g = grid2d(16, 16);
/// assert_eq!(adaptive_decide(&g).choice, AdaptiveChoice::Rcm);
/// assert_eq!(adaptive_order(&g).len(), 256);
/// ```
pub fn adaptive_order(graph: &Csr) -> Permutation {
    let d = adaptive_decide(graph);
    counter("adaptive/skew_x1000", d.skew_x1000);
    counter("adaptive/triangle_rate_x1000", d.triangle_rate_x1000);
    counter("adaptive/modularity_x1000", d.modularity_x1000);
    counter("adaptive/diameter", d.diameter as u64);
    note("adaptive/choice", d.choice.spec());
    match d.choice {
        AdaptiveChoice::Natural => natural_order(graph),
        AdaptiveChoice::HubSortDbg => hub_sort_dbg_order(graph),
        AdaptiveChoice::CommBfs => comm_order(graph, CommIntra::Bfs),
        AdaptiveChoice::Rcm => rcm_order(graph),
        AdaptiveChoice::Dbg => dbg_order(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{barabasi_albert, clique_chain, erdos_renyi_gnm, grid2d, star};
    use reorderlab_graph::GraphBuilder;
    use reorderlab_trace::{recording, RunRecorder};

    #[test]
    fn pins_choice_on_structurally_distinct_graphs() {
        // Hub-dominated: preferential attachment and a star.
        assert_eq!(adaptive_decide(&barabasi_albert(300, 3, 5)).choice, AdaptiveChoice::HubSortDbg);
        assert_eq!(adaptive_decide(&star(64)).choice, AdaptiveChoice::HubSortDbg);
        // Community-dominated: a chain of cliques.
        assert_eq!(adaptive_decide(&clique_chain(8, 8)).choice, AdaptiveChoice::CommBfs);
        // Long-and-thin mesh.
        assert_eq!(adaptive_decide(&grid2d(16, 16)).choice, AdaptiveChoice::Rcm);
        // Empty and edgeless graphs keep natural order.
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        let g5 = GraphBuilder::undirected(5).build().unwrap();
        assert_eq!(adaptive_decide(&g0).choice, AdaptiveChoice::Natural);
        assert_eq!(adaptive_decide(&g5).choice, AdaptiveChoice::Natural);
    }

    #[test]
    fn decision_is_deterministic() {
        for g in [barabasi_albert(200, 2, 9), grid2d(10, 10), clique_chain(5, 6)] {
            assert_eq!(adaptive_decide(&g), adaptive_decide(&g));
        }
    }

    #[test]
    fn order_matches_chosen_scheme() {
        use crate::schemes::{comm_order, dbg_order, hub_sort_dbg_order, rcm_order};
        let ba = barabasi_albert(300, 3, 5);
        assert_eq!(adaptive_order(&ba), hub_sort_dbg_order(&ba));
        let cliques = clique_chain(8, 8);
        assert_eq!(adaptive_order(&cliques), comm_order(&cliques, CommIntra::Bfs));
        let grid = grid2d(16, 16);
        assert_eq!(adaptive_order(&grid), rcm_order(&grid));
        let flat = erdos_renyi_gnm(120, 700, 3);
        assert_eq!(adaptive_decide(&flat).choice, AdaptiveChoice::Dbg);
        assert_eq!(adaptive_order(&flat), dbg_order(&flat));
    }

    #[test]
    fn recorded_variant_reports_the_decision_trail() {
        let g = grid2d(16, 16);
        let (pi, rec) = recording(RunRecorder::new(), || adaptive_order(&g));
        assert_eq!(pi, adaptive_order(&g));
        assert_eq!(rec.notes()["adaptive/choice"], "rcm");
        assert!(rec.counters()["adaptive/diameter"] >= 16, "double-sweep bound on a 16×16 grid");
        assert!(rec.counters()["adaptive/skew_x1000"] < SKEW_THRESHOLD_X1000);
        // The delegated scheme's own instrumentation runs underneath.
        assert!(rec.counters().contains_key("rcm/components"));
    }

    #[test]
    fn skew_fires_before_expensive_features() {
        let d = adaptive_decide(&star(64));
        assert!(d.skew_x1000 >= SKEW_THRESHOLD_X1000);
        assert_eq!(d.triangle_rate_x1000, 0, "short-circuited features report zero");
        assert_eq!(d.diameter, 0);
    }
}
