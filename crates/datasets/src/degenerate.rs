//! The degenerate-graph corpus behind the repo's degenerate-graph contract
//! (DESIGN.md): the structurally extreme inputs every scheme, measure, and
//! application must handle without panics or NaNs.
//!
//! Real SuiteSparse/DIMACS10 collections contain all of these shapes —
//! empty matrices, isolated vertices, diagonal-only matrices, duplicated
//! coordinate entries — so any pipeline that ingests them must be total
//! over this corpus. The contract test suite
//! (`crates/core/tests/degenerate_contracts.rs`) runs every scheme ×
//! every measure × Louvain × IMM over [`degenerate_suite`] at 1/2/7
//! threads.

use reorderlab_graph::{Csr, GraphBuilder, SelfLoopPolicy};

/// One named entry of the degenerate corpus.
#[derive(Debug, Clone)]
pub struct DegenerateCase {
    /// Stable name used in test diagnostics and manifests.
    pub name: &'static str,
    /// The graph itself.
    pub graph: Csr,
}

/// The full degenerate corpus, in a stable order.
///
/// Covers: the empty graph, a single vertex, zero-edge (all-isolated)
/// graphs, an all-self-loop graph, disconnected graphs (isolated pairs and
/// mixed components), a star, and a duplicate-heavy multigraph collapsed by
/// the builder's merge policy.
pub fn degenerate_suite() -> Vec<DegenerateCase> {
    vec![
        DegenerateCase { name: "empty", graph: empty() },
        DegenerateCase { name: "single_vertex", graph: zero_edge(1) },
        DegenerateCase { name: "zero_edge_4", graph: zero_edge(4) },
        DegenerateCase { name: "zero_edge_33", graph: zero_edge(33) },
        DegenerateCase { name: "single_edge", graph: single_edge() },
        DegenerateCase { name: "all_self_loops", graph: all_self_loops(5) },
        DegenerateCase { name: "disconnected_pairs", graph: disconnected_pairs(6) },
        DegenerateCase { name: "two_components", graph: two_components() },
        DegenerateCase { name: "star_9", graph: crate::star(9) },
        DegenerateCase { name: "duplicate_heavy", graph: duplicate_heavy(7) },
    ]
}

/// The empty graph: zero vertices, zero edges.
pub(crate) fn empty() -> Csr {
    GraphBuilder::undirected(0).build_expect()
}

/// `n` isolated vertices, no edges.
pub(crate) fn zero_edge(n: usize) -> Csr {
    GraphBuilder::undirected(n).build_expect()
}

/// Two vertices joined by one edge plus one isolated vertex.
pub(crate) fn single_edge() -> Csr {
    GraphBuilder::undirected(3).edge(0, 1).build_expect()
}

/// `n` vertices, each carrying only a self loop (a diagonal matrix).
pub(crate) fn all_self_loops(n: usize) -> Csr {
    let edges = (0..n as u32).map(|v| (v, v));
    GraphBuilder::undirected(n).self_loops(SelfLoopPolicy::Keep).edges(edges).build_expect()
}

/// `pairs` disjoint edges: a perfect matching with no connecting structure.
pub(crate) fn disconnected_pairs(pairs: usize) -> Csr {
    let edges = (0..pairs as u32).map(|i| (2 * i, 2 * i + 1));
    GraphBuilder::undirected(2 * pairs).edges(edges).build_expect()
}

/// A triangle and a path, unconnected, plus an isolated vertex — the
/// smallest graph exercising multi-component traversal orders.
pub(crate) fn two_components() -> Csr {
    GraphBuilder::undirected(7).edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]).build_expect()
}

/// A path whose every edge is inserted many times in both directions; the
/// builder's merge policy collapses them, so degrees stay small while the
/// raw insertion stream is heavily duplicated.
pub(crate) fn duplicate_heavy(n: usize) -> Csr {
    let mut b = GraphBuilder::undirected(n);
    for i in 0..n.saturating_sub(1) as u32 {
        for _ in 0..5 {
            b = b.edge(i, i + 1);
            b = b.edge(i + 1, i);
        }
    }
    b.build_expect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_stable_names_and_shapes() {
        let suite = degenerate_suite();
        assert_eq!(suite.len(), 10);
        let names: Vec<&str> = suite.iter().map(|c| c.name).collect();
        assert!(names.contains(&"empty"));
        assert!(names.contains(&"all_self_loops"));
        let empty = &suite[0];
        assert_eq!(empty.graph.num_vertices(), 0);
        assert_eq!(empty.graph.num_edges(), 0);
    }

    #[test]
    fn self_loop_graph_keeps_loops() {
        let g = all_self_loops(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn duplicate_heavy_collapses_to_simple_path() {
        let g = duplicate_heavy(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn disconnected_pairs_is_a_matching() {
        let g = disconnected_pairs(3);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 3);
        assert!(g.vertices().all(|v| g.degree(v) == 1));
    }
}
