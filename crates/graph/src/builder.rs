//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates edges in any order, then [`GraphBuilder::build`]
//! validates endpoints, applies the configured self-loop and duplicate-edge
//! policies, and produces a [`Csr`] with sorted neighbor lists.

use crate::csr::Csr;
use crate::error::GraphError;

/// What to do with self loops (`u == v`) at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfLoopPolicy {
    /// Drop self loops (default; the paper's input graphs are simple).
    #[default]
    Drop,
    /// Keep self loops. An undirected self loop is stored as one arc.
    Keep,
}

/// What to do with duplicate (parallel) edges at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Merge duplicates into one edge whose weight is the sum (default).
    #[default]
    MergeSum,
    /// Keep the first occurrence and drop later duplicates.
    KeepFirst,
    /// Keep all parallel edges verbatim.
    KeepAll,
}

/// Builder for [`Csr`] graphs.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use reorderlab_graph::{GraphBuilder, SelfLoopPolicy};
///
/// let g = GraphBuilder::undirected(3)
///     .self_loops(SelfLoopPolicy::Keep)
///     .edge(0, 1)
///     .edge(1, 1)
///     .build()?;
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(1), 2); // neighbor 0, plus the self loop once
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32, f64)>,
    directed: bool,
    weighted: bool,
    self_loops: SelfLoopPolicy,
    duplicates: DuplicatePolicy,
}

impl GraphBuilder {
    /// Starts an undirected graph on `n` vertices.
    pub fn undirected(n: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
            directed: false,
            weighted: false,
            self_loops: SelfLoopPolicy::default(),
            duplicates: DuplicatePolicy::default(),
        }
    }

    /// Starts a directed graph on `n` vertices.
    pub fn directed(n: usize) -> Self {
        GraphBuilder { directed: true, ..GraphBuilder::undirected(n) }
    }

    /// Sets the self-loop policy.
    pub fn self_loops(mut self, policy: SelfLoopPolicy) -> Self {
        self.self_loops = policy;
        self
    }

    /// Sets the duplicate-edge policy.
    pub fn duplicates(mut self, policy: DuplicatePolicy) -> Self {
        self.duplicates = policy;
        self
    }

    /// Pre-allocates space for `m` edges.
    pub fn reserve(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Adds an unweighted edge (weight `1.0`).
    pub fn edge(mut self, u: u32, v: u32) -> Self {
        self.edges.push((u, v, 1.0));
        self
    }

    /// Adds a weighted edge; marks the resulting graph as weighted.
    pub fn weighted_edge(mut self, u: u32, v: u32, w: f64) -> Self {
        self.weighted = true;
        self.edges.push((u, v, w));
        self
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    pub fn edges<I: IntoIterator<Item = (u32, u32)>>(mut self, iter: I) -> Self {
        self.edges.extend(iter.into_iter().map(|(u, v)| (u, v, 1.0)));
        self
    }

    /// Adds every edge from an iterator of `(u, v, w)` triples; marks the
    /// graph as weighted.
    pub fn weighted_edges<I: IntoIterator<Item = (u32, u32, f64)>>(mut self, iter: I) -> Self {
        self.weighted = true;
        self.edges.extend(iter);
        self
    }

    /// Panicking twin of [`build`](Self::build), for callers whose edges are
    /// in-bounds by construction (the synthetic dataset generators).
    ///
    /// # Panics
    ///
    /// Panics with the [`GraphError`] message where `build` would return it.
    pub fn build_expect(self) -> Csr {
        #[expect(
            clippy::panic,
            reason = "SAFETY: documented panicking twin over the fallible `build`"
        )]
        self.build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates, normalizes, and assembles the [`Csr`].
    ///
    /// Neighbor lists of the result are sorted by target id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] for endpoints `>= n`,
    /// [`GraphError::InvalidWeight`] for non-finite or negative weights, and
    /// [`GraphError::TooLarge`] when `n` vertices cannot be allocated.
    pub fn build(self) -> Result<Csr, GraphError> {
        let n = self.num_vertices;
        // Validate endpoints and weights up front.
        for &(u, v, w) in &self.edges {
            if u as usize >= n {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
                )]
                return Err(GraphError::VertexOutOfBounds { vertex: u, num_vertices: n as u32 });
            }
            if v as usize >= n {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
                )]
                return Err(GraphError::VertexOutOfBounds { vertex: v, num_vertices: n as u32 });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight { weight: w });
            }
        }

        // Canonicalize: drop/keep self loops, undirected edges as (min, max).
        let mut canon: Vec<(u32, u32, f64)> = Vec::with_capacity(self.edges.len());
        for &(u, v, w) in &self.edges {
            if u == v {
                match self.self_loops {
                    SelfLoopPolicy::Drop => continue,
                    SelfLoopPolicy::Keep => canon.push((u, v, w)),
                }
            } else if self.directed {
                canon.push((u, v, w));
            } else {
                canon.push((u.min(v), u.max(v), w));
            }
        }

        // Deduplicate parallel edges.
        canon.sort_by_key(|a| (a.0, a.1));
        let deduped: Vec<(u32, u32, f64)> = match self.duplicates {
            DuplicatePolicy::KeepAll => canon,
            DuplicatePolicy::KeepFirst => {
                let mut out: Vec<(u32, u32, f64)> = Vec::with_capacity(canon.len());
                for e in canon {
                    match out.last() {
                        Some(last) if last.0 == e.0 && last.1 == e.1 => {}
                        _ => out.push(e),
                    }
                }
                out
            }
            DuplicatePolicy::MergeSum => {
                let mut out: Vec<(u32, u32, f64)> = Vec::with_capacity(canon.len());
                for e in canon {
                    match out.last_mut() {
                        Some(last) if last.0 == e.0 && last.1 == e.1 => last.2 += e.2,
                        _ => out.push(e),
                    }
                }
                out
            }
        };
        let num_edges = deduped.len();

        // Expand undirected edges to symmetric arcs.
        let mut arcs: Vec<(u32, u32, f64)> = Vec::with_capacity(deduped.len() * 2);
        for &(u, v, w) in &deduped {
            arcs.push((u, v, w));
            if !self.directed && u != v {
                arcs.push((v, u, w));
            }
        }
        arcs.sort_by_key(|a| (a.0, a.1));

        Csr::from_sorted_arcs(n, &arcs, num_edges, self.directed, self.weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_undirected() {
        let g = GraphBuilder::undirected(3).edge(2, 0).edge(0, 1).build().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = GraphBuilder::undirected(2).edge(0, 2).build().unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { vertex: 2, num_vertices: 2 }));
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(GraphBuilder::undirected(2).weighted_edge(0, 1, f64::INFINITY).build().is_err());
        assert!(GraphBuilder::undirected(2).weighted_edge(0, 1, -2.0).build().is_err());
    }

    #[test]
    fn drops_self_loops_by_default() {
        let g = GraphBuilder::undirected(2).edge(0, 0).edge(0, 1).build().unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn keeps_self_loops_when_asked() {
        let g = GraphBuilder::undirected(2)
            .self_loops(SelfLoopPolicy::Keep)
            .edge(0, 0)
            .edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2); // self loop stored once + neighbor 1
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn merges_duplicates_summing_weights() {
        let g = GraphBuilder::undirected(2)
            .weighted_edge(0, 1, 1.0)
            .weighted_edge(1, 0, 2.0)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn keep_first_duplicate_policy() {
        let g = GraphBuilder::undirected(2)
            .duplicates(DuplicatePolicy::KeepFirst)
            .weighted_edge(0, 1, 5.0)
            .weighted_edge(0, 1, 7.0)
            .build()
            .unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
    }

    #[test]
    fn keep_all_duplicate_policy() {
        let g = GraphBuilder::undirected(2)
            .duplicates(DuplicatePolicy::KeepAll)
            .edge(0, 1)
            .edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn directed_arcs_not_mirrored() {
        let g = GraphBuilder::directed(3).edge(0, 1).edge(1, 2).build().unwrap();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn directed_opposite_arcs_are_distinct() {
        let g = GraphBuilder::directed(2).edge(0, 1).edge(1, 0).build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn bulk_edge_insertion() {
        let g = GraphBuilder::undirected(4)
            .edges([(0, 1), (1, 2)])
            .weighted_edges([(2, 3, 4.0)])
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 3);
        assert!(g.is_weighted());
        // Unweighted insertions default to weight 1.
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(2, 3), Some(4.0));
    }
}
