//! Packing factor — the hub-locality diagnostic from the lightweight-
//! reordering literature the paper cites (Balaji & Lucia \[2\]: lightweight
//! techniques help "provided the input graph is amenable to Degree Sort
//! reordering (satisfies certain characteristics like 'Packing Factor')").
//!
//! Intuition: frequently-accessed *hot* (high-degree) vertices have
//! per-vertex data (ranks, scores, labels) laid out by vertex id. If the
//! hot vertices occupy few cache lines, their data stays resident; if they
//! are scattered, every hot access risks a miss. The packing factor is the
//! ratio of cache lines actually touched by hot-vertex data to the minimum
//! number of lines that could hold it — `1.0` is perfect packing, larger is
//! worse.

use crate::error::MeasureError;
use reorderlab_graph::{Csr, Permutation};

/// Packing diagnostics for one ordering of a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackingFactor {
    /// Number of hot vertices (degree strictly above the mean).
    pub hot_vertices: usize,
    /// Cache lines actually containing at least one hot vertex's datum.
    pub lines_touched: usize,
    /// Minimum lines needed if the hot vertices were contiguous.
    pub lines_needed: usize,
    /// `lines_touched / lines_needed` (≥ 1, or 0 when there are no hot
    /// vertices).
    pub factor: f64,
}

/// Computes the packing factor of `pi` on `graph`, modelling `entry_bytes`
/// of per-vertex data (4 for a `u32` rank/label array) and `line_bytes`
/// cache lines (64 on the paper's platform).
///
/// Hot vertices are those with degree strictly above the mean degree — the
/// same threshold `hub_sort` uses.
///
/// # Panics
///
/// Panics if `pi` does not cover the graph, `entry_bytes` is 0, or
/// `line_bytes < entry_bytes`.
///
/// # Examples
///
/// ```
/// use reorderlab_core::measures::packing_factor;
/// use reorderlab_core::schemes::{hub_cluster, random_order};
/// use reorderlab_datasets::barabasi_albert;
///
/// let g = barabasi_albert(2_000, 2, 7);
/// let packed = packing_factor(&g, &hub_cluster(&g), 4, 64);
/// let scattered = packing_factor(&g, &random_order(&g, 3), 4, 64);
/// assert!(packed.factor <= scattered.factor);
/// assert!((packed.factor - 1.0).abs() < 1e-9, "hub clustering packs perfectly");
/// ```
pub fn packing_factor(
    graph: &Csr,
    pi: &Permutation,
    entry_bytes: usize,
    line_bytes: usize,
) -> PackingFactor {
    #[expect(
        clippy::panic,
        reason = "SAFETY: documented panicking twin over `try_packing_factor` (# Panics in the doc above)"
    )]
    try_packing_factor(graph, pi, entry_bytes, line_bytes).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`packing_factor`]: returns a typed error instead of panicking
/// on a mismatched permutation or impossible cache geometry.
///
/// Degenerate graphs are well-defined, not errors: `n == 0` or a graph with
/// no hot vertices yields `factor: 0.0` with zeroed counts.
///
/// # Errors
///
/// - [`MeasureError::PermutationMismatch`] when `pi.len() != n`.
/// - [`MeasureError::ZeroEntryBytes`] when `entry_bytes == 0`.
/// - [`MeasureError::LineTooSmall`] when `line_bytes < entry_bytes`.
pub fn try_packing_factor(
    graph: &Csr,
    pi: &Permutation,
    entry_bytes: usize,
    line_bytes: usize,
) -> Result<PackingFactor, MeasureError> {
    let n = graph.num_vertices();
    if pi.len() != n {
        return Err(MeasureError::PermutationMismatch {
            permutation_len: pi.len(),
            num_vertices: n,
        });
    }
    if entry_bytes == 0 {
        return Err(MeasureError::ZeroEntryBytes);
    }
    if line_bytes < entry_bytes {
        return Err(MeasureError::LineTooSmall { entry_bytes, line_bytes });
    }
    if n == 0 {
        return Ok(PackingFactor {
            hot_vertices: 0,
            lines_touched: 0,
            lines_needed: 0,
            factor: 0.0,
        });
    }
    let per_line = line_bytes / entry_bytes;
    let mean = graph.num_arcs() as f64 / n as f64;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let hot_ranks: Vec<u32> =
        (0..n as u32).filter(|&v| graph.degree(v) as f64 > mean).map(|v| pi.rank(v)).collect();
    let hot = hot_ranks.len();
    if hot == 0 {
        return Ok(PackingFactor {
            hot_vertices: 0,
            lines_touched: 0,
            lines_needed: 0,
            factor: 0.0,
        });
    }
    // Ranks are below u32::MAX, so a line of u32::MAX or more entries holds
    // them all: clamping the divisor keeps every quotient exact.
    let per_line_u32 = u32::try_from(per_line).unwrap_or(u32::MAX);
    let mut lines: Vec<u32> = hot_ranks.iter().map(|&r| r / per_line_u32).collect();
    lines.sort_unstable();
    lines.dedup();
    let touched = lines.len();
    let needed = hot.div_ceil(per_line);
    Ok(PackingFactor {
        hot_vertices: hot,
        lines_touched: touched,
        lines_needed: needed,
        factor: touched as f64 / needed as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{degree_sort, hub_cluster, hub_sort, random_order, DegreeDirection};
    use reorderlab_datasets::{barabasi_albert, cycle, star};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn hub_schemes_pack_perfectly() {
        let g = barabasi_albert(1_000, 2, 5);
        for pi in [hub_cluster(&g), hub_sort(&g), degree_sort(&g, DegreeDirection::Decreasing)] {
            let p = packing_factor(&g, &pi, 4, 64);
            assert!(p.hot_vertices > 0);
            assert!((p.factor - 1.0).abs() < 1e-9, "hot prefix must pack into minimal lines");
        }
    }

    #[test]
    fn random_order_scatters_hot_vertices() {
        let g = barabasi_albert(2_000, 2, 9);
        let p = packing_factor(&g, &random_order(&g, 1), 4, 64);
        assert!(p.factor > 2.0, "random layout should scatter hubs, factor {}", p.factor);
        assert!(p.lines_touched > p.lines_needed);
    }

    #[test]
    fn regular_graph_has_no_hot_vertices() {
        let g = cycle(32);
        let p = packing_factor(&g, &Permutation::identity(32), 4, 64);
        assert_eq!(p.hot_vertices, 0);
        assert_eq!(p.factor, 0.0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_line_wider_than_u32_holds_every_hot_vertex() {
        // 2^32 entries per line used to truncate to a zero divisor.
        let g = barabasi_albert(500, 2, 5);
        let p = packing_factor(&g, &random_order(&g, 1), 1, 1 << 32);
        assert!(p.hot_vertices > 1);
        assert_eq!((p.lines_touched, p.lines_needed), (1, 1));
        assert_eq!(p.factor, 1.0);
    }

    #[test]
    fn star_single_hub_always_one_line() {
        let g = star(100);
        let p = packing_factor(&g, &random_order(&g, 3), 4, 64);
        assert_eq!(p.hot_vertices, 1);
        assert_eq!(p.lines_touched, 1);
        assert_eq!(p.factor, 1.0);
    }

    #[test]
    fn factor_bounded_by_entries_per_line() {
        // At most `per_line` hot entries can share a line, so the factor
        // can never exceed min(per_line, lines available / lines needed).
        let g = barabasi_albert(1_000, 2, 2);
        for (entry, line) in [(4usize, 8usize), (4, 64), (4, 256)] {
            let p = packing_factor(&g, &random_order(&g, 5), entry, line);
            let per_line = (line / entry) as f64;
            assert!(p.factor >= 1.0 - 1e-9, "factor {} below 1", p.factor);
            assert!(
                p.factor <= per_line + 1e-9,
                "factor {} exceeds per-line bound {per_line}",
                p.factor
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let p = packing_factor(&g, &Permutation::identity(0), 4, 64);
        assert_eq!(p.factor, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_bad_geometry() {
        let g = star(4);
        let _ = packing_factor(&g, &Permutation::identity(4), 64, 4);
    }

    #[test]
    fn try_variant_reports_typed_errors() {
        let g = star(4);
        let pi = Permutation::identity(4);
        assert_eq!(
            try_packing_factor(&g, &Permutation::identity(2), 4, 64),
            Err(MeasureError::PermutationMismatch { permutation_len: 2, num_vertices: 4 })
        );
        assert_eq!(try_packing_factor(&g, &pi, 0, 64), Err(MeasureError::ZeroEntryBytes));
        assert_eq!(
            try_packing_factor(&g, &pi, 64, 4),
            Err(MeasureError::LineTooSmall { entry_bytes: 64, line_bytes: 4 })
        );
        assert!(try_packing_factor(&g, &pi, 4, 64).is_ok());
    }

    #[test]
    fn try_variant_is_total_on_degenerate_graphs() {
        let empty = GraphBuilder::undirected(0).build().unwrap();
        let p = try_packing_factor(&empty, &Permutation::identity(0), 4, 64).unwrap();
        assert_eq!(p.factor, 0.0);
        assert!(p.factor.is_finite());
        let regular = cycle(6);
        let p = try_packing_factor(&regular, &Permutation::identity(6), 4, 64).unwrap();
        assert_eq!(p.hot_vertices, 0);
        assert!(p.factor.is_finite());
    }
}
