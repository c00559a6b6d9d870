//! Vertex separators derived from edge bisections.
//!
//! Nested dissection needs a small *vertex* set whose removal disconnects
//! the graph. We obtain one from the multilevel edge bisection by taking a
//! greedy vertex cover of the cut edges — every cut edge loses at least one
//! endpoint to the separator, so no edge joins the remaining sides.

use crate::bisect::bisect;
use crate::config::PartitionConfig;
use reorderlab_graph::Csr;

/// A three-way split: two disconnected sides plus the separating vertex set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Separator {
    /// Vertices of the left side.
    pub left: Vec<u32>,
    /// Vertices of the right side.
    pub right: Vec<u32>,
    /// The separating vertices.
    pub separator: Vec<u32>,
}

/// Computes a vertex separator of `graph` by bisecting it and covering the
/// cut edges greedily (highest uncovered-incidence endpoint first).
///
/// The returned sides have no edge between them (every such edge has an
/// endpoint in the separator).
pub(crate) fn vertex_separator(graph: &Csr, cfg: &PartitionConfig) -> Separator {
    let n = graph.num_vertices();
    if n == 0 {
        return Separator { left: Vec::new(), right: Vec::new(), separator: Vec::new() };
    }
    let vw = vec![1.0f64; n];
    let b = bisect(graph, &vw, 0.5, cfg.epsilon, cfg.coarsen_until, cfg.refine_passes, cfg.seed);

    // Collect cut edges.
    let cut_edges: Vec<(u32, u32)> = graph
        .edges()
        .filter(|&(u, v, _)| b.side[u as usize] != b.side[v as usize])
        .map(|(u, v, _)| (u, v))
        .collect();

    // Greedy vertex cover: repeatedly take the endpoint covering the most
    // uncovered cut edges. The incidence structure is a flat vertex-indexed
    // table plus an ascending candidate list, not a HashMap: scanning in
    // vertex order makes the smallest-id tie-break explicit instead of
    // relying on hash-iteration order (library code bans hash containers,
    // DESIGN.md §8).
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut candidates: Vec<u32> = Vec::new();
    for (i, &(u, v)) in cut_edges.iter().enumerate() {
        for x in [u, v] {
            if incident[x as usize].is_empty() {
                candidates.push(x);
            }
            incident[x as usize].push(i);
        }
    }
    candidates.sort_unstable();
    let mut covered = vec![false; cut_edges.len()];
    let mut uncovered = cut_edges.len();
    let mut in_separator = vec![false; n];
    while uncovered > 0 {
        // Most live edges wins; the ascending scan with a strict `>` keeps
        // the smallest vertex id among ties.
        let mut best: Option<(usize, u32)> = None;
        for &v in &candidates {
            let live = incident[v as usize].iter().filter(|&&e| !covered[e]).count();
            if live > 0 && best.is_none_or(|(bl, _)| live > bl) {
                best = Some((live, v));
            }
        }
        // While any edge is uncovered its endpoints are live candidates, so
        // `best` is always present; break keeps the loop total regardless.
        let Some((_, pick)) = best else { break };
        let edges = std::mem::take(&mut incident[pick as usize]);
        let mut newly = 0usize;
        for e in edges {
            if !covered[e] {
                covered[e] = true;
                newly += 1;
            }
        }
        in_separator[pick as usize] = true;
        uncovered -= newly;
    }

    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut separator = Vec::new();
    for v in 0..n as u32 {
        if in_separator[v as usize] {
            separator.push(v);
        } else if b.side[v as usize] {
            right.push(v);
        } else {
            left.push(v);
        }
    }
    Separator { left, right, separator }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{grid2d, path};

    fn assert_separates(graph: &Csr, s: &Separator) {
        let n = graph.num_vertices();
        let mut side = vec![0u8; n]; // 0 = left, 1 = right, 2 = separator
        for &v in &s.right {
            side[v as usize] = 1;
        }
        for &v in &s.separator {
            side[v as usize] = 2;
        }
        for (u, v, _) in graph.edges() {
            let (su, sv) = (side[u as usize], side[v as usize]);
            assert!(
                su == 2 || sv == 2 || su == sv,
                "edge ({u},{v}) crosses sides without touching the separator"
            );
        }
        assert_eq!(s.left.len() + s.right.len() + s.separator.len(), n);
    }

    #[test]
    fn separator_on_path_is_tiny() {
        let g = path(31);
        let s = vertex_separator(&g, &PartitionConfig::new(2).seed(1));
        assert_separates(&g, &s);
        assert!(
            s.separator.len() <= 2,
            "path separator should be 1–2 vertices, got {}",
            s.separator.len()
        );
    }

    #[test]
    fn separator_on_grid_is_about_one_column() {
        let g = grid2d(10, 10);
        let s = vertex_separator(&g, &PartitionConfig::new(2).seed(4));
        assert_separates(&g, &s);
        assert!(s.separator.len() <= 16, "grid separator {} too large", s.separator.len());
        assert!(s.left.len() >= 30 && s.right.len() >= 30, "sides should stay balanced");
    }

    #[test]
    fn separator_empty_graph() {
        let g = reorderlab_graph::GraphBuilder::undirected(0).build().unwrap();
        let s = vertex_separator(&g, &PartitionConfig::new(2));
        assert!(s.left.is_empty() && s.right.is_empty() && s.separator.is_empty());
    }

    #[test]
    fn separator_disconnected_graph_may_be_empty() {
        let g =
            reorderlab_graph::GraphBuilder::undirected(4).edge(0, 1).edge(2, 3).build().unwrap();
        let s = vertex_separator(&g, &PartitionConfig::new(2).seed(2));
        assert_separates(&g, &s);
    }

    #[test]
    fn separator_deterministic() {
        let g = grid2d(8, 8);
        let a = vertex_separator(&g, &PartitionConfig::new(2).seed(6));
        let b = vertex_separator(&g, &PartitionConfig::new(2).seed(6));
        assert_eq!(a, b);
    }
}
