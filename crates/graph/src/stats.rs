//! Graph statistics, reproducing the columns of the paper's Table I
//! (vertices, edges, maximum degree Δ, degree standard deviation) plus the
//! connectivity indicators the paper mentions (clustering coefficient,
//! triangle count).

use crate::csr::Csr;
use rayon::prelude::*;

/// Summary statistics of a graph, as reported in Table I of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of (logical) edges.
    pub num_edges: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// Mean vertex degree.
    pub mean_degree: f64,
    /// Standard deviation of the vertex degrees (population σ, as in
    /// Table I).
    pub degree_std_dev: f64,
    /// Number of triangles in the graph.
    pub triangles: u64,
    /// Global clustering coefficient: `3 * triangles / wedges` (0 when the
    /// graph has no wedge).
    pub clustering_coefficient: f64,
}

impl GraphStats {
    /// Computes all statistics for `graph`.
    ///
    /// Triangle counting uses the standard forward/compact algorithm over
    /// sorted adjacency lists and runs in `O(m^{3/2})`.
    pub fn compute(graph: &Csr) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let degrees: Vec<usize> = (0..n as u32).map(|v| graph.degree(v)).collect();
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let mean = if n == 0 { 0.0 } else { degrees.iter().sum::<usize>() as f64 / n as f64 };
        let var = if n == 0 {
            0.0
        } else {
            degrees.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64
        };
        let triangles = count_triangles(graph);
        let wedges: u64 =
            degrees.iter().map(|&d| (d as u64) * (d.saturating_sub(1)) as u64 / 2).sum();
        let clustering = if wedges == 0 { 0.0 } else { 3.0 * triangles as f64 / wedges as f64 };
        GraphStats {
            num_vertices: n,
            num_edges: m,
            max_degree,
            mean_degree: mean,
            degree_std_dev: var.sqrt(),
            triangles,
            clustering_coefficient: clustering,
        }
    }
}

/// Counts triangles with the forward algorithm: for each edge `(u, v)` with
/// `u < v`, intersect the lower-id portions of both adjacency lists.
///
/// Requires sorted neighbor lists (guaranteed by
/// [`GraphBuilder`](crate::builder::GraphBuilder) and all transforms in this
/// crate). Self loops never participate in triangles.
///
/// Rows are counted in parallel on the ambient pool and the per-row counts
/// summed in row order. They are integers, so the sum would not depend on
/// the order anyway: the result is the same at every thread count and under
/// any schedule.
pub fn count_triangles(graph: &Csr) -> u64 {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let per_row: Vec<u64> =
        (0..graph.num_vertices() as u32).into_par_iter().map(|u| row_triangles(graph, u)).collect();
    per_row.iter().sum()
}

/// Triangles `w < u < v` of row `u`: each triangle is counted exactly once,
/// at its largest pair.
fn row_triangles(graph: &Csr, u: u32) -> u64 {
    let nu = graph.neighbors(u);
    nu.iter()
        .filter(|&&v| v > u)
        .map(|&v| sorted_intersection_below(nu, graph.neighbors(v), u))
        .sum()
}

/// The serial loop [`count_triangles`] replaced, kept as its reference.
#[cfg(test)]
pub(crate) fn count_triangles_reference(graph: &Csr) -> u64 {
    let n = graph.num_vertices();
    let mut count = 0u64;
    for u in 0..n as u32 {
        let nu = graph.neighbors(u);
        for &v in nu {
            if v <= u {
                continue;
            }
            let nv = graph.neighbors(v);
            count += sorted_intersection_below(nu, nv, u);
        }
    }
    count
}

/// Counts elements `< cap` common to two sorted slices.
fn sorted_intersection_below(a: &[u32], b: &[u32], cap: u32) -> u64 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        if a[i] >= cap || b[j] >= cap {
            break;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// A log-decade histogram of vertex degrees: `buckets[d]` counts vertices
/// with degree in `[10^d, 10^(d+1))` (bucket 0 also holds degrees 0–9).
/// The shape separates the paper's structural classes at a glance —
/// meshes collapse into one bucket, social networks span many.
pub fn degree_histogram(graph: &Csr) -> Vec<usize> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let max_deg = graph.max_degree();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "SAFETY: floor(log10) of a degree >= 10 lies in 1..=19"
    )]
    let decades = if max_deg < 10 { 1 } else { (max_deg as f64).log10().floor() as usize + 1 };
    let mut buckets = vec![0usize; decades];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    for v in 0..n as u32 {
        let d = graph.degree(v);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "SAFETY: floor(log10) of a degree >= 10 lies in 1..=19"
        )]
        let b = if d < 10 { 0 } else { (d as f64).log10().floor() as usize };
        buckets[b] += 1;
    }
    buckets
}

/// Estimates the diameter of the graph's largest component with the
/// double-sweep lower bound: BFS from an arbitrary vertex, then BFS again
/// from the most distant vertex found; the second eccentricity is a lower
/// bound that is exact on trees and very tight on road/mesh graphs.
///
/// Returns 0 for an empty or edgeless graph.
pub fn approx_diameter(graph: &Csr) -> usize {
    use crate::components::Components;
    use crate::traversal::bfs_levels;
    let n = graph.num_vertices();
    if n == 0 || graph.num_edges() == 0 {
        return 0;
    }
    let comps = Components::find(graph);
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: the n == 0 case returned early above, so at least one component exists and its members are enumerable"
    )]
    let giant = comps.largest().expect("non-empty graph has a component");
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: `giant` is the id of a non-empty component, so some vertex belongs to it"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let start = (0..n as u32)
        .find(|&v| comps.component_of(v) == giant)
        .expect("giant component has a member");
    let first = bfs_levels(graph, start);
    let far = first.tiers.last().and_then(|t| t.first().copied()).unwrap_or(start);
    bfs_levels(graph, far).eccentricity()
}

/// Counts the common neighbors of `u` and `v` (size of the adjacency
/// intersection). Used by Gorder's `S_s` score.
pub fn common_neighbors(graph: &Csr, u: u32, v: u32) -> usize {
    let (a, b) = (graph.neighbors(u), graph.neighbors(v));
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Csr {
        GraphBuilder::undirected(3).edges([(0, 1), (1, 2), (0, 2)]).build().unwrap()
    }

    #[test]
    fn triangle_stats() {
        let s = GraphStats::compute(&triangle());
        assert_eq!(s.num_vertices, 3);
        assert_eq!(s.num_edges, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.mean_degree, 2.0);
        assert_eq!(s.degree_std_dev, 0.0);
        assert_eq!(s.triangles, 1);
        assert!((s.clustering_coefficient - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = GraphBuilder::undirected(4).edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.triangles, 0);
        assert_eq!(s.clustering_coefficient, 0.0);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = GraphBuilder::undirected(4)
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(count_triangles(&g), 4);
        let s = GraphStats::compute(&g);
        assert!((s.clustering_coefficient - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_degree_stats() {
        let g = GraphBuilder::undirected(5).edges((1..5).map(|i| (0, i))).build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.mean_degree, 8.0 / 5.0);
        assert_eq!(s.triangles, 0);
        // degrees: [4,1,1,1,1]; population variance = (4-1.6)^2 + 4*(1-1.6)^2 over 5
        let expected_var = ((4.0f64 - 1.6).powi(2) + 4.0 * (1.0f64 - 1.6).powi(2)) / 5.0;
        assert!((s.degree_std_dev - expected_var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.degree_std_dev, 0.0);
        assert_eq!(s.clustering_coefficient, 0.0);
    }

    #[test]
    fn common_neighbors_counts() {
        let g = GraphBuilder::undirected(5)
            .edges([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
            .build()
            .unwrap();
        assert_eq!(common_neighbors(&g, 0, 1), 2); // {2, 3}
        assert_eq!(common_neighbors(&g, 2, 3), 2); // {0, 1}
        assert_eq!(common_neighbors(&g, 2, 4), 1); // {0}
    }

    #[test]
    fn degree_histogram_decades() {
        // Star of 200: one hub (degree 199 -> bucket 2), 199 leaves
        // (degree 1 -> bucket 0).
        let g = GraphBuilder::undirected(200).edges((1..200).map(|i| (0, i))).build().unwrap();
        assert_eq!(degree_histogram(&g), vec![199, 0, 1]);
    }

    #[test]
    fn degree_histogram_empty_and_regular() {
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        assert!(degree_histogram(&g0).is_empty());
        let g = GraphBuilder::undirected(4).edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        assert_eq!(degree_histogram(&g), vec![4]);
    }

    #[test]
    fn diameter_exact_on_path() {
        let g = GraphBuilder::undirected(9).edges((0..8u32).map(|i| (i, i + 1))).build().unwrap();
        assert_eq!(approx_diameter(&g), 8);
    }

    #[test]
    fn diameter_of_grid_is_manhattan_span() {
        let mut b = GraphBuilder::undirected(16);
        for r in 0..4u32 {
            for c in 0..4u32 {
                let v = r * 4 + c;
                if c + 1 < 4 {
                    b = b.edge(v, v + 1);
                }
                if r + 1 < 4 {
                    b = b.edge(v, v + 4);
                }
            }
        }
        let g = b.build().unwrap();
        assert_eq!(approx_diameter(&g), 6);
    }

    #[test]
    fn diameter_uses_largest_component() {
        // Tiny pair + a 5-path: the path's diameter (4) wins.
        let g = GraphBuilder::undirected(7)
            .edges([(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
            .build()
            .unwrap();
        assert_eq!(approx_diameter(&g), 4);
    }

    #[test]
    fn diameter_degenerate_cases() {
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        assert_eq!(approx_diameter(&g0), 0);
        let g1 = GraphBuilder::undirected(3).build().unwrap();
        assert_eq!(approx_diameter(&g1), 0);
    }

    /// The parallel count equals the serial loop it replaced, at every
    /// width, on every degenerate shape and on a graph with real triangles.
    #[test]
    fn triangle_count_equals_the_serial_reference_at_every_width() {
        use crate::builder::SelfLoopPolicy;
        use crate::determinism::build_pool;
        // `reorderlab_datasets` links the non-test build of this crate, so
        // its `Csr` is a foreign type here: rebuild each case from its edges.
        let mut cases: Vec<(String, Csr)> = reorderlab_datasets::degenerate_suite()
            .into_iter()
            .map(|case| (case.name.to_string(), case.graph))
            .chain(["euroroad", "rovira"].map(|name| {
                (name.to_string(), reorderlab_datasets::by_name(name).unwrap().generate())
            }))
            .map(|(name, g)| {
                let rebuilt = GraphBuilder::undirected(g.num_vertices())
                    .self_loops(SelfLoopPolicy::Keep)
                    .edges(g.edges().map(|(u, v, _)| (u, v)))
                    .build()
                    .unwrap();
                assert_eq!(rebuilt.num_arcs(), g.num_arcs(), "{name}");
                (name, rebuilt)
            })
            .collect();
        cases.push(("triangle".into(), triangle()));
        let mut with_triangles = 0;
        for (name, g) in &cases {
            let reference = count_triangles_reference(g);
            with_triangles += usize::from(reference > 0);
            for threads in [1, 2, 7] {
                let counted = build_pool(threads).install(|| count_triangles(g));
                assert_eq!(counted, reference, "{name} at {threads} threads");
            }
        }
        assert!(with_triangles >= 3, "the cases must not all be triangle-free");
    }

    #[test]
    fn triangle_count_invariant_under_permutation() {
        use crate::perm::Permutation;
        let g = GraphBuilder::undirected(5)
            .edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            .build()
            .unwrap();
        let pi = Permutation::from_ranks(vec![4, 2, 0, 3, 1]).unwrap();
        let h = g.permuted(&pi).unwrap();
        assert_eq!(count_triangles(&g), count_triangles(&h));
        assert_eq!(count_triangles(&g), 2);
    }
}
