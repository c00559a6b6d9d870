//! Graph contraction by cluster assignment.
//!
//! Community-detection ordering schemes (Grappolo, Grappolo-RCM, Rabbit
//! Order) and the multilevel partitioner repeatedly collapse clusters into
//! super-vertices. [`contract`] performs that collapse, accumulating edge
//! weights between clusters and weights of intra-cluster edges into
//! self-loops — exactly the compaction Louvain performs between phases.
//!
//! The kernel aggregates per coarse row with an epoch-stamped scatter array
//! (no hashing) and builds rows in parallel. For undirected graphs only the
//! "upper" entries (target cluster ≥ source cluster) are accumulated in
//! parallel; the lower triangle is filled by mirroring the exact float
//! values serially, so the coarse adjacency is bit-for-bit symmetric at any
//! thread count.

use crate::csr::Csr;
use crate::error::GraphError;
use rayon::prelude::*;

/// The result of contracting a graph by a cluster assignment.
#[derive(Debug, Clone)]
pub struct Contraction {
    /// The coarsened graph: one vertex per cluster, weighted, with
    /// self-loops carrying intra-cluster edge weight.
    pub coarse: Csr,
    /// For each coarse vertex, how many fine vertices it absorbed.
    pub cluster_sizes: Vec<usize>,
}

/// Per-worker scatter scratch for one coarse row: accumulated weight per
/// target cluster, a stamp marking which row last touched each slot, and the
/// list of touched clusters in first-touch order.
struct RowScratch {
    acc: Vec<f64>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
}

impl RowScratch {
    fn new(num_clusters: usize) -> Self {
        RowScratch {
            acc: vec![0.0; num_clusters],
            stamp: vec![0; num_clusters],
            touched: Vec::new(),
        }
    }
}

/// Builds the aggregated entries of coarse row `c`, sorted by target
/// cluster. For undirected graphs only entries with target ≥ `c` are
/// produced (the self-loop, if any, first); intra-cluster weight is the sum
/// over both arc directions halved, plus self-loop arcs at full weight.
fn build_row(
    graph: &Csr,
    assignment: &[u32],
    members: &[u32],
    c: usize,
    scratch: &mut RowScratch,
) -> Vec<(u32, f64)> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let marker = c as u32 + 1;
    scratch.touched.clear();
    let mut intra = 0.0f64;
    let mut self_loops = 0.0f64;
    let mut has_self = false;
    for &u in members {
        for (t, w) in graph.weighted_neighbors(u) {
            let d = assignment[t as usize];
            if graph.is_directed() {
                // Directed rows are independent: aggregate every target.
                if scratch.stamp[d as usize] != marker {
                    scratch.stamp[d as usize] = marker;
                    scratch.acc[d as usize] = w;
                    scratch.touched.push(d);
                } else {
                    scratch.acc[d as usize] += w;
                }
            } else if (d as usize) == c {
                has_self = true;
                if t == u {
                    self_loops += w;
                } else {
                    intra += w;
                }
            } else if (d as usize) > c {
                if scratch.stamp[d as usize] != marker {
                    scratch.stamp[d as usize] = marker;
                    scratch.acc[d as usize] = w;
                    scratch.touched.push(d);
                } else {
                    scratch.acc[d as usize] += w;
                }
            }
            // Undirected targets in clusters below `c` are mirrored later.
        }
    }
    scratch.touched.sort_unstable();
    let mut entries = Vec::with_capacity(scratch.touched.len() + 1);
    if !graph.is_directed() && has_self {
        // Each intra-cluster edge was seen from both endpoints; self-loop
        // arcs are stored once and keep full weight.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        entries.push((c as u32, intra / 2.0 + self_loops));
    }
    entries.extend(scratch.touched.iter().map(|&d| (d, scratch.acc[d as usize])));
    entries
}

/// Assembles the coarse CSR from per-row aggregated entries. For undirected
/// graphs, each upper entry `(c → d, w)` with `d > c` is mirrored into row
/// `d` with the identical float, making the adjacency exactly symmetric.
fn assemble(
    rows: Vec<Vec<(u32, f64)>>,
    num_clusters: usize,
    directed: bool,
) -> (Vec<usize>, Vec<u32>, Vec<f64>, usize) {
    let num_edges: usize = rows.iter().map(Vec::len).sum();
    // How many mirror entries each row receives (undirected only): one per
    // upper entry pointing at it.
    let mut incoming = vec![0usize; num_clusters];
    if !directed {
        for (c, row) in rows.iter().enumerate() {
            for &(d, _) in row {
                if (d as usize) > c {
                    incoming[d as usize] += 1;
                }
            }
        }
    }
    let counts: Vec<usize> =
        rows.iter().enumerate().map(|(c, row)| row.len() + incoming[c]).collect();
    let offsets = exclusive_prefix_sum(&counts);
    let total = offsets[num_clusters];
    let mut targets = vec![0u32; total];
    let mut weights = vec![0.0f64; total];
    // Mirrors land first in each row: their sources are all < the row id and
    // arrive in ascending order because rows are swept ascending. A row's
    // own entries (all ≥ its id) follow, already sorted — so every row ends
    // up sorted by target.
    let mut mirror_cursor: Vec<usize> = offsets[..num_clusters].to_vec();
    let mut own_cursor: Vec<usize> = (0..num_clusters).map(|c| offsets[c] + incoming[c]).collect();
    for (c, row) in rows.iter().enumerate() {
        for &(d, w) in row {
            targets[own_cursor[c]] = d;
            weights[own_cursor[c]] = w;
            own_cursor[c] += 1;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            if !directed && (d as usize) > c {
                targets[mirror_cursor[d as usize]] = c as u32;
                weights[mirror_cursor[d as usize]] = w;
                mirror_cursor[d as usize] += 1;
            }
        }
    }
    (offsets, targets, weights, num_edges)
}

fn validate(graph: &Csr, assignment: &[u32], num_clusters: usize) -> Result<(), GraphError> {
    let n = graph.num_vertices();
    if assignment.len() != n {
        return Err(GraphError::AssignmentLengthMismatch {
            assignment_len: assignment.len(),
            num_vertices: n,
        });
    }
    for &c in assignment {
        if c as usize >= num_clusters {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            return Err(GraphError::ClusterOutOfBounds {
                cluster: c,
                num_clusters: num_clusters as u32,
            });
        }
    }
    Ok(())
}

/// Exclusive prefix sum: `counts` of length `n` become offsets of length
/// `n + 1` with `offsets[0] == 0` and `offsets[n] == counts.iter().sum()`.
/// The standard step for turning per-row lengths into CSR offsets.
fn exclusive_prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

/// Groups vertices by cluster via counting sort; members of each cluster are
/// in ascending vertex-id order.
fn cluster_members(assignment: &[u32], cluster_sizes: &[usize]) -> (Vec<usize>, Vec<u32>) {
    let member_off = exclusive_prefix_sum(cluster_sizes);
    let mut cursor = member_off[..cluster_sizes.len()].to_vec();
    let mut members = vec![0u32; assignment.len()];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    for (v, &c) in assignment.iter().enumerate() {
        members[cursor[c as usize]] = v as u32;
        cursor[c as usize] += 1;
    }
    (member_off, members)
}

/// Contracts `graph` by `assignment`, producing one super-vertex per cluster.
///
/// `assignment[v]` must lie in `[0, num_clusters)`. Edge weights between
/// clusters are summed; intra-cluster edges become a self-loop on the
/// super-vertex whose weight is the sum of the intra-cluster edge weights
/// (each undirected intra-cluster edge counted once).
///
/// Coarse rows are aggregated in parallel; the result is bit-identical to
/// [`contract_serial`] at any thread count because every row's accumulation
/// order (members ascending, arcs in adjacency order) is fixed and
/// undirected mirror weights are copied, not recomputed.
///
/// # Errors
///
/// Returns [`GraphError::AssignmentLengthMismatch`] if the assignment does
/// not cover every vertex, or [`GraphError::ClusterOutOfBounds`] if an
/// assignment exceeds `num_clusters`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use reorderlab_graph::{contract, GraphBuilder};
///
/// // Two triangles joined by one edge; collapse each triangle.
/// let g = GraphBuilder::undirected(6)
///     .edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
///     .build()?;
/// let c = contract(&g, &[0, 0, 0, 1, 1, 1], 2)?;
/// assert_eq!(c.coarse.num_vertices(), 2);
/// // A triangle self-loop of weight 3, and the bridge of weight 1.
/// let row: Vec<(u32, f64)> = c.coarse.weighted_neighbors(0).collect();
/// assert_eq!(row, vec![(0, 3.0), (1, 1.0)]);
/// # Ok(())
/// # }
/// ```
pub fn contract(
    graph: &Csr,
    assignment: &[u32],
    num_clusters: usize,
) -> Result<Contraction, GraphError> {
    validate(graph, assignment, num_clusters)?;
    let mut cluster_sizes = vec![0usize; num_clusters];
    for &c in assignment {
        cluster_sizes[c as usize] += 1;
    }
    let (member_off, members) = cluster_members(assignment, &cluster_sizes);

    let rows: Vec<Vec<(u32, f64)>> = (0..num_clusters)
        .into_par_iter()
        .map_init(
            || RowScratch::new(num_clusters),
            |scratch, c| {
                build_row(graph, assignment, &members[member_off[c]..member_off[c + 1]], c, scratch)
            },
        )
        .collect();

    let (offsets, targets, weights, num_edges) = assemble(rows, num_clusters, graph.is_directed());
    let coarse =
        Csr::from_raw_parts(offsets, targets, Some(weights), num_edges, graph.is_directed());
    Ok(Contraction { coarse, cluster_sizes })
}

/// Reference serial implementation of [`contract`]: identical row
/// aggregation run one row at a time with a single scratch. Retained as the
/// property-test oracle and bench baseline for the parallel kernel.
///
/// # Errors
///
/// Same error conditions as [`contract`].
pub fn contract_serial(
    graph: &Csr,
    assignment: &[u32],
    num_clusters: usize,
) -> Result<Contraction, GraphError> {
    validate(graph, assignment, num_clusters)?;
    let mut cluster_sizes = vec![0usize; num_clusters];
    for &c in assignment {
        cluster_sizes[c as usize] += 1;
    }
    let (member_off, members) = cluster_members(assignment, &cluster_sizes);

    let mut scratch = RowScratch::new(num_clusters);
    let rows: Vec<Vec<(u32, f64)>> = (0..num_clusters)
        .map(|c| {
            build_row(
                graph,
                assignment,
                &members[member_off[c]..member_off[c + 1]],
                c,
                &mut scratch,
            )
        })
        .collect();

    let (offsets, targets, weights, num_edges) = assemble(rows, num_clusters, graph.is_directed());
    let coarse =
        Csr::from_raw_parts(offsets, targets, Some(weights), num_edges, graph.is_directed());
    Ok(Contraction { coarse, cluster_sizes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn prefix_sum_basics() {
        assert_eq!(exclusive_prefix_sum(&[]), vec![0]);
        assert_eq!(exclusive_prefix_sum(&[3, 0, 2]), vec![0, 3, 3, 5]);
    }

    #[test]
    fn contract_two_triangles() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            .build()
            .unwrap();
        let c = contract(&g, &[0, 0, 0, 1, 1, 1], 2).unwrap();
        assert_eq!(c.coarse.num_vertices(), 2);
        assert_eq!(c.cluster_sizes, vec![3, 3]);
        assert_eq!(c.coarse.edge_weight(0, 1), Some(1.0));
        assert_eq!(c.coarse.edge_weight(0, 0), Some(3.0));
        assert_eq!(c.coarse.edge_weight(1, 1), Some(3.0));
        // Total weight is conserved.
        assert_eq!(c.coarse.total_edge_weight(), g.total_edge_weight());
    }

    #[test]
    fn contract_preserves_total_weight_weighted() {
        let g = GraphBuilder::undirected(4)
            .weighted_edge(0, 1, 2.0)
            .weighted_edge(1, 2, 3.0)
            .weighted_edge(2, 3, 4.0)
            .build()
            .unwrap();
        let c = contract(&g, &[0, 0, 1, 1], 2).unwrap();
        assert_eq!(c.coarse.total_edge_weight(), 9.0);
        assert_eq!(c.coarse.edge_weight(0, 0), Some(2.0));
        assert_eq!(c.coarse.edge_weight(0, 1), Some(3.0));
        assert_eq!(c.coarse.edge_weight(1, 1), Some(4.0));
    }

    #[test]
    fn contract_identity_assignment() {
        let g = GraphBuilder::undirected(3).edge(0, 1).edge(1, 2).build().unwrap();
        let c = contract(&g, &[0, 1, 2], 3).unwrap();
        assert_eq!(c.coarse.num_vertices(), 3);
        assert_eq!(c.coarse.num_edges(), 2);
        assert_eq!(c.cluster_sizes, vec![1, 1, 1]);
    }

    #[test]
    fn contract_all_into_one() {
        let g = GraphBuilder::undirected(4).edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        let c = contract(&g, &[0, 0, 0, 0], 1).unwrap();
        assert_eq!(c.coarse.num_vertices(), 1);
        assert_eq!(c.coarse.edge_weight(0, 0), Some(3.0));
    }

    #[test]
    fn contract_rejects_bad_assignment() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        assert!(matches!(
            contract(&g, &[0, 1], 2),
            Err(GraphError::AssignmentLengthMismatch { .. })
        ));
        assert!(matches!(
            contract(&g, &[0, 1, 5], 2),
            Err(GraphError::ClusterOutOfBounds { cluster: 5, .. })
        ));
    }

    #[test]
    fn contract_directed_keeps_direction() {
        let g = GraphBuilder::directed(4).edge(0, 2).edge(3, 1).build().unwrap();
        let c = contract(&g, &[0, 0, 1, 1], 2).unwrap();
        assert!(c.coarse.is_directed());
        assert_eq!(c.coarse.edge_weight(0, 1), Some(1.0));
        assert_eq!(c.coarse.edge_weight(1, 0), Some(1.0));
    }

    #[test]
    fn contract_empty_clusters_allowed() {
        // num_clusters larger than used: empty super-vertices are fine.
        let g = GraphBuilder::undirected(2).edge(0, 1).build().unwrap();
        let c = contract(&g, &[0, 2], 4).unwrap();
        assert_eq!(c.coarse.num_vertices(), 4);
        assert_eq!(c.cluster_sizes, vec![1, 0, 1, 0]);
        assert_eq!(c.coarse.edge_weight(0, 2), Some(1.0));
    }

    #[test]
    fn contract_self_loops_keep_full_weight() {
        let g = GraphBuilder::undirected(3)
            .self_loops(crate::builder::SelfLoopPolicy::Keep)
            .weighted_edge(0, 0, 5.0)
            .weighted_edge(0, 1, 1.0)
            .weighted_edge(1, 2, 1.0)
            .build()
            .unwrap();
        let c = contract(&g, &[0, 0, 1], 2).unwrap();
        // Self-loop (5.0) plus intra edge (0,1) (1.0).
        assert_eq!(c.coarse.edge_weight(0, 0), Some(6.0));
        assert_eq!(c.coarse.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn coarse_rows_are_sorted_and_symmetric() {
        let g = GraphBuilder::undirected(8)
            .weighted_edge(0, 4, 0.1)
            .weighted_edge(1, 5, 0.2)
            .weighted_edge(2, 6, 0.3)
            .weighted_edge(3, 7, 0.4)
            .weighted_edge(0, 7, 0.7)
            .weighted_edge(4, 5, 1.5)
            .build()
            .unwrap();
        let c = contract(&g, &[0, 1, 2, 3, 1, 2, 3, 0], 4).unwrap();
        for v in 0..4u32 {
            let nbrs = c.coarse.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "row {v} unsorted: {nbrs:?}");
            for &t in nbrs {
                // Exact float symmetry: mirrors are copies, not re-sums.
                assert_eq!(c.coarse.edge_weight(v, t), c.coarse.edge_weight(t, v));
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let g = GraphBuilder::undirected(10)
            .edges((0..9).map(|i| (i, i + 1)))
            .edges([(0, 5), (2, 7), (3, 9)])
            .build()
            .unwrap();
        let assignment: Vec<u32> = (0..10u32).map(|v| v % 4).collect();
        let par = contract(&g, &assignment, 4).unwrap();
        let ser = contract_serial(&g, &assignment, 4).unwrap();
        assert_eq!(par.coarse, ser.coarse);
        assert_eq!(par.cluster_sizes, ser.cluster_sizes);
    }
}
