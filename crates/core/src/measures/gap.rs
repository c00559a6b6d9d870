//! Linear-arrangement gap measures (paper §II-A).
//!
//! Given an ordering Π, the *gap* of edge `(i, j)` is `ξ_Π(i,j) = |Π(i) −
//! Π(j)|`. From it the paper derives: the average gap profile ξ̂ (mean over
//! edges), the vertex bandwidth β_i (max gap at a vertex), the graph
//! bandwidth β (max over all edges), and the average graph bandwidth β̂
//! (mean vertex bandwidth).

use crate::error::MeasureError;
use rayon::prelude::*;
use reorderlab_graph::{det_sum_f64, Csr, Permutation};

/// Checks that `pi` covers exactly the graph's vertices.
fn check_cover(graph: &Csr, pi: &Permutation) -> Result<(), MeasureError> {
    if pi.len() != graph.num_vertices() {
        return Err(MeasureError::PermutationMismatch {
            permutation_len: pi.len(),
            num_vertices: graph.num_vertices(),
        });
    }
    Ok(())
}

/// The four global gap measures the paper evaluates orderings on (§V).
///
/// `avg_log_gap` is also a storage bound: it lower-bounds the realized
/// varint cost per arc that [`crate::measures::try_compression_measures`]
/// reports as `bits_per_edge` (a gap `ξ` needs at least `log2(1 + ξ)`
/// bits under any prefix-free gap code).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapMeasures {
    /// Average gap profile ξ̂: mean `|Π(i) − Π(j)|` over edges (0 for an
    /// edgeless graph).
    pub avg_gap: f64,
    /// Graph bandwidth β: maximum gap over all edges (0 for an edgeless
    /// graph).
    pub bandwidth: u32,
    /// Average graph bandwidth β̂: mean vertex bandwidth over all vertices.
    pub avg_bandwidth: f64,
    /// Average log gap: mean `log2(1 + ξ)` over edges — the objective of
    /// the MinLogA problem (§III-A), relevant to graph compression \[5, 7\].
    pub avg_log_gap: f64,
}

/// Computes all four gap measures of `graph` under `pi`.
///
/// Self loops have gap 0 and participate like any other edge.
///
/// # Panics
///
/// Panics if `pi` does not cover exactly the graph's vertices.
///
/// # Examples
///
/// An analogue of the paper's Figure 2: a 7-vertex graph whose natural order
/// scores β = 5, β̂ ≈ 4.43, improved by the paper's reordering
/// Π = \[5,1,3,7,2,6,4\] (1-based) to β = 3, β̂ ≈ 2.86.
///
/// ```
/// use reorderlab_core::measures::gap_measures;
/// use reorderlab_graph::{GraphBuilder, Permutation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = GraphBuilder::undirected(7)
///     .edges([(0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (2, 4), (2, 5), (2, 6), (3, 5), (5, 6)])
///     .build()?;
/// let natural = gap_measures(&g, &Permutation::identity(7));
/// assert_eq!(natural.bandwidth, 5);
/// let pi = Permutation::from_ranks(vec![4, 0, 2, 6, 1, 5, 3])?; // 0-based Figure 2
/// let reordered = gap_measures(&g, &pi);
/// assert_eq!(reordered.bandwidth, 3);
/// assert!(reordered.avg_gap < natural.avg_gap);
/// # Ok(())
/// # }
/// ```
pub fn gap_measures(graph: &Csr, pi: &Permutation) -> GapMeasures {
    #[expect(
        clippy::panic,
        reason = "SAFETY: documented panicking twin over `try_gap_measures` (# Panics in the doc above); the error carries the validation message"
    )]
    try_gap_measures(graph, pi).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`gap_measures`]: returns a typed error instead of panicking
/// when `pi` does not cover exactly the graph's vertices.
///
/// Every field of the result is finite for every graph, including the
/// degenerate ones (empty, single-vertex, zero-edge): means over empty
/// edge or vertex sets are defined as 0.
///
/// # Errors
///
/// [`MeasureError::PermutationMismatch`] when `pi.len() != n`.
pub fn try_gap_measures(graph: &Csr, pi: &Permutation) -> Result<GapMeasures, MeasureError> {
    check_cover(graph, pi)?;
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(GapMeasures {
            avg_gap: 0.0,
            bandwidth: 0,
            avg_bandwidth: 0.0,
            avg_log_gap: 0.0,
        });
    }
    // One contiguous row span of near-equal arcs per worker of the ambient
    // pool. The integers are reduced per span and are order-free; the f64
    // log-gap is kept per row and folded in index order below, so the
    // result never depends on the worker count or the span boundaries.
    let directed = graph.is_directed();
    let mut log_sums = vec![0.0f64; n];
    // A directed row sees only its out-arcs, so its vertex bandwidth waits
    // for the in-arc pass below; an undirected row's is final, so there
    // are no band slices and every span gets `None`.
    let mut vertex_band = vec![0u32; if directed { n } else { 0 }];
    let row_spans = rayon::arc_spans(graph.offsets());
    let mut band_spans =
        directed.then(|| rayon::span_slices(&mut vertex_band, &row_spans).into_iter());
    let spans: Vec<SpanPartial> = row_spans
        .iter()
        .zip(rayon::span_slices(&mut log_sums, &row_spans))
        .map(|(rows, logs)| (rows.start, logs, band_spans.as_mut().and_then(Iterator::next)))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(first, logs, bands)| span_partial(graph, pi, first, logs, bands))
        .collect();

    let mut sum = 0u64;
    let mut count = 0u64;
    let mut bandwidth = 0u32;
    let mut band_sum = 0u64;
    for p in &spans {
        sum += p.sum;
        count += p.count;
        bandwidth = bandwidth.max(p.edge_band);
        band_sum += p.band_sum;
    }
    if directed {
        for (u, v, _) in graph.edges() {
            let gap = pi.rank(u).abs_diff(pi.rank(v));
            vertex_band[v as usize] = vertex_band[v as usize].max(gap);
        }
        band_sum = vertex_band.iter().map(|&b| u64::from(b)).sum();
    }
    let log_sum = det_sum_f64(&log_sums);

    let avg_gap = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
    let avg_log_gap = if count == 0 { 0.0 } else { log_sum / count as f64 };
    let avg_bandwidth = band_sum as f64 / n as f64;
    Ok(GapMeasures { avg_gap, bandwidth, avg_bandwidth, avg_log_gap })
}

/// One row span's partial reduction of [`gap_measures`].
struct SpanPartial {
    /// Sum of gaps over the span's *logical* edges.
    sum: u64,
    /// Logical edges owned by the span's rows.
    count: u64,
    /// Max gap over the span's logical edges.
    edge_band: u32,
    /// Sum of the rows' bandwidths, for an undirected graph: its mirror
    /// arcs make a row's max gap exactly the vertex bandwidth `β_u`.
    band_sum: u64,
}

/// Reduces the rows `first..first + logs.len()`: each row's `log2(1 + gap)`
/// sum, in arc order, goes to `logs`, and each row's max arc gap to
/// `bands` when the graph is directed.
fn span_partial(
    graph: &Csr,
    pi: &Permutation,
    first: usize,
    logs: &mut [f64],
    mut bands: Option<&mut [u32]>,
) -> SpanPartial {
    let directed = graph.is_directed();
    let mut p = SpanPartial { sum: 0, count: 0, edge_band: 0, band_sum: 0 };
    for (i, log_sum) in logs.iter_mut().enumerate() {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, so at most num_vertices() <= u32::MAX"
        )]
        let u = (first + i) as u32;
        let ru = pi.rank(u);
        let mut row_band = 0u32;
        for &v in graph.neighbors(u) {
            let gap = ru.abs_diff(pi.rank(v));
            row_band = row_band.max(gap);
            if !directed && v < u {
                continue; // mirror arc; the (v, u) row owns this undirected edge
            }
            p.sum += u64::from(gap);
            *log_sum += (1.0 + f64::from(gap)).log2();
            p.count += 1;
            p.edge_band = p.edge_band.max(gap);
        }
        match bands.as_deref_mut() {
            Some(bands) => bands[i] = row_band,
            None => p.band_sum += u64::from(row_band),
        }
    }
    p
}

/// Returns the gap `ξ_Π(i,j)` of every (logical) edge, in edge-iteration
/// order — the raw *gap profile* behind the paper's violin plots (Fig. 8).
///
/// # Panics
///
/// Panics if `pi` does not cover exactly the graph's vertices.
pub fn edge_gaps(graph: &Csr, pi: &Permutation) -> Vec<u32> {
    #[expect(
        clippy::panic,
        reason = "SAFETY: documented panicking twin over `try_edge_gaps` (# Panics in the doc above)"
    )]
    try_edge_gaps(graph, pi).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`edge_gaps`]: returns a typed error instead of panicking when
/// `pi` does not cover exactly the graph's vertices.
///
/// # Errors
///
/// [`MeasureError::PermutationMismatch`] when `pi.len() != n`.
pub fn try_edge_gaps(graph: &Csr, pi: &Permutation) -> Result<Vec<u32>, MeasureError> {
    check_cover(graph, pi)?;
    let n = graph.num_vertices();
    let directed = graph.is_directed();
    // Gap rows are independent; computing them in parallel and flattening in
    // row order reproduces edge-iteration order exactly.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let rows: Vec<Vec<u32>> = (0..n as u32)
        .into_par_iter()
        .map(|u| {
            let ru = pi.rank(u);
            graph
                .neighbors(u)
                .iter()
                .filter(|&&v| directed || v >= u)
                .map(|&v| ru.abs_diff(pi.rank(v)))
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(graph.num_edges());
    for row in rows {
        out.extend(row);
    }
    Ok(out)
}

/// Returns the bandwidth `β_v` of every vertex: the maximum gap between `v`
/// and any neighbor (0 for isolated vertices).
///
/// # Errors
///
/// [`MeasureError::PermutationMismatch`] when `pi.len() != n`.
pub fn try_vertex_bandwidths(graph: &Csr, pi: &Permutation) -> Result<Vec<u32>, MeasureError> {
    check_cover(graph, pi)?;
    let n = graph.num_vertices();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    Ok((0..n as u32)
        .into_par_iter()
        .map(|v| {
            let rv = pi.rank(v);
            graph.neighbors(v).iter().fold(0u32, |b, &u| b.max(rv.abs_diff(pi.rank(u))))
        })
        .collect())
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use reorderlab_graph::{assert_thread_invariant, GraphBuilder};

    /// The serial reference the parallel implementation must reproduce —
    /// the original single-threaded edge-iteration scan.
    fn serial_gap_measures(graph: &Csr, pi: &Permutation) -> GapMeasures {
        let n = graph.num_vertices();
        let mut sum = 0u64;
        let mut log_sum = 0.0f64;
        let mut count = 0u64;
        let mut bandwidth = 0u32;
        let mut vertex_band = vec![0u32; n];
        for (u, v, _) in graph.edges() {
            let gap = pi.rank(u).abs_diff(pi.rank(v));
            sum += gap as u64;
            log_sum += (1.0 + gap as f64).log2();
            count += 1;
            bandwidth = bandwidth.max(gap);
            let (ui, vi) = (u as usize, v as usize);
            vertex_band[ui] = vertex_band[ui].max(gap);
            vertex_band[vi] = vertex_band[vi].max(gap);
        }
        let avg_gap = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
        let avg_log_gap = if count == 0 { 0.0 } else { log_sum / count as f64 };
        let avg_bandwidth = if n == 0 {
            0.0
        } else {
            vertex_band.iter().map(|&b| b as f64).sum::<f64>() / n as f64
        };
        GapMeasures { avg_gap, bandwidth, avg_bandwidth, avg_log_gap }
    }

    fn serial_edge_gaps(graph: &Csr, pi: &Permutation) -> Vec<u32> {
        graph.edges().map(|(u, v, _)| pi.rank(u).abs_diff(pi.rank(v))).collect()
    }

    fn serial_vertex_bandwidths(graph: &Csr, pi: &Permutation) -> Vec<u32> {
        let n = graph.num_vertices();
        let mut band = vec![0u32; n];
        for v in 0..n as u32 {
            let rv = pi.rank(v);
            for &u in graph.neighbors(v) {
                band[v as usize] = band[v as usize].max(rv.abs_diff(pi.rank(u)));
            }
        }
        band
    }

    /// Deterministic Fisher–Yates permutation from a SplitMix64 stream.
    fn random_perm(n: usize, seed: u64) -> Permutation {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Permutation::from_order(&order).unwrap()
    }

    fn build(n: usize, edges: Vec<(u32, u32)>, directed: bool) -> Csr {
        let edges: Vec<(u32, u32)> =
            edges.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)).collect();
        let b = if directed { GraphBuilder::directed(n) } else { GraphBuilder::undirected(n) };
        b.edges(edges).build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn parallel_gap_measures_match_serial(
            n in 1usize..48,
            fewer_rows_than_workers in any::<bool>(),
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..160),
            seed in any::<u64>(),
            directed in any::<bool>(),
        ) {
            // Half the cases have n < 7: fewer rows than the 7-thread workers.
            let n = if fewer_rows_than_workers { 1 + n % 6 } else { n };
            let g = build(n, edges, directed);
            let pi = random_perm(n, seed);
            // Bit for bit at 1, 2 and 7 threads, whatever the span bounds.
            assert_thread_invariant(|| {
                let m = gap_measures(&g, &pi);
                (m.avg_gap.to_bits(), m.bandwidth, m.avg_bandwidth.to_bits(), m.avg_log_gap.to_bits())
            });
            let par = gap_measures(&g, &pi);
            let ser = serial_gap_measures(&g, &pi);
            prop_assert_eq!(par.bandwidth, ser.bandwidth);
            // Integer-derived quantities are exact.
            prop_assert_eq!(par.avg_gap.to_bits(), ser.avg_gap.to_bits());
            prop_assert_eq!(par.avg_bandwidth.to_bits(), ser.avg_bandwidth.to_bits());
            // The log-gap accumulates per-row partials in index order —
            // deterministic, but grouped differently than the flat serial
            // scan, so it agrees to rounding error rather than bit-for-bit.
            prop_assert!(
                (par.avg_log_gap - ser.avg_log_gap).abs() <= 1e-12 * (1.0 + ser.avg_log_gap.abs()),
                "avg_log_gap {} vs {}", par.avg_log_gap, ser.avg_log_gap
            );
        }

        #[test]
        fn parallel_edge_gaps_match_serial(
            n in 1usize..48,
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..160),
            seed in any::<u64>(),
            directed in any::<bool>(),
        ) {
            let g = build(n, edges, directed);
            let pi = random_perm(n, seed);
            prop_assert_eq!(edge_gaps(&g, &pi), serial_edge_gaps(&g, &pi));
        }

        #[test]
        fn parallel_vertex_bandwidths_match_serial(
            n in 1usize..48,
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..160),
            seed in any::<u64>(),
            directed in any::<bool>(),
        ) {
            let g = build(n, edges, directed);
            let pi = random_perm(n, seed);
            prop_assert_eq!(try_vertex_bandwidths(&g, &pi).unwrap(), serial_vertex_bandwidths(&g, &pi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::GraphBuilder;

    fn fig2_graph() -> Csr {
        // An analogue of the paper's Figure 2 (whose exact edge list is not
        // given): 7 vertices, 10 edges, natural measures ξ̂=3.2, β=5,
        // β̂=4.43; under the paper's Π = [5,1,3,7,2,6,4] (1-based) they drop
        // to ξ̂=1.8, β=3, β̂=2.86 — matching Figure 2's β̂ exactly.
        GraphBuilder::undirected(7)
            .edges([(0, 3), (0, 4), (0, 5), (1, 4), (1, 6), (2, 4), (2, 5), (2, 6), (3, 5), (5, 6)])
            .build()
            .unwrap()
    }

    #[test]
    fn figure2_natural_order() {
        let g = fig2_graph();
        let m = gap_measures(&g, &Permutation::identity(7));
        assert_eq!(m.bandwidth, 5);
        assert!((m.avg_gap - 3.2).abs() < 1e-12, "ξ̂ = 3.2, got {}", m.avg_gap);
        assert!((m.avg_bandwidth - 31.0 / 7.0).abs() < 1e-12, "β̂ ≈ 4.43 as in Figure 2");
    }

    #[test]
    fn figure2_reordering_improves() {
        let g = fig2_graph();
        let natural = gap_measures(&g, &Permutation::identity(7));
        let pi = Permutation::from_ranks(vec![4, 0, 2, 6, 1, 5, 3]).unwrap();
        let re = gap_measures(&g, &pi);
        assert_eq!(re.bandwidth, 3);
        assert!(re.avg_gap < natural.avg_gap);
        assert!((re.avg_bandwidth - 20.0 / 7.0).abs() < 1e-12, "β̂ ≈ 2.86 as in Figure 2");
    }

    #[test]
    fn path_natural_order_is_optimal() {
        let g =
            GraphBuilder::undirected(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build().unwrap();
        let m = gap_measures(&g, &Permutation::identity(5));
        assert_eq!(m.avg_gap, 1.0);
        assert_eq!(m.bandwidth, 1);
        assert_eq!(m.avg_bandwidth, 1.0);
    }

    #[test]
    fn path_reversal_is_equivalent() {
        let g =
            GraphBuilder::undirected(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build().unwrap();
        let rev = Permutation::identity(5).reversed();
        let m = gap_measures(&g, &rev);
        assert_eq!(m.bandwidth, 1);
        assert_eq!(m.avg_gap, 1.0);
    }

    #[test]
    fn edgeless_graph_measures_zero() {
        let g = GraphBuilder::undirected(4).build().unwrap();
        let m = gap_measures(&g, &Permutation::identity(4));
        assert_eq!(m.avg_gap, 0.0);
        assert_eq!(m.bandwidth, 0);
        assert_eq!(m.avg_bandwidth, 0.0);
        assert_eq!(m.avg_log_gap, 0.0);
    }

    #[test]
    fn log_gap_on_path() {
        // All gaps are 1, so avg log gap = log2(2) = 1.
        let g = GraphBuilder::undirected(4).edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        let m = gap_measures(&g, &Permutation::identity(4));
        assert!((m.avg_log_gap - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_gap_compresses_large_gaps() {
        // The MinLogA objective is less sensitive to a single huge gap than
        // ξ̂: doubling one gap adds ~1 to its log term, not its magnitude.
        let g = GraphBuilder::undirected(64).edge(0, 63).edge(0, 1).build().unwrap();
        let m = gap_measures(&g, &Permutation::identity(64));
        assert_eq!(m.avg_gap, 32.0);
        assert!(m.avg_log_gap < 4.0, "log measure {} stays small", m.avg_log_gap);
    }

    #[test]
    fn edge_gaps_match_measures() {
        let g = fig2_graph();
        let pi = Permutation::from_ranks(vec![4, 0, 2, 6, 1, 5, 3]).unwrap();
        let gaps = edge_gaps(&g, &pi);
        assert_eq!(gaps.len(), g.num_edges());
        let m = gap_measures(&g, &pi);
        assert_eq!(*gaps.iter().max().unwrap(), m.bandwidth);
        let avg = gaps.iter().map(|&g| g as f64).sum::<f64>() / gaps.len() as f64;
        assert!((avg - m.avg_gap).abs() < 1e-12);
    }

    #[test]
    fn vertex_bandwidths_match_avg() {
        let g = fig2_graph();
        let pi = Permutation::identity(7);
        let bands = try_vertex_bandwidths(&g, &pi).unwrap();
        let m = gap_measures(&g, &pi);
        let avg = bands.iter().map(|&b| b as f64).sum::<f64>() / 7.0;
        assert!((avg - m.avg_bandwidth).abs() < 1e-12);
        assert_eq!(*bands.iter().max().unwrap(), m.bandwidth);
    }

    #[test]
    fn isolated_vertices_have_zero_bandwidth() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        let bands = try_vertex_bandwidths(&g, &Permutation::identity(3)).unwrap();
        assert_eq!(bands[2], 0);
    }

    #[test]
    #[should_panic(expected = "permutation must cover")]
    fn rejects_wrong_length() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        let _ = gap_measures(&g, &Permutation::identity(2));
    }

    #[test]
    fn try_variants_report_typed_mismatch() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        let short = Permutation::identity(2);
        let err = MeasureError::PermutationMismatch { permutation_len: 2, num_vertices: 3 };
        assert_eq!(try_gap_measures(&g, &short), Err(err.clone()));
        assert_eq!(try_edge_gaps(&g, &short), Err(err.clone()));
        assert_eq!(try_vertex_bandwidths(&g, &short), Err(err));
    }

    #[test]
    fn try_gap_measures_is_finite_on_degenerate_graphs() {
        for g in [
            GraphBuilder::undirected(0).build().unwrap(),
            GraphBuilder::undirected(1).build().unwrap(),
            GraphBuilder::undirected(4).build().unwrap(),
            GraphBuilder::undirected(2).edge(0, 0).edge(1, 1).build().unwrap(),
        ] {
            let pi = Permutation::identity(g.num_vertices());
            let m = try_gap_measures(&g, &pi).unwrap();
            assert!(m.avg_gap.is_finite());
            assert!(m.avg_bandwidth.is_finite());
            assert!(m.avg_log_gap.is_finite());
        }
    }
}
