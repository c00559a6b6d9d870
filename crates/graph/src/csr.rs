//! Compressed sparse row (CSR) graph representation.
//!
//! [`Csr`] is the substrate every other crate in the workspace builds on. It
//! stores adjacency in two flat arrays (`offsets`, `targets`) plus an optional
//! parallel weight array, which is exactly the layout whose memory behaviour
//! vertex reordering is meant to improve: neighbors of consecutively-ranked
//! vertices occupy nearby memory.

use crate::error::GraphError;
use crate::perm::Permutation;
use rayon::prelude::*;
use std::ops::Range;

/// One worker's share of a CSR under construction: a span of its rows plus
/// that span's target (and optional weight) storage.
type OutSpan<'a> = (Range<usize>, &'a mut [u32], Option<&'a mut [f64]>);

/// Cuts the rows of the output prefix `offsets` by [`rayon::arc_spans`] and
/// splits the output arrays to match, so each worker of a parallel fill
/// owns a disjoint region of near-equal arcs.
fn out_spans<'a>(
    offsets: &[usize],
    targets: &'a mut [u32],
    weights: Option<&'a mut [f64]>,
) -> Vec<OutSpan<'a>> {
    let rows = rayon::arc_spans(offsets);
    let arcs: Vec<Range<usize>> = rows.iter().map(|r| offsets[r.start]..offsets[r.end]).collect();
    let mut weights = weights.map(|w| rayon::span_slices(w, &arcs).into_iter());
    rows.into_iter()
        .zip(rayon::span_slices(targets, &arcs))
        .map(|(r, t)| (r, t, weights.as_mut().and_then(Iterator::next)))
        .collect()
}

/// A graph in compressed sparse row form.
///
/// For undirected graphs every edge `{u, v}` with `u != v` is stored as the
/// two arcs `u -> v` and `v -> u`; a self loop `{u, u}` is stored as a single
/// arc. For directed graphs each arc is stored exactly once.
///
/// Construct via [`GraphBuilder`](crate::builder::GraphBuilder) or the
/// generators in `reorderlab-datasets`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use reorderlab_graph::GraphBuilder;
///
/// let g = GraphBuilder::undirected(4)
///     .edge(0, 1)
///     .edge(1, 2)
///     .edge(2, 3)
///     .build()?;
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Option<Vec<f64>>,
    /// Logical edge count: undirected edges are counted once.
    num_edges: usize,
    directed: bool,
}

impl Csr {
    /// Builds a CSR directly from an adjacency structure whose neighbor lists
    /// are already grouped per vertex (and ideally sorted).
    ///
    /// `arcs` holds `(source, target, weight)` triples sorted by source. This
    /// is the fast path used by generators and by graph transforms that
    /// produce arcs in order.
    ///
    /// `num_edges` is the logical edge count (undirected edges counted once).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if an endpoint is `>= n`,
    /// [`GraphError::InvalidWeight`] for non-finite or negative weights, and
    /// [`GraphError::TooLarge`] when the `n + 1` offsets cannot be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `arcs` is not sorted by source vertex.
    pub(crate) fn from_sorted_arcs(
        n: usize,
        arcs: &[(u32, u32, f64)],
        num_edges: usize,
        directed: bool,
        weighted: bool,
    ) -> Result<Self, GraphError> {
        // `n` can come from a file header, so the allocation it sizes is
        // fallible: a forged size line is a typed error, not an abort.
        let mut offsets = Vec::new();
        offsets.try_reserve_exact(n + 1).map_err(|_| GraphError::TooLarge { num_vertices: n })?;
        offsets.resize(n + 1, 0usize);
        let mut targets = Vec::with_capacity(arcs.len());
        let mut weights = if weighted { Some(Vec::with_capacity(arcs.len())) } else { None };
        let mut prev_src = 0u32;
        for &(u, v, w) in arcs {
            assert!(u >= prev_src, "arcs must be sorted by source vertex");
            prev_src = u;
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
            offsets[u as usize + 1] += 1;
            targets.push(v);
            if let Some(ws) = weights.as_mut() {
                ws.push(w);
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        Ok(Csr { offsets, targets, weights, num_edges, directed })
    }

    /// Assembles a CSR from raw parts, for internal transforms that have
    /// already produced a consistent layout.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the offsets array is malformed or the
    /// weight array length disagrees with `targets`.
    pub(crate) fn from_raw_parts(
        offsets: Vec<usize>,
        targets: Vec<u32>,
        weights: Option<Vec<f64>>,
        num_edges: usize,
        directed: bool,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets.last().copied(), Some(targets.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        if let Some(ws) = &weights {
            debug_assert_eq!(ws.len(), targets.len());
        }
        Csr { offsets, targets, weights, num_edges, directed }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Logical number of edges `m` (undirected edges counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored arcs (directed adjacency entries).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether per-arc weights are stored. Unweighted graphs behave as if
    /// every edge had weight `1.0`.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The raw per-arc weight array in layout order, if weights are stored.
    /// Used by the binary serializer, which needs the flat array rather
    /// than per-vertex rows.
    pub(crate) fn weights_raw(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Out-neighbors of `v` (all neighbors, for undirected graphs).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterates `(neighbor, weight)` pairs for `v`, substituting `1.0` when
    /// the graph is unweighted.
    pub fn weighted_neighbors(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        let targets = &self.targets[lo..hi];
        let weights = self.weights.as_ref().map(|ws| &ws[lo..hi]);
        targets.iter().enumerate().map(move |(i, &t)| (t, weights.map_or(1.0, |ws| ws[i])))
    }

    /// Degree of `v` (number of stored arcs leaving `v`; a self loop counts
    /// once).
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree Δ over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        (0..self.num_vertices()).map(|v| self.degree(v as u32)).max().unwrap_or(0)
    }

    /// Iterates all vertex ids `0..n`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.num_vertices() as u32
    }

    /// Iterates logical edges as `(u, v, w)`.
    ///
    /// For undirected graphs each edge is yielded once with `u <= v`; for
    /// directed graphs every arc is yielded.
    pub fn edges(&self) -> Edges<'_> {
        Edges { csr: self, vertex: 0, pos: 0 }
    }

    /// The raw offsets array (length `n + 1`). Exposed for cache-simulation
    /// workloads that need the physical layout.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw targets array (length `num_arcs`). Exposed for
    /// cache-simulation workloads that need the physical layout.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The whole neighbor row of `v` as direct slices: targets plus the
    /// parallel weight slice when the graph is weighted. This is the
    /// zero-overhead form of [`Csr::weighted_neighbors`] for hot loops that
    /// want to hoist the weighted/unweighted dispatch out of the per-neighbor
    /// path (iterate `targets.iter().zip(ws)` in the weighted arm, `targets`
    /// alone in the unweighted one).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn row(&self, v: u32) -> (&[u32], Option<&[f64]>) {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        (&self.targets[lo..hi], self.weights.as_ref().map(|ws| &ws[lo..hi]))
    }

    /// Relabels the graph under permutation `pi`: vertex `v` becomes
    /// `pi.rank(v)`. Neighbor lists of the result are sorted. The graph
    /// structure (edge set, weights) is preserved.
    ///
    /// The output rows are filled in parallel, one contiguous span of
    /// near-equal arcs per worker ([`rayon::arc_spans`] over the output
    /// prefix), so a hub-first order does not load one worker with most of
    /// the arcs. Every row is written alone, so the result is the same at
    /// any width.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PermutationLengthMismatch`] when `pi` does not
    /// cover exactly `n` vertices.
    pub fn permuted(&self, pi: &Permutation) -> Result<Csr, GraphError> {
        let n = self.num_vertices();
        if pi.len() != n {
            return Err(GraphError::PermutationLengthMismatch {
                permutation_len: pi.len(),
                num_vertices: n,
            });
        }
        let order = pi.to_order();
        // Per-vertex offset precomputation: a prefix sum over the permuted
        // degrees fixes every row's output range up front, so rows can be
        // relabeled and sorted fully in parallel into disjoint slices, one
        // span of near-equal arcs per worker.
        let mut offsets = vec![0usize; n + 1];
        for new_v in 0..n {
            let old_v = order[new_v];
            offsets[new_v + 1] = offsets[new_v] + self.degree(old_v);
        }
        let mut targets = vec![0u32; self.targets.len()];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0f64; self.targets.len()]);

        out_spans(&offsets, &mut targets, weights.as_deref_mut()).into_par_iter().for_each(
            |(rows, t_span, mut w_span)| {
                let base = offsets[rows.start];
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                for new_v in rows {
                    let (lo, hi) = (offsets[new_v] - base, offsets[new_v + 1] - base);
                    let t_row = &mut t_span[lo..hi];
                    let src_lo = self.offsets[order[new_v] as usize];
                    let src_row = &self.targets[src_lo..src_lo + t_row.len()];
                    match (w_span.as_deref_mut(), self.weights.as_ref()) {
                        (Some(w_span), Some(src_w)) => {
                            // Relabel and sort this neighbor list with its
                            // weights; ties (duplicate targets) keep their
                            // original arc order.
                            #[expect(
                                clippy::cast_possible_truncation,
                                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
                            )]
                            pairs.extend(
                                src_row.iter().enumerate().map(|(i, &t)| (pi.rank(t), i as u32)),
                            );
                            pairs.sort_unstable();
                            let w_row = &mut w_span[lo..hi];
                            for (j, &(t, i)) in pairs.iter().enumerate() {
                                t_row[j] = t;
                                w_row[j] = src_w[src_lo + i as usize];
                            }
                            pairs.clear();
                        }
                        _ => {
                            for (dst, &t) in t_row.iter_mut().zip(src_row) {
                                *dst = pi.rank(t);
                            }
                            t_row.sort_unstable();
                        }
                    }
                }
            },
        );
        Ok(Csr::from_raw_parts(offsets, targets, weights, self.num_edges, self.directed))
    }

    /// Extracts the subgraph induced by `vertices` (which need not be
    /// sorted; duplicates are ignored). Returns the subgraph — whose vertex
    /// `i` corresponds to the `i`-th *distinct* entry of `vertices` — plus
    /// the mapping from subgraph ids back to original ids.
    ///
    /// One in-order pass over the selected rows builds the sub-CSR.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `vertices` is out of bounds.
    pub fn induced_subgraph(&self, vertices: &[u32]) -> (Csr, Vec<u32>) {
        let n = self.num_vertices();
        let mut local = vec![u32::MAX; n];
        let mut originals: Vec<u32> = Vec::with_capacity(vertices.len());
        for &v in vertices {
            assert!((v as usize) < n, "induced_subgraph vertex out of bounds");
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            if local[v as usize] == u32::MAX {
                local[v as usize] = originals.len() as u32;
                originals.push(v);
            }
        }
        let sub_n = originals.len();
        let mut offsets = vec![0usize; sub_n + 1];
        let mut targets = Vec::new();
        let mut weights = self.weights.as_ref().map(|_| Vec::new());
        let mut num_edges = 0usize;
        for (i, &orig) in originals.iter().enumerate() {
            let lo = self.offsets[orig as usize];
            for (k, &t) in self.neighbors(orig).iter().enumerate() {
                let lt = local[t as usize];
                if lt == u32::MAX {
                    continue;
                }
                targets.push(lt);
                if let (Some(dst), Some(src)) = (weights.as_mut(), self.weights.as_ref()) {
                    dst.push(src[lo + k]);
                }
                if self.directed || lt as usize >= i {
                    num_edges += 1;
                }
            }
            offsets[i + 1] = targets.len();
            // Keep the per-vertex list sorted under the new ids.
            let lo2 = offsets[i];
            let hi2 = offsets[i + 1];
            if let Some(ws) = weights.as_mut() {
                let mut pairs: Vec<(u32, f64)> =
                    targets[lo2..hi2].iter().copied().zip(ws[lo2..hi2].iter().copied()).collect();
                pairs.sort_by_key(|a| a.0);
                for (j, (t, w)) in pairs.into_iter().enumerate() {
                    targets[lo2 + j] = t;
                    ws[lo2 + j] = w;
                }
            } else {
                targets[lo2..hi2].sort_unstable();
            }
        }
        let sub = Csr::from_raw_parts(offsets, targets, weights, num_edges, self.directed);
        (sub, originals)
    }

    /// Transposes a directed graph (reverses every arc). For undirected
    /// graphs this returns a clone, since the stored adjacency is already
    /// symmetric.
    ///
    /// Each worker owns a band of destination rows of near-equal in-arcs
    /// ([`rayon::arc_spans`] over the in-degree prefix) and fills it in
    /// source order, so the result is the same at any width.
    pub fn transposed(&self) -> Csr {
        if !self.directed {
            return self.clone();
        }
        let n = self.num_vertices();
        // In-degree counts, then a prefix sum fixing every output row.
        let mut offsets = vec![0usize; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; self.targets.len()];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0f64; self.targets.len()]);

        // Partition destination vertices into contiguous bands of near-equal
        // in-arcs, one per worker; a band's rows occupy a contiguous output
        // range, so each worker owns a disjoint slice. Every worker sweeps the
        // arc array in source order and scatters only the arcs landing in its
        // band, which reproduces the serial fill order (per-row lists sorted
        // by source) exactly, independent of the worker count.
        out_spans(&offsets, &mut targets, weights.as_deref_mut()).into_par_iter().for_each(
            |(band, t_band, mut w_band)| {
                let base = offsets[band.start];
                let mut cursor: Vec<usize> =
                    offsets[band.clone()].iter().map(|&o| o - base).collect();
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
                )]
                for u in 0..n as u32 {
                    let row_lo = self.offsets[u as usize];
                    for (i, &v) in self.neighbors(u).iter().enumerate() {
                        let vi = v as usize;
                        if !band.contains(&vi) {
                            continue;
                        }
                        let slot = cursor[vi - band.start];
                        cursor[vi - band.start] += 1;
                        t_band[slot] = u;
                        if let (Some(dst), Some(src)) = (w_band.as_mut(), self.weights.as_ref()) {
                            dst[slot] = src[row_lo + i];
                        }
                    }
                }
            },
        );
        Csr::from_raw_parts(offsets, targets, weights, self.num_edges, true)
    }
}

/// Iterator over logical edges of a [`Csr`]; see [`Csr::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    csr: &'a Csr,
    vertex: usize,
    pos: usize,
}

impl Iterator for Edges<'_> {
    type Item = (u32, u32, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.csr.num_vertices();
        loop {
            if self.vertex >= n {
                return None;
            }
            let hi = self.csr.offsets[self.vertex + 1];
            if self.pos >= hi {
                self.vertex += 1;
                continue;
            }
            let i = self.pos;
            self.pos += 1;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            let u = self.vertex as u32;
            let v = self.csr.targets[i];
            if !self.csr.directed && v < u {
                continue; // the mirror arc represents this undirected edge
            }
            let w = self.csr.weights.as_ref().map_or(1.0, |ws| ws[i]);
            return Some((u, v, w));
        }
    }
}

/// Probes that unit tests use to check weights and arcs; nothing outside
/// tests reads a graph this way.
#[cfg(test)]
impl Csr {
    /// Weights parallel to [`Csr::neighbors`]; `None` for unweighted graphs.
    #[inline]
    pub(crate) fn neighbor_weights(&self, v: u32) -> Option<&[f64]> {
        self.weights.as_ref().map(|ws| &ws[self.offsets[v as usize]..self.offsets[v as usize + 1]])
    }

    /// Sum of weights of arcs leaving `v` (`degree` for unweighted graphs).
    pub(crate) fn weighted_degree(&self, v: u32) -> f64 {
        match &self.weights {
            Some(ws) => ws[self.offsets[v as usize]..self.offsets[v as usize + 1]].iter().sum(),
            None => self.degree(v) as f64,
        }
    }

    /// Total edge weight: sum of `w(e)` over logical edges.
    pub(crate) fn total_edge_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).sum()
    }

    /// Whether the arc `u -> v` exists (binary search when the adjacency of
    /// `u` is sorted, which holds for builder- and transform-produced graphs).
    pub(crate) fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of arc `u -> v`, if present.
    pub(crate) fn edge_weight(&self, u: u32, v: u32) -> Option<f64> {
        let lo = self.offsets[u as usize];
        let nbrs = self.neighbors(u);
        nbrs.binary_search(&v).ok().map(|i| match &self.weights {
            Some(ws) => ws[lo + i],
            None => 1.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path4() -> Csr {
        GraphBuilder::undirected(4).edge(0, 1).edge(1, 2).edge(2, 3).build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert!(!g.is_directed());
        assert!(!g.is_weighted());
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.weighted_degree(1), 2.0);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn has_edge_and_weight() {
        let g = path4();
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(1, 2), Some(1.0));
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = path4();
        // Reverse the path: 0<->3, 1<->2.
        let pi = Permutation::from_ranks(vec![3, 2, 1, 0]).unwrap();
        let h = g.permuted(&pi).unwrap();
        assert_eq!(h.num_edges(), 3);
        // old edge (0,1) -> (3,2); old (1,2) -> (2,1); old (2,3) -> (1,0)
        assert!(h.has_edge(3, 2));
        assert!(h.has_edge(2, 1));
        assert!(h.has_edge(1, 0));
        // Degree multiset preserved.
        let mut d0: Vec<_> = (0..4).map(|v| g.degree(v)).collect();
        let mut d1: Vec<_> = (0..4).map(|v| h.degree(v)).collect();
        d0.sort_unstable();
        d1.sort_unstable();
        assert_eq!(d0, d1);
    }

    #[test]
    fn permuted_rejects_wrong_length() {
        let g = path4();
        let pi = Permutation::identity(3);
        assert!(matches!(
            g.permuted(&pi),
            Err(GraphError::PermutationLengthMismatch { permutation_len: 3, num_vertices: 4 })
        ));
    }

    #[test]
    fn permuted_neighbor_lists_sorted() {
        let g = GraphBuilder::undirected(5)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .edge(0, 4)
            .build()
            .unwrap();
        let pi = Permutation::from_ranks(vec![2, 4, 0, 3, 1]).unwrap();
        let h = g.permuted(&pi).unwrap();
        for v in 0..5u32 {
            let nbrs = h.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted neighbors for {v}");
        }
    }

    #[test]
    fn induced_subgraph_basic() {
        // Triangle 0-1-2 plus pendant 3 on 2.
        let g =
            GraphBuilder::undirected(4).edges([(0, 1), (1, 2), (0, 2), (2, 3)]).build().unwrap();
        let (sub, orig) = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(orig, vec![2, 0, 1]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3); // the triangle; pendant edge dropped
        assert!(sub.has_edge(0, 1)); // 2-0
        assert!(sub.has_edge(0, 2)); // 2-1
        assert!(sub.has_edge(1, 2)); // 0-1
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        let (sub, orig) = g.induced_subgraph(&[1, 1, 0]);
        assert_eq!(orig, vec![1, 0]);
        assert_eq!(sub.num_edges(), 1);
    }

    #[test]
    fn induced_subgraph_weighted() {
        let g = GraphBuilder::undirected(3)
            .weighted_edge(0, 1, 5.0)
            .weighted_edge(1, 2, 7.0)
            .build()
            .unwrap();
        let (sub, _) = g.induced_subgraph(&[1, 2]);
        assert_eq!(sub.edge_weight(0, 1), Some(7.0));
        assert_eq!(sub.num_edges(), 1);
    }

    #[test]
    fn induced_subgraph_empty_selection() {
        let g = GraphBuilder::undirected(3).edge(0, 1).build().unwrap();
        let (sub, orig) = g.induced_subgraph(&[]);
        assert_eq!(sub.num_vertices(), 0);
        assert!(orig.is_empty());
    }

    #[test]
    fn transpose_directed() {
        let g = crate::builder::GraphBuilder::directed(3)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        let t = g.transposed();
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        // Transposing twice restores the original.
        assert_eq!(t.transposed(), g);
    }

    #[test]
    fn transpose_undirected_is_identity() {
        let g = path4();
        assert_eq!(g.transposed(), g);
    }

    #[test]
    fn weighted_graph_roundtrip() {
        let g = GraphBuilder::undirected(3)
            .weighted_edge(0, 1, 2.5)
            .weighted_edge(1, 2, 0.5)
            .build()
            .unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.weighted_degree(1), 3.0);
        assert_eq!(g.total_edge_weight(), 3.0);
        let pi = Permutation::from_ranks(vec![1, 0, 2]).unwrap();
        let h = g.permuted(&pi).unwrap();
        assert_eq!(h.edge_weight(1, 0), Some(2.5));
        assert_eq!(h.edge_weight(0, 2), Some(0.5));
    }

    #[test]
    fn from_sorted_arcs_validates() {
        let arcs = [(0u32, 5u32, 1.0f64)];
        assert!(matches!(
            Csr::from_sorted_arcs(3, &arcs, 1, true, false),
            Err(GraphError::VertexOutOfBounds { vertex: 5, num_vertices: 3 })
        ));
        let bad_w = [(0u32, 1u32, f64::NAN)];
        assert!(matches!(
            Csr::from_sorted_arcs(3, &bad_w, 1, true, true),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.total_edge_weight(), 0.0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::undirected(5).edge(1, 3).build().unwrap();
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(0), &[] as &[u32]);
        assert_eq!(g.edges().count(), 1);
    }
}

#[cfg(test)]
mod proptests {
    //! Property tests pinning the parallel `permuted`/`transposed` kernels to
    //! the serial implementations they replaced. The parallel versions are
    //! designed to be *bit-identical* to these references at every thread
    //! count (disjoint output slices, serial-equivalent fill order), so the
    //! comparisons below are exact `Csr` equality, not just isomorphism.

    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    /// The serial relabel kernel `Csr::permuted` used before parallelization:
    /// per-row push + sort, one row at a time.
    fn serial_permuted(g: &Csr, pi: &Permutation) -> Csr {
        let n = g.num_vertices();
        let order = pi.to_order();
        let mut offsets = vec![0usize; n + 1];
        let mut targets = Vec::with_capacity(g.targets.len());
        let mut weights = g.weights.as_ref().map(|_| Vec::with_capacity(g.targets.len()));
        for new_v in 0..n {
            let old_v = order[new_v];
            let lo = g.offsets[old_v as usize];
            let row = g.neighbors(old_v);
            let start = targets.len();
            if let (Some(dst), Some(src)) = (weights.as_mut(), g.weights.as_ref()) {
                let mut pairs: Vec<(u32, u32)> =
                    row.iter().enumerate().map(|(i, &t)| (pi.rank(t), i as u32)).collect();
                pairs.sort_unstable();
                for &(t, i) in &pairs {
                    targets.push(t);
                    dst.push(src[lo + i as usize]);
                }
            } else {
                targets.extend(row.iter().map(|&t| pi.rank(t)));
                targets[start..].sort_unstable();
            }
            offsets[new_v + 1] = targets.len();
        }
        Csr::from_raw_parts(offsets, targets, weights, g.num_edges, g.directed)
    }

    /// The serial transpose kernel `Csr::transposed` used before
    /// parallelization: counting sort with a single cursor array.
    fn serial_transposed(g: &Csr) -> Csr {
        if !g.directed {
            return g.clone();
        }
        let n = g.num_vertices();
        let mut offsets = vec![0usize; n + 1];
        for &t in &g.targets {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; g.targets.len()];
        let mut weights = g.weights.as_ref().map(|_| vec![0.0f64; g.targets.len()]);
        for u in 0..n as u32 {
            let lo = g.offsets[u as usize];
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let slot = cursor[v as usize];
                cursor[v as usize] += 1;
                targets[slot] = u;
                if let (Some(dst), Some(src)) = (weights.as_mut(), g.weights.as_ref()) {
                    dst[slot] = src[lo + i];
                }
            }
        }
        Csr::from_raw_parts(offsets, targets, weights, g.num_edges, true)
    }

    /// `Csr::induced_subgraph` from the builder: the first occurrence of each
    /// selected vertex numbers it, and every arc between two selected
    /// vertices is re-added under those numbers.
    fn serial_induced_subgraph(g: &Csr, vertices: &[u32]) -> (Csr, Vec<u32>) {
        let mut originals: Vec<u32> = Vec::new();
        for &v in vertices {
            if !originals.contains(&v) {
                originals.push(v);
            }
        }
        let local = |v: u32| originals.iter().position(|&o| o == v).map(|i| i as u32);
        let kept: Vec<(u32, u32, f64)> =
            g.edges().filter_map(|(u, v, w)| Some((local(u)?, local(v)?, w))).collect();
        let n = originals.len();
        let b = if g.directed { GraphBuilder::directed(n) } else { GraphBuilder::undirected(n) };
        let b = b.self_loops(crate::builder::SelfLoopPolicy::Keep);
        let b = if g.is_weighted() {
            b.weighted_edges(kept)
        } else {
            b.edges(kept.into_iter().map(|(u, v, _)| (u, v)))
        };
        (b.build().expect("in-bounds edges always build"), originals)
    }

    /// Deterministic permutation of `n` vertices derived from `seed`.
    fn perm_from_seed(n: usize, seed: u64) -> Permutation {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        Permutation::from_order(&order).expect("shuffled identity is a permutation")
    }

    fn build(n: usize, edges: &[(u32, u32, f64)], directed: bool, weighted: bool) -> Csr {
        let mut b = if directed { GraphBuilder::directed(n) } else { GraphBuilder::undirected(n) };
        for &(u, v, w) in edges {
            b = if weighted {
                b.weighted_edge(u % n as u32, v % n as u32, w)
            } else {
                b.edge(u % n as u32, v % n as u32)
            };
        }
        b.build().expect("in-bounds edges always build")
    }

    fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>, bool, bool)> {
        (2usize..48).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 0.25f64..8.0);
            (Just(n), proptest::collection::vec(edge, 0..140), any::<bool>(), any::<bool>())
        })
    }

    use crate::determinism::assert_thread_invariant as at_thread_counts;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn permuted_matches_serial_reference(
            ((n, edges, directed, weighted), seed) in (arb_edges(), any::<u64>())
        ) {
            let g = build(n, &edges, directed, weighted);
            let pi = perm_from_seed(n, seed);
            let expected = serial_permuted(&g, &pi);
            let got = at_thread_counts(|| g.permuted(&pi).expect("length matches"));
            prop_assert_eq!(&got, &expected);

            // Isomorphism: degree multiset and (relabeled) edge set preserved.
            let mut dg: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
            let mut dh: Vec<usize> = (0..n as u32).map(|v| got.degree(v)).collect();
            dg.sort_unstable();
            dh.sort_unstable();
            prop_assert_eq!(dg, dh);
            let mut eg: Vec<(u32, u32)> = g
                .edges()
                .map(|(u, v, _)| {
                    let (a, b) = (pi.rank(u), pi.rank(v));
                    if directed { (a, b) } else { (a.min(b), a.max(b)) }
                })
                .collect();
            let mut eh: Vec<(u32, u32)> = got
                .edges()
                .map(|(u, v, _)| if directed { (u, v) } else { (u.min(v), u.max(v)) })
                .collect();
            eg.sort_unstable();
            eh.sort_unstable();
            prop_assert_eq!(eg, eh);
        }

        #[test]
        fn transposed_matches_serial_reference(
            (n, edges, _directed, weighted) in arb_edges()
        ) {
            let g = build(n, &edges, true, weighted);
            let expected = serial_transposed(&g);
            let got = at_thread_counts(|| g.transposed());
            prop_assert_eq!(&got, &expected);
            // Transposing twice recovers the original arc set (and weights).
            prop_assert_eq!(&got.transposed(), &g);
        }

        #[test]
        fn induced_subgraph_matches_serial_oracle(
            ((n, edges, directed, weighted), pick_seed) in (arb_edges(), any::<u64>())
        ) {
            let g = build(n, &edges, directed, weighted);
            // A seed-derived selection with repeats and arbitrary order.
            let mut s = pick_seed;
            let take = (s as usize % (n + n)).max(1);
            let vertices: Vec<u32> = (0..take)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((s >> 33) as usize % n) as u32
                })
                .collect();
            let got = at_thread_counts(|| g.induced_subgraph(&vertices));
            prop_assert_eq!(got, serial_induced_subgraph(&g, &vertices));
        }
    }
}
