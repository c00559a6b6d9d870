//! The one row-access abstraction the application kernels are written
//! against.
//!
//! PageRank's pull loop, Louvain's move scan and modularity sums, and
//! IMM's reverse BFS all read a graph the same way: counts, a degree, and
//! one row at a time in stored order. [`Adjacency`] is exactly that
//! surface, implemented by the flat [`Csr`] and the delta/varint
//! [`CompressedCsr`], so each kernel has one generic body that
//! monomorphises per storage form. Both implementations yield every row's
//! targets in the identical order, which is what makes a kernel's result
//! bit-identical across representations.
//!
//! A further storage encoder is one more `impl Adjacency`, checked by the
//! conformance suite in this module's tests and judged by a
//! `bits_per_edge` row (`DESIGN.md` §12).

use crate::compressed::{CompressedCsr, GapNeighbors};
use crate::csr::Csr;
use std::borrow::Cow;

/// Row-by-row read access to a graph, independent of how rows are stored.
///
/// Vertex arguments must be below [`Adjacency::num_vertices`].
pub trait Adjacency: Sync {
    /// The row iterator [`Adjacency::neighbors`] returns. An associated
    /// type rather than a boxed or enum-dispatched iterator, so a kernel's
    /// inner loop compiles against the concrete iterator and keeps any
    /// `fold` specialisation it carries (`DESIGN.md` §12).
    type Neighbors<'a>: Iterator<Item = u32>
    where
        Self: 'a;

    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Logical number of edges `m` (undirected edges counted once).
    fn num_edges(&self) -> usize;

    /// Number of stored arcs.
    fn num_arcs(&self) -> usize;

    /// Whether the graph is directed.
    fn is_directed(&self) -> bool;

    /// Number of stored arcs leaving `v`.
    fn degree(&self, v: u32) -> usize;

    /// The arc prefix, `n + 1` entries: row `v` holds stored arcs
    /// `offsets()[v]..offsets()[v + 1]`. A per-row parallel pass cuts its
    /// rows by it with `rayon::arc_spans`.
    fn offsets(&self) -> &[usize];

    /// The targets of `v`'s row in stored order, with an exact
    /// `size_hint`.
    fn neighbors(&self, v: u32) -> Self::Neighbors<'_>;

    /// The row of `v` as slices — targets plus the parallel weights when
    /// the graph is weighted — for kernels that need random access within
    /// a row or want the weighted/unweighted dispatch out of the
    /// per-neighbour path. Flat rows are borrowed in place; other forms
    /// decode into `buf`, caller-owned scratch whose reuse across calls
    /// makes repeated row reads allocation-free.
    fn row_into<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> (&'a [u32], Option<&'a [f64]>);

    /// The graph in flat form, for the whole-graph transforms that exist
    /// only there (contraction, transposition): a borrow when rows are
    /// already flat, one decode pass otherwise.
    fn to_csr(&self) -> Cow<'_, Csr>;

    /// Visits `(neighbor, weight)` for every arc of `v` in row order,
    /// substituting `1.0` on unweighted graphs. Every representation
    /// accumulates floats through this one traversal, in the same order.
    fn for_each_weighted(&self, v: u32, buf: &mut Vec<u32>, mut f: impl FnMut(u32, f64))
    where
        Self: Sized,
    {
        let (targets, weights) = self.row_into(v, buf);
        match weights {
            None => {
                for &u in targets {
                    f(u, 1.0);
                }
            }
            Some(ws) => {
                for (&u, &w) in targets.iter().zip(ws) {
                    f(u, w);
                }
            }
        }
    }
}

impl Adjacency for Csr {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, u32>>;

    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }

    fn num_arcs(&self) -> usize {
        Csr::num_arcs(self)
    }

    fn is_directed(&self) -> bool {
        Csr::is_directed(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        Csr::degree(self, v)
    }

    fn offsets(&self) -> &[usize] {
        Csr::offsets(self)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> Self::Neighbors<'_> {
        Csr::neighbors(self, v).iter().copied()
    }

    #[inline]
    fn row_into<'a>(&'a self, v: u32, _buf: &'a mut Vec<u32>) -> (&'a [u32], Option<&'a [f64]>) {
        self.row(v)
    }

    fn to_csr(&self) -> Cow<'_, Csr> {
        Cow::Borrowed(self)
    }
}

impl Adjacency for CompressedCsr {
    type Neighbors<'a> = GapNeighbors<'a>;

    fn num_vertices(&self) -> usize {
        CompressedCsr::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        CompressedCsr::num_edges(self)
    }

    fn num_arcs(&self) -> usize {
        CompressedCsr::num_arcs(self)
    }

    fn is_directed(&self) -> bool {
        CompressedCsr::is_directed(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        CompressedCsr::degree(self, v)
    }

    fn offsets(&self) -> &[usize] {
        CompressedCsr::offsets(self)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> GapNeighbors<'_> {
        CompressedCsr::neighbors(self, v)
    }

    fn row_into<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> (&'a [u32], Option<&'a [f64]>) {
        buf.clear();
        buf.extend(CompressedCsr::neighbors(self, v));
        (buf.as_slice(), self.row_weights(v))
    }

    fn to_csr(&self) -> Cow<'_, Csr> {
        Cow::Owned(self.decode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DuplicatePolicy, GraphBuilder};
    use crate::coarsen::contract;

    /// The contract every [`Adjacency`] impl must meet, stated against the
    /// flat graph `oracle` that `g` represents.
    fn adjacency_contract<G: Adjacency>(g: &G, oracle: &Csr) {
        assert_eq!(g.num_vertices(), oracle.num_vertices());
        assert_eq!(g.num_edges(), oracle.num_edges());
        assert_eq!(g.num_arcs(), oracle.num_arcs());
        assert_eq!(g.is_directed(), oracle.is_directed());
        assert_eq!(g.offsets(), oracle.offsets());
        let mut buf = Vec::new();
        for v in oracle.vertices() {
            let row = oracle.neighbors(v);
            assert_eq!(g.degree(v), row.len(), "degree of {v}");

            // `neighbors`: stored order, exact size_hint at every step, and
            // `fold` (the path `for_each`/`extend`/`sum` take) agreeing with
            // the `next` loop.
            let mut it = g.neighbors(v);
            let mut stepped = Vec::new();
            loop {
                let left = row.len() - stepped.len();
                assert_eq!(it.size_hint(), (left, Some(left)), "size_hint in row {v}");
                match it.next() {
                    Some(u) => stepped.push(u),
                    None => break,
                }
            }
            assert_eq!(stepped, row, "neighbors of {v}");
            let folded = g.neighbors(v).fold(Vec::new(), |mut acc, u| {
                acc.push(u);
                acc
            });
            assert_eq!(folded, row, "fold over row {v}");

            let (targets, weights) = g.row_into(v, &mut buf);
            assert_eq!(targets, row, "row_into targets of {v}");
            assert_eq!(weights, oracle.neighbor_weights(v), "row_into weights of {v}");

            let mut pairs = Vec::new();
            g.for_each_weighted(v, &mut buf, |u, w| pairs.push((u, w)));
            let expected: Vec<(u32, f64)> = oracle.weighted_neighbors(v).collect();
            assert_eq!(pairs, expected, "for_each_weighted over row {v}");
        }
        assert_eq!(*g.to_csr(), *oracle, "to_csr round trip");
    }

    /// Runs the contract for both impls over `g`.
    fn check_both(g: &Csr) {
        adjacency_contract(g, g);
        let cz = CompressedCsr::from_csr(g).expect("builder rows are sorted");
        adjacency_contract(&cz, g);
    }

    /// `cliques` cliques of `size` vertices joined in a chain by single
    /// edges (`reorderlab_datasets::clique_chain`, which unit tests of this
    /// crate cannot link: its `Csr` is another build of this crate's).
    fn clique_chain(cliques: u32, size: u32) -> Csr {
        let mut b = GraphBuilder::undirected((cliques * size) as usize);
        for c in 0..cliques {
            let base = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    b = b.edge(base + i, base + j);
                }
            }
            if c + 1 < cliques {
                b = b.edge(base + size - 1, base + size);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn flat_and_compressed_agree_on_every_row() {
        check_both(&clique_chain(4, 5));
        let mut directed = GraphBuilder::directed(9);
        for v in 0..9u32 {
            directed = directed.edge(v, (v + 1) % 9).edge(v, (v + 3) % 9);
        }
        check_both(&directed.build().unwrap());
    }

    #[test]
    fn weighted_rows_surface_weights_on_both_representations() {
        let g = GraphBuilder::undirected(3)
            .weighted_edge(0, 1, 2.5)
            .weighted_edge(1, 2, 0.25)
            .build()
            .unwrap();
        check_both(&g);
        let cz = CompressedCsr::from_csr(&g).unwrap();
        let mut pairs = Vec::new();
        cz.for_each_weighted(1, &mut Vec::new(), |u, w| pairs.push((u, w)));
        assert_eq!(pairs, vec![(0, 2.5), (2, 0.25)]);
    }

    #[test]
    fn parallel_arcs_isolated_vertices_and_empty_graphs() {
        // Parallel arcs are zero gaps on the compressed side; vertices 3
        // and 5 are isolated, so their rows are empty on both.
        let parallel = GraphBuilder::undirected(6)
            .duplicates(DuplicatePolicy::KeepAll)
            .edges([(0, 1), (0, 1), (1, 2), (2, 4), (2, 4), (2, 4)])
            .build()
            .unwrap();
        assert_eq!(parallel.neighbors(2), &[1, 4, 4, 4]);
        check_both(&parallel);
        check_both(&GraphBuilder::undirected(4).build().unwrap());
        check_both(&GraphBuilder::undirected(0).build().unwrap());
        check_both(&GraphBuilder::directed(0).build().unwrap());
    }

    #[test]
    fn contraction_agrees_across_representations() {
        let g = clique_chain(3, 4);
        let cz = CompressedCsr::from_csr(&g).unwrap();
        let assignment: Vec<u32> = (0..12u32).map(|v| v / 4).collect();
        let flat = contract(&Adjacency::to_csr(&g), &assignment, 3).unwrap().coarse;
        let packed = contract(&cz.to_csr(), &assignment, 3).unwrap().coarse;
        assert_eq!(flat.num_vertices(), packed.num_vertices());
        assert_eq!(flat.offsets(), packed.offsets());
        assert_eq!(flat.targets(), packed.targets());
    }
}
