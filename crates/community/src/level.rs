//! The level abstraction the Louvain engine iterates on.
//!
//! A *level* is whatever graph representation the current phase scans:
//! the caller's input graph — flat [`Csr`] or delta/varint
//! [`CompressedCsr`] — for the first phase, and the owned flat
//! contraction for every coarse phase. The trait exposes exactly the
//! accesses the engine performs (row reads, contraction) so the move
//! kernels, modularity evaluation, and the phase loop are written once
//! and execute the identical float-operation sequence on either
//! representation; the compressed/flat bit-identity tests in
//! [`crate::louvain`] pin that contract.

use reorderlab_graph::{contract, CompressedCsr, Csr};

/// A graph representation one Louvain phase can run on.
pub(crate) trait LouvainLevel: Sync {
    /// Number of vertices at this level.
    fn num_vertices(&self) -> usize;

    /// Number of (undirected) edges at this level.
    fn num_edges(&self) -> usize;

    /// The row of `v` as slices, decoding through `buf` when the level
    /// does not store flat rows. `buf` is caller-owned scratch: reusing
    /// it across calls makes repeated row reads allocation-free.
    fn row_into<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> (&'a [u32], Option<&'a [f64]>);

    /// Contracts the level by a densely renumbered `assignment` into the
    /// coarse graph of the next phase. `None` only if the assignment is
    /// not a dense relabeling — unreachable from the engine, which
    /// renumbers immediately before contracting, so the caller treats it
    /// as "stop at the current level" rather than a panic.
    fn contract_level(&self, assignment: &[u32], num_comms: usize) -> Option<Csr>;

    /// Visits `(neighbor, weight)` for every arc of `v` in row order,
    /// substituting `1.0` on unweighted levels — the shared traversal
    /// under the move kernels and the modularity sums, so flat and
    /// compressed levels accumulate floats in the identical order.
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

impl LouvainLevel for Csr {
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }

    fn row_into<'a>(&'a self, v: u32, _buf: &'a mut Vec<u32>) -> (&'a [u32], Option<&'a [f64]>) {
        self.row(v)
    }

    fn contract_level(&self, assignment: &[u32], num_comms: usize) -> Option<Csr> {
        contract(self, assignment, num_comms).ok().map(|c| c.coarse)
    }
}

impl LouvainLevel for CompressedCsr {
    fn num_vertices(&self) -> usize {
        CompressedCsr::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        CompressedCsr::num_edges(self)
    }

    fn row_into<'a>(&'a self, v: u32, buf: &'a mut Vec<u32>) -> (&'a [u32], Option<&'a [f64]>) {
        CompressedCsr::row_into(self, v, buf)
    }

    fn contract_level(&self, assignment: &[u32], num_comms: usize) -> Option<Csr> {
        // Contraction happens at most once per phase (the row scans happen
        // `iterations × n` times), so decoding here costs one pass over the
        // gap stream and keeps the coarse levels flat.
        contract(&self.decode(), assignment, num_comms).ok().map(|c| c.coarse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::clique_chain;
    use reorderlab_graph::GraphBuilder;

    fn collect<L: LouvainLevel>(level: &L, v: u32) -> Vec<(u32, f64)> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        level.for_each_weighted(v, &mut buf, |u, w| out.push((u, w)));
        out
    }

    #[test]
    fn flat_and_compressed_levels_agree_on_every_row() {
        let g = clique_chain(4, 5);
        let cz = CompressedCsr::from_csr(&g).unwrap();
        assert_eq!(LouvainLevel::num_vertices(&g), LouvainLevel::num_vertices(&cz));
        assert_eq!(LouvainLevel::num_edges(&g), LouvainLevel::num_edges(&cz));
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(collect(&g, v), collect(&cz, v), "row {v}");
        }
    }

    #[test]
    fn weighted_rows_surface_weights_on_both_representations() {
        let g = GraphBuilder::undirected(3)
            .weighted_edge(0, 1, 2.5)
            .weighted_edge(1, 2, 0.25)
            .build()
            .unwrap();
        let cz = CompressedCsr::from_csr(&g).unwrap();
        assert_eq!(collect(&g, 1), vec![(0, 2.5), (2, 0.25)]);
        assert_eq!(collect(&g, 1), collect(&cz, 1));
    }

    #[test]
    fn contraction_agrees_across_representations() {
        let g = clique_chain(3, 4);
        let cz = CompressedCsr::from_csr(&g).unwrap();
        let assignment: Vec<u32> = (0..12u32).map(|v| v / 4).collect();
        let flat = g.contract_level(&assignment, 3).unwrap();
        let packed = cz.contract_level(&assignment, 3).unwrap();
        assert_eq!(flat.num_vertices(), packed.num_vertices());
        assert_eq!(flat.offsets(), packed.offsets());
        assert_eq!(flat.targets(), packed.targets());
    }
}
