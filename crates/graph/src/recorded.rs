//! Instrumented entry points for the traversal and coarsening kernels.
//!
//! Each wrapper runs the exact same kernel as its plain counterpart — the
//! recorder only *observes* (span timing plus result-derived counters), so
//! outputs are bit-identical with any [`Recorder`] at any thread count.
//! Instrumentation is per *call*, never per vertex or edge, keeping the
//! disabled ([`NoopRecorder`](reorderlab_trace::NoopRecorder)) path at a
//! few virtual calls.

use crate::coarsen::{contract, Contraction};
use crate::csr::Csr;
use crate::error::GraphError;
use crate::traversal::{bfs_levels, pseudo_peripheral_in, LevelScratch, LevelStructure};
use reorderlab_trace::Recorder;

/// [`bfs_levels`] with span timing and level/reach counters.
pub fn bfs_levels_recorded(graph: &Csr, source: u32, rec: &mut dyn Recorder) -> LevelStructure {
    rec.span_enter("bfs_levels");
    let ls = bfs_levels(graph, source);
    rec.span_exit("bfs_levels");
    rec.counter("bfs/runs", 1);
    rec.counter("bfs/levels", ls.eccentricity() as u64 + 1);
    ls
}

/// [`pseudo_peripheral`](crate::pseudo_peripheral) with span timing and a
/// run counter, on a scratch the caller keeps across its searches.
pub fn pseudo_peripheral_recorded(
    graph: &Csr,
    start: u32,
    scratch: &mut LevelScratch,
    rec: &mut dyn Recorder,
) -> u32 {
    rec.span_enter("pseudo_peripheral");
    let v = pseudo_peripheral_in(graph, start, scratch);
    rec.span_exit("pseudo_peripheral");
    rec.counter("pseudo_peripheral/runs", 1);
    v
}

/// [`contract`] with span timing and coarse-size counters.
pub fn contract_recorded(
    graph: &Csr,
    assignment: &[u32],
    num_groups: usize,
    rec: &mut dyn Recorder,
) -> Result<Contraction, GraphError> {
    rec.span_enter("contract");
    let out = contract(graph, assignment, num_groups);
    rec.span_exit("contract");
    if let Ok(c) = &out {
        rec.counter("contract/runs", 1);
        rec.counter("contract/coarse_vertices", c.coarse.num_vertices() as u64);
        rec.counter("contract/coarse_edges", c.coarse.num_edges() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::coarsen::contract_serial;
    use crate::traversal::pseudo_peripheral;
    use reorderlab_trace::{NoopRecorder, RunRecorder};

    fn sample() -> Csr {
        GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
            .build()
            .unwrap()
    }

    #[test]
    fn recorded_bfs_is_identical_and_counts_levels() {
        let g = sample();
        let mut rec = RunRecorder::new();
        let live = bfs_levels_recorded(&g, 0, &mut rec);
        let noop = bfs_levels_recorded(&g, 0, &mut NoopRecorder);
        assert_eq!(live.levels, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(live.levels, noop.levels);
        assert_eq!(rec.counters()["bfs/levels"], 4, "6-cycle eccentricity 3 -> 4 levels");
        assert_eq!(rec.spans()["bfs_levels"].count, 1);
    }

    #[test]
    fn recorded_pseudo_peripheral_is_identical() {
        let g = sample();
        let mut rec = RunRecorder::new();
        let mut scratch = LevelScratch::new(g.num_vertices());
        for start in [2, 5, 2] {
            assert_eq!(
                pseudo_peripheral_recorded(&g, start, &mut scratch, &mut rec),
                pseudo_peripheral(&g, start),
                "a reused scratch must not change the answer"
            );
        }
        assert_eq!(rec.counters()["pseudo_peripheral/runs"], 3);
    }

    #[test]
    fn recorded_pseudo_peripheral_grows_a_scratch_built_for_a_smaller_graph() {
        // A 20-vertex path and a clique: the clique is dense enough for the
        // bottom-up step, which scans every vertex of the graph.
        let g = GraphBuilder::undirected(20)
            .edges((0..9u32).map(|i| (i, i + 1)))
            .edges((10..20u32).flat_map(|u| (u + 1..20).map(move |v| (u, v))))
            .build()
            .unwrap();
        let mut scratch = LevelScratch::new(4);
        for start in [0, 19, 4, 12] {
            assert_eq!(
                pseudo_peripheral_recorded(&g, start, &mut scratch, &mut NoopRecorder),
                pseudo_peripheral(&g, start),
                "start {start}"
            );
        }
    }

    #[test]
    fn recorded_contract_is_identical_and_reports_sizes() {
        let g = sample();
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let mut rec = RunRecorder::new();
        let live = contract_recorded(&g, &assignment, 2, &mut rec).unwrap();
        let oracle = contract_serial(&g, &assignment, 2).unwrap();
        assert_eq!(live.coarse.num_vertices(), oracle.coarse.num_vertices());
        assert_eq!(live.coarse.num_edges(), oracle.coarse.num_edges());
        assert_eq!(rec.counters()["contract/coarse_vertices"], 2);
    }

    #[test]
    fn contract_error_records_nothing() {
        let g = sample();
        let mut rec = RunRecorder::new();
        let bad = vec![0u32; 3]; // wrong length
        assert!(contract_recorded(&g, &bad, 1, &mut rec).is_err());
        assert!(rec.counters().get("contract/runs").is_none());
    }
}
