//! Facts: numbers about immutable bytes, computed at most once while those
//! bytes are resident.
//!
//! A graph that cannot change and an ordering of it that cannot change
//! have measures that cannot change either, so each is stored beside the
//! bytes it describes: a [`MeasuredOrdering`] carries the gap and
//! compression measures of its permutation and the permutation's text
//! form (a pure function of its bytes), and a [`GraphFacts`] cell
//! carries the natural-order gap measures, the [`GraphStats`] and the
//! natural-layout memsim replays of its graph. Both start empty and fill on
//! first read. Who owns the cell decides how long a fact lives: the CLI's
//! resolver and permutation source hand out fresh cells per request, so it
//! computes what it always did; the daemon's corpus and permutation cache
//! keep theirs, so a fact lives and dies with its corpus or cache entry.
//! There is no other policy.
//!
//! Memoizing is only sound because every fact here is bit-identical at any
//! thread count (DESIGN.md §2, "Deterministic parallel reductions"): a cell
//! filled at `threads: 7` reads the same at `threads: 1`. A replay is such a
//! fact too: it is a pure function of the graph bytes, the layout and the
//! [`ReplayWorkload`], because the hierarchy is fixed at
//! `scaled_cascade_lake()`, the RR parameters are fixed and the simulator
//! has no parallel code. A replay in a scheme's layout is sound to memoize
//! by the same argument but is not: no measured workload repeats one.

use reorderlab_core::measures::{
    gap_measures, try_compression_measures, CompressionMeasures, GapMeasures,
};
use reorderlab_core::MeasureError;
use reorderlab_graph::{Csr, GraphStats, Permutation};
use reorderlab_memsim::{
    replay_louvain_move, replay_pagerank_iteration, replay_rr_kernel, Hierarchy, HierarchyConfig,
    MemReport,
};
use std::convert::Infallible;
use std::io;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// How many facts one request read, by whether the cell already held them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactTally {
    /// Reads answered from a filled cell: no graph pass ran.
    pub reused: u64,
    /// Reads that ran the graph pass.
    pub computed: u64,
}

/// One lazily computed value. No lock is held across the computation:
/// racing first reads each run it, and the first value stored wins (the
/// values are equal anyway; see the module doc).
#[derive(Debug)]
struct Fact<T>(OnceLock<T>);

impl<T> Default for Fact<T> {
    fn default() -> Self {
        Fact(OnceLock::new())
    }
}

impl<T: Clone> Fact<T> {
    fn get_or_try<E>(
        &self,
        tally: &mut FactTally,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        if let Some(value) = self.0.get() {
            tally.reused += 1;
            return Ok(value.clone());
        }
        tally.computed += 1;
        let value = compute()?;
        Ok(self.0.get_or_init(|| value).clone())
    }

    fn get_or(&self, tally: &mut FactTally, compute: impl FnOnce() -> T) -> T {
        self.get_or_try(tally, || Ok::<T, Infallible>(compute()))
            .unwrap_or_else(|never| match never {})
    }
}

/// A memsim replay: the one kernel an application runs, replayed through
/// the scaled Cascade Lake hierarchy. The discriminant indexes the replay
/// cells of [`GraphFacts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayWorkload {
    /// Louvain's move scan (`packed`).
    Louvain,
    /// RR sampling (`classic`), with the snapshot corpus's parameters:
    /// p = 0.25, 64 sets, seed 7.
    Rr,
    /// One pull PageRank iteration (`pull`).
    Pagerank,
}

impl ReplayWorkload {
    /// Every workload, in cell order.
    pub(crate) const ALL: [ReplayWorkload; 3] =
        [ReplayWorkload::Louvain, ReplayWorkload::Rr, ReplayWorkload::Pagerank];

    /// The workload named `name`, if any.
    pub(crate) fn parse(name: &str) -> Option<ReplayWorkload> {
        ReplayWorkload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The wire name: `louvain`, `rr` or `pagerank`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReplayWorkload::Louvain => "louvain",
            ReplayWorkload::Rr => "rr",
            ReplayWorkload::Pagerank => "pagerank",
        }
    }

    /// The name of the one kernel the workload replays.
    pub(crate) fn kernel(self) -> &'static str {
        match self {
            ReplayWorkload::Louvain => "packed",
            ReplayWorkload::Rr => "classic",
            ReplayWorkload::Pagerank => "pull",
        }
    }

    /// Replays the workload on `graph` as laid out by `pi` (`None` for the
    /// natural layout). Only the RR replay reads the ordering, as the
    /// stable labels that keep its traversal layout-independent.
    pub(crate) fn replay(self, graph: &Csr, pi: Option<&Permutation>) -> MemReport {
        let mut hier = Hierarchy::new(HierarchyConfig::scaled_cascade_lake());
        match self {
            ReplayWorkload::Louvain => replay_louvain_move(graph, &mut hier),
            ReplayWorkload::Rr => {
                let labels = pi.map_or_else(
                    || (0..u32::try_from(graph.num_vertices()).unwrap_or(u32::MAX)).collect(),
                    Permutation::to_order,
                );
                replay_rr_kernel(graph, &labels, 0.25, 64, 7, &mut hier);
            }
            ReplayWorkload::Pagerank => replay_pagerank_iteration(graph, &mut hier),
        }
        hier.report()
    }
}

/// An ordering of one graph, the measures of that graph under it, and its
/// text form.
///
/// Dereferences to its [`Permutation`]. The measure methods take the graph
/// the ordering was computed for; passing any other is a caller bug (the
/// permutation cache keys by content digest to rule it out).
#[derive(Debug)]
pub struct MeasuredOrdering {
    pi: Permutation,
    gaps: Fact<GapMeasures>,
    compression: Fact<CompressionMeasures>,
    text: Fact<Arc<str>>,
}

impl MeasuredOrdering {
    /// Wraps `pi` with empty measure cells.
    pub fn new(pi: Permutation) -> MeasuredOrdering {
        MeasuredOrdering {
            pi,
            gaps: Fact::default(),
            compression: Fact::default(),
            text: Fact::default(),
        }
    }

    /// The gap measures of `graph` under this ordering.
    ///
    /// # Panics
    ///
    /// Panics if the ordering does not cover exactly `graph`'s vertices.
    pub fn gaps(&self, graph: &Csr, tally: &mut FactTally) -> GapMeasures {
        self.gaps.get_or(tally, || gap_measures(graph, &self.pi))
    }

    /// The compression footprint of `graph` under this ordering.
    ///
    /// # Errors
    ///
    /// [`MeasureError`] if the ordering does not cover exactly `graph`'s
    /// vertices (failures are not stored).
    pub(crate) fn compression(
        &self,
        graph: &Csr,
        tally: &mut FactTally,
    ) -> Result<CompressionMeasures, MeasureError> {
        self.compression.get_or_try(tally, || try_compression_measures(graph, &self.pi))
    }

    /// The permutation as [`Permutation::write_text`] renders it, one rank
    /// per line (about 6 bytes per vertex once filled).
    ///
    /// # Errors
    ///
    /// Whatever `write_text` returns (failures are not stored).
    pub(crate) fn text(&self, tally: &mut FactTally) -> io::Result<Arc<str>> {
        self.text.get_or_try(tally, || {
            let mut buf = Vec::new();
            self.pi.write_text(&mut buf)?;
            let text = String::from_utf8(buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            Ok(Arc::from(text))
        })
    }
}

impl Deref for MeasuredOrdering {
    type Target = Permutation;

    fn deref(&self) -> &Permutation {
        &self.pi
    }
}

/// The per-graph fact cell: what the daemon reports about a graph in its
/// natural order.
#[derive(Debug, Default)]
pub struct GraphFacts {
    natural_gaps: Fact<GapMeasures>,
    stats: Fact<GraphStats>,
    replays: [Fact<MemReport>; ReplayWorkload::ALL.len()],
}

impl GraphFacts {
    /// The gap measures of `graph` in its natural order (the `before` row
    /// of `reorder`).
    pub(crate) fn natural_gaps(&self, graph: &Csr, tally: &mut FactTally) -> GapMeasures {
        self.natural_gaps
            .get_or(tally, || gap_measures(graph, &Permutation::identity(graph.num_vertices())))
    }

    /// The Table I statistics of `graph`.
    pub fn stats(&self, graph: &Csr, tally: &mut FactTally) -> GraphStats {
        self.stats.get_or(tally, || GraphStats::compute(graph))
    }

    /// The `workload` replay of `graph` in its natural layout.
    pub(crate) fn replay(
        &self,
        graph: &Csr,
        workload: ReplayWorkload,
        tally: &mut FactTally,
    ) -> MemReport {
        self.replays[workload as usize].get_or(tally, || workload.replay(graph, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_core::Scheme;
    use reorderlab_graph::build_pool;

    fn graph(name: &str) -> Csr {
        reorderlab_datasets::by_name(name).unwrap().generate()
    }

    type Facts =
        (GapMeasures, CompressionMeasures, Arc<str>, GapMeasures, GraphStats, Vec<MemReport>);

    /// Reads all eight facts of `g`: the ordering's two measures and its
    /// text, the graph's two measures, then the natural-layout replay of
    /// every workload.
    fn read_all(
        g: &Csr,
        ordering: &MeasuredOrdering,
        facts: &GraphFacts,
        tally: &mut FactTally,
    ) -> Facts {
        (
            ordering.gaps(g, tally),
            ordering.compression(g, tally).unwrap(),
            ordering.text(tally).unwrap(),
            facts.natural_gaps(g, tally),
            facts.stats(g, tally),
            ReplayWorkload::ALL.iter().map(|&w| facts.replay(g, w, tally)).collect(),
        )
    }

    #[test]
    fn each_fact_is_computed_once_and_then_reused() {
        let g = graph("euroroad");
        let ordering = MeasuredOrdering::new(Scheme::Rcm.reorder(&g));
        let facts = GraphFacts::default();
        let mut tally = FactTally::default();
        let first = read_all(&g, &ordering, &facts, &mut tally);
        assert_eq!(tally, FactTally { reused: 0, computed: 8 });
        let second = read_all(&g, &ordering, &facts, &mut tally);
        assert_eq!(tally, FactTally { reused: 8, computed: 8 });
        assert_eq!(first, second);
        // The cells hold what the direct calls return.
        assert_eq!(first.0, gap_measures(&g, &ordering));
        assert_eq!(first.1, try_compression_measures(&g, &ordering).unwrap());
        let mut text = Vec::new();
        ordering.write_text(&mut text).unwrap();
        assert_eq!(first.2.as_bytes(), text);
        assert_eq!(first.3, gap_measures(&g, &Permutation::identity(g.num_vertices())));
        assert_eq!(first.4, GraphStats::compute(&g));
        // Each workload's cell holds that workload's replay and no other.
        for (i, w) in ReplayWorkload::ALL.into_iter().enumerate() {
            assert_eq!(first.5[i], w.replay(&g, None), "{w:?}");
        }
    }

    /// The memo is sound only because a fact does not depend on the width
    /// it was computed at: fill at 7 threads, read at 1, compare with a
    /// cell filled at 1.
    #[test]
    fn a_fact_filled_at_seven_threads_reads_the_same_at_one() {
        for name in ["euroroad", "rovira"] {
            let g = graph(name);
            let pi = Scheme::Rcm.reorder(&g);
            let fill = |threads: usize| {
                let ordering = MeasuredOrdering::new(pi.clone());
                let facts = GraphFacts::default();
                build_pool(threads).install(|| {
                    read_all(&g, &ordering, &facts, &mut FactTally::default());
                });
                (ordering, facts)
            };
            let read = |(ordering, facts): &(MeasuredOrdering, GraphFacts)| {
                build_pool(1).install(|| {
                    let mut tally = FactTally::default();
                    let values = read_all(&g, ordering, facts, &mut tally);
                    assert_eq!(tally, FactTally { reused: 8, computed: 0 });
                    values
                })
            };
            assert_eq!(read(&fill(7)), read(&fill(1)), "{name}");
        }
    }

    #[test]
    fn a_failed_measure_is_not_stored() {
        let g = graph("euroroad");
        let short = MeasuredOrdering::new(Permutation::identity(3));
        let mut tally = FactTally::default();
        assert!(short.compression(&g, &mut tally).is_err());
        assert!(short.compression(&g, &mut tally).is_err());
        assert_eq!(tally, FactTally { reused: 0, computed: 2 });
    }
}
