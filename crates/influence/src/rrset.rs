//! Reverse-reachability (RR) set sampling — the hot loop of IMM.
//!
//! An RR set for root `r` is the random set of vertices that would activate
//! `r` under one random realization of the diffusion process; it is sampled
//! by a *probabilistic BFS on the transpose graph* (paper §VI-C: "tens or
//! hundreds of thousands of probabilistic BFS traversals").

use crate::config::DiffusionModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{Adjacency, CompressError, CompressedCsr, Csr};
use std::borrow::Cow;

/// A sampler bound to one graph, generic over the [`Adjacency`] whose rows
/// the reverse traversals read. Every adjacency iterates a row's
/// in-neighbors in the identical (sorted) order, so the RNG coin stream —
/// and therefore every sampled set — is independent of the representation.
#[derive(Debug, Clone)]
pub struct RrSampler<'g, G: Adjacency + Clone = Csr> {
    /// Reverse adjacency: the in-neighbors of every vertex. An undirected
    /// adjacency is symmetric, so this borrows the caller's graph; a
    /// directed graph is transposed once into an owned copy.
    reverse: Cow<'g, G>,
    model: DiffusionModel,
}

/// Counters from sampling one RR set, aggregated by the engine into the
/// throughput figures of the paper's Figure 11.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RrTrace {
    /// In-edges examined during the reverse BFS.
    pub edges_examined: u64,
    /// Vertices that entered the RR set.
    pub vertices_visited: u64,
}

/// RR sets as an append-only list of chunks of consecutive sets, each
/// allocated once at its final size. One allocation per set costs more than
/// the small sets IMM draws by the million, and one flat array regrows,
/// holding its old and its new copy at once.
#[derive(Debug, Clone, Default)]
pub struct RrSets {
    chunks: Vec<RrChunk>,
}

/// Consecutive RR sets: set `j` of the chunk is `members[ends[j - 1]..ends[j]]`,
/// with `ends[-1]` read as 0.
#[derive(Debug, Clone)]
pub(crate) struct RrChunk {
    /// The vertices of every set, set after set, each in sampled order.
    pub(crate) members: Box<[u32]>,
    /// Where each set ends in `members`: one non-decreasing entry per set.
    pub(crate) ends: Box<[u32]>,
}

impl RrSets {
    /// Number of sets.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.ends.len()).sum()
    }

    /// Whether the collection holds no set.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Every set in index order, as pushed.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.chunks.iter().flat_map(|c| {
            c.ends.iter().scan(0, |start, &end| {
                let set = &c.members[*start..end as usize];
                *start = end as usize;
                Some(set)
            })
        })
    }

    /// The chunks in index order: each one's sets follow the earlier ones'.
    pub(crate) fn chunks(&self) -> &[RrChunk] {
        &self.chunks
    }

    /// Appends the sets of `more` as the next indices, moving no member.
    pub(crate) fn extend(&mut self, more: RrSets) {
        self.chunks.extend(more.chunks);
    }
}

impl FromIterator<Vec<u32>> for RrSets {
    fn from_iter<I: IntoIterator<Item = Vec<u32>>>(iter: I) -> Self {
        let mut writer = ChunkWriter::default();
        iter.into_iter().for_each(|set| writer.push(&set));
        writer.finish()
    }
}

/// A chunk takes no set that would carry it past this many members unless
/// it is empty, and a set has at most `n <= u32::MAX` members (roots come
/// from `0..n as u32`), so no `ends` entry can wrap.
pub(crate) const CHUNK_MEMBERS: usize = 1 << 16;

/// One worker's sets: staged in two buffers it reuses, and sealed into a
/// chunk allocated once at its exact size when the stage is full, so the
/// stage is bounded scratch, not a second copy of the store.
#[derive(Debug, Default)]
pub(crate) struct ChunkWriter {
    members: Vec<u32>,
    ends: Vec<u32>,
    sets: RrSets,
}

impl ChunkWriter {
    /// Appends `set` as the next index. An empty set is a valid entry.
    pub(crate) fn push(&mut self, set: &[u32]) {
        if !self.members.is_empty() && self.members.len() + set.len() > CHUNK_MEMBERS {
            self.seal();
        }
        self.members.extend_from_slice(set);
        self.ends.push(self.members.len() as u32);
    }

    fn seal(&mut self) {
        let chunk = RrChunk { members: self.members[..].into(), ends: self.ends[..].into() };
        self.sets.chunks.push(chunk);
        self.members.clear();
        self.ends.clear();
    }

    /// Every set pushed, in push order.
    pub(crate) fn finish(mut self) -> RrSets {
        if !self.ends.is_empty() {
            self.seal();
        }
        self.sets
    }
}

/// Reusable per-thread scratch for RR sampling.
///
/// The naive traversal allocates an `n`-bit visited array and a fresh queue
/// for every RR set; IMM draws tens of thousands of sets, so those
/// allocations (and the O(n) clears) dominate on small sets. The scratch
/// replaces them with an epoch-stamped visited array — resetting is a single
/// counter increment — and one queue buffer that doubles as the output set.
///
/// Reusing a scratch never changes the sampled sets: visitation is keyed on
/// `(seed, index)`-derived RNG streams only, so `sample_with` returns the
/// same set as [`RrSampler::sample`] for the same arguments.
#[derive(Debug, Clone)]
pub(crate) struct SampleScratch {
    /// `stamp[v] == epoch` marks `v` visited in the current sample.
    stamp: Vec<u32>,
    epoch: u32,
    /// BFS queue and output set (root first).
    set: Vec<u32>,
}

impl SampleScratch {
    /// A scratch for graphs of up to `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        SampleScratch { stamp: vec![0; n], epoch: 0, set: Vec::new() }
    }

    /// Starts a new sample rooted at `root`: bumps the epoch (constant-time
    /// reset of the visited set) and seeds the queue. Once every epoch is
    /// used, the stamps are zeroed and the count restarts at 1.
    fn begin(&mut self, n: usize, root: u32) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.stamp.fill(0);
            1
        });
        self.set.clear();
        self.set.push(root);
        self.stamp[root as usize] = self.epoch;
    }

    fn is_visited(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    fn visit(&mut self, v: u32) {
        self.stamp[v as usize] = self.epoch;
        self.set.push(v);
    }
}

impl<'g> RrSampler<'g> {
    /// Prepares a sampler for `graph` under `model`.
    pub fn new(graph: &'g Csr, model: DiffusionModel) -> Self {
        let reverse =
            if graph.is_directed() { Cow::Owned(graph.transposed()) } else { Cow::Borrowed(graph) };
        RrSampler { reverse, model }
    }
}

impl<'g> RrSampler<'g, CompressedCsr> {
    /// [`RrSampler::new`] over the compressed form: the reverse BFS streams
    /// in-neighbors straight from the varint gap bytes, never materializing
    /// flat rows. Draws sets and traces bit-identical to a flat sampler
    /// over the same graph.
    ///
    /// # Errors
    ///
    /// [`CompressError::UnsortedRow`] — provably unreachable (the
    /// transpose of a decoded graph always has sorted rows), surfaced as
    /// a typed error rather than a panic to keep library code panic-free.
    pub(crate) fn from_gap_rows(
        cz: &'g CompressedCsr,
        model: DiffusionModel,
    ) -> Result<Self, CompressError> {
        let reverse = if cz.is_directed() {
            Cow::Owned(CompressedCsr::from_csr(&cz.decode().transposed())?)
        } else {
            Cow::Borrowed(cz)
        };
        Ok(RrSampler { reverse, model })
    }
}

impl<G: Adjacency + Clone> RrSampler<'_, G> {
    /// The number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.reverse.num_vertices()
    }

    /// Samples the RR set with the given index into a freshly allocated
    /// vector. The RNG is derived from `(seed, index)`, so set `i` is
    /// identical no matter which thread draws it.
    ///
    /// Returns the RR set (root first) and the traversal counters.
    pub fn sample(&self, seed: u64, index: u64) -> (Vec<u32>, RrTrace) {
        let mut scratch = SampleScratch::new(self.num_vertices());
        let (set, trace) = self.sample_with(seed, index, &mut scratch);
        (set.to_vec(), trace)
    }

    /// Allocation-free variant of [`RrSampler::sample`]: traverses into
    /// `scratch` and returns the RR set as a borrow of its buffer. Produces
    /// exactly the same set and trace as `sample(seed, index)` — the stable
    /// `(seed, index)` coin streams make the result independent of both the
    /// thread drawing it and any scratch reuse.
    pub(crate) fn sample_with<'s>(
        &self,
        seed: u64,
        index: u64,
        scratch: &'s mut SampleScratch,
    ) -> (&'s [u32], RrTrace) {
        let n = self.num_vertices();
        debug_assert!(n > 0, "cannot sample from an empty graph");
        let mut rng =
            StdRng::seed_from_u64(splitmix(seed ^ index.wrapping_mul(0x9e3779b97f4a7c15)));
        let root = rng.gen_range(0..n as u32);
        scratch.begin(n, root);
        let trace = match self.model {
            DiffusionModel::IndependentCascade { probability } => {
                self.reverse_bfs(scratch, &mut rng, |_| probability)
            }
            DiffusionModel::WeightedCascade => {
                // p(u -> v) = 1 / indeg(v): while scanning v's in-neighbors,
                // each passes with probability 1/indeg(v).
                let reverse: &G = &self.reverse;
                self.reverse_bfs(scratch, &mut rng, |v| 1.0 / reverse.degree(v).max(1) as f64)
            }
            DiffusionModel::LinearThreshold => self.reverse_walk(scratch, &mut rng),
        };
        (&scratch.set, trace)
    }

    /// IC-style probabilistic reverse BFS: each in-edge `(u -> v)` of a
    /// visited `v` is live independently with probability `p_of(v)`, which
    /// is computed once per popped `v`, not once per arc. `scratch` arrives
    /// seeded with the root.
    fn reverse_bfs(
        &self,
        scratch: &mut SampleScratch,
        rng: &mut StdRng,
        p_of: impl Fn(u32) -> f64,
    ) -> RrTrace {
        let reverse: &G = &self.reverse;
        let mut trace = RrTrace { edges_examined: 0, vertices_visited: 1 };
        let mut head = 0usize;
        while head < scratch.set.len() {
            let v = scratch.set[head];
            head += 1;
            let p = p_of(v);
            for u in reverse.neighbors(v) {
                trace.edges_examined += 1;
                if !scratch.is_visited(u) && rng.gen::<f64>() < p {
                    scratch.visit(u);
                    trace.vertices_visited += 1;
                }
            }
        }
        trace
    }

    /// LT-style reverse random walk: from the root, repeatedly step to one
    /// uniformly chosen in-neighbor until revisiting or hitting a source.
    /// `scratch` arrives seeded with the root.
    fn reverse_walk(&self, scratch: &mut SampleScratch, rng: &mut StdRng) -> RrTrace {
        let reverse: &G = &self.reverse;
        let mut trace = RrTrace { edges_examined: 0, vertices_visited: 1 };
        let mut current = scratch.set[0];
        loop {
            let deg = reverse.degree(current);
            if deg == 0 {
                break;
            }
            trace.edges_examined += 1;
            // `nth` streams to the chosen in-neighbor; the index is always
            // in range, so the `None` arm is unreachable and breaking is
            // the graceful (panic-free) answer if it ever weren't.
            let Some(next) = reverse.neighbors(current).nth(rng.gen_range(0..deg)) else {
                break;
            };
            if scratch.is_visited(next) {
                break;
            }
            scratch.visit(next);
            trace.vertices_visited += 1;
            current = next;
        }
        trace
    }
}

/// SplitMix64 finalizer, decorrelating per-index RNG streams.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{complete, path, star};
    use reorderlab_graph::GraphBuilder;

    fn ic(p: f64) -> DiffusionModel {
        DiffusionModel::IndependentCascade { probability: p }
    }

    #[test]
    fn probability_one_reaches_component() {
        let g = path(10);
        let s = RrSampler::new(&g, ic(1.0));
        let (set, trace) = s.sample(1, 0);
        assert_eq!(set.len(), 10, "p = 1 on a connected graph reaches everything");
        assert_eq!(trace.vertices_visited, 10);
    }

    #[test]
    fn probability_epsilon_reaches_only_root() {
        let g = complete(20);
        let s = RrSampler::new(&g, ic(1e-12));
        for i in 0..10 {
            let (set, _) = s.sample(3, i);
            assert_eq!(set.len(), 1, "p ≈ 0 must keep only the root");
        }
    }

    #[test]
    fn rr_sets_deterministic_per_index() {
        let g = star(50);
        let s = RrSampler::new(&g, ic(0.5));
        assert_eq!(s.sample(7, 3), s.sample(7, 3));
        // Different indices should (overwhelmingly) differ.
        let distinct = (0..20).map(|i| s.sample(7, i).0).collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn directed_graph_uses_transpose() {
        // Arc 0 -> 1 only: an RR set rooted at 1 can contain 0, but an RR
        // set rooted at 0 can never contain 1.
        let g = GraphBuilder::directed(2).edge(0, 1).build().unwrap();
        let s = RrSampler::new(&g, ic(1.0));
        for i in 0..20 {
            let (set, _) = s.sample(11, i);
            if set[0] == 0 {
                assert_eq!(set, vec![0]);
            } else {
                assert_eq!(set, vec![1, 0]);
            }
        }
    }

    #[test]
    fn weighted_cascade_bounded_expansion() {
        let g = complete(30);
        let s = RrSampler::new(&g, DiffusionModel::WeightedCascade);
        // Expected activations per scanned vertex is 1; sets stay small on
        // average. Just verify validity and non-explosion over many draws.
        let mut total = 0usize;
        for i in 0..50 {
            let (set, _) = s.sample(5, i);
            assert!(!set.is_empty());
            total += set.len();
        }
        assert!(total < 50 * 30);
    }

    #[test]
    fn linear_threshold_is_a_path_sample() {
        let g = complete(10);
        let s = RrSampler::new(&g, DiffusionModel::LinearThreshold);
        for i in 0..20 {
            let (set, trace) = s.sample(2, i);
            // A reverse walk visits each vertex at most once and examines
            // one in-edge per step.
            assert_eq!(trace.vertices_visited as usize, set.len());
            let distinct: std::collections::BTreeSet<_> = set.iter().collect();
            assert_eq!(distinct.len(), set.len());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // One scratch reused across many samples (and across models) must
        // reproduce exactly what per-sample allocation produces.
        let g = reorderlab_datasets::erdos_renyi_gnm(120, 360, 13);
        for model in [ic(0.2), DiffusionModel::WeightedCascade, DiffusionModel::LinearThreshold] {
            let s = RrSampler::new(&g, model);
            let mut scratch = SampleScratch::new(g.num_vertices());
            for i in 0..200 {
                let fresh = s.sample(21, i);
                let (set, trace) = s.sample_with(21, i, &mut scratch);
                assert_eq!((set.to_vec(), trace), fresh, "index {i} under {model:?}");
            }
        }
        // Across the epoch wrap: a set of more than its root runs at epoch 1,
        // and again at the epoch 1 the count wraps to, so a wrap that kept
        // the stamps would find its vertices already visited. At p = 0.1 the
        // sets are small, and the two in between barely overwrite them.
        let s = RrSampler::new(&g, ic(0.1));
        let wide = (0..).find(|&i| s.sample(21, i).0.len() > 2).expect("a set beyond its root");
        let mut scratch = SampleScratch::new(g.num_vertices());
        s.sample_with(21, wide, &mut scratch);
        scratch.epoch = u32::MAX - 2;
        for i in [wide + 1, wide + 2, wide].into_iter().chain(wide + 3..wide + 20) {
            let fresh = s.sample(21, i);
            let (set, trace) = s.sample_with(21, i, &mut scratch);
            assert_eq!((set.to_vec(), trace), fresh, "index {i} across the wrap");
        }
        assert_eq!(scratch.epoch, 18, "two epochs before the wrap, 18 after");
    }

    #[test]
    fn scratch_grows_to_fit_larger_graphs() {
        let small = path(4);
        let big = path(64);
        let mut scratch = SampleScratch::new(small.num_vertices());
        let s = RrSampler::new(&big, ic(1.0));
        let (set, _) = s.sample_with(1, 0, &mut scratch);
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn compressed_sampler_bit_identical_to_flat() {
        // The acceptance criterion for compressed-mode IMM: sampling over
        // the varint gap streams draws exactly the sets (order included)
        // and traces the flat transpose draws, for every model, on
        // undirected and directed graphs alike.
        let directed_ring = {
            let mut b = GraphBuilder::directed(23);
            for v in 0..23u32 {
                b = b.edge(v, (v + 1) % 23).edge(v, (v + 5) % 23);
            }
            b.build().unwrap()
        };
        let graphs = [
            star(80),
            path(120),
            reorderlab_datasets::erdos_renyi_gnm(300, 1500, 17),
            directed_ring,
        ];
        for g in &graphs {
            let cz = CompressedCsr::from_csr(g).unwrap();
            for model in [ic(0.3), DiffusionModel::WeightedCascade, DiffusionModel::LinearThreshold]
            {
                let flat = RrSampler::new(g, model);
                let packed = RrSampler::from_gap_rows(&cz, model).unwrap();
                let mut sf = SampleScratch::new(g.num_vertices());
                let mut sp = SampleScratch::new(g.num_vertices());
                for i in 0..100 {
                    let (a, ta) = flat.sample_with(9, i, &mut sf);
                    let a = a.to_vec();
                    let (b, tb) = packed.sample_with(9, i, &mut sp);
                    assert_eq!(a, b, "set mismatch at {i} under {model:?}");
                    assert_eq!(ta, tb, "trace mismatch at {i} under {model:?}");
                }
            }
        }
    }

    #[test]
    fn num_vertices_on_both_representations() {
        let g = path(10);
        assert_eq!(RrSampler::new(&g, ic(0.5)).num_vertices(), 10);
        let cz = CompressedCsr::from_csr(&g).unwrap();
        assert_eq!(RrSampler::from_gap_rows(&cz, ic(0.5)).unwrap().num_vertices(), 10);
    }

    #[test]
    fn trace_counts_edges() {
        let g = star(5);
        let s = RrSampler::new(&g, ic(1.0));
        // Root = hub: scans 4 in-edges then each leaf scans 1 (the hub).
        let (set, trace) = s.sample(0, 4);
        if set[0] == 0 {
            assert_eq!(trace.edges_examined, 4 + 4);
        }
        assert!(trace.edges_examined >= set.len() as u64 - 1);
    }
}
