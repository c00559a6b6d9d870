//! Multithreaded Louvain community detection in the style of Grappolo [28]:
//! a parallelization of the Blondel et al. method \[4\] that performs multiple
//! move *iterations* per *phase*, then compacts the graph by communities and
//! repeats on the coarser level.
//!
//! The engine is instrumented with exactly the quantities the paper's
//! Figure 9 reports per ordering: phase time, time per iteration, iteration
//! count, final modularity, parallel efficiency (`Work%`, useful busy time
//! over total CPU time) and `Work/edge` (loads performed by the hot
//! neighbor-community scan, normalized by edge count).

use crate::config::LouvainConfig;
use crate::modularity::{modularity_with, sum_q, ModularityContext};
use rayon::prelude::*;
use reorderlab_graph::{contract, Adjacency, CompressedCsr, Csr};
use std::time::{Duration, Instant};

/// Measurements for one move iteration within a phase.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Wall-clock duration of the iteration: the parallel proposal scan,
    /// the serial revalidate-and-apply pass over the proposed moves, and the
    /// O(n) read of Q from the `in`/`tot` arrays the applied moves
    /// maintain. No arc pass beyond the scan and the re-scan of moved
    /// vertices is in it.
    pub duration: Duration,
    /// Number of vertices that changed community.
    pub moves: usize,
    /// Modularity after applying this iteration's moves.
    pub modularity: f64,
    /// Loads performed by the hot routine (neighbor scans + community map
    /// operations), the quantity behind the paper's `Work/edge`.
    pub loads: u64,
    /// Sum of per-chunk busy time; `busy / (threads * duration)` is the
    /// parallel-efficiency proxy behind the paper's `Work%`.
    pub busy: Duration,
}

/// Measurements for one Louvain phase (level).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Wall-clock duration of the phase.
    pub duration: Duration,
    /// Number of vertices at this level.
    pub vertices: usize,
    /// Number of edges at this level.
    pub edges: usize,
    /// Per-iteration measurements.
    pub iterations: Vec<IterationStats>,
    /// Modularity at the end of the phase.
    pub modularity: f64,
}

impl PhaseStats {
    /// Mean wall time per iteration.
    pub fn time_per_iteration(&self) -> Duration {
        if self.iterations.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.iterations.iter().map(|i| i.duration).sum();
        total / self.iterations.len() as u32
    }

    /// Loads per edge per iteration: the paper's `Work/edge` heat-map value.
    pub fn loads_per_edge(&self) -> f64 {
        if self.iterations.is_empty() || self.edges == 0 {
            return 0.0;
        }
        let loads: u64 = self.iterations.iter().map(|i| i.loads).sum();
        loads as f64 / (self.edges as f64 * self.iterations.len() as f64)
    }

    /// Parallel-efficiency proxy in `\[0, 1\]`: busy CPU time over total CPU
    /// time (`threads × wall`), the paper's `Work%`. `busy` is the proposal
    /// scan's per-worker time and `wall` the sum of
    /// [`IterationStats::duration`], so what keeps it under 1 is scan
    /// imbalance plus the serial apply pass, not a modularity recomputation.
    pub fn work_percent(&self, threads: usize) -> f64 {
        let wall: Duration = self.iterations.iter().map(|i| i.duration).sum();
        if wall.is_zero() || threads == 0 {
            return 0.0;
        }
        let busy: Duration = self.iterations.iter().map(|i| i.busy).sum();
        (busy.as_secs_f64() / (threads as f64 * wall.as_secs_f64())).min(1.0)
    }
}

/// Measurements across all phases of a Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainStats {
    /// Per-phase measurements, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Number of worker threads used.
    pub threads: usize,
}

impl LouvainStats {
    /// The first phase, whose metrics the paper reports ("subsequent phases
    /// analyze a derivative, compressed graph that may have little
    /// relationship to the input ordering").
    pub fn first_phase(&self) -> Option<&PhaseStats> {
        self.phases.first()
    }

    /// Total number of iterations across all phases.
    pub fn total_iterations(&self) -> usize {
        self.phases.iter().map(|p| p.iterations.len()).sum()
    }
}

/// The outcome of a Louvain run.
#[derive(Debug, Clone)]
pub struct CommunityResult {
    /// Final community of every original vertex, renumbered contiguously.
    pub assignment: Vec<u32>,
    /// Number of communities.
    pub num_communities: usize,
    /// Final modularity.
    pub modularity: f64,
    /// Performance instrumentation.
    pub stats: LouvainStats,
}

/// Runs Louvain community detection on `graph`, in whichever storage form
/// it is held.
///
/// The graph may be weighted; self loops are honored (they arise naturally
/// on coarse levels). See [`LouvainConfig`] for the termination thresholds;
/// the run uses the rayon pool it is called in (bound it with
/// `reorderlab_graph::build_pool(t).install(..)`).
///
/// On a [`CompressedCsr`] the first (and dominant) phase scans the gap
/// streams through per-worker decode scratch, and only the contraction into
/// the (much smaller) coarse level materializes flat rows. The run is
/// bit-identical to the one on the flat form of the same graph —
/// assignments, modularity trace, iteration counts, and the `loads`
/// instrumentation all match exactly, at any thread count — because the
/// move scan reads every row through the same slice view
/// ([`Adjacency::row_into`]).
///
/// # Examples
///
/// ```
/// use reorderlab_community::{louvain, LouvainConfig};
/// use reorderlab_datasets::clique_chain;
///
/// let g = clique_chain(4, 6);
/// let r = louvain(&g, &LouvainConfig::default());
/// assert_eq!(r.num_communities, 4);
/// assert!(r.modularity > 0.5);
/// ```
pub fn louvain<G: Adjacency>(graph: &G, cfg: &LouvainConfig) -> CommunityResult {
    louvain_inner::<G, PackedScan>(graph, cfg)
}

/// [`louvain`] at the compressed form's type, kept as a named entry point
/// for callers that hold a `.csrz` graph.
///
/// # Examples
///
/// ```
/// use reorderlab_community::{louvain, louvain_compressed, LouvainConfig};
/// use reorderlab_datasets::clique_chain;
/// use reorderlab_graph::CompressedCsr;
///
/// let g = clique_chain(4, 6);
/// let cz = CompressedCsr::from_csr(&g).unwrap();
/// let cfg = LouvainConfig::default();
/// let packed = louvain_compressed(&cz, &cfg);
/// assert_eq!(packed.assignment, louvain(&g, &cfg).assignment);
/// ```
pub fn louvain_compressed(cz: &CompressedCsr, cfg: &LouvainConfig) -> CommunityResult {
    louvain(cz, cfg)
}

/// The move phase the engine runs on every level. Production code has one
/// implementation, [`PackedScan`]; the seam exists so this module's tests can
/// drive the same engine (phase loop, renumbering, contraction) with the
/// retained reference phases and compare the runs bit for bit.
trait MovePhase {
    /// Runs move iterations on one level, whose context is `ctx`, until the
    /// modularity gain drops below the threshold. Returns the
    /// (non-renumbered) communities and the per-iteration stats.
    fn run<G: Adjacency>(
        level: &G,
        ctx: &ModularityContext,
        cfg: &LouvainConfig,
    ) -> (Communities, Vec<IterationStats>);
}

/// The production move phase: the packed scatter scan on every level.
struct PackedScan;

impl MovePhase for PackedScan {
    fn run<G: Adjacency>(
        level: &G,
        ctx: &ModularityContext,
        cfg: &LouvainConfig,
    ) -> (Communities, Vec<IterationStats>) {
        scatter_phase(level, ctx, cfg, PackedScratch::new, PackedScratch::propose)
    }
}

fn louvain_inner<G: Adjacency, P: MovePhase>(graph: &G, cfg: &LouvainConfig) -> CommunityResult {
    let n0 = graph.num_vertices();
    // original vertex -> current-level vertex
    let mut global: Vec<u32> = (0..n0 as u32).collect();
    let mut phases: Vec<PhaseStats> = Vec::new();
    let mut last_q = f64::NEG_INFINITY;

    // The first phase runs on the caller's graph in its own storage form;
    // coarse levels are always owned flat graphs. Each level's context is
    // built once and serves its scan and every Q read of its phase; the
    // input graph's also serves the final value.
    let ctx0 = ModularityContext::new(graph);
    let mut coarse: Option<(ModularityContext, Csr)> = None;
    for _phase in 0..cfg.max_phases {
        let next = match &coarse {
            None => phase_step::<G, P>(graph, &ctx0, cfg, &mut global, &mut phases, &mut last_q),
            Some((ctx, level)) => {
                phase_step::<Csr, P>(level, ctx, cfg, &mut global, &mut phases, &mut last_q)
            }
        };
        match next {
            Some(c) => coarse = Some((ModularityContext::new(&c), c)),
            None => break,
        }
    }

    let num_communities = global.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    // The one recomputation of a run: from the final assignment on the
    // input graph, so nothing the live arrays could drift by on real
    // weights reaches the value a caller checks.
    let q = modularity_with(graph, &ctx0, &global);
    CommunityResult {
        assignment: global,
        num_communities,
        modularity: q,
        stats: LouvainStats { phases, threads: rayon::current_num_threads() },
    }
}

/// One phase of [`louvain_inner`]: move iterations, renumbering, stats,
/// folding into the original-vertex mapping, and — unless a termination
/// condition fires — contraction into the next level. Returns the coarse
/// graph to continue on, or `None` to stop.
fn phase_step<G: Adjacency, P: MovePhase>(
    level: &G,
    ctx: &ModularityContext,
    cfg: &LouvainConfig,
    global: &mut [u32],
    phases: &mut Vec<PhaseStats>,
    last_q: &mut f64,
) -> Option<Csr> {
    let phase_start = Instant::now();
    let (communities, iterations) = P::run(level, ctx, cfg);
    let (renum, first_seen) = renumber(&communities.comm);
    let num_comms = first_seen.len();

    // The phase-end Q is read from the arrays too, gathered in new-id order:
    // the terms and summation order of a recomputation on `renum`.
    let Communities { internal, tot, .. } = &communities;
    let q = sum_q(first_seen.iter().map(|&c| (internal[c as usize], tot[c as usize])), ctx.total);
    phases.push(PhaseStats {
        duration: phase_start.elapsed(),
        vertices: level.num_vertices(),
        edges: level.num_edges(),
        iterations,
        modularity: q,
    });

    // Fold this level's communities into the original-vertex mapping.
    for g in global.iter_mut() {
        *g = renum[*g as usize];
    }

    let no_merge = num_comms == level.num_vertices();
    let small_gain = q - *last_q < cfg.phase_gain_threshold;
    *last_q = q;
    if no_merge || num_comms <= 1 || small_gain {
        return None;
    }
    // `renum` densely renumbers communities into 0..num_comms immediately
    // above, so the contraction cannot reject it; if it somehow did,
    // stopping at the current level is the graceful answer. Contraction
    // happens once per phase (the row scans happen `iterations × n` times),
    // so flattening a compressed level here costs one pass over its gap
    // stream and keeps the coarse levels flat.
    contract(&level.to_csr(), &renum, num_comms).ok().map(|c| c.coarse)
}

/// Folds a finished [`louvain`] run's instrumentation into the installed
/// recorder: per-phase wall times (span `louvain/phase`), sweep counters
/// (`louvain/phases`, `louvain/iterations`, `louvain/moves`,
/// `louvain/loads`, `louvain/communities`), and the per-iteration
/// modularity trajectory (series `louvain/modularity`).
///
/// [`louvain`] itself records nothing, because callers such as the Adaptive
/// scheme's decision run it only for a feature. A caller that reports a
/// run opens a `louvain` span around it and then calls this, from the
/// stats the engine collects anyway, so the result is bit-identical with
/// or without a recorder at any thread count.
pub fn record_louvain_stats(r: &CommunityResult) {
    use reorderlab_trace::{counter, series, span_add};
    let s = &r.stats;
    counter("louvain/phases", s.phases.len() as u64);
    counter("louvain/iterations", s.total_iterations() as u64);
    for phase in &s.phases {
        span_add("louvain/phase", phase.duration);
        for it in &phase.iterations {
            counter("louvain/moves", it.moves as u64);
            counter("louvain/loads", it.loads);
            series("louvain/modularity", it.modularity);
        }
    }
    counter("louvain/communities", r.num_communities as u64);
    series("louvain/final_modularity", r.modularity);
}

/// Sentinel in the proposal array: vertex proposes no move.
const NO_MOVE: u32 = u32::MAX;

/// One slot of the packed scatter array: stamp and weight share a 16-byte
/// entry so a community touch costs one cache line instead of the two that
/// split `stamp`/`weights` arrays cost.
#[derive(Debug, Clone, Copy)]
struct PackedSlot {
    /// `stamp == epoch` marks `weight` as live for the current vertex.
    stamp: u64,
    /// Accumulated edge weight from the current vertex into this community.
    weight: f64,
}

/// Per-worker scratch for the move scan: a weight accumulator indexed by
/// community id, reset lazily through an epoch stamp so processing a vertex
/// costs O(deg) regardless of the level size, plus the list of communities
/// the current vertex touches. Allocated once per phase and reused by every
/// iteration.
#[derive(Debug, Clone)]
struct PackedScratch {
    /// Interleaved (stamp, weight) slots, one per community.
    packed: Vec<PackedSlot>,
    /// Current vertex epoch; bumping it invalidates the whole scatter array.
    epoch: u64,
    /// Distinct neighbor communities of the current vertex, first-seen
    /// order. Preallocated: the scan stores the candidate community
    /// unconditionally and advances a cursor by `fresh as usize`, so the hot
    /// loop carries no push branch. Sized `n + 1` so the speculative store
    /// past the last fresh slot stays in bounds even when every community
    /// has been touched.
    touched: Vec<u32>,
    /// Decode buffer for levels that do not store flat rows.
    row: Vec<u32>,
}

impl PackedScratch {
    fn new(n: usize) -> Self {
        PackedScratch {
            packed: vec![PackedSlot { stamp: 0, weight: 0.0 }; n],
            epoch: 0,
            touched: vec![0; n + 1],
            row: Vec::new(),
        }
    }

    /// Proposes the best move for `v` against the iteration's snapshot of
    /// `comm`/`tot`, or [`NO_MOVE`]. The accumulate is branch-light: the
    /// stamp is written unconditionally and the running weight is a select
    /// (`fresh ? 0 : slot.weight`) plus the edge weight, so the hot loop
    /// carries no taken/not-taken stamp branch and touches one cache line
    /// per community. The row is walked as slices
    /// ([`Adjacency::row_into`]: borrowed in place on flat levels,
    /// decoded into the scratch on compressed ones) with the
    /// weighted/unweighted dispatch and the `loads` accounting hoisted out
    /// of the per-neighbor path. Weights accumulate in neighbor-scan order
    /// (`0.0 + w` on first touch, `+ 1.0` per unweighted arc) and candidates
    /// are scored by [`best_move`], the same sequence of float operations as
    /// the reference phases in this module's tests, so decisions — and
    /// therefore assignments, traces, and `loads` — are identical.
    #[expect(
        clippy::too_many_arguments,
        reason = "the move decision reads the level, the vertex and four phase arrays"
    )]
    fn propose<G: Adjacency>(
        &mut self,
        level: &G,
        v: u32,
        comm: &[u32],
        tot: &[f64],
        k: &[f64],
        m2: f64,
        loads: &mut u64,
    ) -> u32 {
        self.epoch += 1;
        let epoch = self.epoch;
        let cur = comm[v as usize];
        let (targets, weights) = level.row_into(v, &mut self.row);
        let packed = &mut self.packed[..];
        let touched = &mut self.touched[..];
        let mut t = 0usize;
        let mut selfs = 0u64;
        match weights {
            None => {
                for &u in targets {
                    if u == v {
                        selfs += 1;
                        continue;
                    }
                    let cu = comm[u as usize];
                    let slot = &mut packed[cu as usize];
                    let fresh = slot.stamp != epoch;
                    slot.weight = if fresh { 0.0 } else { slot.weight } + 1.0;
                    slot.stamp = epoch;
                    touched[t] = cu;
                    t += fresh as usize;
                }
            }
            Some(ws) => {
                for (&u, &w) in targets.iter().zip(ws) {
                    if u == v {
                        selfs += 1;
                        continue;
                    }
                    let cu = comm[u as usize];
                    let slot = &mut packed[cu as usize];
                    let fresh = slot.stamp != epoch;
                    slot.weight = if fresh { 0.0 } else { slot.weight } + w;
                    slot.stamp = epoch;
                    touched[t] = cu;
                    t += fresh as usize;
                }
            }
        }
        // The slot for `cur` accumulated `0.0 + w1 + w2 + …` over exactly the
        // neighbors in `cur`, in scan order, so reading it once here gives
        // the vertex's weight into its own community without a per-neighbor
        // `cu == cur` test.
        let cur_slot = &packed[cur as usize];
        let self_to_cur = if cur_slot.stamp == epoch { cur_slot.weight } else { 0.0 };
        // 2 per non-self neighbor (neighbor/community read + scatter-array
        // access) plus the final scan of touched communities.
        *loads += 2 * (targets.len() as u64 - selfs) + t as u64;
        best_move(
            &touched[..t],
            |c| packed[c as usize].weight,
            cur,
            k[v as usize],
            tot,
            m2,
            self_to_cur,
        )
    }
}

/// Scores every touched community and returns the best strictly-positive
/// move for the current vertex, or [`NO_MOVE`]. Shared by every scatter
/// scan (and mirrored by the hash-map reference in the tests) so the gain
/// arithmetic — and therefore the selected community — is identical.
///
/// Gain of moving v from `cur` to `c`:
///   ΔQ = 2(k_{v,c} − k_{v,cur'})/2m − 2 k_v (tot_c − tot_cur')/(2m)²
/// We compare the (monotone) score k_{v,c} − k_v·tot_c/2m.
fn best_move(
    touched: &[u32],
    weight_of: impl Fn(u32) -> f64,
    cur: u32,
    kv: f64,
    tot: &[f64],
    m2: f64,
    self_to_cur: f64,
) -> u32 {
    let tot_cur_less = tot[cur as usize] - kv;
    let base = self_to_cur - kv * tot_cur_less / m2;
    let mut best: Option<(f64, u32)> = None;
    for &c in touched {
        if c == cur {
            continue;
        }
        let score = weight_of(c) - kv * tot[c as usize] / m2;
        let gain = score - base;
        if gain > 1e-12 {
            let better = match best {
                None => true,
                Some((bg, bc)) => gain > bg + 1e-15 || (gain >= bg - 1e-15 && c < bc),
            };
            if better {
                best = Some((gain, c));
            }
        }
    }
    match best {
        Some((_, c)) => c,
        None => NO_MOVE,
    }
}

/// Blondel's bookkeeping for one level: the assignment and, per community
/// id, the two sums modularity is made of. [`apply_move`] keeps all three
/// current, so Q is a read of `internal`/`tot` at any point of a phase and
/// never an arc pass. On integer-valued weights (every unweighted input and
/// every coarse level of one) both sums are exact integers, so the read
/// equals a recomputation from `comm` bit for bit; on real weights it
/// differs by rounding only.
#[derive(Debug)]
struct Communities {
    /// `comm[v]`: community of vertex `v` (not renumbered).
    comm: Vec<u32>,
    /// `tot[c]`: Σ `k` over the members of `c`.
    tot: Vec<f64>,
    /// `internal[c]`: adjacency weight inside `c` (ordered pairs, self loops
    /// counted twice), the `in_c` of [`crate::modularity()`].
    internal: Vec<f64>,
}

impl Communities {
    /// Every vertex alone in the community of its own id.
    fn singletons(ctx: &ModularityContext) -> Self {
        Communities {
            comm: (0..ctx.k.len() as u32).collect(),
            tot: ctx.k.clone(),
            internal: ctx.self_weight.iter().map(|&w| 2.0 * w).collect(),
        }
    }

    /// Q of the current assignment, terms in community-id order (an emptied
    /// community contributes `+0.0`).
    fn q(&self, m2: f64) -> f64 {
        sum_q(self.internal.iter().copied().zip(self.tot.iter().copied()), m2)
    }
}

/// Revalidates one proposed move against the *current* state and applies it
/// if the gain is still positive. Proposals were computed against a
/// snapshot, so this guard keeps Q monotone non-decreasing — the same
/// label-swap protection parallel Louvain implementations employ. Returns
/// whether the move was applied.
fn apply_move<G: Adjacency>(
    level: &G,
    row: &mut Vec<u32>,
    ctx: &ModularityContext,
    communities: &mut Communities,
    v: u32,
    c: u32,
    loads: &mut u64,
) -> bool {
    let Communities { comm, tot, internal } = communities;
    let cur = comm[v as usize];
    if cur == c {
        return false;
    }
    let mut w_to_target = 0.0f64;
    let mut w_to_cur = 0.0f64;
    {
        let comm: &[u32] = comm;
        level.for_each_weighted(v, row, |u, w| {
            if u == v {
                return;
            }
            *loads += 1;
            let cu = comm[u as usize];
            if cu == c {
                w_to_target += w;
            } else if cu == cur {
                w_to_cur += w;
            }
        });
    }
    let kv = ctx.k[v as usize];
    let m2 = ctx.total;
    let gain =
        (w_to_target - kv * tot[c as usize] / m2) - (w_to_cur - kv * (tot[cur as usize] - kv) / m2);
    if gain <= 1e-12 {
        return false;
    }
    tot[cur as usize] -= kv;
    tot[c as usize] += kv;
    // `v` takes its arcs into `cur` out of `in_cur` and brings its arcs into
    // `c` to `in_c`, each counted from both endpoints; its self loop moves
    // with it.
    let self_loop = 2.0 * ctx.self_weight[v as usize];
    internal[cur as usize] -= 2.0 * w_to_cur + self_loop;
    internal[c as usize] += 2.0 * w_to_target + self_loop;
    comm[v as usize] = c;
    true
}

/// The scatter-array move phase (Grappolo-style): no hashing and no
/// per-vertex or per-iteration allocation on the hot path. `new_scratch`
/// builds one worker's scratch for a level of `n` vertices and `propose`
/// scores one vertex with it; production passes [`PackedScratch`]'s.
fn scatter_phase<G: Adjacency, S: Send>(
    level: &G,
    ctx: &ModularityContext,
    cfg: &LouvainConfig,
    new_scratch: impl Fn(usize) -> S,
    propose: impl Fn(&mut S, &G, u32, &[u32], &[f64], &[f64], f64, &mut u64) -> u32 + Sync,
) -> (Communities, Vec<IterationStats>) {
    let n = level.num_vertices();
    let m2 = ctx.total; // 2m
    let mut communities = Communities::singletons(ctx);
    let mut iterations: Vec<IterationStats> = Vec::new();
    if n == 0 || m2 == 0.0 {
        return (communities, iterations);
    }
    let mut prev_q = communities.q(m2);

    // One contiguous vertex span of near-equal arcs per worker. The spans,
    // the scratch and the proposal array are fixed here and reused by every
    // iteration; within a worker the epoch stamp makes per-vertex resets
    // O(touched).
    let spans = rayon::arc_spans(level.offsets());
    let mut scratches: Vec<S> = spans.iter().map(|_| new_scratch(n)).collect();
    let mut proposals: Vec<u32> = vec![NO_MOVE; n];
    let mut apply_row: Vec<u32> = Vec::new();

    for _iter in 0..cfg.max_iterations {
        let iter_start = Instant::now();
        // Parallel scan: each worker proposes moves for its span against the
        // iteration's snapshot of `comm`/`tot`, writing into its disjoint
        // slice of the shared proposal array.
        let comm_snap: &[u32] = &communities.comm;
        let tot_snap: &[f64] = &communities.tot;
        let per_worker: Vec<(u64, Duration)> = scratches
            .iter_mut()
            .zip(&spans)
            .zip(rayon::span_slices(&mut proposals, &spans))
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|((scratch, span), slice)| {
                let t0 = Instant::now();
                let mut loads = 0u64;
                for (v, slot) in span.clone().zip(slice) {
                    let v = v as u32;
                    *slot = propose(scratch, level, v, comm_snap, tot_snap, &ctx.k, m2, &mut loads);
                }
                (loads, t0.elapsed())
            })
            .collect();

        let mut loads = 0u64;
        let mut busy = Duration::ZERO;
        for (l, b) in per_worker {
            loads += l;
            busy += b;
        }

        // Sequential, deterministic application in global vertex order.
        let mut num_moves = 0usize;
        for v in 0..n as u32 {
            let c = proposals[v as usize];
            if c == NO_MOVE {
                continue;
            }
            if apply_move(level, &mut apply_row, ctx, &mut communities, v, c, &mut loads) {
                num_moves += 1;
            }
        }

        // Q after the moves: read from the arrays they maintained.
        let q = communities.q(m2);
        iterations.push(IterationStats {
            duration: iter_start.elapsed(),
            moves: num_moves,
            modularity: q,
            loads,
            busy,
        });
        #[cfg(test)]
        tests::assert_arrays_match_recount(level, ctx, &communities);
        let gained = q - prev_q;
        prev_q = q;
        if num_moves == 0 || gained < cfg.iteration_gain_threshold {
            break;
        }
    }
    (communities, iterations)
}

/// Renumbers an arbitrary community labeling to contiguous ids in order of
/// first appearance. Returns the relabeled assignment and, per new id, the
/// old id it stands for (so its length is the community count).
fn renumber(comm: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let cap = comm.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut map: Vec<u32> = vec![u32::MAX; cap];
    let mut first_seen: Vec<u32> = Vec::new();
    let mut out = Vec::with_capacity(comm.len());
    for &c in comm {
        if map[c as usize] == u32::MAX {
            map[c as usize] = first_seen.len() as u32;
            first_seen.push(c);
        }
        out.push(map[c as usize]);
    }
    (out, first_seen)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "`HashMapChunks` is the hash-map move phase the scatter kernel is held equal to"
)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use reorderlab_datasets::{clique_chain, complete, grid2d, path};
    use reorderlab_graph::{build_pool, GraphBuilder, SelfLoopPolicy};
    use std::collections::HashMap;

    #[test]
    fn recovers_planted_cliques() {
        let g = clique_chain(5, 6);
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.num_communities, 5, "should recover the 5 cliques");
        // Every clique is one community.
        for c in 0..5u32 {
            let base = (c * 6) as usize;
            for i in 1..6 {
                assert_eq!(r.assignment[base], r.assignment[base + i]);
            }
        }
        assert!(r.modularity > 0.6);
    }

    #[test]
    fn modularity_matches_recomputation() {
        let g = clique_chain(3, 5);
        let r = louvain(&g, &LouvainConfig::default());
        let q = modularity(&g, &r.assignment);
        assert!((q - r.modularity).abs() < 1e-12);
    }

    #[test]
    fn iterations_monotone_nondecreasing_modularity() {
        let g = grid2d(12, 12);
        let r = louvain(&g, &LouvainConfig::default());
        let phase = r.stats.first_phase().expect("at least one phase");
        for pair in phase.iterations.windows(2) {
            assert!(
                pair[1].modularity >= pair[0].modularity - 1e-9,
                "iteration modularity regressed: {} -> {}",
                pair[0].modularity,
                pair[1].modularity
            );
        }
    }

    #[test]
    fn complete_graph_single_community() {
        let g = complete(8);
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.num_communities, 1);
        assert!(r.modularity.abs() < 1e-9);
    }

    #[test]
    fn path_groups_contiguous_segments() {
        let g = path(20);
        let r = louvain(&g, &LouvainConfig::default());
        assert!(r.num_communities > 1 && r.num_communities < 20);
        assert!(r.modularity > 0.4);
        // Communities on a path must be contiguous runs.
        for w in r.assignment.windows(2) {
            // allow change points only; membership sets must be intervals
            let _ = w;
        }
        let mut seen_after_left: std::collections::BTreeSet<u32> =
            std::collections::BTreeSet::new();
        let mut prev = r.assignment[0];
        for &c in &r.assignment[1..] {
            if c != prev {
                assert!(!seen_after_left.contains(&c), "community {c} is not contiguous");
                seen_after_left.insert(prev);
                prev = c;
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        let r0 = louvain(&g0, &LouvainConfig::default());
        assert_eq!(r0.num_communities, 0);

        let g1 = GraphBuilder::undirected(1).build().unwrap();
        let r1 = louvain(&g1, &LouvainConfig::default());
        assert_eq!(r1.num_communities, 1);
        assert_eq!(r1.modularity, 0.0);

        let g2 = GraphBuilder::undirected(4).build().unwrap(); // no edges
        let r2 = louvain(&g2, &LouvainConfig::default());
        assert_eq!(r2.num_communities, 4);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Moves are proposed against a snapshot and applied in vertex order,
        // so the result must not depend on the worker count.
        let g = clique_chain(6, 5);
        let cfg = LouvainConfig::default();
        let a = build_pool(1).install(|| louvain(&g, &cfg));
        let b = build_pool(4).install(|| louvain(&g, &cfg));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.modularity, b.modularity);
    }

    #[test]
    fn stats_are_populated() {
        let g = grid2d(10, 10);
        let r = louvain(&g, &LouvainConfig::default());
        let s = &r.stats;
        assert!(!s.phases.is_empty());
        assert!(s.total_iterations() >= 1);
        let p = s.first_phase().unwrap();
        assert_eq!(p.vertices, 100);
        assert!(p.loads_per_edge() > 0.0);
        assert!(p.time_per_iteration() > Duration::ZERO);
        let wp = p.work_percent(1);
        assert!(wp > 0.0 && wp <= 1.0, "work% {wp}");
    }

    #[test]
    fn stats_aggregation_helpers() {
        let g = grid2d(8, 8);
        let r = louvain(&g, &LouvainConfig::default());
        let s = &r.stats;
        assert_eq!(
            s.total_iterations(),
            s.phases.iter().map(|p| p.iterations.len()).sum::<usize>()
        );
        // Empty phase stats degenerate gracefully.
        let empty = PhaseStats {
            duration: Duration::ZERO,
            vertices: 0,
            edges: 0,
            iterations: Vec::new(),
            modularity: 0.0,
        };
        assert_eq!(empty.time_per_iteration(), Duration::ZERO);
        assert_eq!(empty.loads_per_edge(), 0.0);
        assert_eq!(empty.work_percent(4), 0.0);
    }

    #[test]
    fn weighted_graph_respects_weights() {
        // Two pairs joined by a weak edge: heavy pairs must stay together.
        let g = GraphBuilder::undirected(4)
            .weighted_edge(0, 1, 10.0)
            .weighted_edge(2, 3, 10.0)
            .weighted_edge(1, 2, 0.1)
            .build()
            .unwrap();
        let r = louvain(&g, &LouvainConfig::default());
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[2], r.assignment[3]);
        assert_ne!(r.assignment[0], r.assignment[2]);
    }

    #[test]
    fn renumber_contiguous() {
        let (out, first_seen) = renumber(&[5, 5, 2, 7, 2]);
        assert_eq!(out, vec![0, 0, 1, 2, 1]);
        assert_eq!(first_seen, vec![5, 2, 7]);
    }

    /// `tot`/`internal` counted from scratch for `comm`, by the arc pass of
    /// [`modularity_with`] indexed by raw community id, and whether every
    /// weight it saw is integer-valued (so both sums are exact).
    fn recount<G: Adjacency>(
        level: &G,
        ctx: &ModularityContext,
        comm: &[u32],
    ) -> (Communities, bool) {
        let n = level.num_vertices();
        let mut tot = vec![0.0f64; n];
        let mut internal = vec![0.0f64; n];
        let mut integral = true;
        let mut row: Vec<u32> = Vec::new();
        for v in 0..n as u32 {
            let cv = comm[v as usize] as usize;
            tot[cv] += ctx.k[v as usize];
            level.for_each_weighted(v, &mut row, |u, w| {
                integral &= w.fract() == 0.0;
                if u == v {
                    internal[cv] += 2.0 * w;
                } else if comm[u as usize] as usize == cv {
                    internal[cv] += w;
                }
            });
        }
        (Communities { comm: comm.to_vec(), tot, internal }, integral)
    }

    /// The hook [`scatter_phase`] calls after every iteration in the test
    /// build: the live arrays equal a from-scratch recount, bit for bit on
    /// integer-valued weights and within 1e-12 otherwise.
    pub(super) fn assert_arrays_match_recount<G: Adjacency>(
        level: &G,
        ctx: &ModularityContext,
        live: &Communities,
    ) {
        let (fresh, integral) = recount(level, ctx, &live.comm);
        let pairs = [("tot", &live.tot, &fresh.tot), ("internal", &live.internal, &fresh.internal)];
        for (name, live, fresh) in pairs {
            for (c, (&a, &b)) in live.iter().zip(fresh).enumerate() {
                if integral {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name}[{c}]: live {a} vs recount {b}");
                } else {
                    assert!((a - b).abs() <= 1e-12, "{name}[{c}]: live {a} vs recount {b}");
                }
            }
        }
    }

    /// Reference scratch: Grappolo's flat scatter arrays, split `stamp` and
    /// `weights` indexed by community id with a pushed `touched` list. The
    /// production scan must reproduce its float-operation sequence exactly.
    struct FlatScratch {
        /// `weights[c]`: accumulated edge weight from the current vertex into
        /// community `c`; only meaningful where `stamp[c] == epoch`.
        weights: Vec<f64>,
        stamp: Vec<u64>,
        epoch: u64,
        touched: Vec<u32>,
        row: Vec<u32>,
    }

    impl FlatScratch {
        fn new(n: usize) -> Self {
            FlatScratch {
                weights: vec![0.0; n],
                stamp: vec![0; n],
                epoch: 0,
                touched: Vec::new(),
                row: Vec::new(),
            }
        }

        #[expect(
            clippy::too_many_arguments,
            reason = "the reference phase keeps the production signature"
        )]
        fn propose<G: Adjacency>(
            &mut self,
            level: &G,
            v: u32,
            comm: &[u32],
            tot: &[f64],
            k: &[f64],
            m2: f64,
            loads: &mut u64,
        ) -> u32 {
            self.epoch += 1;
            let epoch = self.epoch;
            self.touched.clear();
            let cur = comm[v as usize];
            let mut self_to_cur = 0.0f64;
            let weights = &mut self.weights;
            let stamp = &mut self.stamp;
            let touched = &mut self.touched;
            level.for_each_weighted(v, &mut self.row, |u, w| {
                if u == v {
                    return;
                }
                let cu = comm[u as usize];
                *loads += 2; // neighbor/community read + scatter-array access
                let ci = cu as usize;
                if stamp[ci] == epoch {
                    weights[ci] += w;
                } else {
                    stamp[ci] = epoch;
                    weights[ci] = w;
                    touched.push(cu);
                }
                if cu == cur {
                    self_to_cur += w;
                }
            });
            *loads += self.touched.len() as u64; // final scan of touched communities
            best_move(
                &self.touched,
                |c| self.weights[c as usize],
                cur,
                k[v as usize],
                tot,
                m2,
                self_to_cur,
            )
        }
    }

    /// Reference phase: the flat scatter scan in the production phase loop.
    struct FlatScatter;

    impl MovePhase for FlatScatter {
        fn run<G: Adjacency>(
            level: &G,
            ctx: &ModularityContext,
            cfg: &LouvainConfig,
        ) -> (Communities, Vec<IterationStats>) {
            scatter_phase(level, ctx, cfg, FlatScratch::new, FlatScratch::propose)
        }
    }

    /// Reference phase: the original per-chunk `HashMap` move phase, which
    /// recomputes Q from the assignment after every iteration and recounts
    /// the arrays it returns, so a bit-for-bit match with the production
    /// phase proves the live arrays.
    struct HashMapChunks;

    impl MovePhase for HashMapChunks {
        fn run<G: Adjacency>(
            level: &G,
            ctx: &ModularityContext,
            cfg: &LouvainConfig,
        ) -> (Communities, Vec<IterationStats>) {
            one_phase_hashmap(level, ctx, cfg)
        }
    }

    /// Vertices per parallel work chunk of [`one_phase_hashmap`].
    const HASHMAP_CHUNK: usize = 2048;

    /// One chunk's proposed `(vertex, community)` moves plus its load counter
    /// and scan time.
    type ChunkProposals = (Vec<(u32, u32)>, u64, Duration);

    fn one_phase_hashmap<G: Adjacency>(
        level: &G,
        ctx: &ModularityContext,
        cfg: &LouvainConfig,
    ) -> (Communities, Vec<IterationStats>) {
        let n = level.num_vertices();
        let m2 = ctx.total; // 2m
        let mut communities = Communities::singletons(ctx);
        let mut iterations: Vec<IterationStats> = Vec::new();
        if n == 0 || m2 == 0.0 {
            return (communities, iterations);
        }
        let mut prev_q = modularity_with(level, ctx, &communities.comm);
        let mut apply_row: Vec<u32> = Vec::new();

        for _iter in 0..cfg.max_iterations {
            let iter_start = Instant::now();
            // Parallel scan: each chunk proposes moves against the iteration's
            // snapshot of `comm`/`tot`. This is the hot routine the paper
            // profiles: for every vertex, visit all neighbors and accumulate
            // per-community weights in a map.
            let comm: &[u32] = &communities.comm;
            let tot: &[f64] = &communities.tot;
            let results: Vec<ChunkProposals> = (0..n)
                .into_par_iter()
                .chunks(HASHMAP_CHUNK)
                .map(|vertices| {
                    let t0 = Instant::now();
                    let mut loads = 0u64;
                    let mut moves: Vec<(u32, u32)> = Vec::new();
                    let mut weights: HashMap<u32, f64> = HashMap::new();
                    let mut row: Vec<u32> = Vec::new();
                    for v in vertices {
                        let v = v as u32;
                        let cur = comm[v as usize];
                        weights.clear();
                        let mut self_to_cur = 0.0f64;
                        level.for_each_weighted(v, &mut row, |u, w| {
                            if u == v {
                                return;
                            }
                            let cu = comm[u as usize];
                            loads += 2; // neighbor/community read + map access
                            let entry = weights.entry(cu).or_insert(0.0);
                            *entry += w;
                            if cu == cur {
                                self_to_cur += w;
                            }
                        });
                        loads += weights.len() as u64; // final scan of the map
                        let kv = ctx.k[v as usize];
                        let tot_cur_less = tot[cur as usize] - kv;
                        // Gain of moving v from `cur` to `c`:
                        //   ΔQ = 2(k_{v,c} − k_{v,cur'})/2m − 2 k_v (tot_c − tot_cur')/(2m)²
                        // We compare the (monotone) score k_{v,c} − k_v·tot_c/2m.
                        let base = self_to_cur - kv * tot_cur_less / m2;
                        let mut best: Option<(f64, u32)> = None;
                        // Map order never escapes: max gain with an id tie-break.
                        for (&c, &w_vc) in weights.iter() {
                            if c == cur {
                                continue;
                            }
                            let score = w_vc - kv * tot[c as usize] / m2;
                            let gain = score - base;
                            if gain > 1e-12 {
                                let better = match best {
                                    None => true,
                                    Some((bg, bc)) => {
                                        gain > bg + 1e-15 || (gain >= bg - 1e-15 && c < bc)
                                    }
                                };
                                if better {
                                    best = Some((gain, c));
                                }
                            }
                        }
                        if let Some((_, c)) = best {
                            moves.push((v, c));
                        }
                    }
                    (moves, loads, t0.elapsed())
                })
                .collect();

            // Sequential, deterministic application in global vertex order (the
            // chunks partition 0..n in order); see [`apply_move`] for the
            // revalidation guard.
            let mut num_moves = 0usize;
            let mut loads = 0u64;
            let mut busy = Duration::ZERO;
            for (moves, l, b) in results {
                loads += l;
                busy += b;
                for (v, c) in moves {
                    if apply_move(level, &mut apply_row, ctx, &mut communities, v, c, &mut loads) {
                        num_moves += 1;
                    }
                }
            }

            let q = modularity_with(level, ctx, &communities.comm);
            iterations.push(IterationStats {
                duration: iter_start.elapsed(),
                moves: num_moves,
                modularity: q,
                loads,
                busy,
            });
            let gained = q - prev_q;
            prev_q = q;
            if num_moves == 0 || gained < cfg.iteration_gain_threshold {
                break;
            }
        }
        (recount(level, ctx, &communities.comm).0, iterations)
    }

    /// Asserts two runs are bit-identical: assignment, final modularity,
    /// per-phase level sizes and iteration counts, per-iteration modularity
    /// trace, move counts, and `loads` accounting.
    fn assert_same_run(r: &CommunityResult, reference: &CommunityResult, tag: &str) {
        assert_eq!(r.assignment, reference.assignment, "{tag}");
        assert_eq!(r.num_communities, reference.num_communities, "{tag}");
        assert_eq!(r.modularity.to_bits(), reference.modularity.to_bits(), "{tag}");
        assert_eq!(r.stats.phases.len(), reference.stats.phases.len(), "{tag}");
        for (p, pr) in r.stats.phases.iter().zip(&reference.stats.phases) {
            assert_eq!(p.vertices, pr.vertices, "{tag}");
            assert_eq!(p.edges, pr.edges, "{tag}");
            assert_eq!(p.iterations.len(), pr.iterations.len(), "{tag}");
            assert_eq!(p.modularity.to_bits(), pr.modularity.to_bits(), "{tag}");
            for (i, ir) in p.iterations.iter().zip(&pr.iterations) {
                assert_eq!(i.moves, ir.moves, "{tag}");
                assert_eq!(i.modularity.to_bits(), ir.modularity.to_bits(), "{tag}");
                assert_eq!(i.loads, ir.loads, "{tag}: work-per-edge accounting must match");
            }
        }
    }

    /// Asserts the production scan and the flat scatter reference both
    /// reproduce the hash-map reference on `g`.
    fn assert_kernels_equivalent(g: &Csr, threads: usize) {
        let cfg = LouvainConfig::default();
        build_pool(threads).install(|| {
            let hash = louvain_inner::<_, HashMapChunks>(g, &cfg);
            assert_same_run(&louvain_inner::<_, FlatScatter>(g, &cfg), &hash, "flat");
            assert_same_run(&louvain(g, &cfg), &hash, "packed");
        });
    }

    #[test]
    fn flat_kernel_matches_reference_on_structured_graphs() {
        for g in [clique_chain(5, 6), grid2d(12, 12), path(30), complete(8)] {
            assert_kernels_equivalent(&g, 1);
            assert_kernels_equivalent(&g, 4);
        }
    }

    fn weighted_ring() -> Csr {
        GraphBuilder::undirected(6)
            .weighted_edge(0, 1, 10.0)
            .weighted_edge(1, 2, 0.5)
            .weighted_edge(2, 3, 10.0)
            .weighted_edge(3, 4, 0.5)
            .weighted_edge(4, 5, 10.0)
            .weighted_edge(5, 0, 0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn flat_kernel_matches_reference_on_weighted_graph() {
        let g = weighted_ring();
        assert_kernels_equivalent(&g, 1);
        assert_kernels_equivalent(&g, 2);
    }

    /// `G(400, 3000)` with real, non-dyadic weights derived from the
    /// endpoints; with `self_loops`, every third vertex also carries one
    /// (the `self_weight` term only a coarse level exercises otherwise).
    fn real_weighted(self_loops: bool) -> Csr {
        let topology = reorderlab_datasets::erdos_renyi_gnm(400, 3000, 7);
        let weight = |u: u32, v: u32| 0.1 + f64::from((u * 31 + v * 17) % 97) / 37.0;
        let mut b = GraphBuilder::undirected(400).self_loops(SelfLoopPolicy::Keep);
        for u in 0..400u32 {
            for &v in topology.neighbors(u).iter().filter(|&&v| v > u) {
                b = b.weighted_edge(u, v, weight(u, v));
            }
            if self_loops && u % 3 == 0 {
                b = b.weighted_edge(u, u, weight(u, u));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn array_q_tracks_recomputation_on_real_weights() {
        // Real weights round, so the arrays may differ from a recount in the
        // last bits and the thresholds (1e-4 and up) must not notice: the
        // decisions equal the recomputing reference exactly, every Q agrees
        // within 1e-12, and `scatter_phase`'s test hook held the arrays to
        // their recount after every iteration on the way.
        for self_loops in [false, true] {
            let g = real_weighted(self_loops);
            assert!(g.is_weighted());
            let cfg = LouvainConfig::default();
            for threads in [1usize, 2, 7] {
                let (r, reference) = build_pool(threads)
                    .install(|| (louvain(&g, &cfg), louvain_inner::<_, HashMapChunks>(&g, &cfg)));
                assert_eq!(r.assignment, reference.assignment);
                assert!(r.stats.phases.len() > 1, "the run must reach a coarse level");
                assert_eq!(r.stats.phases.len(), reference.stats.phases.len());
                for (p, pr) in r.stats.phases.iter().zip(&reference.stats.phases) {
                    assert_eq!(p.iterations.len(), pr.iterations.len());
                    assert!((p.modularity - pr.modularity).abs() <= 1e-12);
                    for (i, ir) in p.iterations.iter().zip(&pr.iterations) {
                        assert_eq!(i.moves, ir.moves);
                        assert_eq!(i.loads, ir.loads);
                        assert!((i.modularity - ir.modularity).abs() <= 1e-12);
                    }
                }
                assert!((r.modularity - modularity(&g, &r.assignment)).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn flat_kernel_matches_reference_on_suite_fixtures() {
        for name in ["euroroad", "rovira", "figeys"] {
            let spec = reorderlab_datasets::by_name(name).expect("suite instance exists");
            let g = spec.generate();
            assert_kernels_equivalent(&g, 2);
        }
    }

    #[test]
    fn all_kernels_bit_identical_at_acceptance_thread_counts() {
        // The acceptance criterion: the production scan is proven
        // bit-identical to its retained references at 1, 2, and 7 threads.
        let spec = reorderlab_datasets::by_name("rovira").expect("suite instance exists");
        for g in [clique_chain(5, 6), grid2d(12, 12), spec.generate()] {
            for threads in [1usize, 2, 7] {
                assert_kernels_equivalent(&g, threads);
            }
        }
    }

    /// Asserts phase `P` on the compressed form of `g` is bit-identical to
    /// the same phase on the flat form.
    fn assert_phase_compressed_matches_flat<P: MovePhase>(g: &Csr, threads: usize, tag: &str) {
        let cz = CompressedCsr::from_csr(g).expect("builder rows are sorted");
        let cfg = LouvainConfig::default();
        build_pool(threads).install(|| {
            let flat = louvain_inner::<_, P>(g, &cfg);
            assert_same_run(&louvain_inner::<_, P>(&cz, &cfg), &flat, tag);
        });
    }

    /// [`assert_phase_compressed_matches_flat`] for the production scan
    /// (through the public entry points' phase) and both references.
    fn assert_compressed_matches_flat(g: &Csr, threads: usize) {
        assert_phase_compressed_matches_flat::<PackedScan>(g, threads, "packed");
        assert_phase_compressed_matches_flat::<FlatScatter>(g, threads, "flat");
        assert_phase_compressed_matches_flat::<HashMapChunks>(g, threads, "hashmap");
    }

    #[test]
    fn compressed_louvain_bit_identical_at_acceptance_thread_counts() {
        // The acceptance criterion: Louvain on the compressed form is
        // proven bit-identical to the flat oracle at 1, 2, and 7 threads.
        let spec = reorderlab_datasets::by_name("rovira").expect("suite instance exists");
        for g in [clique_chain(5, 6), grid2d(12, 12), spec.generate()] {
            for threads in [1usize, 2, 7] {
                assert_compressed_matches_flat(&g, threads);
            }
        }
    }

    #[test]
    fn compressed_louvain_matches_flat_on_weighted_graph() {
        let g = weighted_ring();
        assert_compressed_matches_flat(&g, 1);
        assert_compressed_matches_flat(&g, 2);
    }

    #[test]
    fn production_scan_on_weighted_compressed_rows_matches_flat_reference() {
        // Weighted rows reach the production scan through `row_into`'s
        // decode-into-scratch path only on a compressed level. A star hub
        // over a ring gives long and short rows with distinct weights; the
        // run must equal the flat scatter reference on the decoded graph.
        let mut b = GraphBuilder::undirected(40);
        for v in 1..40u32 {
            b = b.weighted_edge(0, v, 1.0 + f64::from(v) * 0.25);
        }
        for v in 1..39u32 {
            b = b.weighted_edge(v, v + 1, 2.0);
        }
        let cz = CompressedCsr::from_csr(&b.build().unwrap()).unwrap();
        let decoded = cz.decode();
        assert!(decoded.is_weighted());
        let cfg = LouvainConfig::default();
        for threads in [1usize, 2, 7] {
            build_pool(threads).install(|| {
                let reference = louvain_inner::<_, FlatScatter>(&decoded, &cfg);
                assert_same_run(&louvain_compressed(&cz, &cfg), &reference, "weighted csrz");
            });
        }
    }

    #[test]
    fn flat_kernel_deterministic_across_thread_counts() {
        let g = grid2d(16, 16);
        let runs: Vec<CommunityResult> = [1usize, 2, 8]
            .iter()
            .map(|&t| build_pool(t).install(|| louvain(&g, &LouvainConfig::default())))
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.assignment, runs[0].assignment);
            assert_eq!(r.modularity.to_bits(), runs[0].modularity.to_bits());
            assert_eq!(r.stats.total_iterations(), runs[0].stats.total_iterations());
        }
    }

    #[test]
    fn recorded_run_is_bit_identical_and_emits_trajectory() {
        use reorderlab_trace::{recording, span, RunRecorder};
        let g = grid2d(10, 10);
        let plain = louvain(&g, &LouvainConfig::default());
        let (recorded, rec) = recording(RunRecorder::new(), || {
            let r = {
                let _louvain = span("louvain");
                louvain(&g, &LouvainConfig::default())
            };
            record_louvain_stats(&r);
            r
        });
        assert_eq!(plain.assignment, recorded.assignment);
        assert_eq!(plain.modularity.to_bits(), recorded.modularity.to_bits());
        assert_eq!(plain.stats.total_iterations(), recorded.stats.total_iterations());
        // The recorder holds the full modularity trajectory plus counters.
        let q = &rec.series_map()["louvain/modularity"];
        assert_eq!(q.len(), plain.stats.total_iterations());
        let expected: Vec<f64> = plain
            .stats
            .phases
            .iter()
            .flat_map(|p| p.iterations.iter().map(|i| i.modularity))
            .collect();
        assert_eq!(q, &expected);
        assert_eq!(rec.counters()["louvain/phases"], plain.stats.phases.len() as u64);
        assert_eq!(rec.counters()["louvain/communities"], plain.num_communities as u64);
        // `louvain/phase` is folded in after the `louvain` span closed.
        assert_eq!(rec.spans()["louvain/phase"].count, plain.stats.phases.len() as u64);
        assert_eq!(rec.spans()["louvain"].count, 1);
        // `louvain` alone records nothing.
        let (_, silent) = recording(RunRecorder::new(), || louvain(&g, &LouvainConfig::default()));
        assert!(silent.spans().is_empty() && silent.counters().is_empty());
    }

    #[test]
    fn assignment_is_contiguously_renumbered() {
        let g = clique_chain(4, 4);
        let r = louvain(&g, &LouvainConfig::default());
        let max = *r.assignment.iter().max().unwrap() as usize;
        assert_eq!(max + 1, r.num_communities);
        // Every id in [0, num_communities) appears.
        let mut seen = vec![false; r.num_communities];
        for &c in &r.assignment {
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
