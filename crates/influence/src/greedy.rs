//! Greedy maximum coverage over RR sets — IMM's seed-selection step
//! ("NodeSelection" in Tang et al. \[36\]).
//!
//! Selecting the `k` vertices covering the most RR sets yields the
//! `(1 − 1/e)`-approximate most influential seed set for the sampled
//! realizations.

use crate::rrset::RrSets;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The outcome of greedy coverage: chosen seeds and how many RR sets they
/// jointly cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Selected seed vertices, in pick order.
    pub seeds: Vec<u32>,
    /// Number of RR sets covered by the seed set.
    pub covered: usize,
}

/// The first window holds this many candidates per seed.
const WINDOW_PER_SEED: usize = 4;
/// A window that proves too small is rerun this many times larger.
const WINDOW_GROWTH: usize = 4;

/// CELF (lazy greedy) maximum coverage: selects up to `k` vertices
/// maximizing RR-set coverage, exploiting submodularity to skip most gain
/// recomputations. This is the optimization production IMM implementations
/// (Ripples included) apply to the NodeSelection step.
///
/// Ties are broken toward the smaller vertex id for determinism. Vertices
/// covering zero additional sets are never selected (the seed list may be
/// shorter than `k` when coverage saturates). The output is that of plain
/// greedy, which this module's tests keep as the oracle: same seeds, same
/// order, same tie-breaks.
///
/// This counts how many sets hold each vertex and runs the body IMM runs
/// on the counts it keeps as the sets grow. That body indexes only a window
/// of candidates, the vertices CELF pops first, and grows the window when
/// a vertex outside it could be the next pop (see `celf_from_counts`).
///
/// # Panics
///
/// Panics if any RR set mentions a vertex `>= n`.
pub fn celf_max_coverage(rr_sets: &RrSets, n: usize, k: usize) -> Coverage {
    let mut hits = vec![0u32; n];
    for &v in rr_sets.chunks().iter().flat_map(|c| c.members.iter()) {
        hits[v as usize] += 1;
    }
    celf_from_counts(rr_sets, &hits, k)
}

/// [`celf_max_coverage`] given `hits[v]`, the number of sets holding `v`,
/// for every vertex of the graph.
///
/// CELF's heap starts with every vertex keyed by (count, lower id first),
/// and a vertex is only ever pushed back after it was popped. So until a
/// vertex is popped its entry is its first key, and every vertex CELF pops
/// lies in a prefix of the first-key order. The body indexes such a prefix,
/// the window: the first `WINDOW_PER_SEED · k` candidates by first key, a
/// selection rather than a sort, with their sets gathered in one pass over
/// the chunks' members. The best first key outside the window bounds every entry
/// the window lacks; while the window's top beats it, the window pops what
/// the full heap pops. When it does not, the window grows by
/// `WINDOW_GROWTH` and the loop reruns. The last window is every vertex
/// with a nonzero count, which is the full CELF.
pub(crate) fn celf_from_counts(rr_sets: &RrSets, hits: &[u32], k: usize) -> Coverage {
    let first_key = |&v: &u32| (Reverse(hits[v as usize]), v);
    let mut candidates: Vec<u32> =
        (0..hits.len() as u32).filter(|&v| hits[v as usize] > 0).collect();
    // `candidates[..ranked]` is a prefix of the first-key order.
    let mut ranked = 0;
    let mut width = WINDOW_PER_SEED.saturating_mul(k);
    loop {
        let w = width.min(candidates.len());
        if w < candidates.len() {
            candidates[ranked..].select_nth_unstable_by_key(w - ranked, first_key);
        }
        ranked = w;
        if let Some(cov) = celf_in_window(rr_sets, hits, &candidates, w, k) {
            return cov;
        }
        width *= WINDOW_GROWTH;
    }
}

/// CELF over the window `candidates[..w]`, or `None` once the full CELF
/// could pop a vertex outside it. `candidates[w]`, if any, is the best
/// first key outside the window.
fn celf_in_window(
    rr_sets: &RrSets,
    hits: &[u32],
    candidates: &[u32],
    w: usize,
    k: usize,
) -> Option<Coverage> {
    const OUTSIDE: u32 = u32::MAX;
    let window = &candidates[..w];
    let bound = candidates.get(w).map(|&b| (hits[b as usize] as usize, Reverse(b)));

    // `sets_of[start[j]..start[j + 1]]`: the sets containing `window[j]`,
    // filled in member order, so in ascending set index.
    let mut slot = vec![OUTSIDE; hits.len()];
    let mut start = Vec::with_capacity(w + 1);
    start.push(0usize);
    for (j, &v) in window.iter().enumerate() {
        slot[v as usize] = j as u32;
        start.push(start[j] + hits[v as usize] as usize);
    }
    let mut sets_of = vec![0u32; start[w]];
    let mut cursor = start[..w].to_vec();
    // One flat pass over each chunk's members. The set holding a hit is
    // found by moving a cursor forward through the chunk's `ends`, so the
    // pass has no per-set loop exit to mispredict: most sets hold no window vertex.
    let mut base = 0usize;
    for chunk in rr_sets.chunks() {
        let ends = &chunk.ends;
        let mut set = 0usize;
        for (pos, &v) in chunk.members.iter().enumerate() {
            let j = slot[v as usize];
            if j != OUTSIDE {
                while ends[set] as usize <= pos {
                    set += 1;
                }
                sets_of[cursor[j as usize]] = (base + set) as u32;
                cursor[j as usize] += 1;
            }
        }
        base += ends.len();
    }
    let containing = |v: u32| {
        let j = slot[v as usize] as usize;
        &sets_of[start[j]..start[j + 1]]
    };

    let mut set_covered = vec![false; rr_sets.len()];
    // Heap of (gain, lower-id-first, freshness round).
    let mut heap: BinaryHeap<(usize, Reverse<u32>, usize)> =
        window.iter().map(|&v| (hits[v as usize] as usize, Reverse(v), 0usize)).collect();
    let mut seeds = Vec::with_capacity(k);
    let mut covered = 0usize;
    let mut round = 0usize;

    while seeds.len() < k {
        let top = heap.pop();
        // The full heap also holds every vertex outside the window at its
        // first key, the best of which is `bound`: this pop is the full
        // CELF's only if it beats that. An exhausted heap never does, and
        // with no bound (`None` sorts below every `Some`) nothing is outside.
        if top.map(|(gain, v, _)| (gain, v)) < bound {
            return None;
        }
        let Some((gain, Reverse(v), fresh)) = top else { break };
        if gain == 0 {
            break; // saturated: every remaining gain is ≤ this one
        }
        if fresh < round {
            // Stale: recompute the marginal gain lazily and reinsert.
            let current = containing(v).iter().filter(|&&s| !set_covered[s as usize]).count();
            heap.push((current, Reverse(v), round));
            continue;
        }
        // Fresh maximum: select it.
        seeds.push(v);
        for &s in containing(v) {
            if !set_covered[s as usize] {
                set_covered[s as usize] = true;
                covered += 1;
            }
        }
        round += 1;
    }
    Some(Coverage { seeds, covered })
}

/// Plain greedy maximum coverage, the oracle [`celf_max_coverage`] is held
/// to: a full argmax per pick over explicitly decremented gains, on an
/// inverted index built by per-vertex pushes.
///
/// # Panics
///
/// Panics if any RR set mentions a vertex `>= n`.
#[cfg(test)]
pub(crate) fn greedy_max_coverage(rr_sets: &RrSets, n: usize, k: usize) -> Coverage {
    let by_index: Vec<&[u32]> = rr_sets.iter().collect();
    let mut containing: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, set) in rr_sets.iter().enumerate() {
        for &v in set {
            containing[v as usize].push(i as u32);
        }
    }
    let mut gain: Vec<usize> = containing.iter().map(Vec::len).collect();
    let mut set_covered = vec![false; rr_sets.len()];
    let mut seeds = Vec::with_capacity(k);
    let mut covered = 0usize;

    for _ in 0..k {
        let best = (0..n).max_by_key(|&v| (gain[v], std::cmp::Reverse(v)));
        let v = match best {
            Some(v) if gain[v] > 0 => v,
            _ => break, // saturated
        };
        seeds.push(v as u32);
        // Cover v's sets and decrement the gains of their other members.
        let sets = std::mem::take(&mut containing[v]);
        for &s in &sets {
            if set_covered[s as usize] {
                continue;
            }
            set_covered[s as usize] = true;
            covered += 1;
            for &u in by_index[s as usize] {
                gain[u as usize] = gain[u as usize].saturating_sub(1);
            }
        }
        gain[v] = 0;
    }
    Coverage { seeds, covered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrset::{ChunkWriter, CHUNK_MEMBERS};

    #[test]
    fn picks_highest_coverage_first() {
        let sets = RrSets::from_iter(vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![4]]);
        let c = greedy_max_coverage(&sets, 5, 2);
        assert_eq!(c.seeds, vec![0, 4]);
        assert_eq!(c.covered, 4);
    }

    #[test]
    fn marginal_gain_updates_after_pick() {
        // Vertex 1 looks good (2 sets) but both overlap vertex 0's sets.
        let sets = RrSets::from_iter(vec![vec![0, 1], vec![0, 1], vec![0], vec![2]]);
        let c = greedy_max_coverage(&sets, 3, 2);
        assert_eq!(c.seeds, vec![0, 2], "after 0, vertex 1 has zero marginal gain");
        assert_eq!(c.covered, 4);
    }

    #[test]
    fn stops_when_saturated() {
        let sets = RrSets::from_iter(vec![vec![0], vec![0]]);
        let c = greedy_max_coverage(&sets, 4, 3);
        assert_eq!(c.seeds, vec![0]);
        assert_eq!(c.covered, 2);
    }

    #[test]
    fn ties_break_to_lower_id() {
        let sets = RrSets::from_iter(vec![vec![2, 5], vec![2, 5]]);
        let c = greedy_max_coverage(&sets, 6, 1);
        assert_eq!(c.seeds, vec![2]);
    }

    #[test]
    fn empty_inputs() {
        let c = greedy_max_coverage(&RrSets::default(), 5, 3);
        assert!(c.seeds.is_empty());
        assert_eq!(c.covered, 0);
        let c2 = greedy_max_coverage(&RrSets::from_iter([vec![1]]), 2, 0);
        assert!(c2.seeds.is_empty());
    }

    #[test]
    fn covers_everything_with_enough_seeds() {
        let sets = RrSets::from_iter(vec![vec![0], vec![1], vec![2], vec![3]]);
        let c = greedy_max_coverage(&sets, 4, 4);
        assert_eq!(c.covered, 4);
        assert_eq!(c.seeds.len(), 4);
    }

    #[test]
    fn celf_matches_greedy_on_fixtures() {
        let fixtures: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![4]],
            vec![vec![0, 1], vec![0, 1], vec![0], vec![2]],
            vec![vec![2, 5], vec![2, 5]],
            vec![vec![0], vec![1], vec![2], vec![3]],
            vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![4, 5], vec![5]],
        ];
        for fixture in fixtures {
            let sets = RrSets::from_iter(fixture);
            for k in 1..=4 {
                let a = greedy_max_coverage(&sets, 8, k);
                let b = celf_max_coverage(&sets, 8, k);
                assert_eq!(a, b, "sets {sets:?}, k={k}");
            }
        }
    }

    /// The first window of `k = 2` is `width` vertices that share 10 sets,
    /// so after the first pick none of them gains anything; the vertex
    /// beyond it holds 5 sets of its own and only a grown window finds it.
    #[test]
    fn window_grows_when_a_vertex_outside_it_could_pop() {
        let k = 2;
        let width = WINDOW_PER_SEED * k;
        let loner = width as u32;
        let n = width + 1;
        let mut fixture = vec![(0..loner).collect::<Vec<u32>>(); 10];
        fixture.extend(vec![vec![loner]; 5]);
        let sets = RrSets::from_iter(fixture);
        let c = celf_max_coverage(&sets, n, k);
        assert_eq!(c, greedy_max_coverage(&sets, n, k));
        assert_eq!(c, Coverage { seeds: vec![0, loner], covered: 15 });
        // Premise: the first window gives up. Ids are already in first-key
        // order here, so the candidates need no selection.
        let mut hits = vec![0; n];
        for set in sets.iter() {
            for &v in set {
                hits[v as usize] += 1;
            }
        }
        let candidates: Vec<u32> = (0..n as u32).collect();
        assert_eq!(celf_in_window(&sets, &hits, &candidates, width, k), None);
    }

    /// Every vertex holds 3 sets, tied across the window edge. The first
    /// window's vertices share theirs, so the second pick is the lowest id
    /// beyond the edge, and the sets are listed from the highest id down,
    /// so set order does not hand out the tie-break.
    #[test]
    fn window_edge_ties_break_to_lower_id() {
        for k in 1..=3 {
            let width = WINDOW_PER_SEED * k;
            let n = 2 * width + 1;
            let mut fixture: Vec<Vec<u32>> =
                (width as u32..n as u32).rev().flat_map(|v| vec![vec![v]; 3]).collect();
            fixture.extend(vec![(0..width as u32).rev().collect(); 3]);
            let sets = RrSets::from_iter(fixture);
            let c = celf_max_coverage(&sets, n, k);
            assert_eq!(c, greedy_max_coverage(&sets, n, k), "k={k}");
            let mut want = vec![0];
            want.extend(width as u32..(width + k - 1) as u32);
            assert_eq!(c.seeds, want, "k={k}");
        }
    }

    #[test]
    fn celf_empty_inputs() {
        let c = celf_max_coverage(&RrSets::default(), 5, 3);
        assert!(c.seeds.is_empty());
        assert_eq!(c.covered, 0);
    }

    #[test]
    fn celf_stops_at_zero_gain() {
        let sets = RrSets::from_iter(vec![vec![0], vec![0]]);
        let c = celf_max_coverage(&sets, 4, 3);
        assert_eq!(c.seeds, vec![0]);
        assert_eq!(c.covered, 2);
    }

    #[test]
    fn rr_sets_round_trip() {
        let pushed: [&[u32]; 5] = [&[3, 1, 2], &[], &[7], &[], &[0, 9]];
        let mut sets = RrSets::default();
        assert!(sets.is_empty());
        assert_eq!(sets.iter().count(), 0);
        // Chunks appended one after another read as one run of sets.
        let mut a = ChunkWriter::default();
        let mut b = ChunkWriter::default();
        for set in &pushed[..2] {
            a.push(set);
        }
        for set in &pushed[2..] {
            b.push(set);
        }
        sets.extend(a.finish());
        sets.extend(b.finish());
        assert_eq!(sets.len(), 5);
        assert_eq!(sets.chunks().len(), 2);
        assert!(sets.iter().eq(pushed));
        assert!(RrSets::from_iter(pushed.map(<[u32]>::to_vec)).iter().eq(pushed));
    }

    /// A chunk seals before a set would carry it past `CHUNK_MEMBERS`, and
    /// a set larger than that is a chunk of its own. Selection indexes sets
    /// across chunks: vertex 3 lies in sets 0, 2, 3 and 5, spread over all
    /// four chunks, and only the chunk bases keep those indices apart.
    #[test]
    fn chunks_seal_at_the_member_budget() {
        let half = CHUNK_MEMBERS as u32 / 2;
        let low: Vec<u32> = (0..half).collect();
        let large: Vec<u32> = (0..=CHUNK_MEMBERS as u32).collect();
        let pushed = [low.clone(), (half..2 * half).collect(), vec![3], large, vec![], low];
        let sets = RrSets::from_iter(pushed.clone());
        let sizes: Vec<(usize, usize)> =
            sets.chunks().iter().map(|c| (c.ends.len(), c.members.len())).collect();
        let half = half as usize;
        assert_eq!(sizes, [(2, CHUNK_MEMBERS), (1, 1), (1, CHUNK_MEMBERS + 1), (2, half)]);
        assert!(sets.iter().eq(pushed.iter().map(Vec::as_slice)));
        let n = CHUNK_MEMBERS + 1;
        for k in 1..=2 {
            assert_eq!(celf_max_coverage(&sets, n, k), greedy_max_coverage(&sets, n, k), "k={k}");
        }
        assert_eq!(celf_max_coverage(&sets, n, 1), Coverage { seeds: vec![3], covered: 4 });
    }

    #[test]
    fn empty_sets_cover_nothing() {
        let sets = RrSets::from_iter([vec![], vec![1], vec![]]);
        for c in [greedy_max_coverage(&sets, 2, 2), celf_max_coverage(&sets, 2, 2)] {
            assert_eq!(c.seeds, vec![1]);
            assert_eq!(c.covered, 1);
        }
    }

    #[test]
    #[should_panic]
    fn celf_panics_on_vertex_out_of_range() {
        celf_max_coverage(&RrSets::from_iter([vec![0, 5]]), 5, 1);
    }
}
