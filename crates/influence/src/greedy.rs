//! Greedy maximum coverage over RR sets — IMM's seed-selection step
//! ("NodeSelection" in Tang et al. \[36\]).
//!
//! Selecting the `k` vertices covering the most RR sets yields the
//! `(1 − 1/e)`-approximate most influential seed set for the sampled
//! realizations.

use crate::rrset::RrSets;

/// The outcome of greedy coverage: chosen seeds and how many RR sets they
/// jointly cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Selected seed vertices, in pick order.
    pub seeds: Vec<u32>,
    /// Number of RR sets covered by the seed set.
    pub covered: usize,
}

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
/// The inverted index (which sets contain each vertex) is one counting sort
/// of the flat members: a count and prefix sum give every vertex its span
/// of one shared array, filled in set order, so a vertex's sets are in
/// ascending index and building the index allocates twice, not once per
/// vertex.
///
/// # Panics
///
/// Panics if any RR set mentions a vertex `>= n`.
pub fn celf_max_coverage(rr_sets: &RrSets, n: usize, k: usize) -> Coverage {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // `sets_of[start[v]..start[v + 1]]`: the sets containing `v`.
    let mut start = vec![0usize; n + 1];
    for &v in rr_sets.members() {
        start[v as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut sets_of = vec![0u32; rr_sets.members().len()];
    let mut cursor = start.clone();
    for (i, set) in rr_sets.iter().enumerate() {
        for &v in set {
            sets_of[cursor[v as usize]] = i as u32;
            cursor[v as usize] += 1;
        }
    }
    let containing = |v: u32| &sets_of[start[v as usize]..start[v as usize + 1]];

    let mut set_covered = vec![false; rr_sets.len()];
    // Heap of (gain, lower-id-first, vertex, freshness round).
    let mut heap: BinaryHeap<(usize, Reverse<u32>, usize)> = (0..n as u32)
        .filter(|&v| !containing(v).is_empty())
        .map(|v| (containing(v).len(), Reverse(v), 0usize))
        .collect();
    let mut seeds = Vec::with_capacity(k);
    let mut covered = 0usize;
    let mut round = 0usize;

    while seeds.len() < k {
        let Some((gain, Reverse(v), fresh)) = heap.pop() else { break };
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
    Coverage { seeds, covered }
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
            for &u in rr_sets.get(s as usize) {
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
        for set in pushed {
            sets.push(set);
        }
        assert_eq!(sets.len(), 5);
        for (i, set) in pushed.iter().enumerate() {
            assert_eq!(sets.get(i), *set, "set {i}");
        }
        assert!(sets.iter().eq(pushed));
        assert_eq!(sets, RrSets::from_iter(pushed.map(<[u32]>::to_vec)));
        // A batch append is the same as pushing its sets one by one.
        let mut batched = RrSets::default();
        batched.append(&[3, 1, 2, 7], &[3, 0, 1]);
        batched.append(&[0, 9], &[0, 2]);
        assert_eq!(batched, sets);
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
