//! SlashBurn (paper §III-B, Kang & Faloutsos \[21\]).
//!
//! A heavyweight hub-based scheme: repeatedly *slash* the k highest-degree
//! hubs (assigning them the lowest available ranks), *burn* the graph into
//! components, push every non-giant component's vertices ("spokes") to the
//! highest available ranks, and recurse on the giant connected component.
//! The result concentrates the adjacency matrix near block-diagonal-plus-
//! hub form.

use rayon::prelude::*;
use reorderlab_graph::{Csr, Permutation};
use reorderlab_trace::counter;

/// Packed descending-degree keys for hub selection, computed in parallel:
/// ascending order of `((u32::MAX - degree) << 32) | original_id` equals the
/// serial `(Reverse(degree), original_id)` tuple order. The second element
/// is the local vertex id for marking hubs.
fn hub_keys(sub: &Csr, live: &[u32]) -> Vec<(u64, u32)> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    (0..live.len() as u32)
        .into_par_iter()
        .map(|v| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            let inv_deg = u32::MAX - sub.degree(v) as u32;
            (((u64::from(inv_deg)) << 32) | u64::from(live[v as usize]), v)
        })
        .collect()
}

/// Connected components of `sub` restricted to non-hub vertices, labeled in
/// order of smallest member id. This is exactly the labeling
/// [`Components::find`] produces on the extracted remainder graph (its local
/// ids are monotone in `sub` ids), without materializing that subgraph.
/// Returns the per-vertex component id (`u32::MAX` for hubs) and sizes.
fn masked_components(sub: &Csr, is_hub: &[bool]) -> (Vec<u32>, Vec<usize>) {
    let n = sub.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    for s in 0..n as u32 {
        if is_hub[s as usize] || comp[s as usize] != u32::MAX {
            continue;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let c = sizes.len() as u32;
        comp[s as usize] = c;
        stack.clear();
        stack.push(s);
        let mut size = 0usize;
        while let Some(v) = stack.pop() {
            size += 1;
            for &u in sub.neighbors(v) {
                if !is_hub[u as usize] && comp[u as usize] == u32::MAX {
                    comp[u as usize] = c;
                    stack.push(u);
                }
            }
        }
        sizes.push(size);
    }
    (comp, sizes)
}

/// Computes a SlashBurn ordering.
///
/// `k_frac` is the fraction of (remaining) vertices slashed per round; the
/// original paper uses 0.5% (`0.005`). At least one hub is slashed per
/// round, so the algorithm always terminates.
///
/// Hub extraction scores vertices in parallel (packed descending-degree
/// keys) and selects the exact top `k` with a linear-time partition instead
/// of a full sort per round; burning runs `masked_components` directly on
/// the working graph so only the giant component is ever materialized (via
/// [`Csr::induced_subgraph`]) instead of remainder + giant per round.
/// Bit-identical at any thread count to the test-side reference in
/// `crates/core/tests/support`, which sorts every round in full and
/// extracts both the remainder and the giant. Records the per-round
/// counters `slashburn/rounds`, `slashburn/hubs` and `slashburn/spokes`.
///
/// # Panics
///
/// Panics if `k_frac` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::slashburn_order;
/// use reorderlab_datasets::star;
///
/// let g = star(100);
/// let pi = slashburn_order(&g, 0.005);
/// assert_eq!(pi.rank(0), 0); // the hub is slashed first
/// ```
pub fn slashburn_order(graph: &Csr, k_frac: f64) -> Permutation {
    assert!(k_frac > 0.0 && k_frac <= 1.0, "k_frac must be in (0, 1]");
    let n = graph.num_vertices();
    let mut ranks = vec![u32::MAX; n];
    let mut front = 0u32;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut back = n as u32; // exclusive
                             // `live` holds original ids of the current working component.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut sub = graph.clone();

    loop {
        let remaining = live.len();
        if remaining == 0 {
            break;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "SAFETY: k_frac is in (0, 1], so the product lies in (0, remaining]"
        )]
        let k = ((remaining as f64 * k_frac).ceil() as usize).max(1);
        counter("slashburn/rounds", 1);
        let mut keyed = hub_keys(&sub, &live);
        if remaining <= k {
            // Terminal round: everything left goes to the front by degree.
            counter("slashburn/hubs", remaining as u64);
            keyed.sort_unstable();
            for &(_, v) in &keyed {
                ranks[live[v as usize] as usize] = front;
                front += 1;
            }
            break;
        }

        // Slash: the k highest-degree vertices get the lowest free ranks.
        // Keys are unique (they embed the original id), so an unstable
        // select + sort of the top-k prefix reproduces the full-sort prefix.
        keyed.select_nth_unstable(k - 1);
        keyed[..k].sort_unstable();
        let mut is_hub = vec![false; remaining];
        for &(_, h) in &keyed[..k] {
            ranks[live[h as usize] as usize] = front;
            front += 1;
            is_hub[h as usize] = true;
        }
        counter("slashburn/hubs", k as u64);

        // Burn: components of the remainder, found in place on `sub` with
        // the hubs masked out.
        let (comp, sizes) = masked_components(&sub, &is_hub);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let giant = match sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
        {
            Some(g) => g,
            None => break, // nothing left
        };
        let mut members: Vec<Vec<u32>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
        for (v, &c) in comp.iter().enumerate() {
            if c != u32::MAX {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
                )]
                members[c as usize].push(v as u32);
            }
        }

        // Spokes: vertices of non-giant components take the highest free
        // ranks. Components are ordered by increasing size (ties by id) so
        // the smallest spokes sit at the very end, mirroring SlashBurn's
        // spoke layout.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let mut spoke_comps: Vec<u32> = (0..sizes.len() as u32).filter(|&c| c != giant).collect();
        spoke_comps.sort_by_key(|&c| (sizes[c as usize], c));
        let spoke_total: usize = spoke_comps.iter().map(|&c| sizes[c as usize]).sum();
        counter("slashburn/spokes", spoke_total as u64);
        for &c in &spoke_comps {
            for &v in members[c as usize].iter().rev() {
                back -= 1;
                ranks[live[v as usize] as usize] = back;
            }
        }

        // Recurse on the giant component, extracted straight from `sub`.
        let (next_sub, next_orig_local) = sub.induced_subgraph(&members[giant as usize]);
        live = next_orig_local.iter().map(|&v| live[v as usize]).collect();
        sub = next_sub;
    }
    debug_assert!(front <= back, "front {front} crossed back {back}");
    super::ranks_permutation(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{barabasi_albert, path, star};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn star_hub_slashed_first() {
        let g = star(50);
        let pi = slashburn_order(&g, 0.02); // k = 1
        assert_eq!(pi.rank(0), 0);
    }

    #[test]
    fn produces_valid_permutation_on_powerlaw() {
        let g = barabasi_albert(400, 2, 3);
        let pi = slashburn_order(&g, 0.005);
        assert_eq!(pi.len(), 400);
        assert!(Permutation::from_ranks(pi.ranks().to_vec()).is_ok());
    }

    #[test]
    fn hubs_occupy_low_ranks() {
        let g = barabasi_albert(500, 2, 7);
        let pi = slashburn_order(&g, 0.01);
        // The global max-degree vertex must be slashed in round one.
        let hub = (0..500u32).max_by_key(|&v| g.degree(v)).unwrap();
        assert!(pi.rank(hub) < 5, "hub rank {} should be tiny", pi.rank(hub));
    }

    #[test]
    fn spokes_pushed_to_back() {
        // Star + one disconnected pendant pair: after slashing the hub the
        // leaves and the pair are all spokes.
        let g = GraphBuilder::undirected(7)
            .edges([(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
            .build()
            .unwrap();
        let pi = slashburn_order(&g, 0.15); // k = ceil(7*0.15)=2
                                            // Vertex 0 (degree 4) slashed first; ranks of 5,6 (smallest spoke
                                            // component is the pair or singletons after slash) are high.
        assert!(pi.rank(0) <= 1);
        assert!(pi.rank(5) >= 2 && pi.rank(6) >= 2);
    }

    #[test]
    fn path_terminates_and_is_valid() {
        // Paths are SlashBurn's worst case (giant shrinks slowly).
        let g = path(200);
        let pi = slashburn_order(&g, 0.005);
        assert_eq!(pi.len(), 200);
    }

    #[test]
    fn deterministic() {
        let g = barabasi_albert(200, 2, 1);
        assert_eq!(slashburn_order(&g, 0.005), slashburn_order(&g, 0.005));
    }

    #[test]
    fn tiny_graphs() {
        let g1 = GraphBuilder::undirected(1).build().unwrap();
        assert!(slashburn_order(&g1, 0.005).is_identity());
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        assert!(slashburn_order(&g0, 0.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "k_frac")]
    fn rejects_bad_fraction() {
        let g = path(4);
        let _ = slashburn_order(&g, 0.0);
    }

    #[test]
    fn recorded_variant_is_identical_and_accounts_every_vertex() {
        use reorderlab_trace::{recording, RunRecorder};
        let g = barabasi_albert(150, 2, 3);
        let (pi, rec) = recording(RunRecorder::new(), || slashburn_order(&g, 0.02));
        assert_eq!(pi, slashburn_order(&g, 0.02));
        let c = rec.counters();
        assert!(c["slashburn/rounds"] >= 1);
        // Every vertex ends up a hub or a spoke (the recursion bottoms out
        // in a terminal all-hubs round).
        let spokes = c.get("slashburn/spokes").copied().unwrap_or(0);
        assert_eq!(c["slashburn/hubs"] + spokes, 150);
    }
}
