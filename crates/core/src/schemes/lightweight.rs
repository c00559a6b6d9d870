//! Degree-Based Grouping and its hub-aware refinements (Faldu et al.,
//! "A Closer Look at Lightweight Graph Reordering"): DBG, HubSortDBG, and
//! HubClusterDBG.
//!
//! These near-linear-time schemes trade the precision of a full degree sort
//! for locality preservation: vertices are grouped into power-of-two degree
//! buckets (⌊log₂(d+1)⌋) emitted hottest-first, and within a bucket the
//! input order survives, so structure already present in the natural order
//! (crawl order, community blocks) is not destroyed. The two refinements
//! re-introduce hub precision where it pays: HubSortDBG degree-sorts the
//! hub vertices inside each bucket, HubClusterDBG keeps only the hub/cold
//! split and groups just the hubs by bucket.
//!
//! All three reduce to one composite per-vertex sort key, computed in
//! parallel; each group is then refined in parallel and the groups are
//! concatenated in group order, so the output is one total order at any
//! thread count. The test-side reference in `crates/core/tests/support`
//! sorts by the `(Reverse(bucket), hub key, id)` tuple instead.

use super::degree::hub_threshold;
use rayon::prelude::*;
use reorderlab_graph::{Csr, Permutation};
use reorderlab_trace::counter;

/// The three members of the DBG family, folded over one key function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DbgVariant {
    /// Power-of-two degree buckets, hottest bucket first, natural order
    /// within a bucket.
    Plain,
    /// DBG buckets with the hubs of each bucket pulled to its front in
    /// non-increasing degree order; non-hub members keep natural order.
    HubSort,
    /// Hubs grouped by degree bucket (hottest first, natural within), all
    /// cold vertices following as one natural-order block.
    HubCluster,
}

/// Bits reserved below the group id for the intra-group sub-key.
const SUB_BITS: u32 = 33;
/// Degree buckets fit `0..=63` for any `usize` degree; subtracting from 63
/// makes hotter buckets sort first.
const HOTTEST: u64 = 63;
/// Group id of HubClusterDBG's cold block — after every hub bucket.
const COLD_GROUP: u64 = HOTTEST + 1;
/// Sub-key placing a bucket's non-hub members after its hubs (every hub
/// sub-key is a `u32`-bounded inverted degree, strictly below this).
const NON_HUB: u64 = 1 << 32;

/// Power-of-two degree bucket: `⌊log₂(d+1)⌋`, so isolated vertices land in
/// bucket 0 and each bucket spans one doubling of degree.
fn degree_bucket(degree: usize) -> u64 {
    u64::from((degree + 1).ilog2())
}

/// The composite sort key of `v` under `variant`: high bits select the
/// emission group, low bits the intra-group refinement; ties are broken by
/// vertex id at the sort sites, preserving natural order.
fn group_key(variant: DbgVariant, degree: usize, threshold: f64) -> u64 {
    let bucket_group = (HOTTEST - degree_bucket(degree)) << SUB_BITS;
    let is_hub = degree as f64 > threshold;
    match variant {
        DbgVariant::Plain => bucket_group,
        DbgVariant::HubSort => {
            if is_hub {
                // Inverted degree sorts hubs hottest-first within the
                // bucket; degree ≤ u32::MAX by the Csr invariant, so the
                // sub-key stays below NON_HUB.
                bucket_group | (u64::from(u32::MAX) - degree as u64)
            } else {
                bucket_group | NON_HUB
            }
        }
        DbgVariant::HubCluster => {
            if is_hub {
                bucket_group
            } else {
                COLD_GROUP << SUB_BITS
            }
        }
    }
}

/// Shared kernel: parallel per-vertex keys, group-major scatter in natural
/// order, parallel per-group refinement, then concatenation in group order.
/// Records the `dbg/groups` (non-empty groups) and `dbg/hubs` counters.
fn lightweight_order(graph: &Csr, variant: DbgVariant) -> Permutation {
    let n = graph.num_vertices();
    let threshold = hub_threshold(graph);
    let ids: Vec<u32> = graph.vertices().collect();
    // Order-preserving parallel collect: keys[i] belongs to vertex ids[i].
    let keys: Vec<u64> = (0..n)
        .into_par_iter()
        .map(|i| group_key(variant, graph.degree(ids[i]), threshold))
        .collect();

    // Scatter vertices group-major; the natural scan order makes every
    // group's member list id-ascending.
    let group_count = usize::try_from(COLD_GROUP).unwrap_or(usize::MAX) + 1;
    let mut groups: Vec<Vec<(u64, u32)>> = vec![Vec::new(); group_count];
    for (i, &v) in ids.iter().enumerate() {
        groups[usize::try_from(keys[i] >> SUB_BITS).unwrap_or(0)].push((keys[i], v));
    }
    counter("dbg/groups", groups.iter().filter(|g| !g.is_empty()).count() as u64);
    counter("dbg/hubs", ids.iter().filter(|&&v| graph.degree(v) as f64 > threshold).count() as u64);

    // Groups are independent: refine each in parallel (the per-group sort
    // keys are total with the id tiebreak), concatenate in group order.
    let refined: Vec<Vec<u32>> = groups
        .into_par_iter()
        .map(|mut members| {
            members.sort_unstable_by_key(|&(k, v)| (k, v));
            members.into_iter().map(|(_, v)| v).collect()
        })
        .collect();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for group in &refined {
        order.extend_from_slice(group);
    }
    super::order_permutation(&order)
}

/// Degree-Based Grouping: power-of-two degree buckets emitted hottest
/// first, natural order within each bucket.
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::dbg_order;
/// use reorderlab_datasets::star;
///
/// let g = star(9); // hub 0 (degree 8) + 8 leaves (degree 1)
/// let pi = dbg_order(&g);
/// assert_eq!(pi.rank(0), 0, "the hub bucket is emitted first");
/// assert_eq!(pi.rank(1), 1, "leaves keep natural order");
/// ```
pub fn dbg_order(graph: &Csr) -> Permutation {
    lightweight_order(graph, DbgVariant::Plain)
}

/// HubSortDBG: DBG buckets, with each bucket's hubs (degree above the mean)
/// pulled to the bucket front in non-increasing degree order; non-hub
/// members keep natural order behind them.
pub fn hub_sort_dbg_order(graph: &Csr) -> Permutation {
    lightweight_order(graph, DbgVariant::HubSort)
}

/// HubClusterDBG: the hub/cold split of Hub Clustering with DBG's bucket
/// grouping applied to the hubs only — hubs hottest-bucket-first (natural
/// within a bucket), then every cold vertex in one natural-order block.
pub fn hub_cluster_dbg_order(graph: &Csr) -> Permutation {
    lightweight_order(graph, DbgVariant::HubCluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{barabasi_albert, cycle, star};
    use reorderlab_graph::GraphBuilder;
    use reorderlab_trace::{recording, RunRecorder};

    #[test]
    fn degree_buckets_double() {
        assert_eq!(degree_bucket(0), 0);
        assert_eq!(degree_bucket(1), 1);
        assert_eq!(degree_bucket(2), 1);
        assert_eq!(degree_bucket(3), 2);
        assert_eq!(degree_bucket(7), 3);
        assert_eq!(degree_bucket(8), 3);
    }

    #[test]
    fn dbg_emits_buckets_hottest_first_natural_within() {
        let g = barabasi_albert(200, 2, 3);
        let order = dbg_order(&g).to_order();
        let bucket = |v: u32| degree_bucket(g.degree(v));
        for w in order.windows(2) {
            let (a, b) = (bucket(w[0]), bucket(w[1]));
            assert!(a >= b, "buckets must be non-increasing");
            if a == b {
                assert!(w[0] < w[1], "natural order within a bucket");
            }
        }
    }

    #[test]
    fn hub_sort_dbg_sorts_hubs_within_bucket() {
        let g = barabasi_albert(300, 3, 7);
        let t = hub_threshold(&g);
        let order = hub_sort_dbg_order(&g).to_order();
        let bucket = |v: u32| degree_bucket(g.degree(v));
        for w in order.windows(2) {
            if bucket(w[0]) != bucket(w[1]) {
                assert!(bucket(w[0]) > bucket(w[1]));
                continue;
            }
            let (ha, hb) = (g.degree(w[0]) as f64 > t, g.degree(w[1]) as f64 > t);
            match (ha, hb) {
                (true, true) => assert!(
                    (g.degree(w[0]), w[1]) >= (g.degree(w[1]), w[0]),
                    "hubs degree-sorted within bucket"
                ),
                (false, true) => panic!("hubs must precede non-hubs within a bucket"),
                (false, false) => assert!(w[0] < w[1], "non-hubs keep natural order"),
                (true, false) => {}
            }
        }
    }

    #[test]
    fn hub_cluster_dbg_cold_block_is_natural_tail() {
        let g = barabasi_albert(300, 2, 11);
        let t = hub_threshold(&g);
        let order = hub_cluster_dbg_order(&g).to_order();
        let hubs = order.iter().filter(|&&v| g.degree(v) as f64 > t).count();
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(i < hubs, g.degree(v) as f64 > t, "hub block must be contiguous");
        }
        for w in order[hubs..].windows(2) {
            assert!(w[0] < w[1], "cold block keeps natural order");
        }
        let bucket = |v: u32| degree_bucket(g.degree(v));
        for w in order[..hubs].windows(2) {
            assert!(bucket(w[0]) >= bucket(w[1]), "hub buckets hottest first");
            if bucket(w[0]) == bucket(w[1]) {
                assert!(w[0] < w[1], "natural order within a hub bucket");
            }
        }
    }

    #[test]
    fn regular_graph_is_identity_for_all_variants() {
        // One bucket, no hubs: every variant degenerates to natural order.
        let g = cycle(12);
        assert!(dbg_order(&g).is_identity());
        assert!(hub_sort_dbg_order(&g).is_identity());
        assert!(hub_cluster_dbg_order(&g).is_identity());
    }

    #[test]
    fn empty_and_edgeless() {
        let g0 = GraphBuilder::undirected(0).build().unwrap();
        assert!(dbg_order(&g0).is_empty());
        assert!(hub_sort_dbg_order(&g0).is_empty());
        assert!(hub_cluster_dbg_order(&g0).is_empty());
        let g3 = GraphBuilder::undirected(3).build().unwrap();
        assert!(dbg_order(&g3).is_identity());
        assert!(hub_cluster_dbg_order(&g3).is_identity());
    }

    #[test]
    fn recorded_variants_are_identical_and_count_groups() {
        let g = star(16);
        let (pi, rec) = recording(RunRecorder::new(), || dbg_order(&g));
        assert_eq!(pi, dbg_order(&g));
        // Star(16): hub in bucket ⌊log₂ 16⌋ = 4, leaves in bucket 1.
        assert_eq!(rec.counters()["dbg/groups"], 2);
        let (pi, rec) = recording(RunRecorder::new(), || hub_sort_dbg_order(&g));
        assert_eq!(pi, hub_sort_dbg_order(&g));
        assert_eq!(rec.counters()["dbg/hubs"], 1, "only the star center is a hub");
    }
}
