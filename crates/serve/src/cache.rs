//! The permutation cache.
//!
//! Keyed by `(graph digest, canonical scheme spec)`: the digest pins the
//! exact graph bytes (`reorderlab_graph::csr_digest`), and
//! `Scheme::spec()` is the canonical rendering of a parsed spec, so
//! `metis:64` and `metis:parts=64,seed=42` share one entry. The value is a
//! [`MeasuredOrdering`]: the permutation plus the gap and compression
//! measures of that graph under it and the permutation's text form, each
//! filled by the first request that reads it. The key names the inputs of
//! those facts exactly, so a hit runs no graph pass, and the facts are
//! evicted with the ordering they describe: there is no second table,
//! lifetime or capacity. Eviction is LRU under a fixed capacity: every hit
//! re-touches its entry, so the hot schemes of a zipf-skewed trace stay
//! resident even when a burst of one-off requests would have flushed them
//! under insertion-order (FIFO) eviction. The re-touch is an O(capacity)
//! queue scan, which is noise at the capacities this daemon runs (a
//! permutation costs ~4·|V| bytes, plus ~6·|V| for its text once a
//! `return_perm` request has asked for it, so capacity stays in the tens).

use reorderlab_core::Scheme;
use reorderlab_ops::{MeasuredOrdering, OpError, PermSource, ResolvedGraph};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::with_lock;

type CacheKey = (u64, String);

#[derive(Debug, Default)]
struct CacheInner {
    map: BTreeMap<CacheKey, Arc<MeasuredOrdering>>,
    /// Recency queue: front = least recently used, back = most recent.
    /// Hits move their key to the back; eviction pops the front.
    lru: VecDeque<CacheKey>,
}

/// A bounded, thread-safe permutation cache.
#[derive(Debug)]
pub struct PermCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PermCache {
    /// A cache holding at most `capacity` orderings (0 disables caching,
    /// of orderings and so of their measures, but keeps the counters).
    pub fn new(capacity: usize) -> PermCache {
        PermCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `(digest, scheme)`, computing and inserting on a miss.
    /// Returns the ordering and whether it was a hit. A hit re-touches the
    /// entry (moves it to the back of the recency queue), so recently-used
    /// entries outlive a same-capacity FIFO's.
    ///
    /// The digest is a 64-bit FNV-1a, so a collision between two
    /// different graphs is possible; a hit whose cached ordering does not
    /// cover this graph's vertex count is treated as a collision, evicted,
    /// and recomputed rather than served wrong-sized.
    ///
    /// # Errors
    ///
    /// [`OpError::Scheme`] when the scheme rejects the graph (failures
    /// are not cached).
    pub(crate) fn get_or_compute(
        &self,
        digest: u64,
        scheme: &Scheme,
        resolved: &ResolvedGraph,
    ) -> Result<(Arc<MeasuredOrdering>, bool), OpError> {
        let key = (digest, scheme.spec());
        let hit = with_lock(&self.inner, |inner| {
            let pi = inner.map.get(&key).cloned()?;
            if pi.len() == resolved.graph.num_vertices() {
                // Re-touch: this entry is now the most recently used.
                let pos = inner.lru.iter().position(|k| k == &key);
                if let Some(touched) = pos.and_then(|pos| inner.lru.remove(pos)) {
                    inner.lru.push_back(touched);
                }
                return Some(pi);
            }
            // Digest collision: the cached ordering belongs to a different
            // graph. Drop the stale entry and fall through to recompute for
            // this one.
            inner.map.remove(&key);
            inner.lru.retain(|k| k != &key);
            None
        });
        if let Some(pi) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((pi, true));
        }
        // Compute outside the lock: a slow scheme must not serialize the
        // whole cache. Two racing misses may both compute; the first to
        // store wins, and the other hands out the stored entry so that
        // every reader fills the same measure cells.
        let pi = scheme.try_reorder(&resolved.graph).map_err(OpError::Scheme)?;
        let pi = Arc::new(MeasuredOrdering::new(pi));
        self.misses.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            return Ok((pi, false));
        }
        let stored = with_lock(&self.inner, |inner| match inner.map.get(&key) {
            Some(stored) if stored.len() == pi.len() => Arc::clone(stored),
            // A colliding graph stored first: serve ours, unshared.
            Some(_) => Arc::clone(&pi),
            None => {
                inner.map.insert(key.clone(), Arc::clone(&pi));
                inner.lru.push_back(key);
                while inner.map.len() > self.capacity {
                    let Some(old) = inner.lru.pop_front() else { break };
                    inner.map.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                Arc::clone(&pi)
            }
        });
        Ok((stored, false))
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        with_lock(&self.inner, |inner| inner.map.len())
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`PermSource`] backed by a [`PermCache`]: resolved graphs that carry
/// a digest are served from (and fill) the cache; digest-less graphs are
/// computed fresh.
#[derive(Debug, Clone)]
pub struct CachingPerms {
    cache: Arc<PermCache>,
    request_hits: u64,
}

impl CachingPerms {
    /// Wraps a shared cache.
    pub fn new(cache: Arc<PermCache>) -> CachingPerms {
        CachingPerms { cache, request_hits: 0 }
    }

    /// Hits observed through *this* source (one per request in the
    /// daemon) — unlike the shared cache's global counters, this cannot
    /// be perturbed by concurrent requests on other workers.
    pub(crate) fn request_hits(&self) -> u64 {
        self.request_hits
    }
}

impl PermSource for CachingPerms {
    fn ordering(
        &mut self,
        resolved: &ResolvedGraph,
        scheme: &Scheme,
    ) -> Result<(Arc<MeasuredOrdering>, bool), OpError> {
        let (pi, hit) = match resolved.digest {
            Some(digest) => self.cache.get_or_compute(digest, scheme, resolved)?,
            None => {
                let pi = scheme.try_reorder(&resolved.graph).map_err(OpError::Scheme)?;
                self.cache.misses.fetch_add(1, Ordering::Relaxed);
                (Arc::new(MeasuredOrdering::new(pi)), false)
            }
        };
        if hit {
            self.request_hits += 1;
        }
        Ok((pi, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_core::measures::{gap_measures, GapMeasures};
    use reorderlab_graph::csr_digest;
    use reorderlab_ops::FactTally;

    fn resolved(name: &str) -> ResolvedGraph {
        let g = reorderlab_datasets::by_name(name).unwrap().generate();
        let digest = csr_digest(&g);
        ResolvedGraph::fresh(g, name, Some(digest))
    }

    fn scheme(spec: &str) -> Scheme {
        Scheme::parse(spec).unwrap()
    }

    /// Reads the gap measures of `r` under `pi`; the tally says whether
    /// the ordering's cell already held them.
    fn gaps(pi: &MeasuredOrdering, r: &ResolvedGraph) -> (GapMeasures, FactTally) {
        let mut tally = FactTally::default();
        (pi.gaps(&r.graph, &mut tally), tally)
    }

    const COMPUTED: FactTally = FactTally { reused: 0, computed: 1 };
    const REUSED: FactTally = FactTally { reused: 1, computed: 0 };

    #[test]
    fn repeat_requests_hit() {
        let cache = PermCache::new(8);
        let r = resolved("euroroad");
        let (a, hit_a) = cache.get_or_compute(r.digest.unwrap(), &scheme("rcm"), &r).unwrap();
        let (b, hit_b) = cache.get_or_compute(r.digest.unwrap(), &scheme("rcm"), &r).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(a.ranks(), b.ranks());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn a_hit_carries_the_measures_the_first_request_computed() {
        let cache = PermCache::new(8);
        let r = resolved("euroroad");
        let d = r.digest.unwrap();
        let (first, _) = cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        let (computed, tally) = gaps(&first, &r);
        assert_eq!(tally, COMPUTED);
        assert_eq!(computed, gap_measures(&r.graph, &first));
        // Any spelling of the spec reaches the same ordering and its cells.
        let (second, hit) = cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        assert!(hit && Arc::ptr_eq(&first, &second));
        assert_eq!(gaps(&second, &r), (computed, REUSED));
    }

    #[test]
    fn spec_canonicalization_shares_entries() {
        let cache = PermCache::new(8);
        let r = resolved("euroroad");
        let d = r.digest.unwrap();
        cache.get_or_compute(d, &scheme("metis:64"), &r).unwrap();
        let (_, hit) = cache.get_or_compute(d, &scheme("metis:parts=64,seed=42"), &r).unwrap();
        assert!(hit, "positional and keyword spellings must share a cache entry");
    }

    #[test]
    fn default_suite_grappolo_shares_the_explicit_spec_entry() {
        // Width is ambient, so the suite's Grappolo and a client's
        // `"grappolo"` are the same scheme under the same key.
        let suite = Scheme::evaluation_suite(42);
        let from_suite = suite.iter().find(|s| s.name() == "Grappolo").unwrap();
        assert_eq!(from_suite.spec(), scheme("grappolo").spec());
        let cache = PermCache::new(8);
        let r = resolved("euroroad");
        let d = r.digest.unwrap();
        cache.get_or_compute(d, from_suite, &r).unwrap();
        let (_, hit) = cache.get_or_compute(d, &scheme("grappolo"), &r).unwrap();
        assert!(hit, "one permutation must not be cached under two keys");
    }

    #[test]
    fn distinct_graphs_do_not_collide() {
        let cache = PermCache::new(8);
        let a = resolved("euroroad");
        let b = resolved("rovira");
        assert_ne!(a.digest, b.digest);
        let (pa, _) = cache.get_or_compute(a.digest.unwrap(), &scheme("rcm"), &a).unwrap();
        let (pb, _) = cache.get_or_compute(b.digest.unwrap(), &scheme("rcm"), &b).unwrap();
        assert_ne!(pa.len(), pb.len());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn forged_digest_collision_is_not_served() {
        let cache = PermCache::new(8);
        let a = resolved("euroroad");
        let mut b = resolved("rovira");
        // Forge a 64-bit digest collision between two different graphs.
        b.digest = a.digest;
        let (pa, _) = cache.get_or_compute(a.digest.unwrap(), &scheme("rcm"), &a).unwrap();
        let (gaps_a, _) = gaps(&pa, &a);
        let (pb, hit) = cache.get_or_compute(b.digest.unwrap(), &scheme("rcm"), &b).unwrap();
        assert!(!hit, "a collided entry must be recomputed, not served");
        assert_eq!(pb.len(), b.graph.num_vertices());
        assert_ne!(pa.len(), pb.len());
        // The evicted entry's measures went with it: the key now reads this
        // graph's, computed afresh.
        let (gaps_b, tally) = gaps(&pb, &b);
        assert_eq!(tally, COMPUTED);
        assert_eq!(gaps_b, gap_measures(&b.graph, &pb));
        assert_ne!(gaps_a, gaps_b);
        let (again, hit) = cache.get_or_compute(b.digest.unwrap(), &scheme("rcm"), &b).unwrap();
        assert!(hit);
        assert_eq!(gaps(&again, &b), (gaps_b, REUSED));
    }

    /// Racing first touches of one `(digest, spec)` may each run the
    /// scheme, but one ordering is stored and every racer reads its cells.
    #[test]
    fn racing_first_touches_store_one_measured_ordering() {
        const RACERS: usize = 4;
        let cache = Arc::new(PermCache::new(8));
        let r = resolved("euroroad");
        let barrier = std::sync::Barrier::new(RACERS);
        let replies: Vec<(Arc<MeasuredOrdering>, GapMeasures)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut perms = CachingPerms::new(Arc::clone(&cache));
                        barrier.wait();
                        let (pi, _) = perms.ordering(&r, &scheme("rcm")).unwrap();
                        let (measured, _) = gaps(&pi, &r);
                        (pi, measured)
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), RACERS as u64);
        let (stored, hit) = cache.get_or_compute(r.digest.unwrap(), &scheme("rcm"), &r).unwrap();
        assert!(hit);
        for (pi, measured) in &replies {
            assert!(Arc::ptr_eq(pi, &stored), "every racer reads the stored ordering");
            assert_eq!(*measured, replies[0].1);
        }
        assert_eq!(gaps(&stored, &r), (replies[0].1, REUSED));
    }

    #[test]
    fn caching_perms_counts_hits_per_source() {
        let cache = Arc::new(PermCache::new(8));
        let r = resolved("euroroad");
        let mut first = CachingPerms::new(Arc::clone(&cache));
        first.ordering(&r, &scheme("rcm")).unwrap();
        assert_eq!(first.request_hits(), 0);
        let mut second = CachingPerms::new(Arc::clone(&cache));
        second.ordering(&r, &scheme("rcm")).unwrap();
        assert_eq!(second.request_hits(), 1);
        // The first source is unaffected by the second's hit.
        assert_eq!(first.request_hits(), 0);
    }

    #[test]
    fn lru_eviction_is_bounded() {
        let cache = PermCache::new(2);
        let r = resolved("euroroad");
        let d = r.digest.unwrap();
        // With no intervening hits, LRU degenerates to insertion order.
        let mut first_gaps = None;
        for spec in ["rcm", "dbg", "degree"] {
            let (pi, _) = cache.get_or_compute(d, &scheme(spec), &r).unwrap();
            first_gaps.get_or_insert_with(|| gaps(&pi, &r).0);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // The least recently used entry (rcm) was evicted, measures and
        // all: re-requesting it misses and recomputes both, to the same
        // values.
        let (pi, hit) = cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        assert!(!hit);
        assert_eq!(gaps(&pi, &r), (first_gaps.unwrap(), COMPUTED));
    }

    #[test]
    fn retouched_entry_survives_an_eviction_fifo_would_take() {
        let cache = PermCache::new(2);
        let r = resolved("euroroad");
        let d = r.digest.unwrap();
        cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        cache.get_or_compute(d, &scheme("dbg"), &r).unwrap();
        // Hit rcm: under FIFO this is a no-op; under LRU it moves rcm to
        // the back of the recency queue, making dbg the eviction victim.
        let (_, hit) = cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        assert!(hit);
        cache.get_or_compute(d, &scheme("degree"), &r).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // rcm survived the eviction FIFO would have taken...
        let (_, hit) = cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        assert!(hit, "the re-touched entry must survive the eviction");
        // ...and dbg, the actual least recently used entry, was evicted.
        let (_, hit) = cache.get_or_compute(d, &scheme("dbg"), &r).unwrap();
        assert!(!hit, "the least recently used entry must be the victim");
    }

    #[test]
    fn zero_capacity_disables_storage_but_counts() {
        let cache = PermCache::new(0);
        let r = resolved("euroroad");
        let d = r.digest.unwrap();
        let (first, _) = cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        let (first_gaps, _) = gaps(&first, &r);
        let (second, _) = cache.get_or_compute(d, &scheme("rcm"), &r).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 2);
        // No stored ordering, so no stored measure either: the second
        // request computes its own, and answers the same.
        assert_eq!(gaps(&second, &r), (first_gaps, COMPUTED));
    }
}
