//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates-io access, so this workspace-local
//! shim provides the (small) subset of rayon's API the other crates use,
//! implemented with `std::thread::scope` and no `unsafe`. Semantics match
//! rayon where it matters here:
//!
//! - parallel iterators preserve input order in `collect`, so results are
//!   deterministic and independent of the worker count;
//! - `ThreadPoolBuilder::num_threads(k)` bounds the concurrency of parallel
//!   calls made inside `ThreadPool::install`, including the ones nested in a
//!   worker of such a call;
//! - `map_init` creates one scratch value per span, never sharing it across
//!   workers;
//! - a panic raised in a worker reaches the caller with its own payload.
//!
//! # The producer model
//!
//! A [`ParIter`] wraps a [`Producer`](plumbing::Producer): a source that
//! knows its length, can [`split_at`](plumbing::Producer::split_at) an index
//! into two producers of its own type, and becomes an ordinary serial
//! iterator. A slice splits with
//! `split_at` (or `split_at_mut`) and a range by arithmetic, so splitting
//! copies and materialises nothing; an owned `Vec` splits with `split_off`,
//! which moves items it owns anyway. `enumerate` carries the offset of its
//! first item, `zip` splits both sides at one index (its length is the
//! shorter one's, as in rayon), and `chunks` splits at multiples of its size.
//!
//! A terminal call (`for_each`, `collect`) cuts its producer into at
//! most `current_num_threads()` contiguous spans, runs the first on the
//! calling thread and every other one on a scoped thread of its own, and
//! returns the per-span results in span order. `for_each` allocates nothing
//! per item; `collect` concatenates the span outputs once, and a one-span
//! call returns its `Vec` as is.
//!
//! There is no parallel `sum`, `fold`, `reduce` or `product`: a float
//! reduction regrouped by the schedule would change its bits with the
//! width. A reduction collects its parts in input order and folds them
//! serially (`reorderlab_graph::det_sum_f64`), and rustc rejects any other
//! way to write it.
//!
//! What it is not: spans are static (even, fixed by length and width), no
//! work is stolen, and no worker outlives its call. Every parallel call is
//! one `std::thread::scope` that spawns its workers, about 20 µs per call
//! on the development host, so a loop much shorter than that is cheaper on
//! one thread.
//!
//! # Spans by arcs
//!
//! Even spans suit items of even cost, but a pass over a graph's rows costs
//! about one unit per arc plus a constant per row (weighed here as one
//! arc), and on a hub-first layout the first even span holds most of the
//! arcs while the other workers idle.
//! Such a pass cuts its rows with [`arc_spans`] instead: at most
//! `current_num_threads()` contiguous spans of near-equal weight
//! Σ (degree(v) + 1), read off the CSR arc prefix the graph already keeps,
//! so the cut costs one binary search per worker and no pass. It runs the
//! spans as the items of a parallel call (one per worker), with each span's
//! piece of an output array split off by [`span_slices`].
#![forbid(unsafe_code)]

use plumbing::{Chunks, Enumerate, Zip};
use std::cell::Cell;
use std::thread::{Scope, ScopedJoinHandle};

/// Seeded adversarial scheduler, compiled only under `--features chaos`.
///
/// The shim's static scheduling is *too* tame to catch order-dependent
/// bugs: every run at a given thread count splits work identically. This
/// module deterministically derives, from `REORDERLAB_CHAOS_SEED` (or an
/// in-process [`chaos::set_seed`] override), a different schedule per
/// parallel call: uneven span boundaries (split points of the same
/// producer), a permuted spawn order, permuted yield pressure per worker,
/// and swapped `join` arms. Results must still be bit-identical to the
/// serial path — the chaos-schedules test tier asserts
/// exactly that. The one-thread path stays untouched as the oracle.
#[cfg(feature = "chaos")]
pub mod chaos {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// Sentinel for "no in-process override; read the environment".
    const UNSET: u64 = u64::MAX;
    static SEED_OVERRIDE: AtomicU64 = AtomicU64::new(UNSET);
    /// Per-process call counter so successive parallel calls under one seed
    /// still see distinct schedules.
    static CALL: AtomicU64 = AtomicU64::new(0);

    fn env_seed() -> u64 {
        static ENV: OnceLock<u64> = OnceLock::new();
        *ENV.get_or_init(|| {
            std::env::var("REORDERLAB_CHAOS_SEED")
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
                .unwrap_or(0)
        })
    }

    /// The active chaos seed: the in-process override if one was set, else
    /// `REORDERLAB_CHAOS_SEED`, else 0.
    pub fn seed() -> u64 {
        match SEED_OVERRIDE.load(Ordering::Relaxed) {
            UNSET => env_seed(),
            s => s,
        }
    }

    /// Overrides the seed for this process and restarts the call counter,
    /// so test tiers can iterate many schedules without respawning.
    pub fn set_seed(seed: u64) {
        SEED_OVERRIDE.store(seed, Ordering::Relaxed);
        CALL.store(0, Ordering::Relaxed);
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A splitmix64 counter stream; cheap, stateless between calls.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(self.0)
        }

        /// Uniform-ish draw in `0..n` (modulo bias is irrelevant here:
        /// any schedule is a valid schedule).
        fn below(&mut self, n: usize) -> usize {
            if n <= 1 {
                0
            } else {
                (self.next() % n as u64) as usize
            }
        }
    }

    /// One RNG per parallel call, derived from seed × call index. When
    /// parallel calls nest, the counter order (and thus which schedule each
    /// call draws) may itself race — that is fine: chaos schedules need not
    /// be reproducible, only the *results* computed under them.
    fn call_rng() -> Rng {
        let call = CALL.fetch_add(1, Ordering::Relaxed);
        Rng(splitmix64(seed()) ^ splitmix64(call.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    /// Whether the next [`crate::join`] should run its arms in swapped order.
    pub(crate) fn swap_join() -> bool {
        call_rng().next() & 1 == 1
    }

    /// An adversarial schedule for one parallel call.
    pub(crate) struct Plan {
        /// Uneven span sizes in input order; each ≥ 1, summing to `len`.
        pub(crate) sizes: Vec<usize>,
        /// Spawn-order permutation over span indices.
        pub(crate) spawn_order: Vec<usize>,
        /// `yield_now` count injected before each span starts.
        pub(crate) yields: Vec<u32>,
    }

    /// Draws a schedule for `len` items across at most `threads` workers.
    /// Callers guarantee `len > 1` and `threads > 1`.
    pub(crate) fn plan(len: usize, threads: usize) -> Plan {
        let mut rng = call_rng();
        let max_chunks = threads.min(len).max(2);
        let k = 2 + rng.below(max_chunks - 1);
        let mut sizes = Vec::with_capacity(k);
        let mut remaining = len;
        for i in 0..k {
            let slots_left = k - i;
            let take = if slots_left == 1 {
                remaining
            } else {
                // Leave at least one item for every remaining slot.
                1 + rng.below(remaining - (slots_left - 1))
            };
            sizes.push(take);
            remaining -= take;
        }
        let mut spawn_order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = rng.below(i + 1);
            spawn_order.swap(i, j);
        }
        let yields = (0..k).map(|_| rng.below(4) as u32).collect();
        Plan { sizes, spawn_order, yields }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

thread_local! {
    /// Concurrency bound installed by [`ThreadPool::install`]; 0 = default.
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel calls on this thread will use.
///
/// Resolution order matches rayon's global pool: an installed
/// [`ThreadPool`] bound wins, then the `RAYON_NUM_THREADS` environment
/// variable, then the machine's available parallelism.
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_THREADS.with(|t| t.get());
    if installed > 0 {
        return installed;
    }
    if let Some(n) = env_num_threads() {
        return n;
    }
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// `RAYON_NUM_THREADS`, parsed once; `None` if unset, empty, zero, or
/// unparsable (rayon treats those as "use the default").
fn env_num_threads() -> Option<usize> {
    static ENV_THREADS: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// Error type of [`ThreadPoolBuilder::build`]; the shim never fails.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A concurrency bound that applies to parallel calls within `install`.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = INSTALLED_THREADS.with(|t| t.replace(self.num_threads));
        let result = op();
        INSTALLED_THREADS.with(|t| t.set(prev));
        result
    }
}

/// Spawns `f` on `scope` under the spawning thread's installed bound. The
/// bound is a thread-local, so without this hand-over a parallel call nested
/// in a worker would run at the machine's width, not the pool's.
fn spawn_inheriting<'scope, T, F>(
    scope: &'scope Scope<'scope, '_>,
    f: F,
) -> ScopedJoinHandle<'scope, T>
where
    T: Send + 'scope,
    F: FnOnce() -> T + Send + 'scope,
{
    let installed = INSTALLED_THREADS.with(|t| t.get());
    scope.spawn(move || {
        INSTALLED_THREADS.with(|t| t.set(installed));
        f()
    })
}

/// Joins a worker and re-raises its panic with the original payload, as
/// rayon does, so `catch_unwind` and `#[should_panic(expected = ..)]` see
/// the kernel's message, not the shim's.
fn join_worker<T>(handle: ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    #[cfg(feature = "chaos")]
    if chaos::swap_join() {
        // Adversarial order: `b` runs on the caller thread while `a` is
        // spawned; the result tuple keeps its (ra, rb) contract.
        return std::thread::scope(|s| {
            let ha = spawn_inheriting(s, a);
            let rb = b();
            (join_worker(ha), rb)
        });
    }
    std::thread::scope(|s| {
        let hb = spawn_inheriting(s, b);
        let ra = a();
        (ra, join_worker(hb))
    })
}

/// Cuts `producer` into spans and runs `consume` on each, returning the
/// results in span (= input) order. One thread, or one item, is one span
/// on the calling thread.
fn run_spans<P, S, C>(producer: P, consume: C) -> Vec<S>
where
    P: plumbing::Producer,
    S: Send,
    C: Fn(P) -> S + Sync,
{
    let threads = current_num_threads().max(1);
    let len = producer.len();
    if threads == 1 || len <= 1 {
        return vec![consume(producer)];
    }
    #[cfg(feature = "chaos")]
    return run_spans_chaos(producer, &consume, threads);
    #[cfg(not(feature = "chaos"))]
    run_spans_static(producer, &consume, threads)
}

/// The default schedule: spans of `ceil(len / threads)` items cut from the
/// back (so the first may be shorter); the first runs on the calling
/// thread, every other one on a scoped thread of its own.
#[cfg(not(feature = "chaos"))]
fn run_spans_static<P, S, C>(producer: P, consume: &C, threads: usize) -> Vec<S>
where
    P: plumbing::Producer,
    S: Send,
    C: Fn(P) -> S + Sync,
{
    let len = producer.len();
    let span = len.div_ceil(threads);
    let mut sizes = vec![span; len.div_ceil(span)];
    sizes[0] = len - span * (sizes.len() - 1);
    let mut spans = split_spans(producer, &sizes).into_iter();
    let first = spans.next().expect("a producer of length > 1 has a first span");
    std::thread::scope(|s| {
        let handles: Vec<_> = spans.map(|p| spawn_inheriting(s, move || consume(p))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(consume(first));
        out.extend(handles.into_iter().map(join_worker));
        out
    })
}

/// The adversarial schedule: the plan's uneven spans, spawned in its
/// permuted order, each after its yields; results are slotted back by span
/// index, so they equal the static path's however the workers race.
#[cfg(feature = "chaos")]
fn run_spans_chaos<P, S, C>(producer: P, consume: &C, threads: usize) -> Vec<S>
where
    P: plumbing::Producer,
    S: Send,
    C: Fn(P) -> S + Sync,
{
    let plan = chaos::plan(producer.len(), threads);
    let mut spans: Vec<Option<P>> =
        split_spans(producer, &plan.sizes).into_iter().map(Some).collect();
    let mut out: Vec<Option<S>> = spans.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .spawn_order
            .iter()
            .map(|&idx| {
                let span = spans[idx].take().expect("each span spawns exactly once");
                let yields = plan.yields[idx];
                let handle = spawn_inheriting(s, move || {
                    for _ in 0..yields {
                        std::thread::yield_now();
                    }
                    consume(span)
                });
                (idx, handle)
            })
            .collect();
        for (idx, handle) in handles {
            out[idx] = Some(join_worker(handle));
        }
    });
    out.into_iter().map(|s| s.expect("every span completed")).collect()
}

/// Splits `producer` into consecutive spans of `sizes` (which sum to its
/// length), cutting from the back so that an owned `Vec` moves each item at
/// most once.
fn split_spans<P: plumbing::Producer>(producer: P, sizes: &[usize]) -> Vec<P> {
    let mut spans = Vec::with_capacity(sizes.len());
    let mut rest = producer;
    for &size in sizes[1..].iter().rev() {
        let at = rest.len() - size;
        let (head, tail) = rest.split_at(at);
        spans.push(tail);
        rest = head;
    }
    spans.push(rest);
    spans.reverse();
    spans
}

/// Cuts the rows `0..n` of a CSR arc prefix — `offsets` has `n + 1`
/// entries and row `v` owns arcs `offsets[v]..offsets[v + 1]` — into at
/// most `current_num_threads()` contiguous, non-empty spans of near-equal
/// weight Σ (degree(v) + 1), in row order. No span outweighs the total
/// divided by the width by more than its heaviest row, so a hub costs its
/// own span's worker and no one else's. No rows (`n = 0`) give no spans;
/// one thread, or one row, gives the single span `0..n`.
///
/// Under `--features chaos` the cut points come from the seeded plan
/// instead, so the chaos tiers still move every caller's row boundaries.
pub fn arc_spans(offsets: &[usize]) -> Vec<std::ops::Range<usize>> {
    let n = offsets.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let threads = current_num_threads().clamp(1, n);
    if threads == 1 {
        return std::iter::once(0..n).collect();
    }
    #[cfg(feature = "chaos")]
    return chaos::plan(n, threads)
        .sizes
        .into_iter()
        .scan(0, |start, len| {
            let span = *start..*start + len;
            *start += len;
            Some(span)
        })
        .collect();
    #[cfg(not(feature = "chaos"))]
    balanced_spans(offsets, threads)
}

/// The weight-balanced cut of [`arc_spans`] for `2 <= threads <= n`: span
/// `k` ends at the first row boundary whose prefix weight reaches `k / threads`
/// of the total, found by binary search; a boundary that repeats (a row
/// heavier than a whole share) closes no second, empty span.
#[cfg(not(feature = "chaos"))]
fn balanced_spans(offsets: &[usize], threads: usize) -> Vec<std::ops::Range<usize>> {
    let n = offsets.len() - 1;
    // The weight of rows `0..v`; it rises by at least one per row.
    let before = |v: usize| offsets[v] - offsets[0] + v;
    let total = before(n) as u128;
    let mut spans = Vec::with_capacity(threads);
    let mut start = 0;
    for k in 1..=threads as u128 {
        let target = (total * k / threads as u128) as usize;
        let (mut lo, mut hi) = (start, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo > start {
            spans.push(start..lo);
            start = lo;
        }
    }
    spans
}

/// Splits `slice` into the pieces `slice[span]` of `spans` (in order and
/// disjoint), as mutable borrows a parallel call can hand one per worker.
///
/// # Panics
///
/// Panics if the spans are out of order or out of the slice's bounds.
pub fn span_slices<'a, T>(
    mut rest: &'a mut [T],
    spans: &[std::ops::Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut at = 0;
    spans
        .iter()
        .map(|span| {
            let tail = std::mem::take(&mut rest).split_at_mut(span.start - at).1;
            let (piece, tail) = tail.split_at_mut(span.len());
            rest = tail;
            at = span.end;
            piece
        })
        .collect()
}

/// Concatenates span outputs in span order. The first span's buffer grows
/// to hold the rest, so a one-span call returns its `Vec` untouched.
fn concat<R>(spans: Vec<Vec<R>>) -> Vec<R> {
    let total = spans.iter().map(Vec::len).sum::<usize>();
    let mut spans = spans.into_iter();
    let mut out = spans.next().unwrap_or_default();
    out.reserve_exact(total - out.len());
    for span in spans {
        out.extend(span);
    }
    out
}

/// The splitting side of a parallel iterator, named as in rayon
/// (`rayon::iter::plumbing`).
///
/// Kept out of the crate root so that its `len`/`into_iter` never compete
/// with `Vec`'s own methods at a call site.
pub mod plumbing {
    /// A splittable source of items: what a [`ParIter`](crate::ParIter)
    /// runs over.
    ///
    /// `split_at(i)` returns the first `i` items and the rest as two producers
    /// of the same type, without copying a borrowed item; a terminal call cuts
    /// a producer into spans this way and drains each span with `into_iter`.
    #[allow(clippy::len_without_is_empty)]
    pub trait Producer: Send + Sized {
        type Item;
        type IntoIter: Iterator<Item = Self::Item>;
        /// Number of items.
        fn len(&self) -> usize;
        /// The first `index` items and the rest; `index <= self.len()`.
        fn split_at(self, index: usize) -> (Self, Self);
        /// The items, in order, as a serial iterator.
        fn into_iter(self) -> Self::IntoIter;
    }

    impl<'a, T: Sync> Producer for &'a [T] {
        type Item = &'a T;
        type IntoIter = std::slice::Iter<'a, T>;
        fn len(&self) -> usize {
            <[T]>::len(self)
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            <[T]>::split_at(self, index)
        }
        fn into_iter(self) -> Self::IntoIter {
            self.iter()
        }
    }

    impl<'a, T: Send> Producer for &'a mut [T] {
        type Item = &'a mut T;
        type IntoIter = std::slice::IterMut<'a, T>;
        fn len(&self) -> usize {
            <[T]>::len(self)
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            self.split_at_mut(index)
        }
        fn into_iter(self) -> Self::IntoIter {
            self.iter_mut()
        }
    }

    impl Producer for std::ops::Range<usize> {
        type Item = usize;
        type IntoIter = Self;
        fn len(&self) -> usize {
            ExactSizeIterator::len(self)
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let mid = self.start + index;
            (self.start..mid, mid..self.end)
        }
        fn into_iter(self) -> Self {
            self
        }
    }

    impl Producer for std::ops::Range<u32> {
        type Item = u32;
        type IntoIter = Self;
        fn len(&self) -> usize {
            ExactSizeIterator::len(self)
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            // `index <= len`, and the length of a `Range<u32>` fits a `u32`.
            let mid = self.start + index as u32;
            (self.start..mid, mid..self.end)
        }
        fn into_iter(self) -> Self {
            self
        }
    }

    /// Owned items split with `split_off`: the one producer that moves items,
    /// and only items it owns.
    impl<T: Send> Producer for Vec<T> {
        type Item = T;
        type IntoIter = std::vec::IntoIter<T>;
        fn len(&self) -> usize {
            Vec::len(self)
        }
        fn split_at(mut self, index: usize) -> (Self, Self) {
            let tail = self.split_off(index);
            (self, tail)
        }
        fn into_iter(self) -> Self::IntoIter {
            IntoIterator::into_iter(self)
        }
    }

    /// [`ParIter::enumerate`](crate::ParIter::enumerate): the base producer
    /// and the index of its first item.
    pub struct Enumerate<P> {
        pub(crate) base: P,
        pub(crate) offset: usize,
    }

    impl<P: Producer> Producer for Enumerate<P> {
        type Item = (usize, P::Item);
        type IntoIter = std::iter::Zip<std::ops::Range<usize>, P::IntoIter>;
        fn len(&self) -> usize {
            self.base.len()
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let (head, tail) = self.base.split_at(index);
            (
                Enumerate { base: head, offset: self.offset },
                Enumerate { base: tail, offset: self.offset + index },
            )
        }
        fn into_iter(self) -> Self::IntoIter {
            (self.offset..self.offset + self.base.len()).zip(self.base.into_iter())
        }
    }

    /// [`ParIter::zip`](crate::ParIter::zip): both sides split at the same
    /// index; as long as the shorter one.
    pub struct Zip<A, B> {
        pub(crate) a: A,
        pub(crate) b: B,
    }

    impl<A: Producer, B: Producer> Producer for Zip<A, B> {
        type Item = (A::Item, B::Item);
        type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;
        fn len(&self) -> usize {
            self.a.len().min(self.b.len())
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let (a_head, a_tail) = self.a.split_at(index);
            let (b_head, b_tail) = self.b.split_at(index);
            (Zip { a: a_head, b: b_head }, Zip { a: a_tail, b: b_tail })
        }
        fn into_iter(self) -> Self::IntoIter {
            self.a.into_iter().zip(self.b.into_iter())
        }
    }

    /// [`ParIter::chunks`](crate::ParIter::chunks): splits at multiples of
    /// `size`; the last chunk may be shorter.
    pub struct Chunks<P> {
        pub(crate) base: P,
        pub(crate) size: usize,
    }

    impl<P: Producer> Producer for Chunks<P> {
        type Item = Vec<P::Item>;
        type IntoIter = ChunksIter<P::IntoIter>;
        fn len(&self) -> usize {
            self.base.len().div_ceil(self.size)
        }
        fn split_at(self, index: usize) -> (Self, Self) {
            let at = (index * self.size).min(self.base.len());
            let (head, tail) = self.base.split_at(at);
            (Chunks { base: head, size: self.size }, Chunks { base: tail, size: self.size })
        }
        fn into_iter(self) -> Self::IntoIter {
            ChunksIter { iter: self.base.into_iter(), size: self.size }
        }
    }

    /// The serial side of [`Chunks`]: `Vec`s of `size` items.
    pub struct ChunksIter<I> {
        iter: I,
        size: usize,
    }

    impl<I: Iterator> Iterator for ChunksIter<I> {
        type Item = Vec<I::Item>;
        fn next(&mut self) -> Option<Self::Item> {
            let chunk: Vec<I::Item> = self.iter.by_ref().take(self.size).collect();
            (!chunk.is_empty()).then_some(chunk)
        }
    }
}

/// An order-preserving parallel iterator over a [`Producer`](plumbing::Producer).
pub struct ParIter<P> {
    producer: P,
}

impl<P: plumbing::Producer> ParIter<P> {
    pub fn map<R, F>(self, f: F) -> Map<P, F>
    where
        R: Send,
        F: Fn(P::Item) -> R + Sync,
    {
        Map { producer: self.producer, f }
    }

    /// Per-span scratch state, as in rayon's `map_init`.
    pub fn map_init<I, R, INIT, F>(self, init: INIT, f: F) -> MapInit<P, INIT, F>
    where
        R: Send,
        INIT: Fn() -> I + Sync,
        F: Fn(&mut I, P::Item) -> R + Sync,
    {
        MapInit { producer: self.producer, init, f }
    }

    /// Groups items into `Vec`s of `size` (the last may be shorter).
    pub fn chunks(self, size: usize) -> ParIter<Chunks<P>> {
        assert!(size > 0, "chunk size must be positive");
        ParIter { producer: Chunks { base: self.producer, size } }
    }

    pub fn enumerate(self) -> ParIter<Enumerate<P>> {
        ParIter { producer: Enumerate { base: self.producer, offset: 0 } }
    }

    pub fn zip<Q: IntoParallelIterator>(self, other: Q) -> ParIter<Zip<P, Q::Iter>> {
        ParIter { producer: Zip { a: self.producer, b: other.into_par_iter().producer } }
    }

    pub fn for_each<F: Fn(P::Item) + Sync>(self, f: F) {
        run_spans(self.producer, |span| span.into_iter().for_each(&f));
    }

    pub fn collect<C: FromIterator<P::Item>>(self) -> C {
        self.producer.into_iter().collect()
    }
}

/// Lazy `map` stage of [`ParIter`]; executes on `collect`/`for_each`.
pub struct Map<P, F> {
    producer: P,
    f: F,
}

impl<P, R, F> Map<P, F>
where
    P: plumbing::Producer,
    R: Send,
    F: Fn(P::Item) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let Map { producer, f } = self;
        concat(run_spans(producer, |span| span.into_iter().map(&f).collect())).into_iter().collect()
    }

    pub fn for_each<G: Fn(R) + Sync>(self, g: G) {
        let Map { producer, f } = self;
        run_spans(producer, |span| span.into_iter().for_each(|t| g(f(t))));
    }
}

/// Lazy `map_init` stage of [`ParIter`].
pub struct MapInit<P, INIT, F> {
    producer: P,
    init: INIT,
    f: F,
}

impl<P, I, R, INIT, F> MapInit<P, INIT, F>
where
    P: plumbing::Producer,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, P::Item) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let MapInit { producer, init, f } = self;
        let spans = run_spans(producer, |span| {
            let mut scratch = init();
            span.into_iter().map(|t| f(&mut scratch, t)).collect()
        });
        concat(spans).into_iter().collect()
    }
}

/// `into_par_iter()` — mirrors `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: plumbing::Producer<Item = Self::Item>;
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = Vec<T>;
    fn into_par_iter(self) -> ParIter<Vec<T>> {
        ParIter { producer: self }
    }
}

impl<P: plumbing::Producer> IntoParallelIterator for ParIter<P>
where
    P::Item: Send,
{
    type Item = P::Item;
    type Iter = P;
    fn into_par_iter(self) -> ParIter<P> {
        self
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = Self;
    fn into_par_iter(self) -> ParIter<Self> {
        ParIter { producer: self }
    }
}

impl IntoParallelIterator for std::ops::Range<u32> {
    type Item = u32;
    type Iter = Self;
    fn into_par_iter(self) -> ParIter<Self> {
        ParIter { producer: self }
    }
}

/// `par_iter()` — mirrors `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    type Iter: plumbing::Producer<Item = Self::Item>;
    fn par_iter(&'a self) -> ParIter<Self::Iter>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = &'a [T];
    fn par_iter(&'a self) -> ParIter<&'a [T]> {
        ParIter { producer: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = &'a [T];
    fn par_iter(&'a self) -> ParIter<&'a [T]> {
        ParIter { producer: self.as_slice() }
    }
}

/// `par_iter_mut()` — mirrors `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    type Iter: plumbing::Producer<Item = Self::Item>;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Iter>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = &'a mut [T];
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut [T]> {
        ParIter { producer: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = &'a mut [T];
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut [T]> {
        ParIter { producer: self.as_mut_slice() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_cover_all_items() {
        let chunks: Vec<Vec<usize>> = (0..10usize).into_par_iter().chunks(4).collect();
        assert_eq!(chunks, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
    }

    #[test]
    fn sum_is_deterministic() {
        let v: Vec<f64> = (0..10_000).map(|i| (i as f64).sqrt()).collect();
        let parts: Vec<f64> = v.par_iter().map(|&x| x).collect();
        let a: f64 = parts.iter().sum();
        let b: f64 = v.iter().sum();
        assert_eq!(a, b);
    }

    #[test]
    fn for_each_mut_writes_every_slot() {
        let mut v = vec![0usize; 257];
        v.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i);
        assert!(v.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn install_bounds_and_restores() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let before = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn installed_bound_reaches_workers_and_nested_calls() {
        // Two widths, so at least one is not the machine's own. Under
        // `--features chaos` the same calls go through the adversarial
        // scheduler's spawn site and both `join` arms.
        for width in [3usize, 5] {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let seen: Vec<Vec<usize>> = pool.install(|| {
                (0..2 * width)
                    .into_par_iter()
                    .map(|_| {
                        let nested: Vec<usize> =
                            (0..4usize).into_par_iter().map(|_| current_num_threads()).collect();
                        [vec![current_num_threads()], nested].concat()
                    })
                    .collect()
            });
            assert_eq!(seen, vec![vec![width; 5]; 2 * width]);
            for _ in 0..8 {
                let arms = pool.install(|| join(current_num_threads, current_num_threads));
                assert_eq!(arms, (width, width));
            }
        }
    }

    #[test]
    fn map_init_runs_init_per_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |scratch, x| {
                    *scratch += 1;
                    x
                },
            )
            .collect();
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert!(inits.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn arc_spans_cover_the_rows_and_span_slices_split_them() {
        // A hub at row 0 over 40 one-arc rows, at every width.
        let offsets: Vec<usize> = std::iter::once(0).chain((0..=40).map(|v| 40 + v)).collect();
        for threads in [1usize, 2, 3, 7, 64] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let spans = pool.install(|| arc_spans(&offsets));
            assert!((1..=threads).contains(&spans.len()), "{threads} threads");
            assert_eq!(spans[0].start, 0);
            assert_eq!(spans[spans.len() - 1].end, 41);
            assert!(spans.windows(2).all(|w| w[0].end == w[1].start));
            assert!(spans.iter().all(|s| !s.is_empty()));
            let mut rows: Vec<usize> = vec![0; 41];
            for (span, piece) in spans.iter().zip(span_slices(&mut rows, &spans)) {
                assert_eq!(piece.len(), span.len());
                for (v, slot) in span.clone().zip(piece) {
                    *slot = v + 1;
                }
            }
            assert!(rows.iter().enumerate().all(|(v, &x)| x == v + 1));
        }
        assert!(arc_spans(&[0]).is_empty(), "no rows, no spans");
        assert!(arc_spans(&[]).is_empty());
        let mut arcs = [0u8; 10];
        let pieces = span_slices(&mut arcs, &[2..5, 5..5, 7..10]);
        assert_eq!(pieces.iter().map(|p| p.len()).collect::<Vec<_>>(), [3, 0, 3]);
    }

    #[test]
    fn zip_pairs_in_order() {
        let a = vec![1, 2, 3];
        let b = vec![4, 5, 6];
        let products: Vec<i32> = a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).collect();
        assert_eq!(products, [4, 10, 18]);
        assert_eq!(products.iter().sum::<i32>(), 4 + 10 + 18);
    }
}

/// The producer model: every producer, split at 0, in the middle and at its
/// length, drains to exactly its serial iterator; composed adaptors give
/// the serial result at every width; and a panic inside any parallel call
/// reaches the caller with its own payload. Plain and under `chaos`.
#[cfg(test)]
mod producer_tests {
    use super::plumbing::{Chunks, Enumerate, Producer, Zip};
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Splits `make()` at 0, `len / 2` and `len`: the halves' lengths add
    /// up, and the halves drain, in order, to `serial`.
    fn assert_splits<P, T>(make: impl Fn() -> P, serial: &[T])
    where
        P: Producer<Item = T>,
        T: PartialEq + std::fmt::Debug,
    {
        let len = make().len();
        assert_eq!(len, serial.len(), "length");
        for at in [0, len / 2, len] {
            let (head, tail) = make().split_at(at);
            assert_eq!((head.len(), tail.len()), (at, len - at), "split at {at}");
            let drained: Vec<T> = head.into_iter().chain(tail.into_iter()).collect();
            assert_eq!(drained, serial, "split at {at}");
        }
    }

    #[test]
    fn base_producers_split_like_their_serial_iterators() {
        let v: Vec<u32> = (10..21).collect();
        assert_splits(|| v.as_slice(), &v.iter().collect::<Vec<_>>());
        assert_splits(|| v.clone(), &v);
        assert_splits(|| 3..14usize, &(3..14).collect::<Vec<_>>());
        assert_splits(|| 3..14u32, &(3..14).collect::<Vec<_>>());
        assert_splits(|| 5..5usize, &[]);
    }

    #[test]
    fn mutable_slices_split_into_disjoint_halves() {
        let mut v = vec![0u32; 9];
        for at in [0, 4, 9] {
            v.fill(0);
            let (head, tail) = Producer::split_at(v.as_mut_slice(), at);
            assert_eq!((head.len(), tail.len()), (at, 9 - at));
            for (i, x) in head.iter_mut().chain(tail.iter_mut()).enumerate() {
                *x = i as u32 + 1;
            }
            assert_eq!(v, (1..=9).collect::<Vec<_>>(), "split at {at}");
        }
    }

    #[test]
    fn enumerate_carries_its_offset_through_splits() {
        let serial: Vec<(usize, usize)> = (5..12).enumerate().collect();
        assert_splits(|| Enumerate { base: 5..12usize, offset: 0 }, &serial);
        // A span that starts at 3 numbers from 3, and so do its own halves.
        assert_splits(|| Enumerate { base: 5..12usize, offset: 0 }.split_at(3).1, &serial[3..]);
    }

    #[test]
    fn zip_of_unequal_lengths_is_as_long_as_the_shorter() {
        let v: Vec<u32> = (10..21).collect();
        let short_first: Vec<(usize, &u32)> = (0..5).zip(v.iter()).collect();
        assert_splits(|| Zip { a: 0..5usize, b: v.as_slice() }, &short_first);
        let long_first: Vec<(&u32, usize)> = v.iter().zip(0..5).collect();
        assert_splits(|| Zip { a: v.as_slice(), b: 0..5usize }, &long_first);
    }

    #[test]
    fn chunks_split_at_chunk_multiples_with_a_ragged_tail() {
        let serial = vec![vec![0usize, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]];
        assert_splits(|| Chunks { base: 0..10usize, size: 4 }, &serial);
        assert_splits(|| Chunks { base: 0..8usize, size: 4 }, &serial[..2]);
    }

    #[test]
    fn composed_adaptors_match_serial_at_every_width() {
        let v: Vec<u64> = (0..1000).map(|i| i * 7 % 13).collect();
        let serial: Vec<(usize, u64)> =
            v.chunks(9).enumerate().map(|(i, c)| (i, c.iter().sum::<u64>())).collect();
        let mut out = vec![0u64; v.len()];
        for threads in [1usize, 2, 7] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got: Vec<(usize, u64)> = pool.install(|| {
                v.par_iter()
                    .chunks(9)
                    .enumerate()
                    .map(|(i, c)| (i, c.iter().copied().sum::<u64>()))
                    .collect()
            });
            assert_eq!(got, serial, "{threads} threads");
            out.fill(0);
            pool.install(|| {
                out.par_iter_mut().zip(v.par_iter()).enumerate().for_each(|(i, (o, x))| {
                    *o = x + i as u64;
                })
            });
            assert!(
                out.iter().enumerate().all(|(i, &o)| o == v[i] + i as u64),
                "{threads} threads"
            );
        }
    }

    /// Runs `f`, which must panic, and returns the panic's message.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => {
                payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default()
            }
        }
    }

    /// The last item lands in a spawned worker under the static schedule
    /// (the caller runs the first span), and every span is spawned under
    /// `chaos`; `join`'s second arm is the spawned one unless chaos swaps.
    #[test]
    fn worker_panics_keep_their_payload() {
        for threads in [2usize, 7] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let msg = panic_message(|| {
                pool.install(|| {
                    (0..100usize).into_par_iter().for_each(|i| assert!(i != 99, "for_each hit {i}"))
                })
            });
            assert_eq!(msg, "for_each hit 99", "{threads} threads");
            let msg = panic_message(|| {
                pool.install(|| {
                    let _: Vec<usize> = (0..100usize)
                        .into_par_iter()
                        .map(|i| if i == 99 { panic!("map hit {i}") } else { i })
                        .collect();
                })
            });
            assert_eq!(msg, "map hit 99", "{threads} threads");
            for _ in 0..4 {
                let msg = panic_message(|| {
                    pool.install(|| join(|| -> u8 { panic!("left arm") }, || 1u8));
                });
                assert_eq!(msg, "left arm", "{threads} threads");
                let msg = panic_message(|| {
                    pool.install(|| join(|| 1u8, || -> u8 { panic!("right arm") }));
                });
                assert_eq!(msg, "right arm", "{threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel message 63")]
    fn should_panic_sees_a_worker_message() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            (0..64usize).into_par_iter().for_each(|i| assert!(i != 63, "kernel message {i}"))
        });
    }
}

/// Chaos-mode invariants. These run alongside the ordinary tests under
/// `--features chaos`; the assertions hold for *any* seed, so concurrent
/// tests mutating the global seed cannot make them flaky.
#[cfg(all(test, feature = "chaos"))]
mod chaos_tests {
    use super::*;

    #[test]
    fn chaos_schedules_preserve_order_across_seeds() {
        let expected: Vec<usize> = (0..997).map(|x| x * 3).collect();
        for seed in 0..8 {
            chaos::set_seed(seed);
            let out: Vec<usize> = (0..997usize).into_par_iter().map(|x| x * 3).collect();
            assert_eq!(out, expected, "seed {seed}");
        }
    }

    #[test]
    fn chaos_sum_stays_bit_identical_to_serial() {
        let v: Vec<f64> = (0..5000).map(|i| (i as f64).sqrt()).collect();
        let serial: f64 = v.iter().sum();
        for seed in [0u64, 1, 5, 17, 0xDEAD_BEEF] {
            chaos::set_seed(seed);
            let parts: Vec<f64> = v.par_iter().map(|&x| x).collect();
            let par: f64 = parts.iter().sum();
            assert_eq!(par.to_bits(), serial.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn chaos_plans_are_exhaustive_uneven_permutations() {
        chaos::set_seed(3);
        for len in [2usize, 3, 17, 1000] {
            for threads in [2usize, 4, 7] {
                let plan = chaos::plan(len, threads);
                assert_eq!(plan.sizes.iter().sum::<usize>(), len, "sizes cover every item");
                assert!(plan.sizes.iter().all(|&s| s >= 1), "no empty chunk");
                let k = plan.sizes.len();
                assert!((2..=threads.min(len).max(2)).contains(&k), "chunk count in range");
                let mut spawn = plan.spawn_order.clone();
                spawn.sort_unstable();
                assert_eq!(spawn, (0..k).collect::<Vec<_>>(), "spawn order is a permutation");
                assert_eq!(plan.yields.len(), k);
            }
        }
    }

    #[test]
    fn chaos_arc_spans_cover_the_rows_unevenly() {
        // 1000 rows of three arcs: the balanced cut at 4 threads is four
        // spans of 250 rows, which the seeded plans must move.
        let offsets: Vec<usize> = (0..=1000).map(|v| 3 * v).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut uneven = 0;
        for seed in 0..8 {
            chaos::set_seed(seed);
            let spans = pool.install(|| arc_spans(&offsets));
            assert!((2..=4).contains(&spans.len()), "seed {seed}");
            assert_eq!(spans[0].start, 0, "seed {seed}");
            assert_eq!(spans[spans.len() - 1].end, 1000, "seed {seed}");
            assert!(spans.windows(2).all(|w| w[0].end == w[1].start), "seed {seed}");
            assert!(spans.iter().all(|s| !s.is_empty()), "seed {seed}");
            uneven += usize::from(spans.iter().any(|s| s.len() != 250));
        }
        assert!(uneven > 0, "no seed moved a span boundary");
    }

    #[test]
    fn chaos_join_keeps_the_result_contract() {
        for seed in 0..8 {
            chaos::set_seed(seed);
            for _ in 0..4 {
                let (a, b) = join(|| 41 + 1, || "y".to_string());
                assert_eq!(a, 42);
                assert_eq!(b, "y");
            }
        }
    }

    #[test]
    fn chaos_for_each_mut_still_writes_every_slot() {
        for seed in 0..4 {
            chaos::set_seed(seed);
            let mut v = vec![0usize; 509];
            v.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i + 1);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1), "seed {seed}");
        }
    }
}
