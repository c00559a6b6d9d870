//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates-io access, so this workspace-local
//! shim provides the (small) subset of rayon's API the other crates use,
//! implemented with `std::thread::scope`. Semantics match rayon where it
//! matters here:
//!
//! - parallel iterators preserve input order in `collect`/`sum`, so results
//!   are deterministic and independent of the worker count;
//! - `ThreadPoolBuilder::num_threads(k)` bounds the concurrency of parallel
//!   calls made inside `ThreadPool::install`, including the ones nested in a
//!   worker of such a call;
//! - `map_init` creates one scratch value per worker chunk, never sharing it
//!   across workers.
//!
//! Work is split into one contiguous chunk per worker (static scheduling).
//! That is a reasonable fit for the regular, flat loops this workspace runs;
//! rayon's work stealing is not reproduced.

use std::cell::Cell;

/// Seeded adversarial scheduler, compiled only under `--features chaos`.
///
/// The shim's static scheduling is *too* tame to catch order-dependent
/// bugs: every run at a given thread count splits work identically. This
/// module deterministically derives, from `REORDERLAB_CHAOS_SEED` (or an
/// in-process [`chaos::set_seed`] override), a different schedule per
/// parallel call: uneven chunk boundaries, a permuted spawn order, permuted
/// yield pressure per worker, and swapped `join` arms. Results must still be
/// bit-identical to the serial path — the chaos-schedules test tier asserts
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

    /// An adversarial schedule for one chunked parallel call.
    pub(crate) struct Plan {
        /// Uneven chunk sizes in input order; each ≥ 1, summing to `len`.
        pub(crate) sizes: Vec<usize>,
        /// Spawn-order permutation over chunk indices.
        pub(crate) spawn_order: Vec<usize>,
        /// `yield_now` count injected before each chunk starts.
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
    scope: &'scope std::thread::Scope<'scope, '_>,
    f: F,
) -> std::thread::ScopedJoinHandle<'scope, T>
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
            (ha.join().expect("rayon-shim join worker panicked"), rb)
        });
    }
    std::thread::scope(|s| {
        let hb = spawn_inheriting(s, b);
        let ra = a();
        (ra, hb.join().expect("rayon-shim join worker panicked"))
    })
}

/// Splits `items` into at most `current_num_threads()` contiguous chunks and
/// maps each chunk on its own scoped thread, preserving input order. `init`
/// runs once per chunk, providing per-worker scratch for `f`.
fn run_chunked<T, I, R, INIT, F>(items: Vec<T>, init: INIT, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    let threads = current_num_threads().max(1);
    let len = items.len();
    if threads == 1 || len <= 1 {
        let mut scratch = init();
        return items.into_iter().map(|t| f(&mut scratch, t)).collect();
    }
    #[cfg(feature = "chaos")]
    return run_chunked_chaos(items, init, f, threads);
    #[cfg(not(feature = "chaos"))]
    run_chunked_static(items, init, f, threads)
}

/// The default static schedule: even contiguous chunks, spawned and joined
/// in order.
#[cfg(not(feature = "chaos"))]
fn run_chunked_static<T, I, R, INIT, F>(items: Vec<T>, init: INIT, f: F, threads: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    let len = items.len();
    let chunk_len = len.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    // Split back-to-front so each drain is O(chunk).
    while items.len() > chunk_len {
        chunks.push(items.split_off(items.len() - chunk_len));
    }
    chunks.push(items);
    // `chunks` is in reverse input order; pop-and-extend below restores it.
    let init = &init;
    let f = &f;
    let mut outputs: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                spawn_inheriting(s, move || {
                    let mut scratch = init();
                    chunk.into_iter().map(|t| f(&mut scratch, t)).collect::<Vec<R>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rayon-shim worker panicked")).collect()
    });
    let mut out = Vec::with_capacity(len);
    while let Some(chunk) = outputs.pop() {
        out.extend(chunk);
    }
    out
}

/// The adversarial schedule: uneven chunk boundaries, permuted spawn order,
/// and per-worker yield pressure, all drawn from the chaos seed. Each chunk
/// carries its original index, and outputs are reassembled by that index, so
/// the result is identical to the static path no matter how workers race.
#[cfg(feature = "chaos")]
fn run_chunked_chaos<T, I, R, INIT, F>(items: Vec<T>, init: INIT, f: F, threads: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    let len = items.len();
    let plan = chaos::plan(len, threads);
    // Split front-to-back into the planned uneven chunks, tagged with their
    // original position.
    let mut rest = items;
    let mut chunks: Vec<Option<(usize, Vec<T>)>> = Vec::with_capacity(plan.sizes.len());
    for (idx, &size) in plan.sizes.iter().enumerate() {
        let tail = rest.split_off(size);
        chunks.push(Some((idx, rest)));
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "plan sizes must cover every item");
    let init = &init;
    let f = &f;
    let mut slots: Vec<Option<Vec<R>>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .spawn_order
            .iter()
            .map(|&orig| {
                let (idx, chunk) = chunks[orig].take().expect("each chunk spawns exactly once");
                let yields = plan.yields[idx];
                spawn_inheriting(s, move || {
                    for _ in 0..yields {
                        std::thread::yield_now();
                    }
                    let mut scratch = init();
                    (idx, chunk.into_iter().map(|t| f(&mut scratch, t)).collect::<Vec<R>>())
                })
            })
            .collect();
        let mut slots: Vec<Option<Vec<R>>> = (0..plan.sizes.len()).map(|_| None).collect();
        for h in handles {
            let (idx, chunk_out) = h.join().expect("rayon-shim chaos worker panicked");
            slots[idx] = Some(chunk_out);
        }
        slots
    });
    let mut out = Vec::with_capacity(len);
    for slot in &mut slots {
        out.extend(slot.take().expect("every chunk completed"));
    }
    out
}

/// An order-preserving parallel iterator over an already-materialized list.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R, F>(self, f: F) -> MapIter<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        MapIter { items: self.items, f }
    }

    /// Per-worker scratch state, as in rayon's `map_init`.
    pub fn map_init<I, R, INIT, F>(self, init: INIT, f: F) -> MapInitIter<T, INIT, F>
    where
        R: Send,
        INIT: Fn() -> I + Sync,
        F: Fn(&mut I, T) -> R + Sync,
    {
        MapInitIter { items: self.items, init, f }
    }

    /// Groups items into `Vec`s of `size` (the last may be shorter).
    pub fn chunks(self, size: usize) -> ParIter<Vec<T>> {
        assert!(size > 0, "chunk size must be positive");
        let mut chunks = Vec::with_capacity(self.items.len().div_ceil(size));
        let mut items = self.items.into_iter();
        loop {
            let chunk: Vec<T> = items.by_ref().take(size).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        ParIter { items: chunks }
    }

    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    pub fn zip<U: Send>(self, other: impl IntoParallelIterator<Item = U>) -> ParIter<(T, U)> {
        let other = other.into_par_iter();
        ParIter { items: self.items.into_iter().zip(other.items).collect() }
    }

    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_chunked(self.items, || (), |(), t| f(t));
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

/// Lazy `map` stage of [`ParIter`]; executes on `collect`/`sum`/`for_each`.
pub struct MapIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> MapIter<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let f = self.f;
        run_chunked(self.items, || (), |(), t| f(t)).into_iter().collect()
    }

    /// Deterministic sum: parallel map, then a sequential fold in input
    /// order, so float accumulation order never depends on thread count.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        let f = self.f;
        run_chunked(self.items, || (), |(), t| f(t)).into_iter().sum()
    }

    pub fn for_each<G: Fn(R) + Sync>(self, g: G) {
        let f = self.f;
        run_chunked(self.items, || (), |(), t| g(f(t)));
    }
}

/// Lazy `map_init` stage of [`ParIter`].
pub struct MapInitIter<T, INIT, F> {
    items: Vec<T>,
    init: INIT,
    f: F,
}

impl<T, I, R, INIT, F> MapInitIter<T, INIT, F>
where
    T: Send,
    R: Send,
    INIT: Fn() -> I + Sync,
    F: Fn(&mut I, T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run_chunked(self.items, self.init, self.f).into_iter().collect()
    }
}

/// `into_par_iter()` — mirrors `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl IntoParallelIterator for std::ops::Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
        ParIter { items: self.collect() }
    }
}

/// `par_iter()` — mirrors `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

/// `par_iter_mut()` — mirrors `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter { items: self.iter_mut().collect() }
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
        let a: f64 = v.par_iter().map(|&x| x).sum();
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
    fn zip_pairs_in_order() {
        let a = vec![1, 2, 3];
        let b = vec![4, 5, 6];
        let s: i32 = a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum();
        assert_eq!(s, 4 + 10 + 18);
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
            let par: f64 = v.par_iter().map(|&x| x).sum();
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
