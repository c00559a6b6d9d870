//! The shim splits, it does not copy: a parallel call over 2²⁰ `f64`
//! allocates nothing per item for `for_each`, and at most twice its output
//! for `map().collect()` (the span outputs, then their concatenation),
//! at 1, 2 and 7 threads. Counted with a global allocator, not a clock.
//!
//! The one `unsafe` here is the `GlobalAlloc` impl the counting needs; the
//! shim itself is `#![forbid(unsafe_code)]`.

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes requested from the allocator: every `alloc`, plus the growth of
/// every `realloc`.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests share one counter, so they take turns.
static TURN: Mutex<()> = Mutex::new(());

const N: usize = 1 << 20;
const WIDTHS: [usize; 3] = [1, 2, 7];
const FOR_EACH_BUDGET: usize = 64 << 10;

/// Bytes requested while `f` runs on a pool of `threads`.
fn requested_by(threads: usize, f: impl FnOnce()) -> usize {
    let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    let before = REQUESTED.load(Ordering::SeqCst);
    pool.install(f);
    REQUESTED.load(Ordering::SeqCst) - before
}

#[test]
fn enumerate_for_each_over_a_mutable_slice_allocates_no_copy() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut v = vec![0.0f64; N];
    for threads in WIDTHS {
        let bytes =
            requested_by(threads, || v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i as f64));
        assert!(bytes < FOR_EACH_BUDGET, "{threads} threads: {bytes} bytes");
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as f64));
    }
}

#[test]
fn zipped_for_each_over_two_slices_allocates_no_copy() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let a: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let b = vec![1.0f64; N];
    let hits = AtomicUsize::new(0);
    for threads in WIDTHS {
        hits.store(0, Ordering::SeqCst);
        let bytes = requested_by(threads, || {
            a.par_iter().zip(b.par_iter()).for_each(|(x, y)| {
                if x + y == N as f64 {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        assert!(bytes < FOR_EACH_BUDGET, "{threads} threads: {bytes} bytes");
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}

#[test]
fn range_map_collect_allocates_at_most_twice_its_output() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let output = N * std::mem::size_of::<f64>();
    for threads in WIDTHS {
        let mut out = Vec::new();
        let bytes = requested_by(threads, || {
            out = (0..N).into_par_iter().map(|i| i as f64 * 0.5).collect::<Vec<f64>>();
        });
        assert!(bytes <= 2 * output, "{threads} threads: {bytes} bytes for a {output}-byte output");
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as f64 * 0.5));
    }
}
