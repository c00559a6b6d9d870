//! Offline stand-in for the `peak_alloc` crate: a global allocator over
//! [`System`] that counts the bytes live now and the most bytes live at
//! once since the last reset. Install it in a test binary with
//!
//! ```ignore
//! #[global_allocator]
//! static HEAP: peak_alloc::PeakAlloc = peak_alloc::PeakAlloc;
//! ```
//!
//! `realloc` is the trait's default (allocate, copy, free), so a growing
//! buffer counts its old and its new block at once, as a regrow that cannot
//! stay in place holds both.
//!
//! The one `unsafe` is the `GlobalAlloc` impl; the workspace crates forbid
//! unsafe code, so their tests reach a counting allocator through this
//! crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The counting allocator; every instance shares one pair of counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct PeakAlloc;

impl PeakAlloc {
    /// Bytes allocated and not yet freed.
    pub fn current_usage(&self) -> usize {
        CURRENT.load(Ordering::SeqCst)
    }

    /// The most bytes live at once since the last reset (or the start).
    pub fn peak_usage(&self) -> usize {
        PEAK.load(Ordering::SeqCst)
    }

    /// Restarts the peak from the bytes live now.
    pub fn reset_peak_usage(&self) {
        PEAK.store(CURRENT.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    fn count(ptr: *mut u8, size: usize) -> *mut u8 {
        if !ptr.is_null() {
            let now = CURRENT.fetch_add(size, Ordering::SeqCst) + size;
            PEAK.fetch_max(now, Ordering::SeqCst);
        }
        ptr
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// a side effect only.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(System.alloc(layout), layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(System.alloc_zeroed(layout), layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}
