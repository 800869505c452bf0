//! Peak live heap of the benchmark process, counted at the allocator.
//!
//! The resident set (`VmHWM`) of a run moved by a third between runs of
//! the same code: the allocator's per-thread arenas land differently
//! each time the batch evaluators spawn their scoped threads. The bytes
//! the program actually holds do not depend on that placement, so the
//! benchmark reports them instead: the highest total of live
//! allocations in a window, above the total live when the window opened
//! (so the benchmark's own buffers held across the window, such as the
//! host probe's, do not count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static BASE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their peak.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeakHeap;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are plain
// statistics that publish no memory.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Starts a new peak window at the live heap of this moment.
pub fn reset_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// Highest live heap since the last [`reset_peak`], above the live heap
/// at that call, in MiB (0 unless [`PeakHeap`] is the process's global
/// allocator).
#[must_use]
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(BASE.load(Ordering::Relaxed)) as f64
        / (1024.0 * 1024.0)
}
