//! Peak live heap, counted by a thin wrapper around the system allocator.
//!
//! Counting runs from process start until [`stop`]. [`reset_peak`] drops
//! the peak to the bytes live at that moment, so the figure can cover the
//! warm-up ops alone, on top of the inputs and reference outputs the
//! benchmark holds. Timed ops run after [`stop`], when each allocation
//! pays only one relaxed load. Live bytes, unlike resident
//! memory, do not depend on how the C allocator's per-thread arenas happen
//! to retain freed pages, so the figure repeats from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// The benchmark's global allocator.
pub struct CountingAlloc;

// All three are statistics that publish no other data, so `Relaxed`
// suffices; `reset_peak` and `stop` run when no other thread is alive.
static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the counting touches only the atomics above.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && COUNTING.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    // Forwarded, not left to the default `alloc` + memset, so large zeroed
    // allocations keep the system allocator's fresh-page fast path.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && COUNTING.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && COUNTING.load(Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Lowers the peak to the bytes live now. Call it while no other thread
/// allocates.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Stops counting and returns the peak live heap so far, in MiB. Call it
/// while no other thread allocates.
pub fn stop() -> f64 {
    COUNTING.store(false, Relaxed);
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
