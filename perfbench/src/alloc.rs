//! A counting global allocator: live bytes and a resettable
//! high-water mark, for the `peak_heap_mib` metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a live-bytes gauge with a high-water mark.
pub struct CountingAllocator;

fn grow(delta: u64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(delta: u64) {
    LIVE.fetch_sub(delta, Ordering::Relaxed);
}

// SAFETY: every operation defers to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the memory itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow((new_size - layout.size()) as u64);
        } else {
            shrink((layout.size() - new_size) as u64);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as u64);
        System.dealloc(ptr, layout)
    }
}

/// Starts a new measured phase: the high-water mark restarts from the
/// bytes live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live-byte count since the last [`reset_peak`], in MiB. Zero
/// in a binary that does not install [`CountingAllocator`].
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
