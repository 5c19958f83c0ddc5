//! A counting `#[global_allocator]` for the benchmark binary: the system
//! allocator plus one relaxed counter, so the traced pass can report heap
//! allocations per evaluation and per frame as exact counts. Counting is
//! off until [`count_allocations`] turns it on, so the untraced segments
//! pay one read of a never-written flag per call, not a shared counter
//! that three threads would bounce between cores.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator with every allocating call counted.
pub struct CountingAllocator;

// Relaxed throughout: flag and counter are statistics and publish no
// other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter update touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on (the traced pass) or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocating calls (alloc, alloc_zeroed, realloc) made by the whole
/// process while counting was on. Differences of two readings on one thread, with no
/// other thread running, count that thread's allocations exactly.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_but_not_frees() {
        // Other test threads allocate concurrently, so only lower bounds
        // are exact here; the benchmark reads the counter single-threaded.
        count_allocations(true);
        let before = allocations();
        let boxes: Vec<Box<u64>> = (0..100).map(Box::new).collect();
        let after_alloc = allocations();
        assert!(after_alloc - before >= 100, "{before} -> {after_alloc}");
        drop(std::hint::black_box(boxes));
        let mut v: Vec<u8> = Vec::with_capacity(1);
        let before_grow = allocations();
        v.extend_from_slice(&[0u8; 4096]);
        assert!(allocations() > before_grow, "realloc not counted");
    }
}
