//! A counting global allocator for the `*.allocs_*` layer counters.
//!
//! Counts are kept per thread, so a probe running on the benchmark's own
//! thread counts only its own allocator calls, never those of the
//! deployment's server, reader or reactor threads. Every call that can
//! hand out a new block counts once: `alloc`, `alloc_zeroed` and
//! `realloc`. The same inputs give the same counts on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread call counter.
pub struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it can neither
    // allocate nor fail during thread teardown.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Allocator calls made so far on the current thread.
pub fn thread_allocs() -> u64 {
    CALLS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
