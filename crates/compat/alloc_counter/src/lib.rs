//! A counting global allocator for allocation-regression tests.
//!
//! The workspace's hot paths promise *zero steady-state heap allocations*
//! (see the kernel architecture notes in the repo root). Promises rot unless
//! a test can observe them, and observing the allocator requires a global
//! hook — which is why this shim lives in its own crate: it is the only
//! place in the workspace allowed to use `unsafe`, and only for the two
//! `GlobalAlloc` forwarding calls.
//!
//! # Usage
//!
//! ```rust,ignore
//! use alloc_counter::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! let ((), allocations) = CountingAllocator::measure(|| hot_path());
//! assert_eq!(allocations, 0);
//! ```
//!
//! Counts are per thread: [`CountingAllocator::measure`] sees only the
//! allocations of the thread that calls it, so the test harness's own
//! threads (and concurrently running tests) never leak into a measurement.
//!
//! Only one `#[global_allocator]` may exist per binary, so tests that use
//! this live in dedicated integration-test files, not unit-test modules.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls this thread made inside [`CountingAllocator::measure`],
    /// or `None` while the thread is not measuring. Const-initialised and
    /// drop-free, so the allocator can touch it without allocating.
    static MEASURED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A [`GlobalAlloc`] that forwards to the system allocator and counts the
/// allocation calls of each thread inside [`CountingAllocator::measure`].
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (a zero-sized handle; the counters are
    /// thread-local).
    pub const fn new() -> Self {
        CountingAllocator
    }

    /// Runs `f` and returns its result with the number of allocation calls
    /// the calling thread made while it ran. Allocations on other threads,
    /// including threads `f` spawns, are not counted.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let outer = MEASURED.replace(Some(0));
        let result = f();
        let allocations = MEASURED.replace(outer).unwrap_or(0);
        (result, allocations)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: all allocator calls forward verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter update touches only a drop-free
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while the thread's locals are torn down,
        // when the thread is no longer measuring anyway.
        let _ = MEASURED.try_with(|measured| {
            if let Some(count) = measured.get() {
                measured.set(Some(count + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}
