//! The counting global allocator every allocation wall installs.
//!
//! A wall includes this file as a module,
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! which makes [`CountingAllocator`] the test binary's global allocator.
//! It forwards every operation to the system allocator and, while the
//! calling thread has armed its window, tallies that thread's heap
//! traffic in a [`Heap`]. Only the measuring thread is counted: the
//! allocator is process-wide, and libtest's own threads allocate whenever
//! the host schedules them inside the window. So walls in one binary may
//! run concurrently.

#![allow(
    dead_code,
    reason = "each wall reads the part of this API its bounds are about"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the measuring thread has asked of the heap since it armed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Heap {
    /// Requests: every `alloc` and every `realloc`.
    pub(crate) calls: u64,
    /// Bytes requested: every `alloc`'s size, every `realloc`'s new size.
    pub(crate) requested: u64,
    /// Bytes allocated and not yet freed.
    pub(crate) live: i64,
}

thread_local! {
    /// `Some` while this thread is measuring. Const-initialised and without
    /// a destructor, so reading it from inside the allocator neither
    /// allocates nor touches a torn-down slot.
    static HEAP: Cell<Option<Heap>> = const { Cell::new(None) };
}

/// Counts `calls` requests for `requested` bytes that change the live heap
/// by `delta` against the calling thread, if it is measuring.
fn count(calls: u64, requested: usize, delta: i64) {
    HEAP.with(|armed| {
        armed.set(armed.get().map(|heap| Heap {
            calls: heap.calls + calls,
            requested: heap.requested + requested as u64,
            live: heap.live + delta,
        }));
    });
}

/// The system allocator, counted.
struct CountingAllocator;

// SAFETY: every operation is forwarded verbatim to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter update with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Starts counting this thread's heap traffic from zero.
pub(crate) fn arm() {
    HEAP.with(|armed| armed.set(Some(Heap::default())));
}

/// This thread's counts since it armed.
///
/// # Panics
///
/// Panics if the thread is not measuring.
pub(crate) fn heap() -> Heap {
    HEAP.with(Cell::get).expect("the test armed the counters")
}

/// Stops counting and returns this thread's counts since it armed.
///
/// # Panics
///
/// Panics if the thread is not measuring.
pub(crate) fn disarm() -> Heap {
    HEAP.with(Cell::take).expect("the test armed the counters")
}

/// What `work` asked of the heap on this thread.
pub(crate) fn measure(work: impl FnOnce()) -> Heap {
    arm();
    work();
    disarm()
}
