//! Proves the keyed DC-net round path is allocation-free in steady state.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator; after a short
//! warm-up that provisions the pooled contribution buffers, further silent
//! rounds must not touch the heap at all. This pins the ISSUE-7
//! acceptance requirement ("zero heap allocations per round in the
//! steady-state contribute path") as a test rather than a one-off
//! measurement.
//!
//! Only the measuring thread is counted, and only while it has armed its
//! thread-local flag: the allocator is process-wide, and libtest's own
//! threads allocate whenever the host schedules them inside the window.

use fnp_dcnet::keyed::KeyedDcGroup;
use fnp_dcnet::slot::SlotOutcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(count)` while this thread is measuring. Const-initialised and
    /// without a destructor, so reading it from inside the allocator
    /// neither allocates nor touches a torn-down slot.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts one heap request against the calling thread, if it is measuring.
fn count_allocation() {
    ALLOCATIONS.with(|armed| armed.set(armed.get().map(|count| count + 1)));
}

struct CountingAllocator;

// SAFETY: every operation is forwarded verbatim to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter update with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `measured` and returns how often this thread asked for heap memory
/// while it ran.
fn allocations_during(measured: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|armed| armed.set(Some(0)));
    measured();
    ALLOCATIONS
        .with(|armed| armed.take())
        .expect("armed just above")
}

#[test]
fn steady_state_keyed_rounds_do_not_allocate() {
    // Peers per member: a batch of eight with an empty lane (k = 8), a
    // full batch (9), a full batch and a one-peer tail (10), four batches
    // (32; fewer rounds, for the unoptimised test build's sake).
    for (k, rounds) in [(8usize, 100u64), (9, 100), (10, 100), (32, 10)] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut group = KeyedDcGroup::new(k, 512, &mut rng).expect("k ≥ 2");
        let payloads: Vec<Option<Vec<u8>>> = vec![None; k];

        // Warm up: the first rounds provision the pooled contribution
        // buffers and the combine accumulator.
        for round in 0..3 {
            group.run_round(round, &payloads).expect("warm-up round");
        }

        let allocated = allocations_during(|| {
            for round in 3..3 + rounds {
                let report = group
                    .run_round(round, &payloads)
                    .expect("steady-state round");
                assert_eq!(report.outcome, SlotOutcome::Silence);
            }
        });
        assert_eq!(
            allocated, 0,
            "steady-state contribute/combine path touched the heap {allocated} times \
             in {rounds} rounds at k = {k}"
        );
    }
}
