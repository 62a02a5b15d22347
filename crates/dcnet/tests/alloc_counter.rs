//! Proves the keyed DC-net round path is allocation-free in steady state.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator; after a short
//! warm-up that provisions the pooled contribution buffers, one hundred
//! silent rounds must not touch the heap at all. This pins the ISSUE-7
//! acceptance requirement ("zero heap allocations per round in the
//! steady-state contribute path") as a test rather than a one-off
//! measurement.
//!
//! This file intentionally contains a single `#[test]`: the counter is
//! process-global, and a sibling test running concurrently would perturb
//! it.

use fnp_dcnet::keyed::KeyedDcGroup;
use fnp_dcnet::slot::SlotOutcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every operation is forwarded verbatim to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_keyed_rounds_do_not_allocate() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = KeyedDcGroup::new(16, 512, &mut rng).expect("group of 16");
    let payloads: Vec<Option<Vec<u8>>> = vec![None; 16];

    // Warm up: the first rounds provision the pooled contribution buffers
    // and the combine accumulator.
    for round in 0..3 {
        group.run_round(round, &payloads).expect("warm-up round");
    }

    let before = allocation_count();
    for round in 3..103 {
        let report = group
            .run_round(round, &payloads)
            .expect("steady-state round");
        assert_eq!(report.outcome, SlotOutcome::Silence);
    }
    let allocated = allocation_count() - before;
    assert_eq!(
        allocated, 0,
        "steady-state contribute/combine path touched the heap {allocated} times in 100 rounds"
    );
}
