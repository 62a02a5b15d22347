//! Allocation wall for the flood path: a flood on a warm arena requests
//! next to nothing from the heap.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator. The first
//! `run_flood_in` on a [`TrialArena`] grows the pooled time wheel, metrics,
//! hot lanes and node vector to the trial's size; the second, over the same
//! overlay, must then get by on what a flood inherently allocates — one
//! exclusion list per *first receipt* — and nothing per event: a queued
//! delivery owns its payload in place, cloned at send time, with no heap
//! box around it. A per-node buffer, a per-dispatch `Vec`, a boxed or
//! reference-counted payload per fan-out or a wheel that drops its buckets
//! between trials each cost more than the bound below.
//! The first run records first receipts and the second does not: an
//! unrecorded flood carries no receipt table even when the pooled metrics
//! it was handed held one.
//!
//! This file intentionally contains a single test: the counter is
//! process-global, and a sibling test running concurrently would perturb
//! it.

use fnp_gossip::run_flood_in;
use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every operation is forwarded verbatim to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes a warm flood may request per processed event. One event in seven
/// is a first receipt, which costs a 4-byte exclusion list: 0.59 B per
/// event, to the byte on every run. A 24-byte `Rc` around each fan-out's
/// payload would read 4 B per event, one more 160-byte buffer per first
/// receipt 23.
const BYTES_PER_EVENT_BOUND: u64 = 2;

#[test]
fn a_flood_on_a_warm_arena_allocates_per_first_receipt_only() {
    let n = 20_000;
    let graph = topology::random_regular(n, 8, &mut StdRng::seed_from_u64(3)).expect("overlay");
    let config = SimConfig {
        seed: 3,
        ..SimConfig::default()
    };
    let mut arena = TrialArena::new();

    let recorded = SimConfig {
        record_receipts: true,
        ..config.clone()
    };
    let cold = run_flood_in(&mut arena, graph.clone(), NodeId::new(0), 1, recorded);
    assert_eq!(cold.coverage(), 1.0);
    assert!(cold.receipts().is_some());
    let events = cold.events_processed;
    arena.recycle_metrics(cold);

    let before = BYTES.load(Ordering::Relaxed);
    let warm = run_flood_in(&mut arena, graph, NodeId::new(0), 1, config);
    let requested = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(warm.events_processed, events);
    assert!(
        warm.receipts().is_none(),
        "an unrecorded flood has no table"
    );
    assert!(
        requested <= BYTES_PER_EVENT_BOUND * events,
        "a warm flood requested {requested} B over {events} events ({} B/event, bound {BYTES_PER_EVENT_BOUND})",
        requested / events
    );
}
