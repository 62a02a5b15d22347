//! Allocation wall for the event queue: a trial's heap traffic follows the
//! events it has in flight, not the buckets they pass through.
//!
//! Adaptive diffusion at the paper's `n` is the trial that tells the two
//! apart. Each of its 96 rounds sends a spread wave of a few thousand
//! messages down the infection tree and lets it drain before the next, so
//! the queue never holds much more than one wave — a few hundred kilobytes
//! of events — while over the trial the waves land in every bucket of the
//! time wheel in turn. A wheel whose buckets each keep the buffer they grew
//! requests 9.5 MB for that trial on a cold arena and 2.6 MB more on the
//! next seed, whose waves fall differently; one that draws fixed chunks
//! from a shared free list requests what a wave needs, once.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator and keeps, for
//! the measuring thread only (libtest's own threads allocate whenever they
//! are scheduled), the bytes requested so far and the bytes live now. CI
//! runs this binary in release mode as its own step: in a debug build the
//! time wheel carries a shadow heap whose growth the bounds would measure
//! instead.

use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
use fnp_netsim::{topology, Graph, Metrics, NodeId, SimConfig, Simulator, TrialArena};
use fnp_proto::SimDriver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the measuring thread has asked of the heap.
#[derive(Clone, Copy, Default)]
struct Heap {
    /// Bytes requested so far (every `alloc`, every `realloc`'s new size).
    requested: u64,
    /// Bytes allocated and not yet freed.
    live: i64,
}

thread_local! {
    /// `Some` while this thread is measuring. Const-initialised and without
    /// a destructor, so reading it from inside the allocator neither
    /// allocates nor touches a torn-down slot.
    static HEAP: Cell<Option<Heap>> = const { Cell::new(None) };
}

/// Counts a request of `requested` bytes that changes the live heap by
/// `delta` against the calling thread, if it is measuring.
fn count(requested: usize, delta: i64) {
    HEAP.with(|armed| {
        armed.set(armed.get().map(|heap| Heap {
            requested: heap.requested + requested as u64,
            live: heap.live + delta,
        }));
    });
}

/// The measuring thread's counters now.
fn heap() -> Heap {
    HEAP.with(Cell::get).expect("the test armed the counters")
}

struct CountingAllocator;

// SAFETY: every operation is forwarded verbatim to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter update with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The paper grid's overlay size and degree.
const NODES: usize = 1000;

/// Bytes the first trial on a fresh arena may request. Measured: 0.88 MB —
/// the wheel's chunks for one wave, `current` doubling up to the fullest
/// bucket, the first-receipt table, metrics, hot lanes, a thousand nodes
/// and their child lists. Per-bucket buffers read 9.49 MB.
const COLD_BOUND: u64 = 2 << 20;

/// Bytes a later seed may request on the arena the first one warmed: its
/// nodes' child lists, and the few chunks by which its largest wave
/// exceeds the largest so far. Measured: 51 KB each; per-bucket buffers,
/// which every seed's waves fill differently, read 2.61 MB and 1.11 MB.
const WARM_BOUND: u64 = 256 << 10;

/// Bytes the arena may hold once the trials are done: the overlay, the
/// node vector, metrics with the receipt table, hot lanes, and the queue
/// — the only part that depends on what ran. Measured: 0.62 MB; with
/// per-bucket buffers 6.68 MB.
const LIVE_BOUND: i64 = 1 << 20;

/// One adaptive-diffusion broadcast run to quiescence — all 96 rounds, as
/// `fnp_core::run_protocol_in` runs it for the paper grid, not cut off at
/// full coverage as `run_adaptive_diffusion_in` is — on `arena`.
fn trial(arena: &mut TrialArena, graph: Graph, seed: u64) -> Metrics {
    let params = AdParams {
        max_rounds: 96,
        ..AdParams::default()
    };
    let mut nodes: Vec<SimDriver<AdaptiveDiffusionNode>> = arena.take_nodes();
    nodes.extend((0..NODES).map(|_| SimDriver::new(AdaptiveDiffusionNode::new(params))));
    let config = SimConfig {
        seed,
        record_receipts: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new_in(arena, graph, nodes, config);
    sim.trigger(NodeId::new(7 * seed as usize), |driver, ctx| {
        driver.drive(ctx, |node, view, out| node.start_broadcast(view, out));
    });
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    arena.store_nodes(nodes);
    metrics
}

#[test]
fn an_adaptive_diffusion_trial_requests_what_its_waves_need_once() {
    let graph = topology::random_regular(NODES, 8, &mut StdRng::seed_from_u64(3)).expect("overlay");
    // Armed for the whole test, so the live count sees a buffer allocated
    // by one trial and freed by the next.
    HEAP.with(|armed| armed.set(Some(Heap::default())));
    let mut arena = TrialArena::new();
    let trials: Vec<u64> = [2u64, 3, 4]
        .into_iter()
        .map(|seed| {
            let graph = graph.clone();
            let before = heap().requested;
            let metrics = trial(&mut arena, graph, seed);
            assert_eq!(metrics.coverage(), 1.0, "seed {seed} did not cover");
            // 288 086, 242 550 and 318 909 messages: no trial is small
            // beside the one that warmed the arena.
            assert!(metrics.messages_sent > 200_000);
            arena.recycle_metrics(metrics);
            heap().requested - before
        })
        .collect();
    let held = heap().live;
    HEAP.with(|armed| armed.set(None));

    assert!(
        trials[0] <= COLD_BOUND,
        "the cold trial requested {} B",
        trials[0]
    );
    assert!(
        trials[1..].iter().all(|&warm| warm <= WARM_BOUND),
        "bytes requested per trial: {trials:?}"
    );
    assert!(held <= LIVE_BOUND, "the arena holds {held} B");
}
