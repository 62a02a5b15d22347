//! Allocation and live-heap wall for the flexible protocol: a trial leaves
//! nothing behind for the next one, a steady session's heap traffic per
//! transaction does not depend on how long the session runs, and the node
//! core every instance-table slot holds stays small.
//!
//! The flexible protocol's set-up keeps no state between trials, and a
//! node's DC-round contributions are `Arc`s it shares with the copies it
//! sends, freed once the last member has resolved the round. So on one
//! reused [`TrialArena`] — which pools the simulator's storage only — the
//! eighth trial must request about what the second did (the first warms
//! the arena) and the heap must be no larger after it. Likewise a steady
//! session over a 100 times longer horizon — 100 times the transactions at
//! the same arrival rate, so the same number live at any time — must
//! request no more bytes *per transaction*, and no more than a bound that
//! one heap copy of each contribution per peer exceeds.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator and keeps, for
//! the measuring thread only (libtest's own threads allocate whenever they
//! are scheduled), the bytes requested so far and the bytes live now. CI
//! runs this binary in release mode as its own step: in a debug build the
//! time wheel carries a shadow heap whose growth the bounds would measure
//! instead.

use fnp_core::{flex_steady_prototypes_in, run_protocol_in, FlexConfig, FlexNode, ProtocolKind};
use fnp_netsim::{topology, Graph, NodeId, SimConfig, SimTime, TrialArena, SECOND};
use fnp_proto::steady::{run_steady_in, Arrival};
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

fn overlay(n: usize) -> Graph {
    topology::random_regular(n, 8, &mut StdRng::seed_from_u64(3)).expect("overlay")
}

#[test]
fn the_eighth_trial_on_an_arena_costs_what_the_second_did() {
    const NODES: usize = 200;
    /// What the arena's pooled storage may grow by between trial 2 and
    /// trial 8: a seed whose busiest moment tops every earlier one's adds
    /// the chunks for the difference to the pooled time wheel (measured:
    /// 8 KB, all of it at trial 4).
    const LIVE_SLACK: i64 = 64 << 10;

    // Armed for the whole test: a buffer allocated in one trial and freed
    // in a later one must leave the live count as it found it.
    HEAP.with(|armed| armed.set(Some(Heap::default())));
    let graph = overlay(NODES);
    let mut arena = TrialArena::new();
    let trials: Vec<(u64, i64)> = (1..=8u64)
        .map(|seed| {
            let graph = graph.clone();
            let before = heap().requested;
            let metrics = run_protocol_in(
                &mut arena,
                ProtocolKind::Flexible(FlexConfig::default()),
                graph,
                NodeId::new(7 * seed as usize),
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .expect("valid config and origin");
            assert_eq!(metrics.coverage(), 1.0, "seed {seed} did not cover");
            arena.recycle_metrics(metrics);
            (heap().requested - before, heap().live)
        })
        .collect();
    HEAP.with(|armed| armed.set(None));

    let (second, eighth) = (trials[1], trials[7]);
    assert!(
        eighth.0 * 100 <= second.0 * 105,
        "trial 8 requested {} B, trial 2 {} B (all: {trials:?})",
        eighth.0,
        second.0
    );
    assert!(
        eighth.1 <= second.1 + LIVE_SLACK,
        "{} B live after trial 8, {} B after trial 2 (all: {trials:?})",
        eighth.1,
        second.1
    );
}

/// Bytes a flexible session of `transactions` arrivals requested per
/// transaction, once its prototypes are built.
fn session(arena: &mut TrialArena, graph: &Graph, transactions: u64) -> u64 {
    /// One arrival a second against a broadcast that takes about seven to
    /// drain (four DC rounds, four diffusion rounds, the flood): a handful
    /// of transactions live at any time.
    const GAP: SimTime = SECOND;
    let n = graph.node_count();
    let arrivals: Vec<Arrival> = (0..transactions)
        .map(|tx| Arrival {
            at: (tx + 1) * GAP,
            origin: NodeId::new((7 * tx as usize) % n),
        })
        .collect();
    let graph = graph.clone();

    // Set-up is a fixed cost; counting it would let a longer session
    // amortise it and hide a per-transaction cost that grows.
    let prototypes =
        flex_steady_prototypes_in(arena, n, FlexConfig::default(), 5).expect("valid config");
    HEAP.with(|armed| armed.set(Some(Heap::default())));
    let (metrics, report) = run_steady_in(
        arena,
        graph,
        prototypes,
        &arrivals,
        &[],
        0,
        SimConfig::default(),
    );
    arena.recycle_metrics(metrics);
    let requested = heap().requested;
    HEAP.with(|armed| armed.set(None));

    for (tx, outcome) in report.per_tx.iter().enumerate() {
        assert_eq!(outcome.delivered_count, n, "tx {tx} did not cover");
    }
    assert!(report.peak_concurrent >= 2, "broadcasts should overlap");
    requested / transactions
}

/// Bytes a long session may request per transaction. Measured: 28.5 KB
/// over 100 nodes — the payload copy in every infection and flood message,
/// a payload and diffusion state per node, one round engine and one
/// contribution per member of the originator's group, latency samples —
/// the short session's fixed costs (instance tables) being amortised away
/// by then. One heap copy of the 300-byte contribution per peer per DC
/// round, in place of a shared one, reads 54.0 KB.
const BYTES_PER_TX_BOUND: u64 = 40_000;

#[test]
fn a_hundred_times_longer_flexible_session_requests_no_more_per_transaction() {
    let graph = overlay(100);
    let mut arena = TrialArena::new();
    const SHORT: u64 = 10;

    // Warm the arena's pooled wheel, metrics and node storage.
    session(&mut arena, &graph, SHORT);
    let short = session(&mut arena, &graph, SHORT);
    let long = session(&mut arena, &graph, 100 * SHORT);
    assert!(
        long <= short,
        "{long} B per transaction over the long horizon, {short} over the short one"
    );
    assert!(
        long <= BYTES_PER_TX_BOUND,
        "{long} B per transaction (bound {BYTES_PER_TX_BOUND})"
    );
}

/// The size of a node core: the simulator holds one per overlay node and a
/// steady session one per instance-table slot. Measured: 208 B, phase 1
/// being one boxed engine that only the originator's group creates. The
/// same engine held inline reads 360 B.
#[test]
#[cfg(target_pointer_width = "64")]
fn a_flex_node_keeps_its_round_engine_behind_one_pointer() {
    const BOUND: usize = 256;
    let size = size_of::<FlexNode>();
    assert!(size <= BOUND, "FlexNode is {size} B (bound {BOUND})");
}
