//! Allocation ceiling for steady-state sessions: what a session requests
//! from the heap per transaction, and how many instances a node holds, do
//! not depend on how long the session runs.
//!
//! A live transaction leases a lane set and a slot from the session and
//! returns both when its last event drains; a node's per-transaction
//! instances sit in a table indexed by that slot. With arrivals at a fixed
//! rate the number of live transactions is the same early and late in a
//! session, so a session over a 100 times longer horizon — 100 times the
//! transactions — must request the same bytes *per transaction* and must
//! not hold a longer instance table. (A table entry kept per injected
//! rather than per live transaction costs the same few bytes early and
//! late, so the per-transaction figure is also held to an absolute bound.)
//!
//! A counting [`GlobalAlloc`] wraps the system allocator, counting the
//! measuring thread only (libtest's own threads allocate whenever they are
//! scheduled). CI runs this binary in release mode as its own step: in a
//! debug build the time wheel carries a shadow heap whose growth the bound
//! would measure instead.

use fnp_gossip::FloodNode;
use fnp_netsim::{topology, Graph, NodeId, SimConfig, SimTime, Simulator, TrialArena, MILLISECOND};
use fnp_proto::steady::{Arrival, SteadyNode, SteadySession};
use fnp_proto::SimDriver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

thread_local! {
    /// `Some(bytes)` while this thread is measuring. Const-initialised and
    /// without a destructor, so reading it from inside the allocator
    /// neither allocates nor touches a torn-down slot.
    static REQUESTED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts `bytes` against the calling thread, if it is measuring.
fn count_request(bytes: usize) {
    REQUESTED.with(|armed| armed.set(armed.get().map(|total| total + bytes as u64)));
}

struct CountingAllocator;

// SAFETY: every operation is forwarded verbatim to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter update with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_request(layout.size());
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_request(new_size);
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const NODES: usize = 100;
/// One arrival every 150 ms against a flood that takes about half a
/// second to drain: a handful of transactions live at any time.
const GAP: SimTime = 150 * MILLISECOND;

/// Bytes a warm session may request per transaction. A flood over 100
/// nodes inherently costs 100 first receipts (a 4-byte exclusion list
/// each), 100 latency samples and one outcome record, the last two in
/// doubling `Vec`s: 3.3 KB, to the byte on every run. One more table entry
/// per node per transaction — instance tables indexed by transaction
/// instead of by slot — reads 7.8 KB.
const BYTES_PER_TX_BOUND: u64 = 4_500;

/// What one measured session requested and held.
struct Measured {
    bytes_per_tx: u64,
    /// The most instance-table entries any node ended the session with.
    widest_table: usize,
    peak_concurrent: usize,
}

/// Runs a flood session of `transactions` arrivals on `arena`, wired as
/// `run_steady_in` wires it but keeping the nodes for inspection.
fn session(arena: &mut TrialArena, graph: &Graph, transactions: u64) -> Measured {
    let arrivals: Vec<Arrival> = (0..transactions)
        .map(|tx| Arrival {
            at: (tx + 1) * GAP,
            origin: NodeId::new((7 * tx as usize) % NODES),
        })
        .collect();
    let graph = graph.clone();

    REQUESTED.with(|armed| armed.set(Some(0)));
    let session = Rc::new(RefCell::new(SteadySession::new(NODES, &arrivals, &[], 0)));
    let mut per_node = vec![Vec::new(); NODES];
    for (tx, arrival) in arrivals.iter().enumerate() {
        per_node[arrival.origin.index()].push((arrival.at, tx as u64));
    }
    let mut nodes: Vec<SimDriver<SteadyNode<FloodNode>>> = arena.take_nodes();
    nodes.extend(per_node.into_iter().map(|arrivals| {
        SimDriver::new(SteadyNode::new(
            FloodNode::new(),
            Rc::clone(&session),
            arrivals,
        ))
    }));
    let mut sim = Simulator::new_in(arena, graph, nodes, SimConfig::default());
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    let widest_table = nodes
        .iter()
        .map(|node| node.live_instances())
        .max()
        .expect("overlay has nodes");
    arena.store_nodes(nodes);
    arena.recycle_metrics(metrics);
    let session = Rc::try_unwrap(session).expect("nodes dropped").into_inner();
    let free_slots = session.free_slots();
    let report = session.into_report();
    let bytes = REQUESTED
        .with(|armed| armed.take())
        .expect("armed just above");

    assert_eq!(free_slots, report.peak_concurrent, "a slot is still out");
    for (tx, outcome) in report.per_tx.iter().enumerate() {
        assert_eq!(outcome.delivered_count, NODES, "tx {tx} did not cover");
    }
    Measured {
        bytes_per_tx: bytes / transactions,
        widest_table,
        peak_concurrent: report.peak_concurrent,
    }
}

#[test]
fn a_hundred_times_longer_session_requests_no_more_per_transaction() {
    let graph = topology::random_regular(NODES, 8, &mut StdRng::seed_from_u64(3)).expect("overlay");
    let mut arena = TrialArena::new();
    const SHORT: u64 = 40;

    // Warm the arena's pooled wheel, metrics and node storage.
    session(&mut arena, &graph, SHORT);
    let short = session(&mut arena, &graph, SHORT);
    let long = session(&mut arena, &graph, 100 * SHORT);

    assert!(
        short.bytes_per_tx <= BYTES_PER_TX_BOUND,
        "{} B per transaction (bound {BYTES_PER_TX_BOUND})",
        short.bytes_per_tx
    );
    assert!(
        long.bytes_per_tx <= short.bytes_per_tx,
        "{} B per transaction over the long horizon, {} over the short one",
        long.bytes_per_tx,
        short.bytes_per_tx
    );
    // Tables are bounded by concurrency, and at a fixed arrival rate
    // concurrency does not depend on the horizon (the slack is for the
    // latency tail a longer run samples further into).
    for run in [&short, &long] {
        assert!(run.widest_table <= run.peak_concurrent);
    }
    assert!(
        long.peak_concurrent <= 2 * short.peak_concurrent,
        "peak concurrency {} over the long horizon, {} over the short one",
        long.peak_concurrent,
        short.peak_concurrent
    );
}
