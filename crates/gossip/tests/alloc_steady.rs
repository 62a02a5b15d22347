//! Allocation ceiling for steady-state sessions: what a session requests
//! from the heap per transaction, and how many instance rows it numbers,
//! do not depend on how long the session runs.
//!
//! A live transaction leases a lane set and a slot from the session and
//! returns both when its last event drains; its per-node instances sit in
//! the row numbered with that slot, emptied at retirement. With arrivals at
//! a fixed rate the number of live transactions is the same early and late
//! in a session, so a session over a 100 times longer horizon — 100 times
//! the transactions — must request the same bytes *per transaction*, must
//! number one row per slot of its peak concurrency and must end with no
//! instance held. (An instance kept per injected rather than per live
//! transaction costs the same few bytes early and late, so the
//! per-transaction figure is also held to an absolute bound.)
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's requests. CI runs this wall in release
//! mode: in a debug build the time wheel carries a shadow heap whose growth
//! the bound would measure instead.

use fnp_gossip::FloodNode;
use fnp_netsim::{topology, Graph, NodeId, SimConfig, SimTime, Simulator, TrialArena, MILLISECOND};
use fnp_proto::steady::{Arrival, SteadyNode, SteadySession};
use fnp_proto::SimDriver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const NODES: usize = 100;
/// One arrival every 150 ms against a flood that takes about half a
/// second to drain: a handful of transactions live at any time.
const GAP: SimTime = 150 * MILLISECOND;

/// Bytes a warm session may request per transaction. A flood over 100
/// nodes inherently costs 100 first receipts (a 4-byte exclusion list
/// each), 100 latency samples in the log the session reserves up front,
/// one outcome record, and its share of the instance rows numbered for the
/// peak's slots: 2.06 KB, to the byte on every run. A doubling latency log
/// and per-node instance tables grown by doubling read 3.34 KB; one more
/// table entry per node per transaction — tables indexed by transaction
/// instead of by slot — read 7.8 KB.
const BYTES_PER_TX_BOUND: u64 = 2_500;

/// What one measured session requested.
struct Measured {
    bytes_per_tx: u64,
    peak_concurrent: usize,
}

/// Runs a flood session of `transactions` arrivals on `arena`, wired as
/// `run_steady_in` wires it but keeping the session for inspection.
fn session(arena: &mut TrialArena, graph: &Graph, transactions: u64) -> Measured {
    let arrivals: Vec<Arrival> = (0..transactions)
        .map(|tx| Arrival {
            at: (tx + 1) * GAP,
            origin: NodeId::new((7 * tx as usize) % NODES),
        })
        .collect();
    let graph = graph.clone();

    counting_alloc::arm();
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
    arena.store_nodes(nodes);
    arena.recycle_metrics(metrics);
    let session = Rc::into_inner(session).expect("nodes dropped").into_inner();
    let (free_slots, rows, instances) = (session.free_slots(), session.rows(), session.instances());
    let report = session.into_report();
    let bytes = counting_alloc::disarm().requested;

    assert_eq!(free_slots, report.peak_concurrent, "a slot is still out");
    assert_eq!(rows, report.peak_concurrent, "one instance row per slot");
    assert_eq!(instances, 0, "a retired transaction kept an instance");
    for (tx, outcome) in report.per_tx.iter().enumerate() {
        assert_eq!(outcome.delivered_count, NODES, "tx {tx} did not cover");
    }
    Measured {
        bytes_per_tx: bytes / transactions,
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
    // Rows are numbered per slot, and at a fixed arrival rate concurrency
    // does not depend on the horizon (the slack is for the latency tail a
    // longer run samples further into).
    assert!(
        long.peak_concurrent <= 2 * short.peak_concurrent,
        "peak concurrency {} over the long horizon, {} over the short one",
        long.peak_concurrent,
        short.peak_concurrent
    );
}
