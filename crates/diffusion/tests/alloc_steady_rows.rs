//! Allocation wall for a steady session's protocol instances: they are
//! requested once per slot, one row of `n` entries each, not grown node by
//! node as concurrency rises.
//!
//! A live transaction leases a slot, and the session numbers a slot
//! together with its row — one instance entry per node, reused by every
//! later transaction leased the slot. So a session in which `peak`
//! transactions overlap requests `peak × n` entries for its instances,
//! once. Per-node tables doubling up to the peak request 4 + 8 + 16 + 32
//! entries per node for a peak of 24, two and a half times as much.
//!
//! The session is adaptive diffusion on a small overlay where every
//! transaction reaches every node — so every entry of every row is used —
//! and all transactions arrive within microseconds of each other, so all
//! of them are live at once. The arena is warmed by an identical session
//! first, so the measured one requests nothing for the time wheel and the
//! metrics, which the arena pools.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's requests. CI runs this wall in release
//! mode: in a debug build the time wheel carries a shadow heap whose growth
//! the bound would measure instead.

use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
use fnp_netsim::{topology, Graph, NodeId, SimConfig, TrialArena};
use fnp_proto::steady::{run_steady_in, Arrival};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem::size_of;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const NODES: usize = 64;
const DEGREE: usize = 8;
/// Transactions, all in flight together.
const PEAK: usize = 24;

/// One row entry: a node's instance of one transaction and whether `Init`
/// was polled on it.
const ENTRY: usize = size_of::<Option<(AdaptiveDiffusionNode, bool)>>();

/// What the session may request besides its rows: the latency log,
/// reserved up front (12 KB), one lane set per slot (8 KB), every infected
/// node's child list, the per-node arrival lists and mailboxes, and the
/// per-transaction records. Measured: 128 KB. Per-node tables doubling up
/// to the peak read 430 KB of instance storage against the rows' 160 KB.
const SLACK: usize = 160 << 10;

/// `PEAK` arrivals one microsecond apart, from distinct origins.
fn arrivals() -> Vec<Arrival> {
    (0..PEAK)
        .map(|tx| Arrival {
            at: 1 + tx as u64,
            origin: NodeId::new(tx * NODES / PEAK),
        })
        .collect()
}

/// Runs one session on `arena` and returns the bytes it requested.
fn session(arena: &mut TrialArena, graph: &Graph) -> u64 {
    let graph = graph.clone();
    let prototypes = vec![AdaptiveDiffusionNode::new(AdParams::default()); NODES];
    let config = SimConfig {
        seed: 11,
        ..SimConfig::default()
    };
    counting_alloc::arm();
    let (metrics, report) = run_steady_in(arena, graph, prototypes, &arrivals(), &[], 0, config);
    arena.recycle_metrics(metrics);
    let requested = counting_alloc::disarm().requested;

    assert_eq!(report.peak_concurrent, PEAK, "every transaction overlaps");
    for (tx, outcome) in report.per_tx.iter().enumerate() {
        assert_eq!(outcome.delivered_count, NODES, "tx {tx} did not cover");
    }
    requested
}

#[test]
fn overlapping_transactions_request_their_instance_rows_once() {
    let graph =
        topology::random_regular(NODES, DEGREE, &mut StdRng::seed_from_u64(5)).expect("overlay");
    let mut arena = TrialArena::new();
    session(&mut arena, &graph);
    let requested = session(&mut arena, &graph);

    let rows = PEAK * NODES * ENTRY;
    let bound = rows + SLACK;
    assert!(
        requested <= bound as u64,
        "{requested} B requested for {PEAK} overlapping transactions on {NODES} nodes; \
         bound {bound} B, of which the instance rows are {rows} B"
    );
}
