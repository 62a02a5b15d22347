//! Allocation wall for a steady session's protocol instances: they are
//! requested once per slot, one row of `n` entries each, not grown node by
//! node as concurrency rises.
//!
//! A live transaction leases a slot, and the session numbers a slot
//! together with its row — one instance entry per node, reused by every
//! later transaction leased the slot. So a session in which `peak`
//! transactions overlap requests `peak × n` entries for its instances,
//! once; and none when its arena still holds the rows of an earlier
//! session of the same protocol and size that peaked as high. Per-node
//! tables doubling up to the peak request 4 + 8 + 16 + 32 entries per node
//! for a peak of 24, two and a half times as much. An entry is the
//! instance alone (the virtual-source token is boxed at its holder, a box
//! per hop, counted on its own), and the session polls every instance into
//! one mailbox of its own, so what it requests besides its rows and token
//! boxes is held to a slack a mailbox per node exceeds. (The flexible
//! protocol's rows are walled in `fnp-core`'s `alloc_flex`.)
//!
//! The session is adaptive diffusion on a small overlay where every
//! transaction reaches every node — so every entry of every row is used —
//! and all transactions arrive within microseconds of each other, so all
//! of them are live at once. The arena is warmed by an identical session
//! first, so the measured one requests nothing for the time wheel and the
//! metrics, which the arena pools; the warm-up's rows, which the arena
//! pools too, are taken out of it where the walls measure rows.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's requests. CI runs this wall in release
//! mode: in a debug build the time wheel carries a shadow heap whose growth
//! the bound would measure instead.

use fnp_diffusion::{AdParams, AdaptiveDiffusionNode, Token};
use fnp_netsim::{topology, Graph, NodeId, SimConfig, TrialArena};
use fnp_proto::steady::{run_steady_in, Arrival, InstanceRow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::mem::size_of;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

const NODES: usize = 64;
const DEGREE: usize = 8;
/// Transactions, all in flight together.
const PEAK: usize = 24;

/// One row entry: a node's instance of one transaction, once it has one.
const ENTRY: usize = size_of::<Option<AdaptiveDiffusionNode>>();

/// What the session may request besides its rows and its token boxes: the
/// latency log, reserved up front (12 KB), one lane set per slot (8 KB),
/// every infected node's child list, the per-node arrival lists, the
/// session's one mailbox and the per-transaction records. Measured:
/// 86 176 B (101 996 B less the token boxes); the same components read
/// 86 176 B with the token inline, once the pooled queue's 4 304 B box is
/// set aside. A mailbox per node read 127 744 B; per-node tables doubling
/// up to the peak read 430 KB of instance storage against rows of 144 KB.
const SLACK: usize = 96 << 10;

/// The virtual-source token boxes: a transaction's token is boxed once by
/// the first virtual source and once more by every node it is passed to,
/// and a pass takes one of at most `max_rounds` rounds (a kept round and
/// the exhausted budget keep the box). So a transaction boxes at most
/// `max_rounds + 1` tokens of `size_of::<Token>()` bytes each (20 B): at
/// most 15 840 B for 24 transactions under the default 32 rounds.
/// Measured: 791 hops, 15 820 B.
fn token_boxes() -> usize {
    PEAK * (AdParams::default().max_rounds as usize + 1) * size_of::<Token>()
}

/// The largest row entry this wall admits: an instance is a pointer to the
/// parameters its node's clones share, its infection tree (the token
/// behind a pointer too) and its origin flag, and an empty entry costs no
/// byte beside them. Parameters and token held inline read 96 B.
const ENTRY_BOUND: usize = 56;

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

/// The bytes the session requests on `arena` after an identical one warmed
/// it: with the warm-up's rows kept in the arena, or taken out of it first.
fn warm_session(rows_kept: bool) -> u64 {
    let graph =
        topology::random_regular(NODES, DEGREE, &mut StdRng::seed_from_u64(5)).expect("overlay");
    let mut arena = TrialArena::new();
    session(&mut arena, &graph);
    if !rows_kept {
        drop(arena.take_rows::<InstanceRow<AdaptiveDiffusionNode>>());
    }
    session(&mut arena, &graph)
}

/// The rows of `PEAK` slots.
const ROWS: usize = PEAK * NODES * ENTRY;

#[test]
fn overlapping_transactions_request_their_instance_rows_once() {
    let requested = warm_session(false);
    let tokens = token_boxes();
    let bound = ROWS + tokens + SLACK;
    assert!(
        requested <= bound as u64,
        "{requested} B requested for {PEAK} overlapping transactions on {NODES} nodes; \
         bound {bound} B, of which the instance rows are {ROWS} B and the token boxes {tokens} B"
    );
}

/// A session on an arena that an identical one warmed numbers every slot
/// the last one numbered, and finds each one's row in the arena: it
/// requests the rows' bytes less than the same session numbering its own.
/// Measured: 86 976 B less — the rows (86 016 B) and the growth of the
/// vector that lists them. A session that allocates its rows requests the
/// same in both.
#[test]
fn a_warm_session_numbers_no_row_the_last_one_numbered() {
    let numbering = warm_session(false);
    let reusing = warm_session(true);
    let saved = numbering.saturating_sub(reusing);
    assert!(
        saved >= ROWS as u64,
        "reusing the rows saved {saved} B of {ROWS} ({reusing} B requested against {numbering})"
    );
}

#[test]
#[cfg(target_pointer_width = "64")]
fn a_row_entry_is_the_instance_alone() {
    let entry = size_of::<Option<AdaptiveDiffusionNode>>();
    assert!(
        entry <= ENTRY_BOUND,
        "a row entry is {entry} B (bound {ENTRY_BOUND})"
    );
}
