//! Allocation and live-heap wall for the flexible protocol: a trial leaves
//! nothing behind for the next one, a steady session's heap traffic per
//! transaction does not depend on how long the session runs, the set-up
//! requests little beyond the pad keys its members keep, a warm trial's
//! round engines hold little beyond their contributions, the node core a
//! steady session's row entry holds stays small, and a session whose
//! transactions all overlap requests rows of those cores and little else.
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
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! keeps, for the measuring thread, the bytes requested so far and the
//! bytes live now. CI runs this wall in release mode: in a debug build the
//! time wheel carries a shadow heap whose growth the bounds would measure
//! instead.

use fnp_core::{flex_steady_prototypes_in, run_protocol_in, FlexConfig, FlexNode, ProtocolKind};
use fnp_netsim::{topology, Graph, NodeId, SimConfig, SimTime, TrialArena, SECOND};
use fnp_proto::steady::{run_steady_in, Arrival};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

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
    counting_alloc::arm();
    let graph = overlay(NODES);
    let mut arena = TrialArena::new();
    let trials: Vec<(u64, i64)> = (1..=8u64)
        .map(|seed| {
            let graph = graph.clone();
            let before = counting_alloc::heap().requested;
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
            let heap = counting_alloc::heap();
            (heap.requested - before, heap.live)
        })
        .collect();
    counting_alloc::disarm();

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
    counting_alloc::arm();
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
    let requested = counting_alloc::disarm().requested;

    for (tx, outcome) in report.per_tx.iter().enumerate() {
        assert_eq!(outcome.delivered_count, n, "tx {tx} did not cover");
    }
    assert!(report.peak_concurrent >= 2, "broadcasts should overlap");
    requested / transactions
}

/// Bytes a long session may request per transaction. Measured: 10.2 KB
/// over 100 nodes — diffusion state per node, one round engine and one
/// contribution per member of the originator's group, latency samples —
/// the short session's fixed costs (rows) being amortised away
/// by then. Every infection, final-spread and flood message shares the
/// originator's payload; a copy of it per message reads 28.3 KB, and on
/// top of those copies one heap copy of the 300-byte contribution per peer
/// per DC round, in place of a shared one, read 54.0 KB.
const BYTES_PER_TX_BOUND: u64 = 20_000;

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

/// Bytes one set-up of the flexible protocol at the paper's n = 1 000 may
/// request: the node cores, the group formation, and each group's roster
/// and members' pad keys, derived in one pass over buffers the set-up
/// reuses from group to group and written straight into the node cores.
/// Measured: 478 984 B. Node cores holding their configuration and a
/// three-word membership inline read 546 032 B; collecting the
/// memberships into a node-ordered
/// vector first read 570 032 B; deriving each group into its own mirrored
/// key lists, key-pair vectors and returned membership vector, with its
/// identity table built eagerly, read 956 656 B.
const PROTOTYPE_BYTES_BOUND: u64 = 600_000;

#[test]
fn the_flexible_set_up_keeps_what_a_member_needs() {
    const NODES: usize = 1_000;
    let mut arena = TrialArena::new();
    counting_alloc::arm();
    let prototypes =
        flex_steady_prototypes_in(&mut arena, NODES, FlexConfig::default(), 5).expect("valid");
    let requested = counting_alloc::disarm().requested;
    assert_eq!(prototypes.len(), NODES);
    assert!(prototypes
        .iter()
        .all(|node| node.group_members().len() >= 5));
    assert!(
        requested <= PROTOTYPE_BYTES_BOUND,
        "{requested} B for the n = {NODES} set-up (bound {PROTOTYPE_BYTES_BOUND})"
    );
}

/// Bytes a warm flexible trial at the paper's n = 1 000 may request: the
/// set-up above, what the run records, and phase 1's round state, one
/// engine per member since every group runs its silent rounds. Measured:
/// 1 088 690 B. With a build-and-combine buffer per engine, each
/// contribution framed in that buffer and copied into its `Arc`, and the
/// rounds' bookkeeping in three allocations, it read 1 540 682 B.
const WARM_TRIAL_BYTES_BOUND: u64 = 1_150_000;

#[test]
fn a_warm_flexible_trial_holds_its_rounds_at_their_footprint() {
    const NODES: usize = 1_000;
    let graph = overlay(NODES);
    let mut arena = TrialArena::new();
    let mut trial = |seed: u64| {
        let metrics = run_protocol_in(
            &mut arena,
            ProtocolKind::Flexible(FlexConfig::default()),
            graph.clone(),
            NodeId::new(17),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .expect("valid config and origin");
        assert_eq!(metrics.coverage(), 1.0, "seed {seed} did not cover");
        arena.recycle_metrics(metrics);
    };
    // The first trial warms the arena's pooled simulator storage.
    trial(1);
    let requested = counting_alloc::measure(|| trial(2)).requested;
    assert!(
        requested <= WARM_TRIAL_BYTES_BOUND,
        "{requested} B for a warm n = {NODES} trial (bound {WARM_TRIAL_BYTES_BOUND})"
    );
}

/// The largest node core, and so the largest steady row entry (an empty
/// entry costs no byte beside it), these walls admit.
const FLEX_NODE_BOUND: usize = 104;

/// The size of a node core: the simulator holds one per overlay node and a
/// steady session one per row entry. Measured: 96 B — the roster pointer
/// through which the node reaches its configuration and group, its index
/// in the roster, phase 1 as one boxed engine that only the originator's
/// group creates, the payload and the infection tree. With the
/// configuration and a three-word membership held inline it read 176 B; a
/// layout holding the engine inline as well read 360 B.
#[test]
#[cfg(target_pointer_width = "64")]
fn a_flex_node_keeps_its_round_engine_behind_one_pointer() {
    let size = size_of::<FlexNode>();
    assert!(
        size <= FLEX_NODE_BOUND,
        "FlexNode is {size} B (bound {FLEX_NODE_BOUND})"
    );
}

/// A steady row entry is an `Option<FlexNode>`; the node's pointers leave
/// a niche for `None`, so an empty entry is no larger than a node core.
#[test]
fn an_empty_row_entry_costs_no_byte_beside_the_node() {
    let entry = size_of::<Option<FlexNode>>();
    let size = size_of::<FlexNode>();
    assert_eq!(entry, size, "an empty row entry costs a byte of its own");
}

/// What a flexible session in which every transaction overlaps may request
/// besides its rows: the latency log, one lane set per slot, the
/// originator groups' round engines and contributions, every infected
/// node's child list, the per-node arrival lists, the session's one
/// mailbox and the per-transaction records. Measured: 164 440 B beside
/// rows of 96 B entries, 262 744 B in all. Entries of 184 B — the
/// configuration and a three-word membership inline, and an `Init` flag —
/// with a mailbox per node read 460 608 B in all.
const OVERLAP_SLACK: u64 = 176 << 10;

#[test]
fn overlapping_flexible_transactions_request_rows_of_bare_instances() {
    const NODES: usize = 64;
    /// Transactions, all in flight together.
    const PEAK: usize = 16;
    let graph = overlay(NODES);
    let arrivals: Vec<Arrival> = (0..PEAK)
        .map(|tx| Arrival {
            at: 1 + tx as u64,
            origin: NodeId::new(tx * NODES / PEAK),
        })
        .collect();
    let mut arena = TrialArena::new();
    let session = |arena: &mut TrialArena| {
        let prototypes =
            flex_steady_prototypes_in(arena, NODES, FlexConfig::default(), 5).expect("valid");
        counting_alloc::arm();
        let (metrics, report) = run_steady_in(
            arena,
            graph.clone(),
            prototypes,
            &arrivals,
            &[],
            0,
            SimConfig::default(),
        );
        arena.recycle_metrics(metrics);
        let requested = counting_alloc::disarm().requested;
        assert_eq!(report.peak_concurrent, PEAK, "every transaction overlaps");
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            assert_eq!(outcome.delivered_count, NODES, "tx {tx} did not cover");
        }
        requested
    };
    // The first session warms the arena's pooled wheel and metrics.
    session(&mut arena);
    let requested = session(&mut arena);

    let rows = (PEAK * NODES * FLEX_NODE_BOUND) as u64;
    let bound = rows + OVERLAP_SLACK;
    assert!(
        requested <= bound,
        "{requested} B requested for {PEAK} overlapping transactions on {NODES} nodes; \
         bound {bound} B, of which rows of {FLEX_NODE_BOUND} B entries are {rows} B"
    );
}
