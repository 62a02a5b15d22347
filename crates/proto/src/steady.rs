//! Steady-state sessions: many overlapping broadcasts on one simulator.
//!
//! Every single-broadcast experiment gives the whole overlay to one
//! transaction: one seen bit per node, one protocol instance per node, one
//! delivery per node. Under sustained traffic those assumptions all break —
//! transactions overlap in flight and their duplicate-suppression state,
//! protocol state machines and delivery records must not collide.
//!
//! This module multiplexes any single-broadcast [`ProtocolCore`] into a
//! heavy-traffic session without touching the core's logic:
//!
//! * [`Tagged`] wraps the core's message type with a transaction id, so
//!   concurrent broadcasts share the wire but never each other's handlers.
//! * [`SteadyProtocol`] is the small adapter trait a core implements to
//!   become multiplexable: start a broadcast for a given transaction id.
//!   Per-transaction instances are clones of a never-polled prototype.
//! * [`SteadyNode`] is the per-overlay-node multiplexer: it keeps the
//!   node's never-polled prototype core, routes each tagged input to the
//!   transaction's instance on this node — spawning it from the prototype
//!   at the transaction's first touch — and rewrites the emitted effects
//!   (tagging messages, namespacing timer tags by transaction).
//! * [`SteadySession`] is the shared per-trial bookkeeping: a
//!   [`LanePool`] of per-transaction hot lanes, the per-slot rows of
//!   protocol instances and the one mailbox every instance is polled into,
//!   exact in-flight event accounting per transaction
//!   (each message and pending timer counts; when a transaction's count
//!   drains to zero it retires), the delivery log that feeds latency
//!   percentiles and the mempool replay — reserved once, for one delivery
//!   per transaction and node — and the first-spy observation record for
//!   privacy-under-load.
//!
//! A live transaction *is* a slot. Transaction ids are dense, so the
//! session keeps each transaction's record — in-flight count, leased lane
//! set, slot — at `txs[tx]`; the slot is a small number leased with the
//! lanes at arrival and returned to a free list at retirement, so there are
//! never more slots than the session's peak concurrency. A slot is numbered
//! together with its row: one instance entry per node, allocated once and
//! reused by every later transaction leased that slot. The row is emptied
//! when its transaction retires — no event can reach a retired transaction
//! — so a recycled slot always starts with an empty row. Routing an event
//! is therefore one session borrow and the indexed loads `txs[tx]` and
//! `rows[slot][node]`, whatever the number of live transactions; nothing
//! is keyed, searched or stamped.
//!
//! Arrivals are precomputed (see [`fnp_netsim::arrival`]) and scheduled as
//! ordinary timers at `Init`, so the whole session rides the existing time
//! wheel: a steady-state trial is a pure function of its seed, and rows are
//! byte-identical at any worker-thread count.
//!
//! The in-flight accounting assumes no event loss: steady sessions run
//! without churn and without an event/time cap, which the experiment
//! drivers uphold. (With message loss a transaction's counter would never
//! reach zero and its lanes and row would simply stay live until the trial
//! ends — results stay correct, only the recycling stalls.)

use crate::core::ProtocolCore;
use crate::driver::SimDriver;
use crate::mailbox::{Effect, Input, Mailbox};
use fnp_netsim::{
    ContextView, Graph, HotState, LanePool, Metrics, NodeId, Payload, SimConfig, SimTime,
    Simulator, TrialArena,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Extra wire bytes accounted for the transaction tag a steady-state
/// session adds to every message.
pub const TX_TAG_BYTES: usize = 8;

/// Bits of a timer tag reserved for the inner core's own tag (slot 0 is
/// the arrival timer, inner tags are stored shifted by one).
const TAG_SLOT_BITS: u32 = 16;
const TAG_SLOT_MASK: u64 = (1 << TAG_SLOT_BITS) - 1;

/// A protocol message carrying the id of the transaction it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tagged<M> {
    /// The transaction this message disseminates.
    pub tx: u64,
    /// The wrapped single-broadcast protocol message.
    pub inner: M,
}

impl<M: Payload> Payload for Tagged<M> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes() + TX_TAG_BYTES
    }
}

/// Adapter trait a single-broadcast [`ProtocolCore`] implements to become
/// multiplexable by a [`SteadyNode`], which spawns each per-transaction
/// instance as a clone of the node's never-polled *prototype* core: its
/// configuration (parameters, stem successor, group) and pristine state.
///
/// Only the originator's instance is polled with [`Input::Init`], just
/// before [`SteadyProtocol::start_tx`]; an instance spawned by a message
/// gets the message first. A core whose receivers need start-up work does
/// it at the first input that calls for it.
pub trait SteadyProtocol: ProtocolCore + Clone {
    /// Starts broadcasting transaction `tx` from this node, exactly like
    /// the core's single-broadcast entry point.
    fn start_tx(&mut self, tx: u64, view: &mut ContextView<'_>, out: &mut Mailbox<Self::Message>);
}

/// One scheduled transaction injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Simulation time of the injection (strictly positive).
    pub at: SimTime,
    /// The injecting node.
    pub origin: NodeId,
}

/// Final per-transaction outcome extracted from a finished session.
#[derive(Clone, Debug)]
pub struct TxOutcome {
    /// The injecting node.
    pub origin: NodeId,
    /// Injection time.
    pub injected_at: SimTime,
    /// Number of nodes that delivered (accepted) the transaction.
    pub delivered_count: usize,
    /// Earliest delivery on a miner node (node index below the session's
    /// miner count), if any — what the mempool replay consumes.
    pub first_miner_delivery: Option<SimTime>,
    /// The sender of the first message any adversary node received for
    /// this transaction (the first-spy estimate), if one was observed.
    pub first_spy_estimate: Option<NodeId>,
    /// Time at which the transaction's last in-flight event drained.
    pub completed_at: Option<SimTime>,
}

/// Report of one finished steady-state session.
#[derive(Clone, Debug)]
pub struct SteadyReport {
    /// Per-transaction outcomes, indexed by transaction id.
    pub per_tx: Vec<TxOutcome>,
    /// Delivery latency of every `(transaction, node)` delivery, in
    /// microseconds since the transaction's injection, in delivery order.
    pub latencies_us: Vec<u64>,
    /// High-water mark of transactions simultaneously in flight.
    pub peak_concurrent: usize,
}

/// Per-transaction live bookkeeping.
#[derive(Clone, Debug)]
struct TxState {
    /// Events (messages in flight + pending timers) that will still arrive
    /// as inputs for this transaction. Starts at 1: the arrival timer.
    inflight: u64,
    /// From arrival until the last event drains: the leased lane set, and
    /// the slot — the index of this transaction's instance row — leased
    /// with it.
    lease: Option<(HotState, usize)>,
    outcome: TxOutcome,
}

/// Shared per-trial session state (one per simulation, behind
/// `Rc<RefCell<…>>` — the simulator is single-threaded), multiplexing
/// instances of the protocol core `C`.
#[derive(Debug)]
pub struct SteadySession<C: ProtocolCore> {
    lanes: LanePool,
    /// Slots returned by retired transactions, reused before a new one is
    /// numbered — so the slot count equals the pool's `peak_live`.
    free_slots: Vec<usize>,
    /// `rows[slot][node]`: the instance on `node` of the transaction
    /// leased `slot`, once the transaction has reached the node. One row
    /// per slot ever numbered, allocated with it; emptied when its
    /// transaction retires.
    rows: Vec<Box<[Option<C>]>>,
    /// The one mailbox every instance is polled into, drained onto the
    /// shared wire after each poll.
    inner: Mailbox<C::Message>,
    txs: Vec<TxState>,
    adversary: Vec<bool>,
    miner_count: usize,
    latencies_us: Vec<u64>,
}

impl<C: ProtocolCore> SteadySession<C> {
    /// Builds the session bookkeeping for an `n`-node overlay.
    ///
    /// # Panics
    ///
    /// Panics, naming the offender, if an adversary or an arrival's origin
    /// is not one of the `n` nodes, if an arrival is scheduled at time 0, or
    /// if the arrivals outnumber the timer-tag namespace's transaction ids.
    #[must_use]
    pub fn new(n: usize, arrivals: &[Arrival], adversaries: &[NodeId], miner_count: usize) -> Self {
        assert_tx_ids_fit(arrivals.len());
        let mut adversary = vec![false; n];
        for node in adversaries.iter().map(|node| node.index()) {
            assert!(
                node < n,
                "adversary node {node} is outside the {n}-node overlay"
            );
            adversary[node] = true;
        }
        let state = |(tx, arrival): (usize, &Arrival)| {
            let (at, origin) = (arrival.at, arrival.origin.index());
            assert!(
                origin < n,
                "transaction {tx} originates at node {origin}, outside the {n}-node overlay"
            );
            assert!(at > 0, "transaction {tx} arrives at time 0, not after it");
            TxState {
                inflight: 1,
                lease: None,
                outcome: TxOutcome {
                    origin: arrival.origin,
                    injected_at: at,
                    delivered_count: 0,
                    first_miner_delivery: None,
                    first_spy_estimate: None,
                    completed_at: None,
                },
            }
        };
        Self {
            lanes: LanePool::new(n),
            free_slots: Vec::new(),
            rows: Vec::new(),
            inner: Mailbox::new(),
            txs: arrivals.iter().enumerate().map(state).collect(),
            adversary,
            miner_count,
            // Each transaction delivers at most once per node.
            latencies_us: Vec::with_capacity(arrivals.len() * n),
        }
    }

    /// Slots on the free list: every slot the session ever numbered — its
    /// peak concurrency — less those on lease to live transactions.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.free_slots.len()
    }

    #[allow(clippy::cast_possible_truncation)] // tx ids are dense indices
    fn tx(&mut self, tx: u64) -> &mut TxState {
        &mut self.txs[tx as usize]
    }

    /// Instance rows numbered so far — one per slot, so after the run the
    /// session's peak concurrency.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Instances the rows hold: one per node each live transaction has
    /// reached, so zero once every transaction has retired.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|row| row.iter())
            .flatten()
            .count()
    }

    /// Leases lanes and a slot to the arriving `tx`, numbering a new slot
    /// with its empty row only when the free list is empty.
    fn admit(&mut self, tx: u64) {
        let n = self.lanes.node_count();
        let rows = &mut self.rows;
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            rows.push((0..n).map(|_| None).collect());
            rows.len() - 1
        });
        self.tx(tx).lease = Some((self.lanes.acquire(), slot));
    }

    /// Consumes one input of the live `tx` on `node`: lends its leased
    /// lanes and its instance entry for `node`.
    #[allow(clippy::cast_possible_truncation)] // tx ids are dense indices
    fn consume(&mut self, tx: u64, node: NodeId) -> (&mut HotState, &mut Option<C>) {
        let state = &mut self.txs[tx as usize];
        debug_assert!(state.inflight > 0, "input for a drained transaction");
        state.inflight -= 1;
        let (lane, slot) = state.lease.as_mut().expect("live transaction has a lease");
        (lane, &mut self.rows[*slot][node.index()])
    }

    /// Credits `tx` with the `spawned` events a poll put in flight, and
    /// retires it at zero: its row emptied, lanes to the pool, slot to the
    /// free list.
    fn settle(&mut self, tx: u64, spawned: u64, now: SimTime) {
        let state = self.tx(tx);
        state.inflight += spawned;
        if state.inflight == 0 {
            state.outcome.completed_at = Some(now);
            let (lane, slot) = state.lease.take().expect("leased until retirement");
            self.rows[slot].fill_with(|| None);
            self.lanes.release(lane);
            self.free_slots.push(slot);
        }
    }

    fn record_delivery(&mut self, tx: u64, node: NodeId, now: SimTime) {
        let is_miner = node.index() < self.miner_count;
        let outcome = &mut self.tx(tx).outcome;
        outcome.delivered_count += 1;
        if is_miner && outcome.first_miner_delivery.is_none() {
            outcome.first_miner_delivery = Some(now);
        }
        let latency = now.saturating_sub(outcome.injected_at);
        self.latencies_us.push(latency);
    }

    fn observe(&mut self, tx: u64, receiver: NodeId, from: NodeId) {
        if self.adversary[receiver.index()] {
            self.tx(tx).outcome.first_spy_estimate.get_or_insert(from);
        }
    }

    /// Consumes the finished session into its report.
    #[must_use]
    pub fn into_report(self) -> SteadyReport {
        SteadyReport {
            peak_concurrent: self.lanes.peak_live(),
            per_tx: self.txs.into_iter().map(|state| state.outcome).collect(),
            latencies_us: self.latencies_us,
        }
    }
}

/// The event a tagged input decodes to.
enum TxEvent<M> {
    /// The node's own arrival timer fired: inject the transaction.
    Arrival,
    /// A tagged protocol message arrived.
    Message {
        /// Sending node.
        from: NodeId,
        /// The unwrapped inner message.
        message: M,
    },
    /// A namespaced protocol timer fired.
    Timer {
        /// The inner core's original tag.
        tag: u64,
    },
}

/// Per-node multiplexer running one lazy [`SteadyProtocol`] instance per
/// transaction, held in the shared [`SteadySession`]'s rows.
#[derive(Debug)]
pub struct SteadyNode<C: SteadyProtocol> {
    prototype: C,
    session: Rc<RefCell<SteadySession<C>>>,
    /// Injections this node performs, as `(at, tx)` timer schedules.
    arrivals: Vec<(SimTime, u64)>,
}

impl<C: SteadyProtocol> SteadyNode<C> {
    /// Builds the multiplexer for one overlay node.
    ///
    /// `prototype` is the node's configured single-broadcast core; it is
    /// never polled, only cloned into per-transaction instances. `arrivals`
    /// are the injections scheduled on this node.
    pub fn new(
        prototype: C,
        session: Rc<RefCell<SteadySession<C>>>,
        arrivals: Vec<(SimTime, u64)>,
    ) -> Self {
        Self {
            prototype,
            session,
            arrivals,
        }
    }

    fn handle(
        &mut self,
        tx: u64,
        event: TxEvent<C::Message>,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<Tagged<C::Message>>,
    ) {
        let node = view.node_id();
        let now = view.now();
        let mut session = self.session.borrow_mut();
        let sess = &mut *session;

        // Account: consume the input in the transaction's in-flight count
        // and find its lanes and this node's entry in its slot's row.
        match &event {
            TxEvent::Arrival => sess.admit(tx),
            TxEvent::Message { from, .. } => sess.observe(tx, node, *from),
            TxEvent::Timer { .. } => {}
        }
        // The session's one mailbox, lent to this poll and handed back
        // empty at the end of it.
        let mut inner = std::mem::take(&mut sess.inner);
        debug_assert!(inner.is_empty());
        let (lane, entry) = sess.consume(tx, node);

        // Poll the transaction's instance against its own lanes, both
        // borrowed in place (the inner core cannot reach the session).
        let mut lane_view = view.with_lanes(lane);
        match event {
            TxEvent::Arrival => {
                debug_assert!(entry.is_none(), "a new lease meets an emptied row");
                let instance = entry.insert(self.prototype.clone());
                instance.poll(Input::Init, &mut lane_view, &mut inner);
                instance.start_tx(tx, &mut lane_view, &mut inner);
            }
            TxEvent::Message { from, message } => {
                let instance = entry.get_or_insert_with(|| self.prototype.clone());
                instance.poll(Input::Message { from, message }, &mut lane_view, &mut inner);
            }
            TxEvent::Timer { tag } => {
                // Only a live instance can have set the timer.
                if let Some(instance) = entry {
                    instance.poll(Input::TimerFired { tag }, &mut lane_view, &mut inner);
                }
            }
        }

        // Translate the inner effects onto the shared wire, then settle
        // the transaction's in-flight balance: retire or keep.
        let mut spawned = 0;
        for effect in inner.drain() {
            match effect {
                Effect::Send { to, message } => {
                    spawned += 1;
                    out.send(to, Tagged { tx, inner: message });
                }
                Effect::Broadcast { message, excluded } => {
                    spawned += view
                        .neighbors()
                        .iter()
                        .filter(|neighbor| !excluded.contains(neighbor))
                        .count() as u64;
                    out.push(Effect::Broadcast {
                        message: Tagged { tx, inner: message },
                        excluded,
                    });
                }
                Effect::SetTimer { delay, tag } => {
                    spawned += 1;
                    out.set_timer(delay, encode_timer(tx, tag));
                }
                Effect::Deliver => sess.record_delivery(tx, node, now),
                Effect::Counter { name, amount } => out.record_many(name, amount),
            }
        }
        sess.inner = inner;
        sess.settle(tx, spawned, now);
    }
}

/// Panics if `count` transactions would wrap the timer-tag namespace.
fn assert_tx_ids_fit(count: usize) {
    let ids = 1u64 << (u64::BITS - TAG_SLOT_BITS);
    assert!(
        count as u64 <= ids,
        "{count} arrivals exceed the {ids} transaction ids of the timer-tag namespace"
    );
}

/// Encodes an inner timer tag into the shared timer-tag namespace.
fn encode_timer(tx: u64, tag: u64) -> u64 {
    assert!(
        tag < TAG_SLOT_MASK,
        "inner timer tag {tag} exceeds the steady-session tag namespace"
    );
    (tx << TAG_SLOT_BITS) | (tag + 1)
}

impl<C: SteadyProtocol> ProtocolCore for SteadyNode<C> {
    type Message = Tagged<C::Message>;

    fn poll(
        &mut self,
        input: Input<Self::Message>,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<Self::Message>,
    ) {
        match input {
            Input::Init => {
                // Schedule this node's injections; each arrival was already
                // counted as one in-flight event at session construction.
                for (at, tx) in std::mem::take(&mut self.arrivals) {
                    out.set_timer(at, tx << TAG_SLOT_BITS);
                }
            }
            Input::Message { from, message } => {
                let Tagged { tx, inner } = message;
                self.handle(
                    tx,
                    TxEvent::Message {
                        from,
                        message: inner,
                    },
                    view,
                    out,
                );
            }
            Input::TimerFired { tag } => {
                let tx = tag >> TAG_SLOT_BITS;
                let slot = tag & TAG_SLOT_MASK;
                let event = if slot == 0 {
                    TxEvent::Arrival
                } else {
                    TxEvent::Timer { tag: slot - 1 }
                };
                self.handle(tx, event, view, out);
            }
        }
    }
}

/// Runs one steady-state session: injects `arrivals` into an overlay whose
/// node `i` runs `prototypes[i]`, lets the broadcasts overlap freely and
/// returns the simulator metrics plus the session report.
///
/// Nodes `0..miner_count` are the miners (their earliest delivery per
/// transaction is recorded for the mempool replay); `adversaries` are the
/// colluding observers for the first-spy estimate. The session relies on
/// loss-free execution for its lane recycling, so `config` must not cap
/// simulated time below the drain point and must not schedule churn —
/// callers pass the defaults.
///
/// # Panics
///
/// Panics if `prototypes.len()` differs from the overlay size, and on the
/// arrivals and adversaries [`SteadySession::new`] rejects.
pub fn run_steady_in<C: SteadyProtocol + 'static>(
    arena: &mut TrialArena,
    graph: Graph,
    prototypes: Vec<C>,
    arrivals: &[Arrival],
    adversaries: &[NodeId],
    miner_count: usize,
    config: SimConfig,
) -> (Metrics, SteadyReport) {
    let n = graph.node_count();
    assert_eq!(prototypes.len(), n, "one prototype per overlay node");
    let session = Rc::new(RefCell::new(SteadySession::new(
        n,
        arrivals,
        adversaries,
        miner_count,
    )));

    let mut per_node: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n];
    for (tx, arrival) in arrivals.iter().enumerate() {
        per_node[arrival.origin.index()].push((arrival.at, tx as u64));
    }

    let mut nodes: Vec<SimDriver<SteadyNode<C>>> = arena.take_nodes();
    nodes.extend(
        prototypes
            .into_iter()
            .zip(per_node)
            .map(|(prototype, arrivals)| {
                SimDriver::new(SteadyNode::new(prototype, Rc::clone(&session), arrivals))
            }),
    );

    let mut sim = Simulator::new_in(arena, graph, nodes, config);
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    // Clearing the node storage drops every `Rc` clone of the session.
    arena.store_nodes(nodes);
    let session = Rc::into_inner(session)
        .expect("all session handles released with the nodes")
        .into_inner();
    (metrics, session.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Ping;
    impl Payload for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }

        fn size_bytes(&self) -> usize {
            100
        }
    }

    #[test]
    fn tagged_payload_delegates_kind_and_adds_tag_bytes() {
        let tagged = Tagged { tx: 7, inner: Ping };
        assert_eq!(tagged.kind(), "ping");
        assert_eq!(tagged.size_bytes(), 100 + TX_TAG_BYTES);
    }

    #[test]
    fn timer_tags_round_trip_and_reserve_slot_zero() {
        let encoded = encode_timer(3, 1);
        assert_eq!(encoded >> TAG_SLOT_BITS, 3);
        assert_eq!(encoded & TAG_SLOT_MASK, 2);
        // Slot 0 of every transaction is the arrival timer.
        assert_ne!(encoded & TAG_SLOT_MASK, 0);
    }

    #[test]
    #[should_panic(expected = "tag namespace")]
    fn oversized_inner_tags_are_rejected() {
        let _ = encode_timer(0, TAG_SLOT_MASK);
    }

    #[test]
    #[should_panic(expected = "transaction 1 originates at node 6, outside the 6-node overlay")]
    fn an_origin_outside_the_overlay_is_rejected_by_name() {
        let arrivals = [arrival(10, 4), arrival(20, 6)];
        let _ = SteadySession::<MiniFlood>::new(6, &arrivals, &[], 0);
    }

    #[test]
    #[should_panic(expected = "adversary node 9 is outside the 6-node overlay")]
    fn an_adversary_outside_the_overlay_is_rejected_by_name() {
        let _ = SteadySession::<MiniFlood>::new(6, &[], &[NodeId::new(3), NodeId::new(9)], 0);
    }

    #[test]
    #[should_panic(expected = "transaction 2 arrives at time 0")]
    fn an_arrival_at_time_zero_is_rejected_by_name() {
        let arrivals = [arrival(10, 4), arrival(20, 5), arrival(0, 1)];
        let _ = run_steady_in(
            &mut TrialArena::new(),
            ring(6),
            vec![MiniFlood; 6],
            &arrivals,
            &[],
            0,
            SimConfig::default(),
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "transaction ids of the timer-tag namespace")]
    fn more_arrivals_than_transaction_ids_are_rejected() {
        // Ids are 48 bits. No slice that long can be built, so the count
        // check is exercised on its own.
        assert_tx_ids_fit(1 << 48);
        assert_tx_ids_fit((1 << 48) + 1);
    }

    fn arrival(at: SimTime, origin: usize) -> Arrival {
        Arrival {
            at,
            origin: NodeId::new(origin),
        }
    }

    #[test]
    fn session_counts_deliveries_and_first_spy_per_transaction() {
        let arrivals = [
            Arrival {
                at: 10,
                origin: NodeId::new(4),
            },
            Arrival {
                at: 20,
                origin: NodeId::new(5),
            },
        ];
        let mut session = SteadySession::<MiniFlood>::new(6, &arrivals, &[NodeId::new(3)], 2);
        session.record_delivery(0, NodeId::new(4), 10);
        session.record_delivery(0, NodeId::new(1), 35);
        session.record_delivery(1, NodeId::new(0), 50);
        // Adversary node 3 first hears tx 0 from node 4 (the origin);
        // non-adversary receipts are ignored.
        session.observe(0, NodeId::new(2), NodeId::new(1));
        session.observe(0, NodeId::new(3), NodeId::new(4));
        session.observe(0, NodeId::new(3), NodeId::new(1));
        let report = session.into_report();
        assert_eq!(report.per_tx[0].delivered_count, 2);
        assert_eq!(report.per_tx[0].first_miner_delivery, Some(35));
        assert_eq!(report.per_tx[0].first_spy_estimate, Some(NodeId::new(4)));
        assert_eq!(report.per_tx[1].first_miner_delivery, Some(50));
        assert_eq!(report.per_tx[1].first_spy_estimate, None);
        assert_eq!(report.latencies_us, vec![0, 25, 30]);
    }

    /// A miniature flood-and-prune with a delayed re-announce timer: enough
    /// structure to exercise message tagging, timer namespacing, lane
    /// isolation and in-flight accounting end to end.
    #[derive(Clone, Debug, Default)]
    struct MiniFlood;

    impl ProtocolCore for MiniFlood {
        type Message = Ping;

        fn poll(
            &mut self,
            input: Input<Ping>,
            view: &mut ContextView<'_>,
            out: &mut Mailbox<Ping>,
        ) {
            match input {
                Input::Init => {}
                Input::Message { from, message } => {
                    if view.set_seen() {
                        return;
                    }
                    out.deliver();
                    out.broadcast(message, &[from]);
                    // Re-announce once after a delay, exercising per-tx
                    // timers; the duplicate receipts all prune.
                    out.set_timer(1_000, 3);
                }
                Input::TimerFired { tag } => {
                    if tag == 3 {
                        out.broadcast(Ping, &[]);
                    }
                }
            }
        }
    }

    impl SteadyProtocol for MiniFlood {
        fn start_tx(&mut self, _tx: u64, view: &mut ContextView<'_>, out: &mut Mailbox<Ping>) {
            if view.set_seen() {
                return;
            }
            out.deliver();
            out.broadcast(Ping, &[]);
        }
    }

    fn ring(n: usize) -> Graph {
        fnp_netsim::topology::ring(n).unwrap()
    }

    #[test]
    fn overlapping_broadcasts_all_cover_the_overlay() {
        let n = 12;
        let arrivals: Vec<Arrival> = (0..6)
            .map(|i| Arrival {
                at: 1 + i * 400, // well inside each other's flight time
                origin: NodeId::new((5 * i as usize + 1) % n),
            })
            .collect();
        let (metrics, report) = run_steady_in(
            &mut TrialArena::new(),
            ring(n),
            vec![MiniFlood; n],
            &arrivals,
            &[NodeId::new(0)],
            2,
            SimConfig::default(),
        );
        assert_eq!(report.per_tx.len(), arrivals.len());
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            assert_eq!(outcome.delivered_count, n, "tx {tx} did not cover");
            assert!(
                outcome.first_miner_delivery.is_some(),
                "tx {tx} missed miners"
            );
            assert!(outcome.completed_at.is_some(), "tx {tx} never drained");
            assert!(outcome.first_spy_estimate.is_some(), "tx {tx}");
        }
        assert_eq!(report.latencies_us.len(), arrivals.len() * n);
        assert!(
            report.peak_concurrent >= 2,
            "arrivals 400 µs apart should overlap in flight"
        );
        // Tag bytes ride on every wire message.
        assert_eq!(metrics.bytes_sent, metrics.messages_sent * (100 + 8) as u64);
    }

    #[test]
    fn sequential_arrivals_recycle_lanes() {
        let n = 8;
        // Spaced far beyond a broadcast's flight time: never concurrent.
        let arrivals: Vec<Arrival> = (0..5)
            .map(|i| Arrival {
                at: 1 + i * 10_000_000,
                origin: NodeId::new(i as usize % n),
            })
            .collect();
        let (_, report) = run_steady_in(
            &mut TrialArena::new(),
            ring(n),
            vec![MiniFlood; n],
            &arrivals,
            &[],
            0,
            SimConfig::default(),
        );
        assert_eq!(
            report.peak_concurrent, 1,
            "sequential txs must share one lane set"
        );
        for outcome in &report.per_tx {
            assert_eq!(outcome.delivered_count, n);
            assert!(
                outcome.first_miner_delivery.is_none(),
                "no miners configured"
            );
        }
    }

    #[test]
    fn steady_sessions_are_deterministic_and_arena_reuse_is_invisible() {
        let n = 10;
        let arrivals: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                at: 1 + i * 700,
                origin: NodeId::new((3 * i as usize) % n),
            })
            .collect();
        let run = |arena: &mut TrialArena| {
            let (metrics, report) = run_steady_in(
                arena,
                ring(n),
                vec![MiniFlood; n],
                &arrivals,
                &[NodeId::new(7)],
                1,
                SimConfig {
                    seed: 42,
                    ..SimConfig::default()
                },
            );
            let digest = format!("{report:?}");
            arena.recycle_metrics(metrics);
            digest
        };
        let fresh = run(&mut TrialArena::new());
        let mut arena = TrialArena::new();
        let cold = run(&mut arena);
        let warm = run(&mut arena);
        assert_eq!(fresh, cold);
        assert_eq!(fresh, warm);
    }

    /// `run_steady_in` wired by hand, without an arena, so the session
    /// survives the run for inspection.
    fn run_kept<C: SteadyProtocol + 'static>(
        graph: Graph,
        prototypes: Vec<C>,
        arrivals: &[Arrival],
        seed: u64,
    ) -> SteadySession<C> {
        let n = graph.node_count();
        let session = Rc::new(RefCell::new(SteadySession::new(n, arrivals, &[], 0)));
        let mut per_node = vec![Vec::new(); n];
        for (tx, arrival) in arrivals.iter().enumerate() {
            per_node[arrival.origin.index()].push((arrival.at, tx as u64));
        }
        let nodes = prototypes
            .into_iter()
            .zip(per_node)
            .map(|(prototype, arrivals)| {
                SimDriver::new(SteadyNode::new(prototype, Rc::clone(&session), arrivals))
            })
            .collect();
        let config = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(graph, nodes, config);
        sim.run();
        drop(sim);
        Rc::into_inner(session)
            .expect("all session handles released with the nodes")
            .into_inner()
    }

    #[test]
    fn random_schedules_leak_no_lane_slot_or_instance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut recycled = false;
        let mut overlapped = false;
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(5..20);
            // Gaps from back-to-back to well past a ring's flight time
            // (~100 ms a hop), so concurrency rises and falls within a run.
            let mut at = 0;
            let arrivals: Vec<Arrival> = (0..rng.gen_range(1..40))
                .map(|_| {
                    at += rng.gen_range(1..3_000_000);
                    arrival(at, rng.gen_range(0..n))
                })
                .collect();
            let session = run_kept(ring(n), vec![MiniFlood; n], &arrivals, seed);
            let peak = session.lanes.peak_live();
            assert_eq!(session.lanes.live(), 0, "seed {seed}: lanes on lease");
            assert_eq!(session.free_slots(), peak, "seed {seed}: a slot was lost");
            let mut slots = session.free_slots.clone();
            slots.sort_unstable();
            assert!(
                slots.into_iter().eq(0..peak),
                "seed {seed}: slots not dense"
            );
            for (tx, state) in session.txs.iter().enumerate() {
                assert!(state.lease.is_none(), "seed {seed}: tx {tx} kept its lease");
                assert!(state.outcome.completed_at.is_some(), "seed {seed}: tx {tx}");
                assert_eq!(state.outcome.delivered_count, n, "seed {seed}: tx {tx}");
            }
            assert_eq!(session.rows(), peak, "seed {seed}: one row per slot");
            assert_eq!(
                session.instances(),
                0,
                "seed {seed}: a row kept an instance"
            );
            recycled |= arrivals.len() > peak;
            overlapped |= peak > 2;
        }
        assert!(
            recycled && overlapped,
            "schedules must both overlap and recycle"
        );
    }

    /// A core whose per-instance state is observable: it reports how many
    /// times it has been entered through the `entries` counter.
    #[derive(Clone, Debug, Default)]
    struct EntryCounter {
        entries: u64,
    }

    impl ProtocolCore for EntryCounter {
        type Message = Ping;

        fn poll(&mut self, input: Input<Ping>, _: &mut ContextView<'_>, out: &mut Mailbox<Ping>) {
            if !matches!(input, Input::Init) {
                self.entries += 1;
                out.record_many("entries", self.entries);
            }
        }
    }

    impl SteadyProtocol for EntryCounter {
        fn start_tx(&mut self, _tx: u64, _: &mut ContextView<'_>, out: &mut Mailbox<Ping>) {
            self.entries += 1;
            out.send(NodeId::new(1), Ping);
        }
    }

    #[test]
    fn a_recycled_slot_spawns_a_pristine_instance_and_orphan_timers_are_ignored() {
        use crate::standalone::StandaloneEnv;
        // Three back-to-back transactions from node 0, each retired before
        // the next arrives, so all three are handed slot 0.
        let arrivals = [arrival(1, 0), arrival(2, 0), arrival(3, 0)];
        let session = Rc::new(RefCell::new(SteadySession::new(2, &arrivals, &[], 0)));
        let node = |id| {
            let neighbors = vec![NodeId::new(1 - id)];
            (
                SteadyNode::new(EntryCounter::default(), Rc::clone(&session), Vec::new()),
                StandaloneEnv::new(NodeId::new(id), 2, neighbors, 7),
            )
        };
        let (mut origin, mut origin_env) = node(0);
        let (mut relay, mut relay_env) = node(1);
        let mut out = Mailbox::new();
        let mut effects = |node: &mut SteadyNode<EntryCounter>, env: &mut StandaloneEnv, input| {
            node.poll(input, &mut env.view(), &mut out);
            out.drain().collect::<Vec<_>>()
        };
        let arrive = |tx: u64| Input::TimerFired {
            tag: tx << TAG_SLOT_BITS,
        };
        let relayed = |tx| Input::Message {
            from: NodeId::new(0),
            message: Tagged { tx, inner: Ping },
        };
        let entries = |amount| Effect::Counter {
            name: "entries",
            amount,
        };

        // Transaction 0 runs origin → relay and retires, emptying slot 0's
        // row on both nodes.
        let sent = effects(&mut origin, &mut origin_env, arrive(0));
        assert_eq!(
            sent,
            [Effect::Send {
                to: NodeId::new(1),
                message: Tagged { tx: 0, inner: Ping }
            }]
        );
        assert_eq!(
            effects(&mut relay, &mut relay_env, relayed(0)),
            [entries(1)]
        );
        assert_eq!(session.borrow().lanes.live(), 0);
        assert_eq!(session.borrow().free_slots(), 1);
        assert_eq!(session.borrow().instances(), 0);

        // Transaction 1 is handed the same slot: its first message at the
        // relay must meet a pristine instance, not transaction 0's.
        effects(&mut origin, &mut origin_env, arrive(1));
        assert!(matches!(session.borrow().txs[1].lease, Some((_, 0))));
        assert_eq!(session.borrow().instances(), 1, "the origin's alone");
        assert_eq!(
            effects(&mut relay, &mut relay_env, relayed(1)),
            [entries(1)]
        );
        assert_eq!(session.borrow().instances(), 0);

        // Transaction 2, same slot again. A timer for it on the relay,
        // which never spawned an instance for it, is ignored — but still
        // counts as the consumed input.
        effects(&mut origin, &mut origin_env, arrive(2));
        let orphan = Input::TimerFired {
            tag: encode_timer(2, 5),
        };
        assert_eq!(effects(&mut relay, &mut relay_env, orphan), []);
        assert_eq!(session.borrow().instances(), 0);
        assert_eq!(session.borrow().rows(), 1);
        assert_eq!(session.borrow().lanes.live(), 0);
        assert_eq!(session.borrow().lanes.peak_live(), 1);
    }
}
