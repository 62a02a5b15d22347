//! The discrete-event simulator.
//!
//! A [`Simulator`] owns a connected overlay [`Graph`], one protocol state
//! machine per node, a [`LatencyModel`] and an event queue. Protocols are
//! written as implementations of [`ProtocolNode`]: plain state machines that
//! react to message and timer events through a [`Context`] handle, exactly
//! the way a real networked node reacts to socket readiness and timeouts.
//! The simulator delivers every scheduled event in timestamp order, so a
//! whole experiment — thousands of broadcasts over thousands of nodes — is
//! deterministic under a fixed seed.
//!
//! # Examples
//!
//! A two-node "ping" protocol:
//!
//! ```
//! use fnp_netsim::{
//!     Context, Graph, LatencyModel, NodeId, Payload, ProtocolNode, SimConfig, Simulator,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Payload for Ping {
//!     fn kind(&self) -> &'static str { "ping" }
//! }
//!
//! struct Node;
//! impl ProtocolNode for Node {
//!     type Message = Ping;
//!     fn on_message(&mut self, _from: NodeId, _msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         ctx.mark_delivered();
//!     }
//! }
//!
//! let mut graph = Graph::new(2);
//! graph.add_edge(NodeId::new(0), NodeId::new(1));
//! let mut sim = Simulator::new(graph, vec![Node, Node], SimConfig::default());
//! sim.trigger(NodeId::new(0), |_node, ctx| {
//!     let peer = ctx.neighbors()[0];
//!     ctx.send(peer, Ping);
//! });
//! let metrics = sim.run();
//! assert_eq!(metrics.messages_sent, 1);
//! assert_eq!(metrics.delivered_count(), 1);
//! ```

use crate::arena::TrialArena;
use crate::bits;
use crate::churn::ChurnSchedule;
use crate::graph::Graph;
use crate::hot::{HotState, LaneSlot};
use crate::latency::LatencyModel;
use crate::mailbox::{Effect, Mailbox};
use crate::message::Payload;
use crate::metrics::{Metrics, TraceEntry};
use crate::node::NodeId;
use crate::time::SimTime;
use crate::wheel::{self, TimeWheel, WheelItem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link latency model used for every transmission.
    pub latency: LatencyModel,
    /// Seed of the simulation-wide random number generator.
    pub seed: u64,
    /// Whether to record the full transmission trace, one
    /// [`TraceEntry`] per delivered message — memory proportional to the
    /// message count. Wanted by the benchmark's traced `paper_grid` leg,
    /// the determinism tests (`determinism.rs`, `driver_tracing.rs`), the
    /// receipt oracle (`receipt_oracle.rs`) and debugging; the adversary
    /// estimators need only
    /// [`record_receipts`](Self::record_receipts), which this implies.
    pub record_trace: bool,
    /// Whether to record each node's first receipt
    /// ([`Metrics::receipts`]) — 24 bytes per node, whatever the message
    /// count. `fnp_adversary::AdversaryView` reads nothing else.
    pub record_receipts: bool,
    /// Hard cap on processed events, guarding against runaway protocols.
    /// The run stops at the cap; the events still queued are dropped and
    /// counted under the `"dropped-max-events"` counter.
    pub max_events: u64,
    /// Hard cap on simulated time; a message or timer scheduled later is
    /// dropped and counted under the `"dropped-late"` counter (a dropped
    /// message still counts as sent).
    pub max_time: SimTime,
    /// Outage schedule injected into the run (empty = no churn). While a
    /// node is down it neither receives messages nor fires timers; dropped
    /// messages are counted under the `"dropped-offline"` counter.
    pub churn: ChurnSchedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            seed: 0,
            record_trace: false,
            record_receipts: false,
            max_events: 50_000_000,
            max_time: SimTime::MAX,
            churn: ChurnSchedule::none(),
        }
    }
}

/// Handle through which a protocol state machine interacts with the world.
///
/// A context is only valid for the duration of one event handler. It has
/// two halves: a read side ([`ContextView`]: identity, clock, neighbours,
/// RNG, hot lanes — a context dereferences to it: `ctx.now()`,
/// `ctx.set_seen()`) and the simulator's [`Mailbox`], into which every
/// action (sends, timers, deliveries, counters) is pushed as an [`Effect`];
/// the simulator applies them, in emission order, when the handler returns.
#[derive(Debug)]
pub struct Context<'a, M> {
    view: ContextView<'a>,
    out: &'a mut Mailbox<M>,
}

/// The read side of a [`Context`]: everything a handler may look at, and
/// this node's hot lanes.
///
/// This is the one environment a sans-IO protocol core reads. Under the
/// simulator it comes from [`Context::split`] — the view is the core's
/// environment, the other half its outbox; a driver that runs one node
/// outside the simulator, or replays a recorded run, assembles one with
/// [`ContextView::new`].
#[derive(Debug)]
pub struct ContextView<'a> {
    node: NodeId,
    now: SimTime,
    neighbors: &'a [NodeId],
    node_count: usize,
    rng: &'a mut StdRng,
    lanes: LaneSlot<'a>,
}

impl<'a> ContextView<'a> {
    /// The environment of `node` at time `now`: its sorted `neighbors` in
    /// an overlay of `node_count` nodes, the run's `rng`, and its own slot
    /// of the hot lanes.
    #[must_use]
    pub fn new(
        node: NodeId,
        now: SimTime,
        neighbors: &'a [NodeId],
        node_count: usize,
        rng: &'a mut StdRng,
        lanes: LaneSlot<'a>,
    ) -> Self {
        Self {
            node,
            now,
            neighbors,
            node_count,
            rng,
            lanes,
        }
    }

    /// This view, reborrowed with its hot lanes redirected to this node's
    /// slot of `lanes` — how a multiplexer polls one transaction's
    /// instance against that transaction's own lane set.
    pub fn with_lanes<'b>(&'b mut self, lanes: &'b mut HotState) -> ContextView<'b> {
        ContextView {
            node: self.node,
            now: self.now,
            neighbors: self.neighbors,
            node_count: self.node_count,
            rng: self.rng,
            lanes: lanes.slot(self.node),
        }
    }

    /// The node this handler is running on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Overlay neighbours of this node, in deterministic (sorted) order.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Total number of nodes in the simulated network.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The simulation-wide random number generator.
    ///
    /// All protocol randomness must come from this generator to keep runs
    /// reproducible under a fixed [`SimConfig::seed`].
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Draws a uniformly random neighbour other than `excluded` — one
    /// `gen_range` over the eligible count, no allocation — or returns
    /// `None`, leaving the RNG untouched, when there is none.
    pub fn random_neighbor_except(&mut self, excluded: Option<NodeId>) -> Option<NodeId> {
        let eligible = |neighbor: &&NodeId| Some(**neighbor) != excluded;
        let count = self.neighbors.iter().filter(eligible).count();
        if count == 0 {
            return None;
        }
        let pick = self.rng.gen_range(0..count);
        self.neighbors.iter().filter(eligible).nth(pick).copied()
    }

    /// This node's seen flag (hot lane; see [`HotState`]).
    ///
    /// Protocols use this for the duplicate-suppression check at the top of
    /// their message handlers — the hottest read of the whole event loop —
    /// so it lives in a dense slice instead of the node struct.
    pub fn seen(&self) -> bool {
        let (word, mask) = bits::locate(self.lanes.index);
        self.lanes.seen[word] & mask != 0
    }

    /// Sets this node's seen flag, returning the previous value.
    ///
    /// `if ctx.set_seen() { return; }` is the idiomatic prune check: it
    /// marks and tests in one lane access.
    pub fn set_seen(&mut self) -> bool {
        let (word, mask) = bits::locate(self.lanes.index);
        bits::set_in(&mut self.lanes.seen[word], mask)
    }

    /// This node's phase tag (hot lane; see [`HotState`]).
    pub fn phase(&self) -> u8 {
        self.lanes.phase[self.lanes.index]
    }

    /// Sets this node's phase tag.
    pub fn set_phase(&mut self, phase: u8) {
        self.lanes.phase[self.lanes.index] = phase;
    }

    /// This node's hot counter slot (see [`HotState`]).
    pub fn counter_lane(&self) -> u32 {
        self.lanes.counter[self.lanes.index]
    }

    /// Sets this node's hot counter slot.
    pub fn set_counter_lane(&mut self, value: u32) {
        self.lanes.counter[self.lanes.index] = value;
    }

    /// Whether a spread wave of `round` (or a later one) was already
    /// processed on this node.
    ///
    /// Wave-dedup protocols store the highest processed round in the
    /// counter lane encoded as `round + 1` (`0` = none yet); this method
    /// and [`ContextView::mark_round_seen`] hold that encoding in one place
    /// so call sites cannot drift off by one.
    pub fn round_seen(&self, round: u32) -> bool {
        self.counter_lane() > round
    }

    /// Records `round` as the highest spread-wave round processed on this
    /// node (see [`ContextView::round_seen`] for the encoding).
    pub fn mark_round_seen(&mut self, round: u32) {
        self.set_counter_lane(round + 1);
    }
}

impl<'a, M> std::ops::Deref for Context<'a, M> {
    type Target = ContextView<'a>;

    fn deref(&self) -> &ContextView<'a> {
        &self.view
    }
}

impl<M> std::ops::DerefMut for Context<'_, M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.view
    }
}

impl<'a, M> Context<'a, M> {
    /// Splits the context into its read side and the mailbox its actions
    /// go to, so a handler can hand both to code that needs them apart
    /// (`core.poll(input, view, out)` in `fnp_proto::SimDriver`).
    pub fn split(&mut self) -> (&mut ContextView<'a>, &mut Mailbox<M>) {
        (&mut self.view, self.out)
    }

    /// Sends `message` to `to`. The simulator samples the link latency and
    /// delivers the message via the recipient's
    /// [`ProtocolNode::on_message`].
    pub fn send(&mut self, to: NodeId, message: M) {
        self.out.send(to, message);
    }

    /// Sends `message` to every overlay neighbour except those in
    /// `excluded`.
    ///
    /// Every queued copy owns its message: the simulator clones `message`
    /// at send time for each target but the last, which gets the original,
    /// so `t` queued copies cost `t − 1` clones. An excluded target, or one
    /// past [`SimConfig::max_time`], costs none; a copy whose recipient is
    /// offline when it arrives was still cloned. A payload that is
    /// expensive to clone should make cloning cheap itself (an `Rc` or
    /// `Arc` around its bulk).
    pub fn send_to_neighbors_except(&mut self, message: M, excluded: &[NodeId]) {
        self.out.broadcast(message, excluded);
    }

    /// Like [`Context::send_to_neighbors_except`], but takes ownership of
    /// the exclusion list instead of copying it.
    pub fn broadcast_except(&mut self, message: M, excluded: Vec<NodeId>) {
        self.out.push(Effect::Broadcast { message, excluded });
    }

    /// Schedules [`ProtocolNode::on_timer`] on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.out.set_timer(delay, tag);
    }

    /// Marks this node as having received (accepted) the broadcast payload.
    ///
    /// The first call per node is recorded in
    /// [`Metrics::delivered_at`](crate::metrics::Metrics); later calls are
    /// ignored.
    pub fn mark_delivered(&mut self) {
        self.out.deliver();
    }

    /// Increments a custom experiment counter by 1.
    pub fn record(&mut self, name: &'static str) {
        self.out.record(name);
    }

    /// Increments a custom experiment counter by `amount`.
    pub fn record_many(&mut self, name: &'static str, amount: u64) {
        self.out.record_many(name, amount);
    }
}

/// A per-node protocol state machine.
///
/// Implementations hold whatever per-node state the protocol needs (seen
/// transaction sets, virtual-source flags, DC-net round state, …) and react
/// to events through the [`Context`].
pub trait ProtocolNode: Sized {
    /// The message type this protocol exchanges.
    type Message: Payload;

    /// Called once per node before any event is processed.
    fn on_init(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called when a message from `from` arrives at this node.
    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Called when a timer previously set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Self::Message>) {
        let _ = (tag, ctx);
    }
}

/// What a queued event does. A delivery owns its copy of the message and
/// nothing derived from it: its kind and size are pure functions of the
/// payload ([`Payload::kind`], [`Payload::size_bytes`]), wanted only by a
/// recording run, so `step` asks the message for them there instead of
/// every queued event carrying 24 bytes of them through every push, bucket
/// drain and pop.
#[derive(Debug)]
enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        message: M,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
}

#[derive(Debug)]
struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> Event<M> {
    fn deliver(at: SimTime, seq: u64, from: NodeId, to: NodeId, message: M) -> Self {
        let kind = EventKind::Deliver { from, to, message };
        Self { at, seq, kind }
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<M> WheelItem for Event<M> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// The discrete-event simulator; see the [module documentation](self) for an
/// overview and example.
#[derive(Debug)]
pub struct Simulator<N: ProtocolNode> {
    graph: Graph,
    /// Cold per-node state: the protocol structs themselves (keys, buffers,
    /// membership tables), touched only inside the owning node's handlers.
    nodes: Vec<N>,
    /// Hot per-node state in struct-of-arrays form: the seen/phase/counter
    /// lanes consulted on every event (see [`HotState`]).
    hot: HotState,
    config: SimConfig,
    /// Pending events, ordered by `(at, seq)`. A bucketed time-wheel (see
    /// [`wheel`]) rather than one global heap: the bounded latency models
    /// let most pushes be O(1) bucket appends.
    queue: TimeWheel<Event<N::Message>>,
    /// The one effect buffer of the run: lent to each handler through its
    /// [`Context`] and drained into `queue` and `metrics` when the handler
    /// returns, so it is empty between events.
    mailbox: Mailbox<N::Message>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    metrics: Metrics,
    initialized: bool,
}

impl<N: ProtocolNode> Simulator<N> {
    /// Creates a simulator over `graph` with one state machine per node,
    /// on a fresh [`TrialArena`] (which allocates what the run needs).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the number of graph nodes.
    pub fn new(graph: Graph, nodes: Vec<N>, config: SimConfig) -> Self
    where
        N::Message: 'static,
    {
        Self::new_in(&mut TrialArena::new(), graph, nodes, config)
    }

    /// Creates a simulator like [`Simulator::new`], checking the event
    /// queue, metrics and hot-lane storage out of `arena` instead of
    /// allocating them.
    ///
    /// Pair with [`Simulator::into_parts_in`] to return the storage after
    /// the run; see [`TrialArena`] for the trial lifecycle.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the number of graph nodes.
    pub fn new_in(
        arena: &mut TrialArena,
        graph: Graph,
        nodes: Vec<N>,
        mut config: SimConfig,
    ) -> Self
    where
        N::Message: 'static,
    {
        assert_eq!(
            graph.node_count(),
            nodes.len(),
            "need exactly one protocol state machine per graph node ({} vs {})",
            graph.node_count(),
            nodes.len()
        );
        if let Err(error) = config.latency.validate() {
            panic!("{error}");
        }
        let n = graph.node_count();
        let hot = arena.hot(n);
        let mut queue = arena.take_queue::<Event<N::Message>>();
        let mut metrics = arena.metrics(n);
        queue.reset(wheel::width_for(config.latency.max_delay()));
        let rng = StdRng::seed_from_u64(config.seed);
        // The log implies the table, so a delivery tests one flag.
        config.record_receipts |= config.record_trace;
        if config.record_receipts {
            metrics.record_receipts();
        }
        Self {
            graph,
            nodes,
            hot,
            config,
            queue,
            mailbox: Mailbox::new(),
            now: 0,
            seq: 0,
            rng,
            metrics,
            initialized: false,
        }
    }

    /// The overlay graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Immutable access to all node states, indexed by [`NodeId::index`].
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The hot per-node lanes (seen flags, phase tags, counters), for
    /// post-run inspection.
    pub fn hot(&self) -> &HotState {
        &self.hot
    }

    /// Consumes the simulator, returning the node states and metrics.
    pub fn into_parts(self) -> (Vec<N>, Metrics) {
        (self.nodes, self.metrics)
    }

    /// Like [`Simulator::into_parts`], but returns the graph, event-queue
    /// buffer and hot lanes to `arena` for the next trial to reuse.
    pub fn into_parts_in(self, arena: &mut TrialArena) -> (Vec<N>, Metrics)
    where
        N::Message: 'static,
    {
        arena.store_graph(self.graph);
        arena.store_queue(self.queue);
        arena.store_hot(self.hot);
        (self.nodes, self.metrics)
    }

    /// Runs `on_init` on every node (idempotent; invoked automatically by
    /// [`Simulator::run`] and [`Simulator::trigger`]).
    fn ensure_initialized(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for index in 0..self.nodes.len() {
            self.dispatch(NodeId::new(index), |node, ctx| node.on_init(ctx));
        }
    }

    /// Invokes `f` on the state machine of `node` with a live context, then
    /// applies all recorded actions. This is how experiments start a
    /// broadcast: trigger the originator and let it send its first messages.
    pub fn trigger<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, N::Message>),
    {
        self.ensure_initialized();
        self.dispatch(node, f);
    }

    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, N::Message>),
    {
        let mut ctx = Context {
            view: ContextView::new(
                node,
                self.now,
                self.graph.neighbors(node),
                self.graph.node_count(),
                &mut self.rng,
                self.hot.slot(node),
            ),
            out: &mut self.mailbox,
        };
        f(&mut self.nodes[node.index()], &mut ctx);
        if !self.mailbox.is_empty() {
            self.apply_effects(node);
        }
    }

    /// Performs the effects the handler of `node` left in the mailbox, in
    /// emission order, leaving the mailbox empty.
    fn apply_effects(&mut self, node: NodeId) {
        // Taken out for the loop (the arms need `&mut self`) and put back
        // with its allocation; the placeholder left behind owns no memory.
        let mut mailbox = std::mem::take(&mut self.mailbox);
        for effect in mailbox.drain() {
            match effect {
                Effect::Send { to, message } => {
                    let delay = self.config.latency.sample(node, to, &mut self.rng);
                    let at = self.now.saturating_add(delay);
                    self.metrics
                        .record_send(message.kind(), message.size_bytes());
                    if at <= self.config.max_time {
                        let seq = self.next_seq();
                        self.push_event(Event::deliver(at, seq, node, to, message));
                    } else {
                        self.metrics.record_counter("dropped-late", 1);
                    }
                }
                Effect::Broadcast { message, excluded } => {
                    let bytes = message.size_bytes();
                    let kind_id = self.metrics.intern_kind(message.kind());
                    // The loop iterates the neighbor slice in place (the
                    // whole point is not to allocate a target list), which
                    // keeps `self.graph` borrowed — so `&mut self` helpers
                    // like next_seq()/push_event() are unavailable here and
                    // the seq bump and queue pushes go through disjoint
                    // field borrows directly. They must stay equivalent to
                    // the helpers used by the Send arm above. The whole
                    // fan-out goes through one bulk-push session, which
                    // hoists the wheel's bucket-routing threshold out of
                    // the per-neighbor path.
                    let mut batch = self.queue.bulk();
                    // Each queued copy is pushed once the next one is known
                    // to exist, with a clone; the last gets the original.
                    // `t` queued copies cost `t − 1` clones, and a target
                    // that is excluded or cut off by `max_time` none.
                    let mut held: Option<(SimTime, u64, NodeId)> = None;
                    for &to in self.graph.neighbors(node) {
                        if excluded.contains(&to) {
                            continue;
                        }
                        let delay = self.config.latency.sample(node, to, &mut self.rng);
                        let at = self.now.saturating_add(delay);
                        self.metrics.record_send_id(kind_id, bytes);
                        if at <= self.config.max_time {
                            let seq = self.seq;
                            self.seq += 1;
                            if let Some((at, seq, to)) = held.replace((at, seq, to)) {
                                batch.push(Event::deliver(at, seq, node, to, message.clone()));
                            }
                        } else {
                            self.metrics.record_counter("dropped-late", 1);
                        }
                    }
                    if let Some((at, seq, to)) = held {
                        batch.push(Event::deliver(at, seq, node, to, message));
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    let at = self.now.saturating_add(delay.max(1));
                    if at <= self.config.max_time {
                        let seq = self.next_seq();
                        self.push_event(Event {
                            at,
                            seq,
                            kind: EventKind::Timer { node, tag },
                        });
                    } else {
                        self.metrics.record_counter("dropped-late", 1);
                    }
                }
                Effect::Deliver => {
                    self.metrics.record_delivery(node, self.now);
                }
                Effect::Counter { name, amount } => {
                    self.metrics.record_counter(name, amount);
                }
            }
        }
        self.mailbox = mailbox;
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push_event(&mut self, event: Event<N::Message>) {
        self.queue.push(event);
    }

    /// Processes a single event. Returns `false` when the queue is empty or
    /// a configured limit has been reached.
    pub fn step(&mut self) -> bool {
        self.ensure_initialized();
        if self.metrics.events_processed >= self.config.max_events {
            // What is still queued will never run: count it once, drop it.
            let left = self.queue.len();
            if left > 0 {
                self.metrics
                    .record_counter("dropped-max-events", left as u64);
                self.queue.clear();
            }
            return false;
        }
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "event queue must be monotone");
        self.now = event.at;
        self.metrics.events_processed += 1;
        match event.kind {
            EventKind::Deliver { from, to, message } => {
                if self.config.churn.is_down(to, self.now) {
                    self.metrics.record_counter("dropped-offline", 1);
                    return true;
                }
                if self.config.record_receipts {
                    let kind = message.kind();
                    self.metrics.note_receipt(to, from, self.now, kind);
                    if self.config.record_trace {
                        self.metrics.trace.push(TraceEntry {
                            at: self.now,
                            from,
                            to,
                            kind,
                            bytes: message.size_bytes(),
                        });
                    }
                }
                self.dispatch(to, |node, ctx| node.on_message(from, message, ctx));
            }
            EventKind::Timer { node, tag } => {
                if self.config.churn.is_down(node, self.now) {
                    self.metrics.record_counter("dropped-offline", 1);
                    return true;
                }
                self.dispatch(node, |n, ctx| n.on_timer(tag, ctx));
            }
        }
        true
    }

    /// Runs the simulation to quiescence (empty event queue) or until a
    /// configured limit is hit, and returns the collected metrics.
    pub fn run(&mut self) -> &Metrics {
        self.ensure_initialized();
        while self.step() {}
        self.metrics.finished_at = self.now;
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TestPayload;
    use crate::topology;

    #[test]
    fn a_lent_view_touches_only_its_own_slot() {
        let node = NodeId::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut hot = HotState::new(6);
        let mut view = ContextView::new(node, 0, &[], 6, &mut rng, hot.slot(node));
        assert!(!view.set_seen());
        view.set_phase(7);
        view.set_counter_lane(9);
        let mut expected = HotState::new(6);
        expected.set_seen(node);
        expected.set_phase(node, 7);
        expected.set_counter(node, 9);
        assert_eq!(hot, expected, "only slot 3 changed");

        // A view reborrowed onto a leased lane set writes there alone.
        let mut leased = HotState::new(6);
        let mut view = ContextView::new(node, 0, &[], 6, &mut rng, hot.slot(node));
        let mut lane_view = view.with_lanes(&mut leased);
        assert!(!lane_view.set_seen(), "the leased lanes start unseen");
        lane_view.set_phase(2);
        lane_view.mark_round_seen(4);
        assert_eq!((lane_view.phase(), lane_view.counter_lane()), (2, 5));
        assert_eq!(view.phase(), 7, "the view's own slot is untouched");
        assert_eq!(hot, expected, "the simulator's lanes are untouched");
        let mut written = HotState::new(6);
        written.set_seen(node);
        written.set_phase(node, 2);
        written.set_counter(node, 5);
        assert_eq!(leased, written);
    }

    /// A flooding node used to exercise the simulator machinery itself.
    #[derive(Default)]
    struct FloodNode {
        seen: bool,
    }

    impl ProtocolNode for FloodNode {
        type Message = TestPayload;

        fn on_message(
            &mut self,
            from: NodeId,
            message: TestPayload,
            ctx: &mut Context<'_, TestPayload>,
        ) {
            if self.seen {
                return;
            }
            self.seen = true;
            ctx.mark_delivered();
            ctx.send_to_neighbors_except(message, &[from]);
        }
    }

    fn flood_sim(n: usize, seed: u64) -> Simulator<FloodNode> {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(n, 4, &mut rng).unwrap();
        let nodes = (0..n).map(|_| FloodNode::default()).collect();
        Simulator::new(
            graph,
            nodes,
            SimConfig {
                seed,
                record_trace: true,
                ..SimConfig::default()
            },
        )
    }

    fn start_flood(sim: &mut Simulator<FloodNode>, origin: NodeId) {
        sim.trigger(origin, |node, ctx| {
            node.seen = true;
            ctx.mark_delivered();
            ctx.send_to_neighbors_except(TestPayload::new("flood", 250), &[]);
        });
    }

    #[test]
    fn flood_reaches_every_node() {
        let mut sim = flood_sim(100, 1);
        start_flood(&mut sim, NodeId::new(0));
        let edge_count = sim.graph().edge_count() as u64;
        let node_count = sim.graph().node_count() as u64;
        let metrics = sim.run();
        assert_eq!(metrics.delivered_count(), 100);
        assert_eq!(metrics.coverage(), 1.0);
        // Each node forwards to (deg - 1) neighbours except the origin which
        // uses deg; total messages are bounded by 2 * |E|.
        assert!(metrics.messages_sent <= 2 * edge_count);
        assert!(metrics.messages_sent >= node_count - 1);
    }

    #[test]
    fn runs_are_deterministic_under_fixed_seed() {
        let run = |seed| {
            let mut sim = flood_sim(60, seed);
            start_flood(&mut sim, NodeId::new(3));
            let m = sim.run().clone();
            (m.messages_sent, m.delivered_at.clone(), m.finished_at)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7).2,
            run(8).2,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let mut sim = flood_sim(30, 2);
        start_flood(&mut sim, NodeId::new(0));
        let metrics = sim.run();
        assert_eq!(metrics.trace.len() as u64, metrics.messages_sent);
        // Trace times are non-decreasing because it is filled in delivery order.
        assert!(metrics.trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(metrics
            .trace
            .iter()
            .all(|t| t.kind == "flood" && t.bytes == 250));
    }

    #[test]
    fn trace_not_recorded_when_disabled() {
        let mut rng = StdRng::seed_from_u64(3);
        let graph = topology::random_regular(20, 4, &mut rng).unwrap();
        let nodes = (0..20).map(|_| FloodNode::default()).collect();
        let mut sim = Simulator::new(graph, nodes, SimConfig::default());
        start_flood(&mut sim, NodeId::new(0));
        let metrics = sim.run();
        assert!(metrics.trace.is_empty());
        assert!(metrics.receipts().is_none());
    }

    #[test]
    fn max_events_limit_stops_the_run() {
        let mut sim = {
            let mut rng = StdRng::seed_from_u64(4);
            let graph = topology::random_regular(200, 6, &mut rng).unwrap();
            let nodes = (0..200).map(|_| FloodNode::default()).collect();
            Simulator::new(
                graph,
                nodes,
                SimConfig {
                    max_events: 50,
                    ..SimConfig::default()
                },
            )
        };
        start_flood(&mut sim, NodeId::new(0));
        let metrics = sim.run();
        assert_eq!(metrics.events_processed, 50);
        assert!(metrics.delivered_count() < 200);
        // Every message sent was queued (no `max_time`, no timers): those
        // not processed by the cap are counted as dropped, once.
        let left = metrics.messages_sent - 50;
        assert!(left > 0);
        assert_eq!(metrics.counter("dropped-max-events"), left);
        assert!(!sim.step());
        assert_eq!(sim.run().counter("dropped-max-events"), left);
    }

    #[test]
    fn max_time_limit_drops_late_events() {
        let graph = topology::line(50).unwrap();
        let nodes = (0..50).map(|_| FloodNode::default()).collect();
        let mut sim = Simulator::new(
            graph,
            nodes,
            SimConfig {
                latency: LatencyModel::Constant { delay: 1000 },
                max_time: 10_000,
                ..SimConfig::default()
            },
        );
        start_flood(&mut sim, NodeId::new(0));
        let metrics = sim.run();
        // Along a line with 1 ms hops and a 10 ms horizon only ~10 hops complete.
        assert!(metrics.delivered_count() <= 12);
        assert!(metrics.finished_at <= 10_000);
    }

    #[test]
    fn everything_max_time_cuts_off_is_counted() {
        // One node, at time 0: a send, a broadcast to its two other
        // neighbours and a timer, all due after `max_time`. None is queued,
        // each is counted, and the messages still count as sent.
        struct Late;
        impl ProtocolNode for Late {
            type Message = TestPayload;
            fn on_message(
                &mut self,
                _: NodeId,
                _: TestPayload,
                ctx: &mut Context<'_, TestPayload>,
            ) {
                ctx.record("arrived");
            }
            fn on_timer(&mut self, _: u64, ctx: &mut Context<'_, TestPayload>) {
                ctx.record("fired");
            }
        }
        let run = |max_time| {
            let mut sim = Simulator::new(
                topology::complete(4).unwrap(),
                vec![Late, Late, Late, Late],
                SimConfig {
                    latency: LatencyModel::Constant { delay: 1000 },
                    max_time,
                    ..SimConfig::default()
                },
            );
            sim.trigger(NodeId::new(0), |_, ctx| {
                ctx.send(NodeId::new(1), TestPayload::new("late", 10));
                ctx.send_to_neighbors_except(TestPayload::new("late", 10), &[NodeId::new(1)]);
                ctx.set_timer(1000, 7);
            });
            let metrics = sim.run();
            (
                metrics.messages_sent,
                metrics.counter("dropped-late"),
                metrics.counter("arrived") + metrics.counter("fired"),
                metrics.events_processed,
            )
        };
        assert_eq!(run(999), (3, 4, 0, 0));
        assert_eq!(run(1000), (3, 0, 4, 4));
    }

    thread_local! {
        /// `Counted::clone` calls on this thread (tests run in parallel).
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A payload that counts its clones.
    #[derive(Debug)]
    struct Counted;

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|clones| clones.set(clones.get() + 1));
            Counted
        }
    }

    impl Payload for Counted {
        fn kind(&self) -> &'static str {
            "counted"
        }
    }

    struct Sink;

    impl ProtocolNode for Sink {
        type Message = Counted;
        fn on_message(&mut self, _: NodeId, _: Counted, ctx: &mut Context<'_, Counted>) {
            ctx.record("arrived");
        }
    }

    /// Lets node 0 of a complete graph on six nodes `emit`, runs to
    /// quiescence, and returns (payload clones, messages arrived,
    /// messages dropped late).
    fn clones_of(
        config: SimConfig,
        emit: impl FnOnce(&mut Context<'_, Counted>),
    ) -> (u64, u64, u64) {
        let mut sim = Simulator::new(
            topology::complete(6).unwrap(),
            (0..6).map(|_| Sink).collect(),
            config,
        );
        CLONES.with(|clones| clones.set(0));
        sim.trigger(NodeId::new(0), |_, ctx| emit(ctx));
        let metrics = sim.run();
        (
            CLONES.with(std::cell::Cell::get),
            metrics.counter("arrived"),
            metrics.counter("dropped-late"),
        )
    }

    #[test]
    fn a_fan_out_to_t_targets_clones_t_minus_one_times() {
        let all = |ctx: &mut Context<'_, Counted>| ctx.send_to_neighbors_except(Counted, &[]);
        assert_eq!(clones_of(SimConfig::default(), all), (4, 5, 0));
        // A copy that churn drops on arrival was cloned at send time.
        let mut churn = ChurnSchedule::none();
        churn.add(NodeId::new(5), 0, SimTime::MAX);
        let config = SimConfig {
            churn,
            ..SimConfig::default()
        };
        assert_eq!(clones_of(config, all), (4, 4, 0));
    }

    #[test]
    fn an_excluded_target_costs_no_clone() {
        let some = |ctx: &mut Context<'_, Counted>| {
            ctx.send_to_neighbors_except(Counted, &[NodeId::new(2), NodeId::new(5)]);
        };
        assert_eq!(clones_of(SimConfig::default(), some), (2, 3, 0));
    }

    #[test]
    fn a_target_past_max_time_costs_no_clone() {
        let all = |ctx: &mut Context<'_, Counted>| ctx.send_to_neighbors_except(Counted, &[]);
        let late = SimConfig {
            latency: LatencyModel::Constant { delay: 1000 },
            max_time: 999,
            ..SimConfig::default()
        };
        assert_eq!(clones_of(late, all), (0, 0, 5));
        // Some targets late, some not, whichever comes last: the queued
        // ones still cost one clone fewer than there are of them.
        let mixed = (0..8).map(|seed| {
            clones_of(
                SimConfig {
                    latency: LatencyModel::Uniform { min: 0, max: 2000 },
                    max_time: 1000,
                    seed,
                    ..SimConfig::default()
                },
                all,
            )
        });
        let mut split = 0;
        for (clones, arrived, late) in mixed {
            assert_eq!(arrived + late, 5);
            assert_eq!(clones, arrived.saturating_sub(1));
            split += u64::from(arrived > 0 && late > 0);
        }
        assert!(split > 0, "no seed split the fan-out");
    }

    #[test]
    fn a_point_to_point_send_never_clones() {
        let three = |ctx: &mut Context<'_, Counted>| {
            for to in 1..4 {
                ctx.send(NodeId::new(to), Counted);
            }
        };
        assert_eq!(clones_of(SimConfig::default(), three), (0, 3, 0));
    }

    #[test]
    fn a_fully_excluded_broadcast_clones_nothing() {
        let none = |ctx: &mut Context<'_, Counted>| {
            let everyone = ctx.neighbors().to_vec();
            ctx.send_to_neighbors_except(Counted, &everyone);
        };
        assert_eq!(clones_of(SimConfig::default(), none), (0, 0, 0));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl ProtocolNode for TimerNode {
            type Message = TestPayload;
            fn on_init(&mut self, ctx: &mut Context<'_, TestPayload>) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_message(&mut self, _: NodeId, _: TestPayload, _: &mut Context<'_, TestPayload>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, TestPayload>) {
                self.fired.push(tag);
                if tag == 3 {
                    ctx.record("last-timer");
                }
            }
        }
        let graph = Graph::new(1);
        let mut sim = Simulator::new(
            graph,
            vec![TimerNode { fired: vec![] }],
            SimConfig::default(),
        );
        let metrics = sim.run();
        assert_eq!(metrics.counter("last-timer"), 1);
        assert_eq!(sim.node(NodeId::new(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn fully_excluded_broadcast_leaves_no_trace_of_the_kind() {
        // A broadcast with no eligible targets must not create phantom
        // metrics entries for its (never actually sent) kind.
        struct LonelyNode;
        impl ProtocolNode for LonelyNode {
            type Message = TestPayload;
            fn on_init(&mut self, ctx: &mut Context<'_, TestPayload>) {
                ctx.send_to_neighbors_except(TestPayload::new("lonely", 9), &[]);
            }
            fn on_message(&mut self, _: NodeId, _: TestPayload, _: &mut Context<'_, TestPayload>) {}
        }
        // A single isolated node: no neighbours, so the fan-out is empty.
        let mut sim = Simulator::new(Graph::new(1), vec![LonelyNode], SimConfig::default());
        let metrics = sim.run();
        assert_eq!(metrics.messages_sent, 0);
        assert_eq!(metrics.messages_of_kind("lonely"), 0);
        assert_eq!(metrics.bytes_of_kind("lonely"), 0);
        assert!(metrics.messages_by_kind().is_empty());
        assert!(metrics.bytes_by_kind().is_empty());
    }

    #[test]
    fn counters_and_custom_records() {
        struct CounterNode;
        impl ProtocolNode for CounterNode {
            type Message = TestPayload;
            fn on_init(&mut self, ctx: &mut Context<'_, TestPayload>) {
                ctx.record("init");
                ctx.record_many("weighted", 5);
            }
            fn on_message(&mut self, _: NodeId, _: TestPayload, _: &mut Context<'_, TestPayload>) {}
        }
        let mut sim = Simulator::new(
            Graph::new(3),
            vec![CounterNode, CounterNode, CounterNode],
            SimConfig::default(),
        );
        let metrics = sim.run();
        assert_eq!(metrics.counter("init"), 3);
        assert_eq!(metrics.counter("weighted"), 15);
    }

    #[test]
    #[should_panic(expected = "one protocol state machine per graph node")]
    fn mismatched_node_count_panics() {
        let _ = Simulator::new(
            Graph::new(3),
            vec![FloodNode::default()],
            SimConfig::default(),
        );
    }

    #[test]
    fn a_pooled_queue_arrives_with_the_previous_trials_buckets() {
        // store_queue → take_queue → assemble: the wheel's clear on the way
        // into the arena and `assemble`'s re-arming reset on the way out
        // must together leave a second, identical trial nothing to grow —
        // although a flood's events sit in under a tenth of the buckets.
        // A fresh arena's wheel owns nothing but the sort keys it may have
        // drawn from an arena another test dropped.
        fn trial(arena: &mut TrialArena) -> (usize, usize) {
            let n = 10_000;
            let mut rng = StdRng::seed_from_u64(5);
            let graph = topology::random_regular(n, 8, &mut rng).unwrap();
            let nodes = (0..n).map(|_| FloodNode::default()).collect();
            let mut sim = Simulator::new_in(arena, graph, nodes, SimConfig::default());
            let armed = sim.queue.retained_capacity() - sim.queue.key_capacity();
            start_flood(&mut sim, NodeId::new(0));
            assert_eq!(sim.run().delivered_count(), n);
            let grown = sim.queue.retained_capacity() - sim.queue.key_capacity();
            let (_, metrics) = sim.into_parts_in(arena);
            arena.recycle_metrics(metrics);
            (armed, grown)
        }
        let mut arena = TrialArena::new();
        let (fresh, grown) = trial(&mut arena);
        assert_eq!(fresh, 0);
        assert!(grown > 10_000);
        let (pooled, regrown) = trial(&mut arena);
        assert_eq!(pooled, grown, "the pooled wheel lost capacity in the arena");
        assert_eq!(regrown, grown, "the second trial had to grow the wheel");
    }

    #[test]
    fn a_flood_event_fits_one_cache_line() {
        // `FloodMessage` is a `u64` transaction id; its events are what a
        // million-node flood queues, drains and pops by the million — with
        // room to spare: time, sequence number, the two node ids and the
        // payload itself, and nothing that can be read off the payload.
        #[derive(Clone, Debug)]
        struct TxId(#[allow(dead_code)] u64);
        impl Payload for TxId {
            fn kind(&self) -> &'static str {
                "flood"
            }
        }
        assert!(size_of::<Event<TxId>>() <= 40);
        // The wheel's chunks hold `Option<Event>`: the event kind's niche
        // keeps the `None` free.
        assert_eq!(size_of::<Option<Event<TxId>>>(), size_of::<Event<TxId>>());
    }

    #[test]
    fn into_parts_returns_final_state() {
        let mut sim = flood_sim(10, 6);
        start_flood(&mut sim, NodeId::new(0));
        sim.run();
        let (nodes, metrics) = sim.into_parts();
        assert_eq!(nodes.len(), 10);
        assert!(nodes.iter().all(|n| n.seen));
        assert_eq!(metrics.delivered_count(), 10);
    }
}
