//! Recording simulator runs and replaying them through bare cores.
//!
//! A [`TraceHandle`] shared by every node's [`SimDriver`](crate::SimDriver)
//! accumulates one [`TraceEvent`] per poll, in the simulator's delivery
//! order: which node was polled, at what time, with which input, the exact
//! RNG state before the poll, and the effects the core emitted.
//! [`replay_trace`] then feeds the same inputs through a *fresh* set of
//! cores — no simulator, no `Context`, just a [`ReplayView`] over recorded
//! state — and checks the emitted effects match event for event. This is
//! the determinism gate that keeps the sans-IO cores from silently
//! diverging from the simulator path.

use crate::core::ProtocolCore;
use crate::mailbox::{Effect, Input, Mailbox};
use crate::view::{HotLanes, NodeView};
use fnp_netsim::{Graph, HotState, NodeId, SimTime};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;

/// The input of one recorded poll.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TracedInput<M> {
    /// A regular protocol input (init, message, timer).
    Input(Input<M>),
    /// An out-of-band entry point invoked through
    /// [`SimDriver::drive`](crate::SimDriver::drive) — typically the
    /// origin's "start broadcast" trigger. The replayer cannot reconstruct
    /// the closure, so [`replay_trace`] hands these to its `on_external`
    /// callback.
    External,
}

/// One recorded poll of one node's core.
#[derive(Clone, Debug)]
pub struct TraceEvent<M> {
    /// The node that was polled.
    pub node: NodeId,
    /// Simulated time of the poll.
    pub now: SimTime,
    /// The input the core was polled with.
    pub input: TracedInput<M>,
    /// The simulation RNG state immediately before the poll. Injected
    /// verbatim during replay so cores draw the same randomness without
    /// rerunning the driver-side draws (latency sampling) interleaved
    /// between polls.
    pub rng_before: StdRng,
    /// The effects the core emitted, in emission order.
    pub effects: Vec<Effect<M>>,
}

/// What a [`SimDriver`](crate::SimDriver) does with each poll it makes:
/// nothing ([`Untraced`], the default, which has no size) or append it to a
/// recording ([`TraceHandle`]). A type parameter rather than an `Option`
/// field, so an untraced driver is exactly as large as its core.
pub trait PollTrace<M> {
    /// What is carried from before a poll to after it.
    type Pending;

    /// Called before a poll with its input (`None` for an out-of-band
    /// entry point run through [`SimDriver::drive`](crate::SimDriver::drive))
    /// and the RNG state the core is about to see.
    fn before(&self, input: Option<&Input<M>>, rng: &StdRng) -> Self::Pending;

    /// Called after the poll with the effects it pushed, in emission order.
    fn after(&self, pending: Self::Pending, node: NodeId, now: SimTime, effects: &[Effect<M>]);
}

/// The [`PollTrace`] that records nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Untraced;

impl<M> PollTrace<M> for Untraced {
    type Pending = ();

    fn before(&self, _: Option<&Input<M>>, _: &StdRng) {}

    fn after(&self, (): (), _: NodeId, _: SimTime, _: &[Effect<M>]) {}
}

/// Shared, append-only recording of a simulator run.
///
/// Clone one handle into every node's [`SimDriver::traced`](crate::SimDriver::traced)
/// wrapper; the drivers append events in delivery order.
#[derive(Debug, Default)]
pub struct TraceHandle<M> {
    events: Rc<RefCell<Vec<TraceEvent<M>>>>,
}

impl<M: Clone> PollTrace<M> for TraceHandle<M> {
    type Pending = (TracedInput<M>, StdRng);

    fn before(&self, input: Option<&Input<M>>, rng: &StdRng) -> Self::Pending {
        let input = input.map_or(TracedInput::External, |input| {
            TracedInput::Input(input.clone())
        });
        (input, rng.clone())
    }

    fn after(
        &self,
        (input, rng_before): Self::Pending,
        node: NodeId,
        now: SimTime,
        effects: &[Effect<M>],
    ) {
        self.record(TraceEvent {
            node,
            now,
            input,
            rng_before,
            effects: effects.to_vec(),
        });
    }
}

impl<M> Clone for TraceHandle<M> {
    fn clone(&self) -> Self {
        Self {
            events: Rc::clone(&self.events),
        }
    }
}

impl<M> TraceHandle<M> {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self {
            events: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Appends one recorded poll.
    pub fn record(&self, event: TraceEvent<M>) {
        self.events.borrow_mut().push(event);
    }

    /// Number of recorded polls.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Takes the recorded events out of the handle.
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent<M>> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

/// A [`NodeView`] reconstructed from a recorded trace event: per-node hot
/// lanes evolve exactly as in the original run because the same polls
/// mutate them in the same order, while the RNG is injected per event.
#[derive(Debug)]
pub struct ReplayView<'a> {
    node: NodeId,
    now: SimTime,
    neighbors: &'a [NodeId],
    node_count: usize,
    rng: &'a mut StdRng,
    hot: &'a mut HotState,
}

impl HotLanes for ReplayView<'_> {
    fn seen(&self) -> bool {
        self.hot.seen(self.node)
    }

    fn set_seen(&mut self) -> bool {
        self.hot.set_seen(self.node)
    }

    fn phase(&self) -> u8 {
        self.hot.phase(self.node)
    }

    fn set_phase(&mut self, phase: u8) {
        self.hot.set_phase(self.node, phase);
    }

    fn counter_lane(&self) -> u32 {
        self.hot.counter(self.node)
    }

    fn set_counter_lane(&mut self, value: u32) {
        self.hot.set_counter(self.node, value);
    }
}

impl NodeView for ReplayView<'_> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// A divergence found by [`replay_trace`].
#[derive(Debug)]
pub struct ReplayMismatch {
    /// Index of the diverging event in the trace.
    pub index: usize,
    /// The node whose poll diverged.
    pub node: NodeId,
    /// Debug rendering of the recorded effects.
    pub expected: String,
    /// Debug rendering of the effects the replayed core emitted.
    pub got: String,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at event {} (node {:?}):\n  expected: {}\n  got:      {}",
            self.index, self.node, self.expected, self.got
        )
    }
}

impl std::error::Error for ReplayMismatch {}

/// Replays a recorded simulator trace through bare cores, without the
/// simulator.
///
/// `cores` must be fresh cores in the same initial state as the recorded
/// run's, indexed by [`NodeId::index`]; `graph` the same overlay. Each
/// recorded event is fed to the owning core with the recorded RNG state
/// injected; [`TracedInput::External`] events (origin triggers) are handed
/// to `on_external`, which must invoke the same entry point the original
/// driver ran. Returns the first divergence between recorded and emitted
/// effects, if any.
///
/// # Errors
///
/// Returns a [`ReplayMismatch`] describing the first event whose emitted
/// effects differ from the recording.
pub fn replay_trace<C, F>(
    cores: &mut [C],
    graph: &Graph,
    trace: &[TraceEvent<C::Message>],
    mut on_external: F,
) -> Result<(), ReplayMismatch>
where
    C: ProtocolCore,
    F: FnMut(&mut C, &mut ReplayView<'_>, &mut Mailbox<C::Message>),
{
    let mut hot = HotState::new(cores.len());
    let mut out = Mailbox::new();
    for (index, event) in trace.iter().enumerate() {
        let mut rng = event.rng_before.clone();
        let mut view = ReplayView {
            node: event.node,
            now: event.now,
            neighbors: graph.neighbors(event.node),
            node_count: graph.node_count(),
            rng: &mut rng,
            hot: &mut hot,
        };
        let core = &mut cores[event.node.index()];
        match &event.input {
            TracedInput::Input(input) => core.poll(input.clone(), &mut view, &mut out),
            TracedInput::External => on_external(core, &mut view, &mut out),
        }
        let got: Vec<Effect<C::Message>> = out.drain().collect();
        let expected = format!("{:?}", event.effects);
        let emitted = format!("{got:?}");
        if expected != emitted {
            return Err(ReplayMismatch {
                index,
                node: event.node,
                expected,
                got: emitted,
            });
        }
    }
    Ok(())
}
