//! The simulator driver: [`SimDriver`] adapts a [`ProtocolCore`] to the
//! discrete-event simulator's [`ProtocolNode`] interface.
//!
//! The adapter is deliberately thin so the sans-IO split costs nothing, in
//! behaviour or in memory: each simulator event is translated to one
//! [`Input`] and the core is polled on the two halves of the live
//! [`Context`] — its [`ContextView`] as the [`NodeView`], and the
//! simulator's own [`Mailbox`] as the outbox. There is no buffer between
//! the core and the simulator and no per-node driver state; the simulator
//! applies the effects after the handler returns, in emission order —
//! exactly as the pre-sans-IO protocol implementations had theirs applied —
//! so the event sequence, RNG draw order and metrics of a run are
//! byte-identical to the welded-to-the-simulator design this adapter
//! replaced.

use crate::core::ProtocolCore;
use crate::mailbox::{Input, Mailbox};
use crate::trace::{PollTrace, TraceHandle, Untraced};
use crate::view::{HotLanes, NodeView};
use fnp_netsim::{Context, ContextView, NodeId, ProtocolNode, SimTime};
use rand::rngs::StdRng;

impl HotLanes for ContextView<'_> {
    fn seen(&self) -> bool {
        ContextView::seen(self)
    }

    fn set_seen(&mut self) -> bool {
        ContextView::set_seen(self)
    }

    fn phase(&self) -> u8 {
        ContextView::phase(self)
    }

    fn set_phase(&mut self, phase: u8) {
        ContextView::set_phase(self, phase);
    }

    fn counter_lane(&self) -> u32 {
        ContextView::counter_lane(self)
    }

    fn set_counter_lane(&mut self, value: u32) {
        ContextView::set_counter_lane(self, value);
    }
}

impl NodeView for ContextView<'_> {
    fn node_id(&self) -> NodeId {
        ContextView::node_id(self)
    }

    fn now(&self) -> SimTime {
        ContextView::now(self)
    }

    fn neighbors(&self) -> &[NodeId] {
        ContextView::neighbors(self)
    }

    fn node_count(&self) -> usize {
        ContextView::node_count(self)
    }

    fn rng(&mut self) -> &mut StdRng {
        ContextView::rng(self)
    }
}

/// Adapter running a sans-IO [`ProtocolCore`] under the simulator.
///
/// Implements [`ProtocolNode`] by translating simulator callbacks into
/// [`Input`]s and polling the core on the [`Context`]'s view and mailbox.
/// Dereferences to the wrapped core so read accessors
/// (`driver.is_origin()`, …) keep working at existing call sites.
///
/// `T` says what happens to each poll ([`PollTrace`]). The default,
/// [`Untraced`], has no size, so `SimDriver<C>` is laid out exactly like
/// `C`: an event the core prunes on its hot lanes touches no per-node
/// memory at all.
#[derive(Clone, Debug, Default)]
pub struct SimDriver<C: ProtocolCore, T = Untraced> {
    core: C,
    trace: T,
}

impl<C: ProtocolCore> SimDriver<C> {
    /// Wraps `core` for use as a simulator node.
    pub fn new(core: C) -> Self {
        Self {
            core,
            trace: Untraced,
        }
    }
}

impl<C: ProtocolCore> SimDriver<C, TraceHandle<C::Message>> {
    /// Like [`SimDriver::new`], additionally recording every poll (input,
    /// RNG state before, effects emitted) into `trace` for later replay
    /// through the bare core via [`replay_trace`](crate::replay_trace).
    pub fn traced(core: C, trace: TraceHandle<C::Message>) -> Self {
        Self { core, trace }
    }
}

impl<C: ProtocolCore, T: PollTrace<C::Message>> SimDriver<C, T> {
    /// The wrapped core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// Mutable access to the wrapped core.
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// Unwraps the adapter, returning the core.
    pub fn into_core(self) -> C {
        self.core
    }

    /// Runs an out-of-band protocol entry point (such as "start a
    /// broadcast") against the core; the effects it emits are applied with
    /// the rest of the handler's.
    ///
    /// This is how experiments trigger an origin under
    /// [`Simulator::trigger`](fnp_netsim::Simulator::trigger):
    ///
    /// ```ignore
    /// sim.trigger(origin, |driver, ctx| {
    ///     driver.drive(ctx, |core, view, out| core.start_broadcast(tx_id, view, out));
    /// });
    /// ```
    pub fn drive<R>(
        &mut self,
        ctx: &mut Context<'_, C::Message>,
        f: impl FnOnce(&mut C, &mut ContextView<'_>, &mut Mailbox<C::Message>) -> R,
    ) -> R {
        let pending = self.trace.before(None, ctx.rng());
        self.poll_traced(ctx, pending, f)
    }

    // `#[inline]` here, on `poll_traced` and on the `ProtocolNode` methods
    // lets `Simulator::run` inline the adapter from any codegen unit; without
    // it each is instantiated once, in this module's unit, and sharing it is
    // a partitioning accident (`flood_large` reads 6 % slower without).
    #[inline]
    fn dispatch(&mut self, input: Input<C::Message>, ctx: &mut Context<'_, C::Message>) {
        let pending = self.trace.before(Some(&input), ctx.rng());
        self.poll_traced(ctx, pending, |core, view, out| core.poll(input, view, out));
    }

    /// Runs `f` on the core and the two halves of `ctx`, then reports the
    /// effects it pushed to the trace.
    #[inline]
    fn poll_traced<R>(
        &mut self,
        ctx: &mut Context<'_, C::Message>,
        pending: T::Pending,
        f: impl FnOnce(&mut C, &mut ContextView<'_>, &mut Mailbox<C::Message>) -> R,
    ) -> R {
        let (view, out) = ctx.split();
        let first = out.len();
        let result = f(&mut self.core, view, out);
        self.trace
            .after(pending, view.node_id(), view.now(), &out.effects()[first..]);
        result
    }
}

impl<C: ProtocolCore, T> std::ops::Deref for SimDriver<C, T> {
    type Target = C;

    fn deref(&self) -> &C {
        &self.core
    }
}

impl<C: ProtocolCore, T: PollTrace<C::Message>> ProtocolNode for SimDriver<C, T> {
    type Message = C::Message;

    #[inline]
    fn on_init(&mut self, ctx: &mut Context<'_, Self::Message>) {
        self.dispatch(Input::Init, ctx);
    }

    #[inline]
    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        self.dispatch(Input::Message { from, message }, ctx);
    }

    #[inline]
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, Self::Message>) {
        self.dispatch(Input::TimerFired { tag }, ctx);
    }
}
