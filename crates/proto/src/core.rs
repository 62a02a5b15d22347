//! The sans-IO protocol core trait.

use crate::mailbox::{Input, Mailbox};
use fnp_netsim::{ContextView, Payload};

/// A pure, driver-agnostic protocol state machine.
///
/// A core holds only the protocol's own per-node state. It is fed one
/// [`Input`] at a time — `Init`, an incoming `Message`, or a `TimerFired` —
/// reads its environment through a [`ContextView`], and responds by pushing
/// effects into the [`Mailbox`]. It never performs IO: the driver that owns
/// it (the discrete-event [`Simulator`](fnp_netsim::Simulator) via
/// [`SimDriver`](crate::SimDriver), the `fnp-node` line-delimited JSON event
/// loop, or the [trace replayer](crate::replay_trace)) drains the mailbox
/// and performs the effects, in order.
///
/// # Example: a minimal ping core under the simulator driver
///
/// ```
/// use fnp_netsim::{Graph, NodeId, Payload, SimConfig, Simulator};
/// use fnp_netsim::ContextView;
/// use fnp_proto::{Input, Mailbox, ProtocolCore, SimDriver};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Payload for Ping {
///     fn kind(&self) -> &'static str { "ping" }
/// }
///
/// struct Node;
/// impl ProtocolCore for Node {
///     type Message = Ping;
///     fn poll(
///         &mut self,
///         input: Input<Ping>,
///         _view: &mut ContextView<'_>,
///         out: &mut Mailbox<Ping>,
///     ) {
///         if let Input::Message { .. } = input {
///             out.deliver();
///         }
///     }
/// }
///
/// let mut graph = Graph::new(2);
/// graph.add_edge(NodeId::new(0), NodeId::new(1));
/// let nodes = vec![SimDriver::new(Node), SimDriver::new(Node)];
/// let mut sim = Simulator::new(graph, nodes, SimConfig::default());
/// sim.trigger(NodeId::new(0), |driver, ctx| {
///     driver.drive(ctx, |_core, view, out| {
///         let peer = view.neighbors()[0];
///         out.send(peer, Ping);
///     });
/// });
/// let metrics = sim.run();
/// assert_eq!(metrics.messages_sent, 1);
/// assert_eq!(metrics.delivered_count(), 1);
/// ```
pub trait ProtocolCore {
    /// The message type this protocol exchanges.
    type Message: Payload;

    /// Processes one input, pushing any resulting effects into `out`.
    ///
    /// Effect order matters: drivers apply effects in emission order, and
    /// downstream randomness (latency sampling, fan-out iteration) consumes
    /// the driver RNG in that order, so reordering emissions changes runs.
    fn poll(
        &mut self,
        input: Input<Self::Message>,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<Self::Message>,
    );
}
