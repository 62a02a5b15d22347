//! Protocol inputs, and the mailbox of deferred effects.
//!
//! A sans-IO core never touches a socket, a clock or the simulator: it is
//! handed one [`Input`] at a time and responds by pushing [`Effect`]s into a
//! [`Mailbox`]. The driver that owns the core — the discrete-event
//! simulator, the `fnp-node` stdin/stdout event loop, or a replay harness —
//! drains the mailbox after every poll and performs the effects in order.
//!
//! [`Effect`] and [`Mailbox`] are defined in [`fnp_netsim::mailbox`] (the
//! simulator drains the very buffer its cores push into) and re-exported
//! here, where cores import them from.

pub use fnp_netsim::mailbox::{Effect, Mailbox};
use fnp_netsim::NodeId;

/// One event delivered to a protocol core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Input<M> {
    /// The node is starting up (delivered once, before any other input).
    Init,
    /// A protocol message arrived from a peer.
    Message {
        /// The sending node.
        from: NodeId,
        /// The message payload.
        message: M,
    },
    /// A timer previously requested via [`Effect::SetTimer`] fired.
    TimerFired {
        /// The tag the core attached when setting the timer.
        tag: u64,
    },
}
