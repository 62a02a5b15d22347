//! # fnp-proto — sans-IO protocol cores behind a mailbox API
//!
//! The paper's broadcast protocols are pure state machines: they react to
//! messages and timers by sending messages, setting timers and recording
//! deliveries. Nothing in that logic needs a simulator — or a socket. This
//! crate pins that observation down as an API:
//!
//! * [`ProtocolCore`] — the protocol trait. One method,
//!   [`poll`](ProtocolCore::poll): take an [`Input`]
//!   (`Init` / `Message` / `TimerFired`), read the environment through a
//!   [`NodeView`], push [`Effect`]s into a [`Mailbox`]. No IO, no clock,
//!   no global state.
//! * [`Mailbox`] / [`Effect`] — the outbox: `Send`, `Broadcast`,
//!   `SetTimer`, `Deliver`, `Counter`, applied by the driver in emission
//!   order.
//! * [`HotLanes`] / [`NodeView`] — the read side: identity, neighbours,
//!   clock, RNG, and this node's hot lanes (seen/phase/counter), so the
//!   simulator keeps its struct-of-arrays storage while cores stay pure.
//! * [`SimDriver`] — the simulator driver: adapts any core to
//!   [`fnp_netsim::ProtocolNode`], byte-identical to the pre-sans-IO
//!   in-simulator implementations.
//! * [`StandaloneEnv`] — a single-node view for real-transport drivers
//!   (the `fnp-node` binary's line-delimited JSON event loop).
//! * [`steady`] — heavy-traffic multiplexing: wrap any single-broadcast
//!   core in a [`SteadyNode`] and many Poisson-injected transactions share
//!   one overlay, each with its own hot lanes and protocol instance.
//! * [`TraceHandle`] / [`replay_trace`] — record a simulator run, replay
//!   the inputs through bare cores, and assert the emitted effects match:
//!   the gate that keeps cores and simulator from drifting apart.
//!
//! See [`ProtocolCore`] for a worked minimal example, and
//! `docs/ARCHITECTURE.md` for how the pieces map onto the drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod core;
mod driver;
mod mailbox;
mod standalone;
pub mod steady;
mod trace;
mod view;

pub use crate::core::ProtocolCore;
pub use driver::SimDriver;
pub use mailbox::{Effect, Input, Mailbox};
pub use standalone::StandaloneEnv;
pub use steady::{
    Arrival, SteadyNode, SteadyProtocol, SteadyReport, SteadySession, Tagged, TxOutcome,
};
pub use trace::{
    replay_trace, PollTrace, ReplayMismatch, ReplayView, TraceEvent, TraceHandle, TracedInput,
    Untraced,
};
pub use view::{HotLanes, NodeView};
