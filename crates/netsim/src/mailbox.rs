//! The mailbox of deferred effects.
//!
//! A handler never acts on the world directly: whether it is written
//! against [`Context`](crate::Context) or as a sans-IO `fnp_proto` core,
//! it pushes [`Effect`]s into a [`Mailbox`], and whoever drives it — the
//! [`Simulator`](crate::Simulator), the `fnp-node` stdin/stdout event loop,
//! or a replay harness — drains the mailbox after the handler returns and
//! performs the effects in order. Effect *order* is part of the protocol
//! contract: drivers must apply effects exactly in the order they were
//! pushed, because downstream randomness (link-latency sampling, fan-out
//! iteration) consumes the driver's RNG in that order.
//!
//! The types live in this crate, below `fnp-proto`, so that the simulator
//! and the sans-IO cores share one vocabulary and one buffer: a core polled
//! under the simulator pushes straight into the mailbox the simulator
//! drains into its event queue.

use crate::node::NodeId;
use crate::time::SimTime;

/// One deferred action emitted by a handler.
///
/// The vocabulary is what [`Context`](crate::Context) offers — the
/// simulator applies each effect as written — while remaining meaningful
/// to any other driver: a real transport maps `Send`/`Broadcast` to socket
/// writes and `SetTimer` to its timer wheel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect<M> {
    /// Send `message` to the single peer `to`.
    Send {
        /// The destination node.
        to: NodeId,
        /// The message payload.
        message: M,
    },
    /// Send `message` to every overlay neighbour not in `excluded`.
    ///
    /// Kept as a first-class effect (rather than expanded to `Send`s by the
    /// handler) so a driver copies the payload only for the targets it
    /// actually queues: the simulator clones it `t − 1` times at send time
    /// for `t` queued targets (even for one that churn later drops) and
    /// moves the original into the last. A payload that is expensive to
    /// clone should make cloning cheap itself.
    Broadcast {
        /// The message payload.
        message: M,
        /// Neighbours to skip (typically the peer the message came from).
        excluded: Vec<NodeId>,
    },
    /// Request a timer callback after `delay`.
    SetTimer {
        /// Delay from now until the timer fires.
        delay: SimTime,
        /// Tag handed back when the timer fires.
        tag: u64,
    },
    /// Mark the broadcast payload as delivered (accepted) on this node.
    Deliver,
    /// Increment the experiment counter `name` by `amount`.
    Counter {
        /// Counter name (a static string, interned by the metrics sink).
        name: &'static str,
        /// Increment amount.
        amount: u64,
    },
}

/// An ordered collection of [`Effect`]s produced by one handler invocation.
///
/// The mailbox is append-only while the handler runs and drained by the
/// driver afterwards. A driver keeps one mailbox for all of its nodes and
/// hands it to each handler in turn (the simulator does, through
/// [`Context`](crate::Context)), so the buffer reaches its working size
/// once and the hot path does not allocate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mailbox<M> {
    effects: Vec<Effect<M>>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Self {
            effects: Vec::new(),
        }
    }
}

impl<M> Mailbox<M> {
    /// Creates an empty mailbox.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending effects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Whether no effects are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The pending effects, in emission order.
    #[must_use]
    pub fn effects(&self) -> &[Effect<M>] {
        &self.effects
    }

    /// Pushes a raw effect.
    pub fn push(&mut self, effect: Effect<M>) {
        self.effects.push(effect);
    }

    /// Emits [`Effect::Send`].
    pub fn send(&mut self, to: NodeId, message: M) {
        self.push(Effect::Send { to, message });
    }

    /// Emits [`Effect::Broadcast`] to every neighbour except `excluded`.
    pub fn broadcast(&mut self, message: M, excluded: &[NodeId]) {
        self.push(Effect::Broadcast {
            message,
            excluded: excluded.to_vec(),
        });
    }

    /// Emits [`Effect::SetTimer`].
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.push(Effect::SetTimer { delay, tag });
    }

    /// Emits [`Effect::Deliver`].
    pub fn deliver(&mut self) {
        self.push(Effect::Deliver);
    }

    /// Emits [`Effect::Counter`] with amount 1.
    pub fn record(&mut self, name: &'static str) {
        self.record_many(name, 1);
    }

    /// Emits [`Effect::Counter`].
    pub fn record_many(&mut self, name: &'static str, amount: u64) {
        self.push(Effect::Counter { name, amount });
    }

    /// Drains the pending effects in emission order, leaving the buffer
    /// (and its allocation) ready for the next handler.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect<M>> {
        self.effects.drain(..)
    }

    /// Discards all pending effects.
    pub fn clear(&mut self) {
        self.effects.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_preserves_emission_order() {
        let mut out: Mailbox<&'static str> = Mailbox::new();
        assert!(out.is_empty());
        out.send(NodeId::new(1), "a");
        out.broadcast("b", &[NodeId::new(0)]);
        out.set_timer(5, 9);
        out.deliver();
        out.record("hits");
        out.record_many("bytes", 3);
        assert_eq!(out.len(), 6);
        let effects: Vec<_> = out.drain().collect();
        assert_eq!(
            effects,
            vec![
                Effect::Send {
                    to: NodeId::new(1),
                    message: "a"
                },
                Effect::Broadcast {
                    message: "b",
                    excluded: vec![NodeId::new(0)]
                },
                Effect::SetTimer { delay: 5, tag: 9 },
                Effect::Deliver,
                Effect::Counter {
                    name: "hits",
                    amount: 1
                },
                Effect::Counter {
                    name: "bytes",
                    amount: 3
                },
            ]
        );
        assert!(out.is_empty());
    }
}
