//! The single-node event loop state: core + environment + effect expansion.
//!
//! [`NodeRuntime`] is the transport-agnostic part of the binary: it takes
//! parsed [`Event`]s and returns the output lines they produce, so the
//! whole driver can be unit-tested without spawning a process. `main` is
//! reduced to framing: read a line, call [`NodeRuntime::handle`], print.

use crate::wire::{self, Event, WireError};
use fnp_gossip::FloodNode;
use fnp_netsim::NodeId;
use fnp_proto::{Effect, Input, Mailbox, NodeView, ProtocolCore, StandaloneEnv};

/// What the caller should do after handling an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Keep reading events.
    Continue,
    /// `shutdown` was acknowledged: stop reading and exit cleanly.
    Exit,
}

/// One node's runtime: the sans-IO core, its standalone environment and
/// the bookkeeping the wire protocol needs.
#[derive(Debug, Default)]
pub struct NodeRuntime {
    state: Option<Running>,
}

#[derive(Debug)]
struct Running {
    core: FloodNode,
    env: StandaloneEnv,
    mailbox: Mailbox<<FloodNode as ProtocolCore>::Message>,
    delivered: bool,
}

impl NodeRuntime {
    /// Creates a runtime awaiting its `init` event.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles one event, appending output lines to `out`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when an event arrives out of protocol —
    /// anything before `init`, or a second `init` — and when `init`
    /// contradicts itself: `node` or a neighbour not below `node_count`,
    /// or the node listed as its own neighbour. A rejected `init` prints
    /// nothing and leaves the runtime awaiting a valid one.
    pub fn handle(
        &mut self,
        event: Event,
        out: &mut Vec<String>,
    ) -> Result<Disposition, WireError> {
        match event {
            Event::Init {
                node,
                node_count,
                neighbors,
                seed,
            } => {
                if self.state.is_some() {
                    return Err(WireError::new("duplicate init"));
                }
                check_topology(node, node_count, &neighbors)?;
                let mut running = Running {
                    core: FloodNode::new(),
                    env: StandaloneEnv::new(node, node_count, neighbors, seed),
                    mailbox: Mailbox::new(),
                    delivered: false,
                };
                running
                    .core
                    .poll(Input::Init, &mut running.env, &mut running.mailbox);
                out.push(wire::init_ok_line(node));
                running.drain(out);
                self.state = Some(running);
                Ok(Disposition::Continue)
            }
            Event::Start { at, tx_id } => {
                let running = self.running()?;
                running.env.advance_to(at);
                running
                    .core
                    .start_broadcast(tx_id, &mut running.env, &mut running.mailbox);
                running.drain(out);
                Ok(Disposition::Continue)
            }
            Event::Deliver { at, from, message } => {
                let running = self.running()?;
                running.env.advance_to(at);
                running.core.poll(
                    Input::Message { from, message },
                    &mut running.env,
                    &mut running.mailbox,
                );
                running.drain(out);
                Ok(Disposition::Continue)
            }
            Event::Tick { at, tag } => {
                let running = self.running()?;
                running.env.advance_to(at);
                running.core.poll(
                    Input::TimerFired { tag },
                    &mut running.env,
                    &mut running.mailbox,
                );
                running.drain(out);
                Ok(Disposition::Continue)
            }
            Event::Shutdown => {
                let running = self.running()?;
                out.push(wire::done_line(running.env.node_id(), running.delivered));
                Ok(Disposition::Exit)
            }
        }
    }

    fn running(&mut self) -> Result<&mut Running, WireError> {
        self.state
            .as_mut()
            .ok_or_else(|| WireError::new("event before init"))
    }
}

/// An `init` must describe a node of the overlay it names: otherwise the
/// node would address `send` lines to peers that cannot exist, or to itself.
fn check_topology(node: NodeId, node_count: usize, neighbors: &[NodeId]) -> Result<(), WireError> {
    if node.index() >= node_count {
        return Err(WireError::new(format!(
            "\"node\" {} is not below \"node_count\" {node_count}",
            node.index()
        )));
    }
    for neighbor in neighbors {
        if neighbor.index() >= node_count {
            return Err(WireError::new(format!(
                "\"neighbors\" item {} is not below \"node_count\" {node_count}",
                neighbor.index()
            )));
        }
        if *neighbor == node {
            return Err(WireError::new(format!(
                "\"neighbors\" lists the node itself ({})",
                node.index()
            )));
        }
    }
    Ok(())
}

impl Running {
    /// Expands the mailbox into output lines, in emission order.
    ///
    /// `Broadcast` fans out into per-neighbour `send` lines in neighbour
    /// order — the same deterministic order the simulator applies — minus
    /// the excluded peers. `SetTimer` delays become absolute `timer`
    /// requests against the current event-time clock.
    fn drain(&mut self, out: &mut Vec<String>) {
        for effect in self.mailbox.drain() {
            match effect {
                Effect::Send { to, message } => out.push(wire::send_line(to, &message)),
                Effect::Broadcast { message, excluded } => {
                    for &neighbor in self.env.neighbors() {
                        if !excluded.contains(&neighbor) {
                            out.push(wire::send_line(neighbor, &message));
                        }
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    out.push(wire::timer_line(self.env.now() + delay, tag));
                }
                Effect::Deliver => {
                    self.delivered = true;
                    out.push(wire::delivered_line(self.env.now()));
                }
                Effect::Counter { name, amount } => out.push(wire::counter_line(name, amount)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(runtime: &mut NodeRuntime, event: Event) -> (Disposition, Vec<String>) {
        let mut out = Vec::new();
        let disposition = runtime.handle(event, &mut out).unwrap();
        (disposition, out)
    }

    fn init_event(node: usize) -> Event {
        Event::Init {
            node: NodeId::new(node),
            node_count: 3,
            neighbors: vec![NodeId::new((node + 1) % 3), NodeId::new((node + 2) % 3)],
            seed: 1,
        }
    }

    #[test]
    fn origin_floods_all_neighbors() {
        let mut runtime = NodeRuntime::new();
        let (_, out) = lines(&mut runtime, init_event(0));
        assert_eq!(out, [r#"{"type":"init_ok","node":0}"#]);
        let (_, out) = lines(&mut runtime, Event::Start { at: 0, tx_id: 7 });
        assert_eq!(
            out,
            [
                r#"{"type":"delivered","at":0}"#,
                r#"{"type":"send","to":1,"message":{"tx_id":7}}"#,
                r#"{"type":"send","to":2,"message":{"tx_id":7}}"#,
            ]
        );
    }

    #[test]
    fn relay_excludes_the_sender_and_prunes_duplicates() {
        let mut runtime = NodeRuntime::new();
        lines(&mut runtime, init_event(1));
        let deliver = |at| Event::Deliver {
            at,
            from: NodeId::new(0),
            message: fnp_gossip::FloodMessage { tx_id: 7 },
        };
        let (_, out) = lines(&mut runtime, deliver(3));
        assert_eq!(
            out,
            [
                r#"{"type":"delivered","at":3}"#,
                r#"{"type":"send","to":2,"message":{"tx_id":7}}"#,
            ]
        );
        // Second receipt is pruned: no output at all.
        let (_, out) = lines(&mut runtime, deliver(4));
        assert!(out.is_empty());
    }

    #[test]
    fn shutdown_reports_delivery_and_exits() {
        let mut runtime = NodeRuntime::new();
        lines(&mut runtime, init_event(2));
        let (disposition, out) = lines(&mut runtime, Event::Shutdown);
        assert_eq!(disposition, Disposition::Exit);
        assert_eq!(out, [r#"{"type":"done","node":2,"delivered":false}"#]);
    }

    #[test]
    fn events_before_init_are_protocol_errors() {
        let mut runtime = NodeRuntime::new();
        let err = runtime
            .handle(Event::Start { at: 0, tx_id: 1 }, &mut Vec::new())
            .unwrap_err();
        assert!(err.to_string().contains("before init"));
        lines(&mut runtime, init_event(0));
        let err = runtime.handle(init_event(0), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("duplicate init"));
    }

    #[test]
    fn an_init_that_contradicts_itself_is_rejected_and_prints_nothing() {
        let init = |node: usize, neighbors: &[usize]| Event::Init {
            node: NodeId::new(node),
            node_count: 3,
            neighbors: neighbors.iter().copied().map(NodeId::new).collect(),
            seed: 1,
        };
        let mut runtime = NodeRuntime::new();
        let mut out = Vec::new();
        for (bad, field) in [
            (init(3, &[0, 1]), "\"node\""),
            (init(0, &[1, 3]), "\"neighbors\""),
            (init(0, &[1, 0]), "\"neighbors\""),
        ] {
            let err = runtime.handle(bad, &mut out).unwrap_err();
            assert!(err.to_string().contains(field), "{err}");
            assert!(out.is_empty(), "{out:?}");
        }
        // Still awaiting its init: a consistent one is accepted.
        runtime.handle(init(0, &[1, 2]), &mut out).unwrap();
        assert_eq!(out, [r#"{"type":"init_ok","node":0}"#]);
    }
}
