//! The adaptive diffusion protocol as a sans-IO state machine.
//!
//! Adaptive diffusion (Fanti et al., "Spy vs. Spy: Rumor Source
//! Obfuscation") breaks the symmetry that deanonymises ordinary flooding:
//! instead of the infection ball being centred on the true source, a
//! *virtual source token* wanders away from the origin and the message is
//! always spread so that the current token holder sits at the centre of the
//! infected subgraph. An observer reconstructing the "centre" of the spread
//! therefore finds the virtual source path, not the originator.
//!
//! The protocol alternates two steps (quoted from the ICDCS paper):
//!
//! 1. *Transfer the virtual source token with probability α to a new node*;
//!    the new virtual source spreads the message in all directions besides
//!    the direction it received the token from.
//! 2. *Spread the message further, increasing the diameter of the infected
//!    subgraph* (a spread wave travels from the virtual source down the
//!    infection tree; the frontier infects its uninfected neighbours).
//!
//! The spread waves re-traverse the already-infected subtree every round,
//! which is exactly why adaptive diffusion costs more messages than plain
//! flooding (the ≈12 500 vs ≈7 000 messages for 1 000 peers reported in
//! §V-A and reproduced by experiment E6).

use crate::alpha::AlphaSchedule;
use crate::engine::{InfectionTree, Round, Token, Wire};
use fnp_netsim::{ContextView, Payload, SimTime, MILLISECOND};
use fnp_proto::{Input, Mailbox, ProtocolCore, SteadyProtocol};
use std::rc::Rc;

/// Timer tag used by the virtual source to pace rounds.
const ROUND_TIMER: u64 = 1;

/// Wire sizes (bytes) reported for the three message types: an infection
/// carries the transaction, the other two are small control messages.
const INFECT_BYTES: usize = 256;
const SPREAD_BYTES: usize = 32;
const TOKEN_BYTES: usize = 48;

/// Messages exchanged by adaptive diffusion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdMessage {
    /// Delivers the transaction to a previously uninfected node.
    Infect {
        /// Protocol round (even timestep / 2) in which the infection happened.
        round: u32,
    },
    /// Instructs the infected subtree to grow its frontier by one hop.
    Spread {
        /// Protocol round of the wave.
        round: u32,
    },
    /// Transfers the virtual-source token.
    Token {
        /// Even timestep of the protocol.
        t: u32,
        /// Hop distance of the *new* virtual source from the origin.
        h: u32,
        /// Rounds already executed for this message.
        round: u32,
    },
}

impl Payload for AdMessage {
    fn kind(&self) -> &'static str {
        match self {
            AdMessage::Infect { .. } => "ad-infect",
            AdMessage::Spread { .. } => "ad-spread",
            AdMessage::Token { .. } => "ad-token",
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            AdMessage::Infect { .. } => INFECT_BYTES,
            AdMessage::Spread { .. } => SPREAD_BYTES,
            AdMessage::Token { .. } => TOKEN_BYTES,
        }
    }
}

/// Parameters of an adaptive diffusion run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdParams {
    /// Probability schedule for keeping the virtual-source token.
    pub schedule: AlphaSchedule,
    /// Maximum number of rounds the virtual source initiates. In the
    /// flexible broadcast this is the parameter `d`. A full-dissemination
    /// baseline sets it generously (the bench's protocol suite uses 96),
    /// and the driver decides how many of those rounds are run:
    /// [`run_adaptive_diffusion`](crate::run_adaptive_diffusion) stops at
    /// full coverage, while `fnp_core::run_protocol_in`, which produces the
    /// adaptive-diffusion rows of the paper experiments, runs to
    /// quiescence. There every round up to `max_rounds` still sends its
    /// spread wave after every node has the message, and the row counts
    /// those messages too: a few hundred thousand per trial at n = 1000
    /// (242 550 to 318 909 in `tests/alloc_queue.rs`).
    pub max_rounds: u32,
    /// Simulated time between successive rounds, chosen large enough for a
    /// spread wave to reach the frontier before the next round starts.
    pub round_interval: SimTime,
}

impl Default for AdParams {
    fn default() -> Self {
        Self {
            schedule: AlphaSchedule::default(),
            max_rounds: 32,
            round_interval: 2_000 * MILLISECOND,
        }
    }
}

/// The bare wire of stand-alone adaptive diffusion: [`AdMessage`]s as they
/// are, counted under `ad-` names.
#[derive(Clone, Copy, Debug)]
pub struct AdWire;

impl Wire for AdWire {
    type Message = AdMessage;
    const ROUNDS: &'static str = "ad-rounds";
    const KEEP: &'static str = "ad-keep";
    const PASS: &'static str = "ad-pass";

    fn encode(&self, message: AdMessage) -> AdMessage {
        message
    }
}

/// A node running adaptive diffusion: the [`engine`](crate::engine) on the
/// bare wire.
///
/// Clones share one copy of the parameters, so an overlay's nodes — and a
/// steady session's instances, which are clones of them — are best built
/// by cloning one node: every [`new`](Self::new) allocates a copy.
#[derive(Clone, Debug)]
pub struct AdaptiveDiffusionNode {
    params: Rc<AdParams>,
    /// This node's tree links and token; all empty until it is infected.
    /// Whether it is lives in the driver's
    /// [`seen` lane](fnp_netsim::ContextView::seen), so a duplicate infection —
    /// the hottest branch of the protocol — never loads this cold state.
    tree: InfectionTree,
    /// Set when this node was the true origin of the broadcast.
    is_origin: bool,
}

impl AdaptiveDiffusionNode {
    /// Creates an idle (uninfected) node.
    pub fn new(params: AdParams) -> Self {
        Self {
            params: Rc::new(params),
            tree: InfectionTree::default(),
            is_origin: false,
        }
    }

    /// Whether this node was the broadcast origin.
    pub fn is_origin(&self) -> bool {
        self.is_origin
    }

    /// Whether this node currently holds the virtual-source token.
    pub fn holds_token(&self) -> bool {
        self.tree.token.is_some()
    }

    /// Starts a broadcast from this node. Under the simulator, call through
    /// [`fnp_netsim::Simulator::trigger`] +
    /// [`SimDriver::drive`](fnp_proto::SimDriver::drive) on the origin node.
    ///
    /// Following Fanti et al., the origin infects one random neighbour and
    /// immediately hands it the virtual-source token, so the origin itself
    /// never acts as the centre of the spread.
    pub fn start_broadcast(&mut self, view: &mut ContextView<'_>, out: &mut Mailbox<AdMessage>) {
        if view.set_seen() {
            return;
        }
        self.is_origin = true;
        out.deliver();
        out.record("ad-origin");
        if let Some(first) = view.random_neighbor_except(None) {
            self.tree
                .hand_token(&AdWire, first, &Token::FIRST, view, out);
        }
    }
}

impl ProtocolCore for AdaptiveDiffusionNode {
    type Message = AdMessage;

    fn poll(
        &mut self,
        input: Input<AdMessage>,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<AdMessage>,
    ) {
        match input {
            Input::Init => {}
            Input::Message { from, message } => {
                // Any of the three messages infects a node that was not yet.
                if !view.set_seen() {
                    self.tree.parent = Some(from);
                    out.deliver();
                }
                match message {
                    AdMessage::Infect { .. } => {}
                    AdMessage::Spread { round } => {
                        self.tree.on_spread(&AdWire, round, from, view, out);
                    }
                    AdMessage::Token { t, h, round } => {
                        self.tree.hold_token(t, h, round, from);
                        self.tree.spread_wave(&AdWire, round, Some(from), view, out);
                        out.set_timer(self.params.round_interval, ROUND_TIMER);
                    }
                }
            }
            Input::TimerFired { tag } if tag == ROUND_TIMER => {
                let (schedule, budget) = (self.params.schedule, self.params.max_rounds);
                match self.tree.run_round(&AdWire, schedule, budget, view, out) {
                    Some(Round::Kept) => out.set_timer(self.params.round_interval, ROUND_TIMER),
                    // The final virtual source simply stops: it keeps the
                    // token and schedules no further round (`fnp-core`
                    // switches to flood-and-prune here instead).
                    Some(Round::BudgetExhausted) => out.record("ad-finished"),
                    Some(Round::Passed) | None => {}
                }
            }
            Input::TimerFired { .. } => {}
        }
    }
}

impl SteadyProtocol for AdaptiveDiffusionNode {
    fn start_tx(&mut self, _tx: u64, view: &mut ContextView<'_>, out: &mut Mailbox<AdMessage>) {
        // Adaptive diffusion messages deliberately carry no transaction id
        // (source obfuscation); the steady-state wrapper's tag does the
        // demultiplexing.
        self.start_broadcast(view, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::{topology, LatencyModel, NodeId, SimConfig, Simulator};
    use fnp_proto::SimDriver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(
        n: usize,
        degree: usize,
        params: AdParams,
        seed: u64,
    ) -> (
        Simulator<SimDriver<AdaptiveDiffusionNode>>,
        fnp_netsim::Metrics,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(n, degree, &mut rng).unwrap();
        let node = SimDriver::new(AdaptiveDiffusionNode::new(params));
        let nodes = std::iter::repeat_n(node, n).collect();
        let mut sim = Simulator::new(
            graph,
            nodes,
            SimConfig {
                seed,
                record_trace: true,
                latency: LatencyModel::Uniform {
                    min: 10 * MILLISECOND,
                    max: 50 * MILLISECOND,
                },
                ..SimConfig::default()
            },
        );
        sim.trigger(NodeId::new(0), |driver, ctx| {
            driver.drive(ctx, |node, view, out| node.start_broadcast(view, out));
        });
        let metrics = sim.run().clone();
        (sim, metrics)
    }

    #[test]
    fn steady_diffusion_broadcasts_overlap_and_complete() {
        use fnp_netsim::TrialArena;
        use fnp_proto::steady::{run_steady_in, Arrival};
        let n = 30;
        let mut rng = StdRng::seed_from_u64(5);
        let graph = topology::random_regular(n, 6, &mut rng).unwrap();
        let params = AdParams {
            max_rounds: 64,
            ..AdParams::default()
        };
        let prototypes = vec![AdaptiveDiffusionNode::new(params); n];
        let arrivals = [
            Arrival {
                at: 1,
                origin: NodeId::new(4),
            },
            Arrival {
                at: 100 * MILLISECOND,
                origin: NodeId::new(21),
            },
        ];
        let (_, report) = run_steady_in(
            &mut TrialArena::new(),
            graph,
            prototypes,
            &arrivals,
            &[NodeId::new(11)],
            2,
            SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
        );
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            // Adaptive diffusion with generous rounds infects everyone.
            assert_eq!(outcome.delivered_count, n, "tx {tx} did not cover");
            assert!(outcome.completed_at.is_some(), "tx {tx} never drained");
        }
        assert!(report.peak_concurrent >= 2, "spreads should overlap");
    }

    #[test]
    fn message_kinds_and_sizes() {
        assert_eq!(AdMessage::Infect { round: 1 }.kind(), "ad-infect");
        assert_eq!(AdMessage::Spread { round: 1 }.kind(), "ad-spread");
        assert_eq!(
            AdMessage::Token {
                t: 2,
                h: 1,
                round: 1
            }
            .kind(),
            "ad-token"
        );
        assert_eq!(AdMessage::Infect { round: 1 }.size_bytes(), 256);
        assert!(AdMessage::Spread { round: 1 }.size_bytes() < 256);
    }

    #[test]
    fn diffusion_spreads_beyond_the_origin() {
        let params = AdParams {
            max_rounds: 6,
            ..AdParams::default()
        };
        let (_, metrics) = run(100, 4, params, 1);
        // After 6 rounds a meaningful portion of a 100-node graph is infected.
        assert!(
            metrics.delivered_count() > 10,
            "only {}",
            metrics.delivered_count()
        );
        assert!(metrics.messages_of_kind("ad-infect") > 0);
        assert!(metrics.messages_of_kind("ad-token") >= 1);
        assert_eq!(metrics.counter("ad-origin"), 1);
    }

    #[test]
    fn full_dissemination_with_generous_round_budget() {
        let params = AdParams {
            max_rounds: 64,
            ..AdParams::default()
        };
        let (_, metrics) = run(100, 4, params, 2);
        assert_eq!(
            metrics.coverage(),
            1.0,
            "delivered {}",
            metrics.delivered_count()
        );
    }

    #[test]
    fn overhead_exceeds_flooding_like_lower_bound() {
        // Plain flooding on n nodes needs at least n − 1 deliveries; adaptive
        // diffusion's repeated spread waves must cost strictly more messages
        // than that on any non-trivial run that reaches everyone.
        let params = AdParams {
            max_rounds: 64,
            ..AdParams::default()
        };
        let (_, metrics) = run(120, 4, params, 3);
        assert_eq!(metrics.coverage(), 1.0);
        assert!(metrics.messages_sent > 119);
    }

    #[test]
    fn origin_is_not_the_final_token_holder_usually() {
        // The virtual source wanders away from the origin; with AlwaysPass it
        // moves every round, so after several rounds the token is elsewhere.
        let params = AdParams {
            schedule: AlphaSchedule::AlwaysPass,
            max_rounds: 8,
            ..AdParams::default()
        };
        let (sim, _) = run(80, 4, params, 4);
        assert!(!sim.node(NodeId::new(0)).holds_token());
    }

    #[test]
    fn never_pass_keeps_token_at_first_virtual_source() {
        let params = AdParams {
            schedule: AlphaSchedule::NeverPass,
            max_rounds: 5,
            ..AdParams::default()
        };
        let (sim, metrics) = run(60, 4, params, 5);
        // Exactly one token transfer: origin → first virtual source.
        assert_eq!(metrics.messages_of_kind("ad-token"), 1);
        let holders = sim.nodes().iter().filter(|n| n.holds_token()).count();
        assert_eq!(holders, 1);
    }

    #[test]
    fn always_pass_creates_a_token_chain() {
        let params = AdParams {
            schedule: AlphaSchedule::AlwaysPass,
            max_rounds: 6,
            ..AdParams::default()
        };
        let (_, metrics) = run(60, 4, params, 6);
        // One transfer from the origin plus one per executed round (minus the
        // final round, which only marks completion).
        assert!(metrics.messages_of_kind("ad-token") >= 5);
        assert_eq!(metrics.counter("ad-keep"), 0);
    }

    #[test]
    fn round_counter_stops_at_max_rounds() {
        let params = AdParams {
            max_rounds: 3,
            ..AdParams::default()
        };
        let (_, metrics) = run(60, 4, params, 7);
        assert!(metrics.counter("ad-rounds") <= 4);
        assert_eq!(metrics.counter("ad-finished"), 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let params = AdParams::default();
        let (_, a) = run(50, 4, params, 42);
        let (_, b) = run(50, 4, params, 42);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.delivered_at, b.delivered_at);
    }

    #[test]
    fn node_accessors() {
        let node = AdaptiveDiffusionNode::new(AdParams::default());
        assert!(!node.is_origin());
        assert!(!node.holds_token());
    }

    #[test]
    fn isolated_origin_does_not_panic() {
        let graph = fnp_netsim::Graph::new(1);
        let nodes = vec![SimDriver::new(AdaptiveDiffusionNode::new(
            AdParams::default(),
        ))];
        let mut sim = Simulator::new(graph, nodes, SimConfig::default());
        sim.trigger(NodeId::new(0), |driver, ctx| {
            driver.drive(ctx, |node, view, out| node.start_broadcast(view, out));
        });
        let metrics = sim.run();
        assert_eq!(metrics.delivered_count(), 1);
        assert_eq!(metrics.messages_sent, 0);
    }
}
