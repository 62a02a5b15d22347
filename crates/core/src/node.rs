//! The per-node state machine of the flexible three-phase broadcast.
//!
//! A [`FlexNode`] implements the protocol of §IV-B:
//!
//! 1. **DC-net phase.** All members of the node's DC-net group run periodic
//!    keyed dining-cryptographers rounds (one padded contribution per member
//!    per round, full mesh). The originator injects its transaction into a
//!    round; afterwards every group member knows the transaction but not who
//!    sent it. Collisions (two members injecting in the same round) are
//!    detected via the CRC framing and resolved by randomised back-off.
//! 2. **Adaptive diffusion for `d` rounds.** The group member whose hashed
//!    identity is closest to the hash of the transaction becomes the initial
//!    virtual source — a decision every member reaches independently from
//!    public data, so the transition costs no messages and is verifiable.
//!    The virtual source then runs adaptive diffusion: spread waves grow the
//!    infected subgraph while the token performs its randomised walk away
//!    from the group.
//! 3. **Flood-and-prune.** When the round counter carried with the token
//!    reaches `d`, the final virtual source issues a *final spread request*
//!    that propagates through the infected subgraph and switches every
//!    recipient to ordinary flood-and-prune, which guarantees delivery to
//!    all remaining nodes.

use crate::config::FlexConfig;
use crate::message::FlexMessage;
use fnp_crypto::identity::{elect_virtual_source_index, Identity};
use fnp_crypto::sha256::Sha256;
use fnp_dcnet::keyed::KeyedParticipant;
use fnp_dcnet::slot::SlotOutcome;
use fnp_dcnet::{ReceiveError, RoundEngine};
use fnp_diffusion::{AdMessage, InfectionTree, Round, Token, Wire};
use fnp_netsim::NodeId;
use fnp_proto::{Input, Mailbox, NodeView, ProtocolCore, SteadyProtocol};
use std::rc::Rc;

/// Timer tag for DC-net round pacing.
const TIMER_DC_ROUND: u64 = 1;
/// Timer tag for adaptive-diffusion round pacing.
const TIMER_AD_ROUND: u64 = 2;

/// Phase-lane tag: the node has switched to flood-and-prune relaying
/// (phase 3). Stored in the simulator's hot phase lane, not in the node
/// struct, because nearly every handler consults it.
const PHASE_FLOODING: u8 = 1;

/// Static description of the DC-net group a node belongs to.
///
/// The member list and identity table are identical for every member of a
/// group, so they are reference-counted and shared between the `k`
/// memberships instead of deep-copied `k` times at setup. The keyed
/// participant is immutable once built (rounds only read its pad keys), so
/// it is reference-counted too: cloning a membership — what every
/// per-transaction instance of a steady-state session does — is three
/// refcount bumps and copies no key material.
#[derive(Clone, Debug)]
pub struct GroupMembership {
    /// The group members' overlay node ids, sorted ascending (shared
    /// between all members of the group).
    pub members: Rc<[NodeId]>,
    /// This node's index within `members`.
    pub own_index: usize,
    /// The members' public identities (same order as `members`), used for
    /// the virtual-source election (shared between all members).
    pub identities: Rc<[Identity]>,
    /// The keyed DC-net participant holding the pairwise pad generators
    /// (shared between this node's per-transaction instances).
    pub participant: Rc<KeyedParticipant>,
}

/// Phase 2's wire for the shared virtual-source engine: adaptive diffusion
/// under `flex-` names, its infections carrying the transaction payload (an
/// empty one from a node that does not know it yet). Borrows only the
/// payload field, so the node's tree stays mutable beside it.
struct FlexWire<'a>(&'a Option<Vec<u8>>);

impl Wire for FlexWire<'_> {
    type Message = FlexMessage;
    const ROUNDS: &'static str = "flex-ad-rounds";
    const KEEP: &'static str = "flex-ad-keep";
    const PASS: &'static str = "flex-ad-pass";

    fn encode(&self, message: AdMessage) -> FlexMessage {
        match message {
            AdMessage::Infect { round } => {
                let payload = self.0.clone().unwrap_or_default();
                FlexMessage::AdInfect { round, payload }
            }
            AdMessage::Spread { round } => FlexMessage::AdSpread { round },
            AdMessage::Token { t, h, round } => FlexMessage::AdToken { t, h, round },
        }
    }
}

/// A node running the flexible three-phase broadcast protocol.
#[derive(Clone, Debug)]
pub struct FlexNode {
    config: FlexConfig,
    group: Option<GroupMembership>,
    /// Phase-1 state, created the first time this node queues, starts or
    /// receives a DC-net round: a node that only relays phases 2 and 3 —
    /// every steady instance outside the originator's group — carries none.
    dc: Option<Box<RoundEngine>>,
    /// The transaction payload once this node knows it. Presence is
    /// mirrored in the hot seen lane; handlers test [`HotLanes::seen`](fnp_proto::HotLanes::seen)
    /// instead of probing this option.
    payload: Option<Vec<u8>>,
    /// Phase-2 state: this node's links in the infection tree and the
    /// token while it holds it (cold; the payload-seen flag, the flooding
    /// phase tag and the last processed spread round live in the driver's
    /// hot lanes).
    ad: InfectionTree,
    /// True if this node originated the broadcast.
    is_origin: bool,
}

impl FlexNode {
    /// Creates a node. `group` is `None` for nodes that are not part of any
    /// DC-net group in this experiment (they still relay phases 2 and 3).
    pub fn new(config: FlexConfig, group: Option<GroupMembership>) -> Self {
        Self {
            config,
            group,
            dc: None,
            payload: None,
            ad: InfectionTree::default(),
            is_origin: false,
        }
    }

    /// The transaction, once this node has learned it.
    pub fn payload(&self) -> Option<&[u8]> {
        self.payload.as_deref()
    }

    /// Whether this node originated the broadcast.
    pub fn is_origin(&self) -> bool {
        self.is_origin
    }

    /// Whether this node currently holds the phase-2 virtual-source token.
    pub fn holds_token(&self) -> bool {
        self.ad.token.is_some()
    }

    /// The node's group members (empty if it belongs to no group).
    pub fn group_members(&self) -> &[NodeId] {
        self.group
            .as_ref()
            .map(|group| &group.members[..])
            .unwrap_or(&[])
    }

    /// Queues `payload` for anonymous broadcast from this node.
    ///
    /// Under the simulator, call through [`fnp_netsim::Simulator::trigger`]
    /// and [`SimDriver::drive`](fnp_proto::SimDriver::drive). The payload is
    /// injected into the next DC-net round of the node's group; if the node
    /// belongs to no group it falls back to flood-and-prune directly (no
    /// anonymity, but delivery is preserved).
    ///
    /// # Panics
    ///
    /// If the node is in a group and `payload` does not fit the configured
    /// DC-net slot.
    pub fn start_broadcast(
        &mut self,
        payload: Vec<u8>,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        self.is_origin = true;
        view.set_seen();
        self.payload = Some(payload.clone());
        out.deliver();
        if let Some((_, dc)) = self.engine() {
            out.record("flex-origin-queued");
            dc.queue(payload)
                .expect("the payload fits the configured DC-net slot");
        } else {
            // Degenerate fallback: no group, no anonymity — flood directly.
            out.record("flex-origin-no-group");
            self.start_flooding(view, out, None);
        }
    }

    /// Learns the payload (idempotent). The duplicate case is decided by
    /// the hot seen lane alone — no cold-state access.
    fn learn_payload(
        &mut self,
        payload: &[u8],
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) -> bool {
        if view.set_seen() {
            return false;
        }
        self.payload = Some(payload.to_vec());
        out.deliver();
        true
    }

    // ------------------------------------------------------------------
    // Phase 1: DC-net rounds
    // ------------------------------------------------------------------

    /// The node's group and its phase-1 engine, created on first use;
    /// `None` outside any group.
    fn engine(&mut self) -> Option<(&GroupMembership, &mut RoundEngine)> {
        let group = self.group.as_ref()?;
        let slot_len = self.config.slot_len;
        let new = || Box::new(RoundEngine::new(Rc::clone(&group.participant), slot_len));
        Some((group, self.dc.get_or_insert_with(new)))
    }

    /// Starts the next DC-net round while the budget lasts: sends this
    /// node's contribution to every other group member and re-arms the
    /// round timer.
    fn run_dc_round(&mut self, view: &mut impl NodeView, out: &mut Mailbox<FlexMessage>) {
        let (budget, interval) = (self.config.max_dc_rounds, self.config.dc_round_interval);
        let Some((group, dc)) = self.engine().filter(|(_, dc)| dc.rounds_started() < budget) else {
            return;
        };
        let round = dc.rounds_started();
        let (data, resolved) = dc.start_round(view.rng());
        let member_index = group.own_index;
        let message = FlexMessage::DcContribution {
            round,
            member_index,
            data,
        };
        for (index, member) in group.members.iter().enumerate() {
            if index != member_index {
                out.send(*member, message.clone());
            }
        }
        out.record("flex-dc-rounds");
        if round + 1 < budget {
            out.set_timer(interval, TIMER_DC_ROUND);
        }
        if let Some(outcome) = resolved {
            self.on_round_resolved(outcome, view, out);
        }
    }

    /// Counts a resolved round; a message is learned and triggers the
    /// virtual-source election.
    fn on_round_resolved(
        &mut self,
        outcome: SlotOutcome,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match outcome {
            SlotOutcome::Silence => out.record("flex-dc-silent-rounds"),
            SlotOutcome::Collision => out.record("flex-dc-collisions"),
            SlotOutcome::Message(message) => {
                out.record("flex-dc-delivered-rounds");
                self.learn_payload(&message, view, out);
                self.maybe_become_virtual_source(&message, view, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Transition 1 → 2: hash-based virtual-source election
    // ------------------------------------------------------------------

    /// Every group member evaluates the election; only the winner acts.
    fn maybe_become_virtual_source(
        &mut self,
        message: &[u8],
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        let Some(group) = self.group.as_ref() else {
            return;
        };
        let is_winner = match self.config.election {
            crate::config::ElectionStrategy::HashBased => {
                let digest = Sha256::digest(message);
                let Some(elected) = elect_virtual_source_index(&group.identities, &digest) else {
                    return;
                };
                out.record("flex-elections");
                elected == group.own_index
            }
            // Ablation baseline: skip the election and keep the originator as
            // the virtual source (only the originator knows it qualifies).
            crate::config::ElectionStrategy::OriginatorAsSource => {
                out.record("flex-elections");
                self.is_origin
            }
        };
        if !is_winner {
            return;
        }
        out.record("flex-elected-vs");

        // The elected member becomes the initial virtual source. The other
        // group members already know the transaction (via the DC-net), so
        // they become its first diffusion children: spread waves and the
        // eventual final-spread request flow through them.
        let own_index = group.own_index;
        let children: Vec<NodeId> = group
            .members
            .iter()
            .enumerate()
            .filter(|(index, _)| *index != own_index)
            .map(|(_, node)| *node)
            .collect();
        self.ad = InfectionTree {
            parent: None,
            children,
            token: Some(Token::FIRST),
        };
        view.mark_round_seen(0);

        // Immediately run the first diffusion expansion around the group —
        // frontier first, then the wave to the group, the one site in this
        // order — then pace further rounds with the timer.
        let wire = FlexWire(&self.payload);
        if view.phase() != PHASE_FLOODING {
            self.ad.grow_frontier(&wire, 0, None, view, out);
        }
        self.ad.forward_spread(&wire, 0, None, out);
        out.set_timer(self.config.ad_round_interval, TIMER_AD_ROUND);
    }

    // ------------------------------------------------------------------
    // Phase 2: adaptive diffusion
    // ------------------------------------------------------------------

    /// One virtual-source round (the engine's keep-or-pass) of at most `d`,
    /// then the switch to phase 3.
    fn on_ad_timer(&mut self, view: &mut impl NodeView, out: &mut Mailbox<FlexMessage>) {
        if view.phase() == PHASE_FLOODING {
            // Phase 2 is over on this node; a token it still holds is void.
            self.ad.token = None;
            return;
        }
        let FlexConfig { schedule, d, .. } = self.config;
        let wire = FlexWire(&self.payload);
        match self.ad.run_round(&wire, schedule, d, view, out) {
            Some(Round::Kept) => out.set_timer(self.config.ad_round_interval, TIMER_AD_ROUND),
            Some(Round::BudgetExhausted) => {
                // Transition 2 → 3: the final virtual source sends the last
                // spread request, which doubles as the switch-to-flood signal.
                out.record("flex-switch-to-flood");
                for &child in &self.ad.children {
                    let payload = self.payload.clone().unwrap_or_default();
                    out.send(child, FlexMessage::FinalSpread { payload });
                }
                self.start_flooding(view, out, None);
            }
            Some(Round::Passed) | None => {}
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: flood and prune
    // ------------------------------------------------------------------

    /// Switches this node to flood-and-prune and relays the transaction to
    /// its overlay neighbours (except `exclude`).
    fn start_flooding(
        &mut self,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
        exclude: Option<NodeId>,
    ) {
        if view.phase() == PHASE_FLOODING {
            return;
        }
        view.set_phase(PHASE_FLOODING);
        let payload = self.payload.clone().unwrap_or_default();
        out.broadcast(FlexMessage::Flood { payload }, exclude.as_slice());
    }
}

impl ProtocolCore for FlexNode {
    type Message = FlexMessage;

    fn poll<V: NodeView>(
        &mut self,
        input: Input<FlexMessage>,
        view: &mut V,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match input {
            Input::Init => {
                // Group members pace their periodic DC-net rounds from the
                // start of the run; a small deterministic stagger is
                // unnecessary because round numbers are carried explicitly.
                if self.group.is_some() {
                    out.set_timer(self.config.dc_round_interval, TIMER_DC_ROUND);
                }
            }
            Input::Message { from, message } => self.on_flex_message(from, message, view, out),
            Input::TimerFired { tag } => match tag {
                TIMER_DC_ROUND => self.run_dc_round(view, out),
                TIMER_AD_ROUND => self.on_ad_timer(view, out),
                _ => {}
            },
        }
    }
}

/// A per-transaction instance clones the never-polled prototype: it shares
/// the group tables and pad keys and runs its own DC-net rounds.
impl SteadyProtocol for FlexNode {
    /// Injects the transaction id as the anonymous payload.
    fn start_tx(&mut self, tx: u64, view: &mut impl NodeView, out: &mut Mailbox<FlexMessage>) {
        self.start_broadcast(tx.to_le_bytes().to_vec(), view, out);
    }

    /// Under steady-state multiplexing, `Init` (which arms the periodic
    /// DC-net rounds) runs only on instances first contacted by a DC-net
    /// contribution: exactly the originator's group members, who must pace
    /// their own rounds for the round to resolve. Instances spawned by
    /// phase-2/3 traffic skip it — they only relay.
    fn wants_init(first: &FlexMessage) -> bool {
        matches!(first, FlexMessage::DcContribution { .. })
    }
}

impl FlexNode {
    fn on_flex_message(
        &mut self,
        from: NodeId,
        message: FlexMessage,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match message {
            FlexMessage::DcContribution {
                round,
                member_index,
                data,
            } => {
                let Some((group, dc)) = self.engine() else {
                    return;
                };
                // The claimed position must be the sender's own; a refused
                // contribution is counted under its reason.
                let received = if group.members.get(member_index) == Some(&from) {
                    dc.receive(member_index, round, data, view.rng())
                } else {
                    Err(ReceiveError::NonMember)
                };
                match received {
                    Ok(Some(outcome)) => self.on_round_resolved(outcome, view, out),
                    Ok(None) => {}
                    Err(error) => out.record(match error {
                        ReceiveError::NonMember => "flex-dc-non-member",
                        ReceiveError::Duplicate => "flex-dc-duplicate",
                        ReceiveError::WrongLength { .. } => "flex-dc-wrong-length",
                        ReceiveError::Stale => "flex-dc-stale",
                    }),
                }
            }
            FlexMessage::AdInfect { payload, .. } => {
                // An already-informed node ignores repeated infections.
                if self.learn_payload(&payload, view, out) {
                    self.ad.parent = Some(from);
                }
            }
            FlexMessage::AdSpread { round } => {
                if !view.seen() {
                    // A spread instruction without the payload can only be
                    // acted upon once the payload arrives; drop it (the next
                    // wave will reach us again through our future parent).
                    out.record("flex-spread-before-payload");
                    return;
                }
                if view.phase() == PHASE_FLOODING {
                    return;
                }
                let wire = FlexWire(&self.payload);
                self.ad.on_spread(&wire, round, from, view, out);
            }
            FlexMessage::AdToken { t, h, round } => {
                // The token always follows an infection, so the payload is
                // normally known by now.
                if !view.seen() {
                    out.record("flex-token-before-payload");
                }
                let wire = FlexWire(&self.payload);
                self.ad.hold_token(t, h, round, from);
                if view.phase() == PHASE_FLOODING {
                    // A flooding node infects nobody new: it only relays
                    // the wave, and its round timer will void the token.
                    view.mark_round_seen(round);
                    self.ad.forward_spread(&wire, round, Some(from), out);
                } else {
                    self.ad.spread_wave(&wire, round, Some(from), view, out);
                }
                out.set_timer(self.config.ad_round_interval, TIMER_AD_ROUND);
            }
            FlexMessage::FinalSpread { payload } => {
                self.learn_payload(&payload, view, out);
                if view.phase() == PHASE_FLOODING {
                    // Already switched: the signal has been handled (and the
                    // diffusion "children" relation may contain cycles, so
                    // forwarding again could circulate the request forever).
                    return;
                }
                // Forward the switch signal through the diffusion subtree,
                // then start flooding ourselves.
                for &child in &self.ad.children {
                    if child != from {
                        let payload = payload.clone();
                        out.send(child, FlexMessage::FinalSpread { payload });
                    }
                }
                self.start_flooding(view, out, Some(from));
            }
            FlexMessage::Flood { payload } => {
                self.learn_payload(&payload, view, out);
                if view.phase() != PHASE_FLOODING {
                    self.start_flooding(view, out, Some(from));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_without_group_floods_directly() {
        use fnp_netsim::{topology, SimConfig, Simulator};
        let graph = topology::ring(10).unwrap();
        let nodes = (0..10)
            .map(|_| fnp_proto::SimDriver::new(FlexNode::new(FlexConfig::default(), None)))
            .collect();
        let mut sim = Simulator::new(graph, nodes, SimConfig::default());
        sim.trigger(NodeId::new(0), |driver, ctx| {
            driver.drive(ctx, |node, view, out| {
                node.start_broadcast(b"tx".to_vec(), view, out);
            });
        });
        let metrics = sim.run();
        assert_eq!(metrics.coverage(), 1.0);
        assert_eq!(metrics.counter("flex-origin-no-group"), 1);
        assert!(metrics.messages_of_kind("flex-flood") > 0);
        assert_eq!(metrics.messages_of_kind("flex-dc"), 0);
    }

    #[test]
    fn accessors_on_a_fresh_node() {
        let node = FlexNode::new(FlexConfig::default(), None);
        assert!(node.payload().is_none());
        assert!(!node.is_origin());
        assert!(!node.holds_token());
        assert!(node.group_members().is_empty());
    }

    // Phase-2 edges, one poll at a time on a stand-alone environment: node 0
    // of five, neighbours 1, 2 and 3, in no group.
    use fnp_proto::{Effect, HotLanes, StandaloneEnv};

    const D: u32 = 2;

    fn lone_node() -> (FlexNode, StandaloneEnv) {
        let neighbors = [1, 2, 3].map(NodeId::new).to_vec();
        let env = StandaloneEnv::new(NodeId::new(0), 5, neighbors, 7);
        (FlexNode::new(FlexConfig::default().with_d(D), None), env)
    }

    fn poll(
        node: &mut FlexNode,
        env: &mut StandaloneEnv,
        input: Input<FlexMessage>,
    ) -> Vec<Effect<FlexMessage>> {
        let mut out = Mailbox::new();
        node.poll(input, env, &mut out);
        out.drain().collect()
    }

    fn message(from: usize, message: FlexMessage) -> Input<FlexMessage> {
        let from = NodeId::new(from);
        Input::Message { from, message }
    }

    fn send(to: usize, message: FlexMessage) -> Effect<FlexMessage> {
        let to = NodeId::new(to);
        Effect::Send { to, message }
    }

    fn count(name: &'static str) -> Effect<FlexMessage> {
        Effect::Counter { name, amount: 1 }
    }

    const AD_TIMER: Input<FlexMessage> = Input::TimerFired {
        tag: TIMER_AD_ROUND,
    };

    /// Node 0 infected by node 1 and handed the token in round `round`: it
    /// has infected 2 and 3 and its round timer is armed.
    fn virtual_source(round: u32) -> (FlexNode, StandaloneEnv) {
        let (mut node, mut env) = lone_node();
        let payload = b"tx".to_vec();
        let infect = FlexMessage::AdInfect { round, payload };
        assert_eq!(
            poll(&mut node, &mut env, message(1, infect.clone())),
            [Effect::Deliver]
        );
        let token = FlexMessage::AdToken { t: 2, h: 1, round };
        let interval = FlexConfig::default().ad_round_interval;
        assert_eq!(
            poll(&mut node, &mut env, message(1, token)),
            [
                send(2, infect.clone()),
                send(3, infect),
                Effect::SetTimer {
                    delay: interval,
                    tag: TIMER_AD_ROUND
                },
            ]
        );
        assert!(node.holds_token());
        (node, env)
    }

    #[test]
    fn a_spread_before_the_payload_is_dropped_and_counted() {
        let (mut node, mut env) = lone_node();
        let effects = poll(
            &mut node,
            &mut env,
            message(1, FlexMessage::AdSpread { round: 1 }),
        );
        assert_eq!(effects, [count("flex-spread-before-payload")]);
        assert!(!env.round_seen(1), "a dropped wave must not count as seen");
        assert!(node.payload().is_none());
    }

    #[test]
    fn a_token_before_the_payload_is_counted_and_still_accepted() {
        let (mut node, mut env) = lone_node();
        let token = FlexMessage::AdToken {
            t: 2,
            h: 1,
            round: 0,
        };
        let effects = poll(&mut node, &mut env, message(1, token));
        assert_eq!(effects[0], count("flex-token-before-payload"));
        assert!(matches!(effects.last(), Some(Effect::SetTimer { .. })));
        assert!(node.holds_token());
    }

    #[test]
    fn a_token_on_a_flooding_node_is_discarded_and_rearms_no_timer() {
        let (mut node, mut env) = virtual_source(0);
        let payload = b"tx".to_vec();
        let flood = FlexMessage::Flood { payload };
        let effects = poll(&mut node, &mut env, message(3, flood.clone()));
        assert_eq!(
            effects,
            [Effect::Broadcast {
                message: flood,
                excluded: vec![NodeId::new(3)]
            }]
        );
        assert_eq!(env.phase(), PHASE_FLOODING);
        assert!(
            node.holds_token(),
            "the token is still there until the timer"
        );

        assert_eq!(poll(&mut node, &mut env, AD_TIMER), []);
        assert!(!node.holds_token());

        // A token that arrives later is relayed down the tree, infects
        // nobody new, and goes the same way at its timer.
        let token = FlexMessage::AdToken {
            t: 4,
            h: 2,
            round: 1,
        };
        let effects = poll(&mut node, &mut env, message(2, token));
        assert_eq!(effects.len(), 2, "{effects:?}");
        assert_eq!(effects[0], send(3, FlexMessage::AdSpread { round: 1 }));
        assert!(matches!(effects[1], Effect::SetTimer { .. }));
        assert_eq!(poll(&mut node, &mut env, AD_TIMER), []);
        assert!(!node.holds_token());
    }

    #[test]
    fn a_final_spread_is_forwarded_once() {
        let (mut node, mut env) = virtual_source(0);
        let payload = b"tx".to_vec();
        let last = FlexMessage::FinalSpread {
            payload: payload.clone(),
        };
        // From child 2: on to the other child, then flood away from 2.
        let effects = poll(&mut node, &mut env, message(2, last.clone()));
        assert_eq!(
            effects,
            [
                send(3, last.clone()),
                Effect::Broadcast {
                    message: FlexMessage::Flood { payload },
                    excluded: vec![NodeId::new(2)]
                },
            ]
        );
        // The children relation can contain cycles: the request coming
        // round again must die here.
        assert_eq!(poll(&mut node, &mut env, message(3, last)), []);
    }

    #[test]
    fn budget_exhaustion_sends_the_final_spread_then_floods_once() {
        let (mut node, mut env) = virtual_source(D);
        let payload = b"tx".to_vec();
        let last = FlexMessage::FinalSpread {
            payload: payload.clone(),
        };
        assert_eq!(
            poll(&mut node, &mut env, AD_TIMER),
            [
                count("flex-ad-rounds"),
                count("flex-switch-to-flood"),
                send(2, last.clone()),
                send(3, last),
                Effect::Broadcast {
                    message: FlexMessage::Flood { payload },
                    excluded: vec![]
                },
            ]
        );
        assert!(node.holds_token(), "the final virtual source keeps it");
        // A stray timer afterwards voids the token and sends nothing.
        assert_eq!(poll(&mut node, &mut env, AD_TIMER), []);
    }
}
