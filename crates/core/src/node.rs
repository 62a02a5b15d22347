//! The per-node state machine of the flexible three-phase broadcast.
//!
//! A [`FlexNode`] implements the protocol of §IV-B:
//!
//! 1. **DC-net phase.** All members of the node's DC-net group run periodic
//!    keyed dining-cryptographers rounds (one padded contribution per member
//!    per round, full mesh). The originator injects its transaction into a
//!    round; afterwards every group member knows the transaction but not who
//!    sent it. Collisions (two or more members injecting in the same round)
//!    are detected via the slot's check trailer and resolved by randomised
//!    back-off.
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
use fnp_netsim::{ContextView, NodeId};
use fnp_proto::{Input, Mailbox, ProtocolCore, SteadyProtocol};
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

/// Timer tag for DC-net round pacing.
const TIMER_DC_ROUND: u64 = 1;
/// Timer tag for adaptive-diffusion round pacing.
const TIMER_AD_ROUND: u64 = 2;

/// Phase-lane tag: the node has switched to flood-and-prune relaying
/// (phase 3). Stored in the simulator's hot phase lane, not in the node
/// struct, because nearly every handler consults it.
const PHASE_FLOODING: u8 = 1;

/// A node's membership in a DC-net group, as the key derivation hands it
/// out: the roster every member of the group shares and the node's index
/// in it. Cloning one is a refcount bump; it copies no key material.
#[derive(Clone, Debug)]
pub struct GroupMembership {
    /// The configuration, member list, keyed participants and identities,
    /// shared by all members of the group.
    roster: Rc<GroupRoster>,
    /// This node's index within [`GroupMembership::members`].
    pub own_index: usize,
}

impl GroupMembership {
    /// Member `own_index` of the group `roster` describes.
    pub(crate) fn new(roster: Rc<GroupRoster>, own_index: usize) -> Self {
        Self { roster, own_index }
    }

    /// The group members' overlay node ids, sorted ascending.
    pub fn members(&self) -> &[NodeId] {
        &self.roster.members
    }

    /// The keyed DC-net participant holding this member's pairwise pad
    /// generators.
    pub fn participant(&self) -> &Rc<KeyedParticipant> {
        &self.roster.participants[self.own_index]
    }

    /// The members' public identities, in the order of
    /// [`GroupMembership::members`]: what the virtual-source election
    /// compares. Computed on the first call by any member of the group and
    /// shared with all of them from then on.
    pub fn identities(&self) -> &[Identity] {
        self.roster.identities()
    }
}

/// What all members of one DC-net group share: the protocol configuration,
/// the member list, the members' keyed participants (immutable once built:
/// rounds only read their pad keys), and the members' identities once one
/// of them has elected a virtual source. Only a group that carries a
/// transaction elects, so in a single broadcast no roster but the
/// originator group's ever builds its identities.
///
/// Nodes in no group share one roster with no members, which carries the
/// configuration alone; the configuration itself is shared by all rosters
/// of a set-up. A node core therefore reaches every constant it has
/// through one pointer, and a steady session's per-transaction instance —
/// a clone of the core — copies that pointer and nothing else of them.
#[derive(Clone, Debug)]
pub(crate) struct GroupRoster {
    config: Rc<FlexConfig>,
    members: Box<[NodeId]>,
    participants: Box<[Rc<KeyedParticipant>]>,
    identities: OnceCell<Box<[Identity]>>,
}

impl GroupRoster {
    /// The roster of a group whose members, in ascending node order, run
    /// the DC-net through `participants` under `config`.
    pub(crate) fn new(
        config: Rc<FlexConfig>,
        members: Box<[NodeId]>,
        participants: Box<[Rc<KeyedParticipant>]>,
    ) -> Self {
        debug_assert_eq!(members.len(), participants.len());
        Self {
            config,
            members,
            participants,
            identities: OnceCell::new(),
        }
    }

    /// The roster of the nodes in no group: no members, `config` alone.
    pub(crate) fn lone(config: Rc<FlexConfig>) -> Self {
        Self::new(config, Box::default(), Box::default())
    }

    /// The members, in ascending node order.
    pub(crate) fn members(&self) -> &[NodeId] {
        &self.members
    }

    fn identities(&self) -> &[Identity] {
        self.identities.get_or_init(|| {
            self.members
                .iter()
                .map(|node| Identity::from_node_index(node.index()))
                .collect()
        })
    }
}

/// Phase 2's wire for the shared virtual-source engine: adaptive diffusion
/// under `flex-` names, its infections carrying the transaction payload (an
/// empty one from a node that does not know it yet). Borrows only the
/// payload field, so the node's tree stays mutable beside it.
struct FlexWire<'a>(&'a Option<Arc<[u8]>>);

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
    /// The configuration and the node's DC-net group, shared with the
    /// group's other members (see [`GroupRoster`]).
    roster: Rc<GroupRoster>,
    /// This node's index in the roster's members; unused when the roster
    /// has none.
    member: u32,
    /// Whether this instance has armed its periodic DC-net round timer:
    /// at `Init`, or — for a steady instance spawned without `Init` — at
    /// its first contribution. A node in no group never arms it.
    dc_armed: bool,
    /// True if this node originated the broadcast.
    is_origin: bool,
    /// Phase-1 state, created the first time this node queues, starts or
    /// receives a DC-net round: a node that only relays phases 2 and 3 —
    /// every steady instance outside the originator's group — carries none.
    dc: Option<Box<RoundEngine>>,
    /// The transaction payload once this node knows it, shared with every
    /// message that carries it. Presence is mirrored in the hot seen lane;
    /// handlers test [`ContextView::seen`] instead of probing this option.
    payload: Option<Arc<[u8]>>,
    /// Phase-2 state: this node's links in the infection tree and the
    /// token while it holds it (cold; the payload-seen flag, the flooding
    /// phase tag and the last processed spread round live in the driver's
    /// hot lanes).
    ad: InfectionTree,
}

impl FlexNode {
    /// Creates a node. `group` is `None` for nodes that are not part of any
    /// DC-net group in this experiment (they still relay phases 2 and 3).
    ///
    /// The node shares `group`'s roster when the membership was derived
    /// under `config` (as [`group_memberships`](crate::group_memberships)
    /// derives under the default one) and copies it once otherwise; a node
    /// in no group gets a roster of its own. The harness builds its nodes
    /// without either copy.
    pub fn new(config: FlexConfig, group: Option<GroupMembership>) -> Self {
        match group {
            Some(GroupMembership { roster, own_index }) => {
                let roster = if *roster.config == config {
                    roster
                } else {
                    Rc::new(GroupRoster {
                        config: Rc::new(config),
                        ..(*roster).clone()
                    })
                };
                Self::with_roster(roster, own_index)
            }
            None => Self::with_roster(Rc::new(GroupRoster::lone(Rc::new(config))), 0),
        }
    }

    /// Member `member` of `roster`, or a node in no group when the roster
    /// has no members.
    pub(crate) fn with_roster(roster: Rc<GroupRoster>, member: usize) -> Self {
        Self {
            roster,
            member: u32::try_from(member).expect("a group has fewer than 2^32 members"),
            dc_armed: false,
            is_origin: false,
            dc: None,
            payload: None,
            ad: InfectionTree::default(),
        }
    }

    /// Makes this node, not yet polled, a member of `group`. The membership
    /// must have been derived under this node's configuration.
    pub(crate) fn join(&mut self, group: GroupMembership) {
        debug_assert!(group.roster.config == self.roster.config);
        *self = Self::with_roster(group.roster, group.own_index);
    }

    fn config(&self) -> &FlexConfig {
        &self.roster.config
    }

    /// The node's group roster and its index in it; `None` outside any
    /// group.
    fn group(&self) -> Option<(&GroupRoster, usize)> {
        let member = self.member as usize;
        (member < self.roster.members.len()).then_some((&self.roster, member))
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
        &self.roster.members
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
        view: &mut ContextView<'_>,
        out: &mut Mailbox<FlexMessage>,
    ) {
        self.is_origin = true;
        view.set_seen();
        self.payload = Some(payload.as_slice().into());
        out.deliver();
        if let Some((_, _, dc)) = self.engine() {
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
    /// the hot seen lane alone — no cold-state access, and no conversion of
    /// `payload`: a message's shared payload is kept as it is, a DC-net
    /// slot's is copied once.
    fn learn_payload(
        &mut self,
        payload: impl Into<Arc<[u8]>>,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<FlexMessage>,
    ) -> bool {
        if view.set_seen() {
            return false;
        }
        self.payload = Some(payload.into());
        out.deliver();
        true
    }

    // ------------------------------------------------------------------
    // Phase 1: DC-net rounds
    // ------------------------------------------------------------------

    /// The node's group and its phase-1 engine, created on first use;
    /// `None` outside any group.
    fn engine(&mut self) -> Option<(&GroupRoster, usize, &mut RoundEngine)> {
        let roster = &*self.roster;
        let member = self.member as usize;
        let participant = roster.participants.get(member)?;
        let slot_len = roster.config.slot_len;
        let new = || Box::new(RoundEngine::new(Rc::clone(participant), slot_len));
        Some((roster, member, self.dc.get_or_insert_with(new)))
    }

    /// Arms the periodic DC-net round timer on a group member, once per
    /// instance: group members pace their rounds from the start of the
    /// run; a small deterministic stagger is unnecessary because round
    /// numbers are carried explicitly.
    fn arm_dc_clock(&mut self, out: &mut Mailbox<FlexMessage>) {
        if self.dc_armed || self.group().is_none() {
            return;
        }
        self.dc_armed = true;
        out.set_timer(self.config().dc_round_interval, TIMER_DC_ROUND);
    }

    /// Starts the next DC-net round while the budget lasts: sends this
    /// node's contribution to every other group member and re-arms the
    /// round timer.
    fn run_dc_round(&mut self, view: &mut ContextView<'_>, out: &mut Mailbox<FlexMessage>) {
        let (budget, interval) = (self.config().max_dc_rounds, self.config().dc_round_interval);
        let Some((roster, member_index, dc)) = self
            .engine()
            .filter(|(_, _, dc)| dc.rounds_started() < budget)
        else {
            return;
        };
        let round = dc.rounds_started();
        let (data, resolved) = dc.start_round(view.rng());
        let message = FlexMessage::DcContribution {
            round,
            member_index,
            data,
        };
        for (index, member) in roster.members.iter().enumerate() {
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
        view: &mut ContextView<'_>,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match outcome {
            SlotOutcome::Silence => out.record("flex-dc-silent-rounds"),
            SlotOutcome::Collision => out.record("flex-dc-collisions"),
            SlotOutcome::Message(message) => {
                out.record("flex-dc-delivered-rounds");
                self.learn_payload(message.as_slice(), view, out);
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
        view: &mut ContextView<'_>,
        out: &mut Mailbox<FlexMessage>,
    ) {
        let Some((roster, own_index)) = self.group() else {
            return;
        };
        let is_winner = match roster.config.election {
            crate::config::ElectionStrategy::HashBased => {
                let digest = Sha256::digest(message);
                let Some(elected) = elect_virtual_source_index(roster.identities(), &digest) else {
                    return;
                };
                out.record("flex-elections");
                elected == own_index
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
        let children: Vec<NodeId> = roster
            .members
            .iter()
            .enumerate()
            .filter(|(index, _)| *index != own_index)
            .map(|(_, node)| *node)
            .collect();
        self.ad = InfectionTree {
            parent: None,
            children,
            token: Some(Box::new(Token::FIRST)),
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
        out.set_timer(self.config().ad_round_interval, TIMER_AD_ROUND);
    }

    // ------------------------------------------------------------------
    // Phase 2: adaptive diffusion
    // ------------------------------------------------------------------

    /// One virtual-source round (the engine's keep-or-pass) of at most `d`,
    /// then the switch to phase 3.
    fn on_ad_timer(&mut self, view: &mut ContextView<'_>, out: &mut Mailbox<FlexMessage>) {
        if view.phase() == PHASE_FLOODING {
            // Phase 2 is over on this node; a token it still holds is void.
            self.ad.token = None;
            return;
        }
        let FlexConfig { schedule, d, .. } = *self.config();
        let wire = FlexWire(&self.payload);
        match self.ad.run_round(&wire, schedule, d, view, out) {
            Some(Round::Kept) => out.set_timer(self.config().ad_round_interval, TIMER_AD_ROUND),
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
        view: &mut ContextView<'_>,
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

    fn poll(
        &mut self,
        input: Input<FlexMessage>,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match input {
            Input::Init => self.arm_dc_clock(out),
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
/// the roster — configuration, group and pad keys — and runs its own DC-net
/// rounds. A steady session polls `Init` only on the originator's instance;
/// every other instance arms its round timer at its first DC-net
/// contribution, so exactly the originator's group paces rounds for the
/// transaction, and instances reached by phase-2/3 traffic only relay.
impl SteadyProtocol for FlexNode {
    /// Injects the transaction id as the anonymous payload.
    fn start_tx(&mut self, tx: u64, view: &mut ContextView<'_>, out: &mut Mailbox<FlexMessage>) {
        self.start_broadcast(tx.to_le_bytes().to_vec(), view, out);
    }
}

impl FlexNode {
    fn on_flex_message(
        &mut self,
        from: NodeId,
        message: FlexMessage,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match message {
            FlexMessage::DcContribution {
                round,
                member_index,
                data,
            } => {
                // An instance that skipped `Init` does here what `Init`
                // does, before the contribution's own effects.
                self.arm_dc_clock(out);
                let Some((roster, _, dc)) = self.engine() else {
                    return;
                };
                // The claimed position must be the sender's own; a refused
                // contribution is counted under its reason.
                let received = if roster.members.get(member_index) == Some(&from) {
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
                if self.learn_payload(payload, view, out) {
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
                out.set_timer(self.config().ad_round_interval, TIMER_AD_ROUND);
            }
            FlexMessage::FinalSpread { payload } => {
                self.learn_payload(payload.clone(), view, out);
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
                self.learn_payload(payload, view, out);
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
    use fnp_proto::{Effect, StandaloneEnv};

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
        node.poll(input, &mut env.view(), &mut out);
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
        let payload: Arc<[u8]> = Arc::from(&b"tx"[..]);
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
        assert!(
            !env.view().round_seen(1),
            "a dropped wave must not count as seen"
        );
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
        let payload: Arc<[u8]> = Arc::from(&b"tx"[..]);
        let flood = FlexMessage::Flood { payload };
        let effects = poll(&mut node, &mut env, message(3, flood.clone()));
        assert_eq!(
            effects,
            [Effect::Broadcast {
                message: flood,
                excluded: vec![NodeId::new(3)]
            }]
        );
        assert_eq!(env.view().phase(), PHASE_FLOODING);
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
        let payload: Arc<[u8]> = Arc::from(&b"tx"[..]);
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
        // The forwarded request shares the received payload's allocation,
        // the flood the one the node learned from its infection.
        let payload_ptr = |message: &FlexMessage| match message {
            FlexMessage::FinalSpread { payload } | FlexMessage::Flood { payload } => {
                payload.as_ptr()
            }
            other => panic!("no payload in {other:?}"),
        };
        let [Effect::Send {
            message: forwarded, ..
        }, Effect::Broadcast { message: flood, .. }] = &effects[..]
        else {
            panic!("unexpected effects {effects:?}");
        };
        assert_eq!(payload_ptr(forwarded), payload_ptr(&last));
        assert_eq!(payload_ptr(flood), node.payload().unwrap().as_ptr());
        // The children relation can contain cycles: the request coming
        // round again must die here.
        assert_eq!(poll(&mut node, &mut env, message(3, last)), []);
    }

    #[test]
    fn budget_exhaustion_sends_the_final_spread_then_floods_once() {
        let (mut node, mut env) = virtual_source(D);
        let payload: Arc<[u8]> = Arc::from(&b"tx"[..]);
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

    // First contact with phase 1. A steady session polls `Init` only on
    // the originator's instance; any other instance of a group member arms
    // its DC-net round clock at its first contribution, with the effects
    // `Init` has, ahead of the contribution's own. Node 0 of the group
    // {0, 1, 2}, spawned without `Init`, against the same node polled with
    // `Init` first.

    fn member_0() -> (FlexNode, StandaloneEnv, Vec<GroupMembership>) {
        let group = fnp_groups::Group::new(3, (0..3).map(NodeId::new)).unwrap();
        let members: Vec<GroupMembership> = crate::group_memberships(&group, 1)
            .into_iter()
            .map(|(_, member)| member)
            .collect();
        let env = StandaloneEnv::new(NodeId::new(0), 5, [1, 2, 3].map(NodeId::new).to_vec(), 7);
        let node = FlexNode::new(FlexConfig::default(), Some(members[0].clone()));
        (node, env, members)
    }

    /// A contribution to round 0 in member `member_index`'s name, sent by
    /// `from`: the honest silent one of that member.
    fn contribution(
        from: usize,
        member_index: usize,
        members: &[GroupMembership],
    ) -> Input<FlexMessage> {
        let slot_len = FlexConfig::default().slot_len;
        let data = members[member_index]
            .participant()
            .contribution(0, slot_len, None);
        let dc = FlexMessage::DcContribution {
            round: 0,
            member_index,
            data: data.unwrap().into(),
        };
        message(from, dc)
    }

    fn dc_arms(effects: &[Effect<FlexMessage>]) -> usize {
        let arms = |effect: &&Effect<FlexMessage>| matches!(effect, Effect::SetTimer { tag, .. } if *tag == TIMER_DC_ROUND);
        effects.iter().filter(arms).count()
    }

    /// Polls `inputs` on node 0 spawned without `Init` and on node 0 polled
    /// with `Init` first. Returns the effects of `Init`, then each input's
    /// effects on the spawned node and on the initialised one.
    #[allow(clippy::type_complexity)]
    fn first_contact(
        inputs: impl Fn(&[GroupMembership]) -> Vec<Input<FlexMessage>>,
    ) -> (
        Vec<Effect<FlexMessage>>,
        Vec<Vec<Effect<FlexMessage>>>,
        Vec<Vec<Effect<FlexMessage>>>,
    ) {
        let (mut spawned, mut spawned_env, members) = member_0();
        let (mut reference, mut reference_env, _) = member_0();
        let init = poll(&mut reference, &mut reference_env, Input::Init);
        let interval = FlexConfig::default().dc_round_interval;
        assert_eq!(
            init,
            [Effect::SetTimer {
                delay: interval,
                tag: TIMER_DC_ROUND
            }]
        );
        let (mut on_spawned, mut on_reference) = (Vec::new(), Vec::new());
        for (a, b) in inputs(&members).into_iter().zip(inputs(&members)) {
            on_spawned.push(poll(&mut spawned, &mut spawned_env, a));
            on_reference.push(poll(&mut reference, &mut reference_env, b));
        }
        (init, on_spawned, on_reference)
    }

    #[test]
    fn an_instance_reached_by_phase_2_first_arms_at_its_first_contribution() {
        let (init, spawned, reference) = first_contact(|members| {
            let payload: Arc<[u8]> = Arc::from(&b"tx"[..]);
            vec![
                message(1, FlexMessage::AdInfect { round: 0, payload }),
                contribution(1, 1, members),
                contribution(2, 2, members),
            ]
        });
        assert_eq!(spawned[0], [Effect::Deliver], "an infection arms nothing");
        assert_eq!(spawned[0], reference[0]);
        assert_eq!(spawned[1], [init, reference[1].clone()].concat());
        assert_eq!(spawned[2], reference[2]);
        assert_eq!(dc_arms(&spawned.concat()), 1);
    }

    #[test]
    fn an_instance_reached_by_a_contribution_first_arms_before_its_effects() {
        let (init, spawned, reference) = first_contact(|members| {
            // Node 2 passes member 1's contribution off as its own, then
            // both send their own.
            vec![
                contribution(2, 1, members),
                contribution(1, 1, members),
                contribution(2, 2, members),
            ]
        });
        assert_eq!(reference[0], [count("flex-dc-non-member")]);
        assert_eq!(spawned[0], [init, reference[0].clone()].concat());
        assert_eq!(spawned[1..], reference[1..]);
        assert_eq!(dc_arms(&spawned.concat()), 1);
    }

    #[test]
    fn a_node_polled_with_init_never_arms_again() {
        let (_, _, reference) = first_contact(|members| {
            let payload: Arc<[u8]> = Arc::from(&b"tx"[..]);
            vec![
                contribution(1, 1, members),
                message(1, FlexMessage::AdInfect { round: 0, payload }),
                contribution(2, 2, members),
            ]
        });
        assert_eq!(dc_arms(&reference.concat()), 0, "{reference:?}");
    }
}
