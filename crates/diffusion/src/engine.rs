//! The virtual-source engine: one node's share of adaptive diffusion.
//!
//! An [`InfectionTree`] is what a node knows of the infection tree (who
//! infected it, whom it infected) plus the virtual-source [`Token`] while it
//! holds it, and the steps that act on them: relaying a spread wave, growing
//! the frontier, and the token holder's keep-or-pass round. The keep/pass
//! rule exists here and nowhere else.
//!
//! Two protocols run the engine and differ only in their [`Wire`]:
//! [`AdaptiveDiffusionNode`](crate::AdaptiveDiffusionNode) sends the engine's
//! [`AdMessage`]s as they are, phase 2 of `fnp-core`'s `FlexNode` encodes
//! them into its own (infections carry the transaction payload). Whether the
//! node is infected, when the round timer fires and what happens once the
//! round budget is spent is theirs.

use crate::alpha::AlphaSchedule;
use crate::protocol::AdMessage;
use fnp_netsim::{ContextView, NodeId};
use fnp_proto::Mailbox;
use rand::Rng;

/// What a protocol running the engine puts on the wire and in the counters.
pub trait Wire {
    /// The protocol's message type.
    type Message;
    /// Counter bumped once per executed round.
    const ROUNDS: &'static str;
    /// Counter bumped when the keep/pass draw says keep.
    const KEEP: &'static str;
    /// Counter bumped when the keep/pass draw says pass.
    const PASS: &'static str;

    /// The protocol's form of one adaptive-diffusion message.
    fn encode(&self, message: AdMessage) -> Self::Message;
}

/// How one [`InfectionTree::run_round`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Round {
    /// The token stayed — by the draw, or because no neighbour other than
    /// the one it came from exists — and a spread wave went out. The caller
    /// arms the timer for the next round.
    Kept,
    /// The token moved to a neighbour.
    Passed,
    /// The round counter passed the budget: the node keeps the token and
    /// sent nothing. What the final virtual source does next is the caller's.
    BudgetExhausted,
}

/// The virtual-source token, held by at most one node at a time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Even timestep of the protocol.
    pub t: u32,
    /// Hop distance of the holder from where the diffusion started.
    pub h: u32,
    /// Rounds already executed for this message.
    pub round: u32,
    /// The node the holder got the token from; it is not passed back there.
    pub received_from: Option<NodeId>,
}

impl Token {
    /// The token as the first virtual source holds it.
    pub const FIRST: Token = Token {
        t: 2,
        h: 1,
        round: 0,
        received_from: None,
    };
}

/// One node's infection-tree links and, while it holds it, the token.
///
/// Cold state: the hot companion is the driver's
/// [`counter` lane](fnp_netsim::ContextView::counter_lane), which holds the
/// highest spread-wave round already processed. The "children" relation can
/// contain cycles on general graphs, so without that check a wave could
/// circulate forever.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InfectionTree {
    /// The node that infected this one; `None` for an origin or a source.
    pub parent: Option<NodeId>,
    /// The nodes this one has infected, in infection order.
    pub children: Vec<NodeId>,
    /// The token, if currently held. Boxed: at most one node of an
    /// infection holds it, so every other node's tree keeps one pointer,
    /// not room for the token.
    pub token: Option<Box<Token>>,
}

impl InfectionTree {
    /// Records `child` as infected by this node. Children are distinct
    /// neighbours, so the first one reserves the node's degree: one
    /// allocation per child list.
    fn adopt(&mut self, child: NodeId, view: &ContextView<'_>) {
        if self.children.capacity() == 0 {
            self.children.reserve_exact(view.neighbors().len());
        }
        self.children.push(child);
    }

    /// Sends `token` to `next`, infecting it first unless it is already a
    /// tree neighbour.
    pub fn hand_token<W: Wire>(
        &mut self,
        wire: &W,
        next: NodeId,
        token: &Token,
        view: &ContextView<'_>,
        out: &mut Mailbox<W::Message>,
    ) {
        let Token { t, h, round, .. } = *token;
        if !self.children.contains(&next) && self.parent != Some(next) {
            out.send(next, wire.encode(AdMessage::Infect { round }));
            self.adopt(next, view);
        }
        out.send(next, wire.encode(AdMessage::Token { t, h, round }));
    }

    /// Stores the token received from `from`. Accepting it is this, then
    /// [`spread_wave`](Self::spread_wave) away from `from`, then arming the
    /// round timer.
    pub fn hold_token(&mut self, t: u32, h: u32, round: u32, from: NodeId) {
        self.token = Some(Box::new(Token {
            t,
            h,
            round,
            received_from: Some(from),
        }));
    }

    /// Infects every neighbour that is neither parent, child nor `excluded`.
    #[inline]
    pub fn grow_frontier<W: Wire>(
        &mut self,
        wire: &W,
        round: u32,
        excluded: Option<NodeId>,
        view: &ContextView<'_>,
        out: &mut Mailbox<W::Message>,
    ) {
        for &target in view.neighbors() {
            if Some(target) == self.parent
                || Some(target) == excluded
                || self.children.contains(&target)
            {
                continue;
            }
            out.send(target, wire.encode(AdMessage::Infect { round }));
            self.adopt(target, view);
        }
    }

    /// Forwards a spread wave to every child except `excluded`.
    #[inline]
    pub fn forward_spread<W: Wire>(
        &self,
        wire: &W,
        round: u32,
        excluded: Option<NodeId>,
        out: &mut Mailbox<W::Message>,
    ) {
        for &child in &self.children {
            if Some(child) != excluded {
                out.send(child, wire.encode(AdMessage::Spread { round }));
            }
        }
    }

    /// Marks wave `round` processed, relays it down the tree and grows the
    /// frontier around this node, in that order.
    #[inline]
    pub fn spread_wave<W: Wire>(
        &mut self,
        wire: &W,
        round: u32,
        excluded: Option<NodeId>,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<W::Message>,
    ) {
        view.mark_round_seen(round);
        self.forward_spread(wire, round, excluded, out);
        self.grow_frontier(wire, round, excluded, view, out);
    }

    /// A spread wave arrived from `from`: processed at most once per round.
    #[inline]
    pub fn on_spread<W: Wire>(
        &mut self,
        wire: &W,
        round: u32,
        from: NodeId,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<W::Message>,
    ) {
        if !view.round_seen(round) {
            self.spread_wave(wire, round, Some(from), view, out);
        }
    }

    /// One round of the token holder, of at most `max_rounds`: keep the
    /// token and spread, or pass it to a random neighbour other than the one
    /// it came from. `None` if this node holds no token.
    #[inline]
    pub fn run_round<W: Wire>(
        &mut self,
        wire: &W,
        schedule: AlphaSchedule,
        max_rounds: u32,
        view: &mut ContextView<'_>,
        out: &mut Mailbox<W::Message>,
    ) -> Option<Round> {
        let mut token = self.token.take()?;
        token.t += 2;
        token.round += 1;
        out.record(W::ROUNDS);
        if token.round > max_rounds {
            self.token = Some(token);
            return Some(Round::BudgetExhausted);
        }

        let keep_probability = schedule.keep_probability(token.t, token.h);
        let keep = view.rng().gen_bool(keep_probability);
        out.record(if keep { W::KEEP } else { W::PASS });
        let next = if keep {
            None
        } else {
            view.random_neighbor_except(token.received_from)
        };
        let Some(next) = next else {
            let round = token.round;
            self.token = Some(token);
            self.spread_wave(wire, round, None, view, out);
            return Some(Round::Kept);
        };
        token.h += 1;
        self.hand_token(wire, next, &token, view, out);
        Some(Round::Passed)
    }
}
