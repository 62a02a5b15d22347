//! Phase 2 *is* adaptive diffusion: the engine over two wires, in lockstep.
//!
//! The same overlay, seed, schedule and event sequence is driven through
//! the virtual-source engine twice — once on [`AdWire`], the bare wire
//! `AdaptiveDiffusionNode` uses, once on a payload-carrying wire shaped like
//! `FlexNode`'s — one event at a time. After every event the two effect
//! streams must be equal under the wire's own message mapping (and the
//! counter renaming), the rounds must have ended the same way, and the two
//! trees must hold the same links. Keep, pass, the no-eligible-neighbour
//! fallback and budget exhaustion all have to occur for the test to pass.

use fnp_diffusion::{AdMessage, AdWire, AlphaSchedule, InfectionTree, Round, Token, Wire};
use fnp_netsim::{topology, Graph, NodeId};
use fnp_proto::{Effect, Mailbox, StandaloneEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Carried {
    Infect { round: u32, payload: Vec<u8> },
    Spread { round: u32 },
    Token { t: u32, h: u32, round: u32 },
}

struct Carrying<'a>(&'a [u8]);

impl Wire for Carrying<'_> {
    type Message = Carried;
    const ROUNDS: &'static str = "flex-ad-rounds";
    const KEEP: &'static str = "flex-ad-keep";
    const PASS: &'static str = "flex-ad-pass";

    fn encode(&self, message: AdMessage) -> Carried {
        match message {
            AdMessage::Infect { round } => Carried::Infect {
                round,
                payload: self.0.to_vec(),
            },
            AdMessage::Spread { round } => Carried::Spread { round },
            AdMessage::Token { t, h, round } => Carried::Token { t, h, round },
        }
    }
}

/// The bare wire's effect as the carrying wire must have emitted it.
fn carried(effect: &Effect<AdMessage>, wire: &Carrying) -> Effect<Carried> {
    match effect {
        Effect::Send { to, message } => Effect::Send {
            to: *to,
            message: wire.encode(message.clone()),
        },
        Effect::Counter { name, amount } => Effect::Counter {
            name: match *name {
                AdWire::ROUNDS => Carrying::ROUNDS,
                AdWire::KEEP => Carrying::KEEP,
                AdWire::PASS => Carrying::PASS,
                other => panic!("the engine records no counter {other:?}"),
            },
            amount: *amount,
        },
        other => panic!("the engine emits sends and counters only, not {other:?}"),
    }
}

#[derive(Clone, Debug)]
enum Event {
    Deliver {
        to: NodeId,
        from: NodeId,
        message: AdMessage,
    },
    RoundTimer {
        node: NodeId,
    },
}

/// One node's tree and environment on one wire.
#[derive(Clone)]
struct Node {
    tree: InfectionTree,
    env: StandaloneEnv,
}

/// What a node's protocol does with `event`, written once over the wire:
/// the caller's share (infect on first contact, accept a token) around the
/// engine's steps. Returns how the round ended, if the event ran one.
fn step<W: Wire>(
    wire: &W,
    node: &mut Node,
    event: &Event,
    schedule: AlphaSchedule,
    budget: u32,
    out: &mut Mailbox<W::Message>,
) -> Option<Round> {
    let Node { tree, env } = node;
    let env = &mut env.view();
    match *event {
        Event::Deliver {
            from, ref message, ..
        } => {
            if !env.set_seen() {
                tree.parent = Some(from);
            }
            match *message {
                AdMessage::Infect { .. } => {}
                AdMessage::Spread { round } => tree.on_spread(wire, round, from, env, out),
                AdMessage::Token { t, h, round } => {
                    tree.hold_token(t, h, round, from);
                    tree.spread_wave(wire, round, Some(from), env, out);
                }
            }
            None
        }
        Event::RoundTimer { .. } => tree.run_round(wire, schedule, budget, env, out),
    }
}

/// Which branches of the round a run went through.
#[derive(Debug, Default)]
struct Seen {
    kept_by_draw: bool,
    kept_by_fallback: bool,
    passed: bool,
    exhausted: bool,
}

/// Runs a whole diffusion from `origin` on both wires in lockstep.
fn lockstep(graph: &Graph, seed: u64, schedule: AlphaSchedule, budget: u32, seen: &mut Seen) {
    let payload = b"the transaction".as_slice();
    let carrying = Carrying(payload);
    let n = graph.node_count();
    let fresh = |index: usize| {
        let id = NodeId::new(index);
        let neighbors = graph.neighbors(id).to_vec();
        Node {
            tree: InfectionTree::default(),
            env: StandaloneEnv::new(id, n, neighbors, seed ^ index as u64),
        }
    };
    let mut bare_nodes: Vec<Node> = (0..n).map(fresh).collect();
    let mut carrying_nodes = bare_nodes.clone();

    // The origin hands the first token to its first neighbour on both wires.
    let origin = NodeId::new(0);
    let first = graph.neighbors(origin)[0];
    let mut bare_out = Mailbox::new();
    let mut carrying_out = Mailbox::new();
    for nodes in [&mut bare_nodes, &mut carrying_nodes] {
        nodes[0].env.view().set_seen();
    }
    let Node { tree, env } = &mut bare_nodes[0];
    tree.hand_token(&AdWire, first, &Token::FIRST, &env.view(), &mut bare_out);
    let Node { tree, env } = &mut carrying_nodes[0];
    tree.hand_token(
        &carrying,
        first,
        &Token::FIRST,
        &env.view(),
        &mut carrying_out,
    );

    let mut queue = VecDeque::new();
    let mut at = origin;
    let mut event = None;
    let mut events = 0;
    loop {
        // Compare what the last event emitted, then turn the bare wire's
        // sends into the deliveries both worlds see next.
        let expected: Vec<_> = bare_out
            .effects()
            .iter()
            .map(|effect| carried(effect, &carrying))
            .collect();
        assert_eq!(carrying_out.effects(), expected, "after {event:?}");
        let (bare, carrying_node) = (&bare_nodes[at.index()], &carrying_nodes[at.index()]);
        assert_eq!(bare.tree, carrying_node.tree, "after {event:?}");
        carrying_out.clear();
        for effect in bare_out.drain() {
            if let Effect::Send { to, message } = effect {
                let hands_token = matches!(message, AdMessage::Token { .. });
                let from = at;
                queue.push_back(Event::Deliver { to, from, message });
                if hands_token {
                    queue.push_back(Event::RoundTimer { node: to });
                }
            }
        }

        let Some(next) = queue.pop_front() else {
            break;
        };
        events += 1;
        assert!(events < 100_000, "the diffusion does not terminate");
        at = match next {
            Event::Deliver { to, .. } => to,
            Event::RoundTimer { node } => node,
        };
        let bare = &mut bare_nodes[at.index()];
        let bare_round = step(&AdWire, bare, &next, schedule, budget, &mut bare_out);
        let other = &mut carrying_nodes[at.index()];
        let carrying_round = step(&carrying, other, &next, schedule, budget, &mut carrying_out);
        assert_eq!(bare_round, carrying_round, "after {next:?}");
        let drew_pass = bare_out.effects().contains(&Effect::Counter {
            name: AdWire::PASS,
            amount: 1,
        });
        match bare_round {
            Some(Round::Kept) => {
                seen.kept_by_fallback |= drew_pass;
                seen.kept_by_draw |= !drew_pass;
                queue.push_back(Event::RoundTimer { node: at });
            }
            Some(Round::Passed) => seen.passed = true,
            Some(Round::BudgetExhausted) => seen.exhausted = true,
            None => {}
        }
        event = Some(next);
    }
    assert!(events > 0, "nothing ran");
}

#[test]
fn both_wires_emit_the_same_stream_on_every_branch() {
    let mut seen = Seen::default();
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(24, 3, &mut rng).expect("3-regular on 24 nodes");
        let schedule = AlphaSchedule::Fixed { probability: 0.5 };
        lockstep(&graph, seed, schedule, 10, &mut seen);
        lockstep(&graph, seed, AlphaSchedule::default(), 6, &mut seen);
    }
    // A pendant virtual source whose only neighbour handed it the token has
    // nobody to pass to: the pass draw falls back to keeping.
    let pair = topology::line(2).expect("a two-node line");
    lockstep(&pair, 3, AlphaSchedule::AlwaysPass, 4, &mut seen);
    assert!(
        seen.kept_by_draw && seen.kept_by_fallback && seen.passed && seen.exhausted,
        "a branch of the round never ran: {seen:?}"
    );
}
