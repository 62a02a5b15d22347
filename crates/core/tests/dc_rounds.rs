//! Phase 1 of `FlexNode` on the wire: what a node does with a DC-net
//! contribution no honest peer sends, and what two originators in one
//! group do to each other's rounds.
//!
//! The first three cases poll one node on a stand-alone environment: node 0
//! of the group {0, 1, 2}, every member silent, so an honest round resolves
//! to silence and a garbled one to a collision. Each refused contribution
//! is counted under its reason and leaves the round as it was.

use fnp_core::{group_memberships, FlexConfig, FlexMessage, FlexNode, GroupMembership};
use fnp_groups::Group;
use fnp_netsim::{topology, NodeId, SimConfig, Simulator};
use fnp_proto::{Effect, Input, Mailbox, ProtocolCore, SimDriver, StandaloneEnv};

fn poll(
    node: &mut FlexNode,
    env: &mut StandaloneEnv,
    input: Input<FlexMessage>,
) -> Vec<Effect<FlexMessage>> {
    let mut out = Mailbox::new();
    node.poll(input, &mut env.view(), &mut out);
    out.drain().collect()
}

fn count(name: &'static str) -> Effect<FlexMessage> {
    Effect::Counter { name, amount: 1 }
}

/// A contribution to `round` in `member_index`'s name, sent by `from`.
fn contribution(from: usize, member_index: usize, round: u64, data: Vec<u8>) -> Input<FlexMessage> {
    let data = data.into();
    let message = FlexMessage::DcContribution {
        round,
        member_index,
        data,
    };
    let from = NodeId::new(from);
    Input::Message { from, message }
}

/// Member `member`'s honest, silent contribution to `round`, as `from`
/// sends it.
fn silent(from: usize, member: &GroupMembership, round: u64) -> Input<FlexMessage> {
    let slot_len = FlexConfig::default().slot_len;
    let data = member.participant.contribution(round, slot_len, None);
    contribution(from, member.own_index, round, data.unwrap())
}

/// Node 0 after starting round 0 with no contribution in yet, and the
/// group's memberships.
fn started() -> (FlexNode, StandaloneEnv, Vec<GroupMembership>) {
    let group = Group::new(3, (0..3).map(NodeId::new)).unwrap();
    let members: Vec<GroupMembership> = group_memberships(&group, 1)
        .into_iter()
        .map(|(_, member)| member)
        .collect();
    let mut env = StandaloneEnv::new(NodeId::new(0), 5, [1, 2, 3].map(NodeId::new).to_vec(), 7);
    let mut node = FlexNode::new(FlexConfig::default(), Some(members[0].clone()));
    let [Effect::SetTimer { tag, .. }] = poll(&mut node, &mut env, Input::Init)[..] else {
        panic!("Init arms the round timer and nothing else");
    };
    let round_0 = poll(&mut node, &mut env, Input::TimerFired { tag });
    assert_eq!(round_0.len(), 4, "two sends, a count, a timer: {round_0:?}");
    (node, env, members)
}

#[test]
fn a_contribution_in_another_members_name_is_refused() {
    let (mut node, mut env, members) = started();
    // Node 2 passes member 1's contribution off as its own.
    assert_eq!(
        poll(&mut node, &mut env, silent(2, &members[1], 0)),
        [count("flex-dc-non-member")]
    );
    // So node 2's own does not complete the round; member 1's does.
    assert_eq!(poll(&mut node, &mut env, silent(2, &members[2], 0)), []);
    assert_eq!(
        poll(&mut node, &mut env, silent(1, &members[1], 0)),
        [count("flex-dc-silent-rounds")]
    );
}

#[test]
fn a_second_contribution_to_one_round_is_refused_and_the_first_stands() {
    let (mut node, mut env, members) = started();
    assert_eq!(poll(&mut node, &mut env, silent(1, &members[1], 0)), []);
    // A replacement would garble the round into a collision.
    let garbage = vec![7; FlexConfig::default().slot_len];
    assert_eq!(
        poll(&mut node, &mut env, contribution(1, 1, 0, garbage)),
        [count("flex-dc-duplicate")]
    );
    assert_eq!(
        poll(&mut node, &mut env, silent(2, &members[2], 0)),
        [count("flex-dc-silent-rounds")]
    );
}

#[test]
fn a_contribution_to_a_resolved_round_is_refused() {
    let (mut node, mut env, members) = started();
    poll(&mut node, &mut env, silent(1, &members[1], 0));
    poll(&mut node, &mut env, silent(2, &members[2], 0));
    assert_eq!(
        poll(&mut node, &mut env, silent(1, &members[1], 0)),
        [count("flex-dc-stale")]
    );
}

/// Two members of one group queue a payload each before round 0: their
/// rounds collide until the back-off coin separates them, or the four
/// rounds run out. Pinned on the phase-1 code the round engine replaced,
/// so it also pins where the coin is drawn from the node's rng. Every
/// member counts every round, so five of a counter are one round.
#[test]
fn two_originators_in_one_group_collide_and_back_off() {
    /// The payload each of members 0–4 learned.
    type Learned = [&'static str; 5];
    /// (seed, [collisions, delivered, silent] counts, messages sent, learned).
    const PINNED: [(u64, [u64; 3], u64, Learned); 3] = [
        (0, [10, 0, 10], 80, ["", "first", "", "second", ""]),
        (
            1,
            [5, 10, 5],
            130,
            ["second", "first", "second", "second", "second"],
        ),
        (
            2,
            [10, 10, 0],
            131,
            ["first", "first", "first", "second", "first"],
        ),
    ];
    let n = 10;
    let group = Group::new(5, (0..5).map(NodeId::new)).unwrap();
    for (seed, rounds, sent, learned) in PINNED {
        let mut memberships: Vec<Option<GroupMembership>> = vec![None; n];
        for (node, membership) in group_memberships(&group, 3) {
            memberships[node.index()] = Some(membership);
        }
        let nodes = memberships
            .into_iter()
            .map(|member| SimDriver::new(FlexNode::new(FlexConfig::default(), member)))
            .collect();
        let config = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(topology::ring(n).unwrap(), nodes, config);
        for (origin, payload) in [(1, b"first".to_vec()), (3, b"second".to_vec())] {
            sim.trigger(NodeId::new(origin), |driver, ctx| {
                driver.drive(ctx, |node, view, out| {
                    node.start_broadcast(payload, view, out);
                });
            });
        }
        sim.run();
        let (nodes, metrics) = sim.into_parts();
        let counts = ["collisions", "delivered-rounds", "silent-rounds"]
            .map(|name| metrics.counter(&format!("flex-dc-{name}")));
        assert_eq!(counts, rounds, "seed {seed}");
        assert_eq!(metrics.counter("flex-dc-rounds"), 20, "seed {seed}");
        assert_eq!(metrics.messages_sent, sent, "seed {seed}");
        let payloads: Vec<&[u8]> = nodes[..5]
            .iter()
            .map(|driver| driver.core().payload().unwrap_or_default())
            .collect();
        assert_eq!(payloads, learned.map(str::as_bytes), "seed {seed}");
    }
}
