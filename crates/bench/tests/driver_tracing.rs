//! `SimDriver`'s tracing parameter changes nothing but the recording.
//!
//! Tracing is a type parameter of [`SimDriver`] with a zero-sized default,
//! so the untraced driver every experiment runs carries no per-node bytes
//! besides its core. For each of the four protocols: the untraced driver is
//! laid out exactly like the core, and one seeded run gives the same
//! [`Metrics`] — counters, delivery times and the full transmission trace —
//! whether or not its polls are recorded.

use fnp_core::{group_memberships, FlexConfig, FlexNode, GroupMembership};
use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
use fnp_gossip::{DandelionNode, DandelionParams, FloodNode, StemLine};
use fnp_groups::form_groups;
use fnp_netsim::{topology, ContextView, Graph, Metrics, NodeId, SimConfig, Simulator};
use fnp_proto::{Mailbox, PollTrace, ProtocolCore, SimDriver, TraceHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 60;
const SEED: u64 = 17;

fn overlay() -> Graph {
    topology::random_regular(NODES, 4, &mut StdRng::seed_from_u64(SEED)).unwrap()
}

fn run<C, T>(
    nodes: Vec<SimDriver<C, T>>,
    start: impl FnOnce(&mut C, &mut ContextView<'_>, &mut Mailbox<C::Message>),
) -> Metrics
where
    C: ProtocolCore,
    T: PollTrace<C::Message>,
{
    let config = SimConfig {
        seed: SEED,
        record_trace: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(overlay(), nodes, config);
    sim.trigger(NodeId::new(5), |driver, ctx| driver.drive(ctx, start));
    sim.run();
    sim.into_parts().1
}

/// Runs `cores()` once untraced and once traced from the same entry point
/// and checks layout, metrics and that the traced run did record.
fn check<C: ProtocolCore>(
    cores: impl Fn() -> Vec<C>,
    start: impl Fn(&mut C, &mut ContextView<'_>, &mut Mailbox<C::Message>),
) {
    assert_eq!(size_of::<SimDriver<C>>(), size_of::<C>());
    let untraced = run(cores().into_iter().map(SimDriver::new).collect(), &start);
    let trace = TraceHandle::new();
    let traced = run(
        cores()
            .into_iter()
            .map(|core| SimDriver::traced(core, trace.clone()))
            .collect(),
        &start,
    );
    assert!(untraced.events_processed > 0);
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    // One poll per node's `Init`, one for the trigger, one per event.
    assert_eq!(
        trace.len() as u64,
        NODES as u64 + 1 + traced.events_processed
    );
}

#[test]
fn flood() {
    check(
        || (0..NODES).map(|_| FloodNode::new()).collect(),
        |core, view, out| core.start_broadcast(7, view, out),
    );
}

#[test]
fn dandelion() {
    let line = StemLine::random(NODES, &mut StdRng::seed_from_u64(SEED + 1));
    check(
        || {
            (0..NODES)
                .map(|i| {
                    DandelionNode::new(DandelionParams::default(), line.successor(NodeId::new(i)))
                })
                .collect()
        },
        |core, view, out| core.start_broadcast(9, view, out),
    );
}

#[test]
fn adaptive_diffusion() {
    let params = AdParams {
        max_rounds: 32,
        ..AdParams::default()
    };
    check(
        || {
            (0..NODES)
                .map(|_| AdaptiveDiffusionNode::new(params))
                .collect()
        },
        |core, view, out| core.start_broadcast(view, out),
    );
}

#[test]
fn flexible() {
    let config = FlexConfig::default();
    let cores = || -> Vec<FlexNode> {
        let all: Vec<NodeId> = (0..NODES).map(NodeId::new).collect();
        let groups = form_groups(&all, config.k, &mut StdRng::seed_from_u64(SEED + 2)).unwrap();
        let mut memberships: Vec<Option<GroupMembership>> = (0..NODES).map(|_| None).collect();
        for group in &groups {
            for (node, membership) in group_memberships(group, SEED) {
                memberships[node.index()] = Some(membership);
            }
        }
        memberships
            .into_iter()
            .map(|membership| FlexNode::new(config, membership))
            .collect()
    };
    check(cores, |core, view, out| {
        core.start_broadcast(b"traced or not".to_vec(), view, out);
    });
}
