//! Deterministic replay: recorded simulator traces drive the bare cores.
//!
//! For each of the four protocols, a simulator run is recorded through
//! [`SimDriver::traced`] — every poll's input, pre-poll RNG state and
//! emitted effects, in delivery order — and then replayed through a fresh
//! set of bare [`ProtocolCore`]s with no simulator involved. The emitted
//! mailbox effects must match the recording event for event; any drift
//! between the sans-IO cores and the simulator path fails here with the
//! first diverging event.

use fnp_core::{group_memberships, FlexConfig, FlexNode, GroupMembership};
use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
use fnp_gossip::{DandelionNode, DandelionParams, FloodNode, StemLine};
use fnp_groups::form_groups;
use fnp_netsim::{topology, Graph, NodeId, SimConfig, Simulator};
use fnp_proto::{replay_trace, SimDriver, TraceHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn overlay(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    topology::random_regular(n, 4, &mut rng).unwrap()
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}

#[test]
fn flood_replays_exactly() {
    let n = 60;
    let graph = overlay(n, 11);
    let trace = TraceHandle::new();
    let nodes = (0..n)
        .map(|_| SimDriver::traced(FloodNode::new(), trace.clone()))
        .collect();
    let mut sim = Simulator::new(graph.clone(), nodes, sim_config(11));
    sim.trigger(NodeId::new(3), |driver, ctx| {
        driver.drive(ctx, |node, view, out| node.start_broadcast(7, view, out));
    });
    let metrics = sim.run();
    assert_eq!(metrics.coverage(), 1.0);

    let events = trace.take();
    assert!(events.len() >= n, "every node should have been polled");
    let mut cores: Vec<FloodNode> = (0..n).map(|_| FloodNode::new()).collect();
    replay_trace(&mut cores, &graph, &events, |core, view, out| {
        core.start_broadcast(7, view, out)
    })
    .unwrap();
}

#[test]
fn replay_detects_divergence() {
    let n = 20;
    let graph = overlay(n, 12);
    let trace = TraceHandle::new();
    let nodes = (0..n)
        .map(|_| SimDriver::traced(FloodNode::new(), trace.clone()))
        .collect();
    let mut sim = Simulator::new(graph.clone(), nodes, sim_config(12));
    sim.trigger(NodeId::new(0), |driver, ctx| {
        driver.drive(ctx, |node, view, out| node.start_broadcast(7, view, out));
    });
    sim.run();

    // Replaying with a *different* origin entry point must be caught at
    // the first event.
    let events = trace.take();
    let mut cores: Vec<FloodNode> = (0..n).map(|_| FloodNode::new()).collect();
    let mismatch = replay_trace(&mut cores, &graph, &events, |core, view, out| {
        core.start_broadcast(8, view, out)
    })
    .unwrap_err();
    // The trace opens with every node's silent `Init` poll; the first
    // divergence is the origin trigger itself.
    let first_external = events
        .iter()
        .position(|event| matches!(event.input, fnp_proto::TracedInput::External))
        .unwrap();
    assert_eq!(mismatch.index, first_external);
    assert!(mismatch.to_string().contains("diverged"));
}

#[test]
fn dandelion_replays_exactly() {
    let n = 60;
    let graph = overlay(n, 21);
    let params = DandelionParams::default();
    let line = StemLine::random(n, &mut StdRng::seed_from_u64(22));
    let trace = TraceHandle::new();
    let nodes = (0..n)
        .map(|i| {
            SimDriver::traced(
                DandelionNode::new(params, line.successor(NodeId::new(i))),
                trace.clone(),
            )
        })
        .collect();
    let mut sim = Simulator::new(graph.clone(), nodes, sim_config(21));
    sim.trigger(NodeId::new(5), |driver, ctx| {
        driver.drive(ctx, |node, view, out| node.start_broadcast(9, view, out));
    });
    let metrics = sim.run();
    assert_eq!(metrics.coverage(), 1.0);

    let events = trace.take();
    let mut cores: Vec<DandelionNode> = (0..n)
        .map(|i| DandelionNode::new(params, line.successor(NodeId::new(i))))
        .collect();
    replay_trace(&mut cores, &graph, &events, |core, view, out| {
        core.start_broadcast(9, view, out)
    })
    .unwrap();
}

#[test]
fn adaptive_diffusion_replays_exactly() {
    let n = 60;
    let graph = overlay(n, 31);
    let params = AdParams {
        max_rounds: 32,
        ..AdParams::default()
    };
    let trace = TraceHandle::new();
    let nodes = (0..n)
        .map(|_| SimDriver::traced(AdaptiveDiffusionNode::new(params), trace.clone()))
        .collect();
    let mut sim = Simulator::new(graph.clone(), nodes, sim_config(31));
    sim.trigger(NodeId::new(2), |driver, ctx| {
        driver.drive(ctx, |node, view, out| node.start_broadcast(view, out));
    });
    sim.run();

    let events = trace.take();
    assert!(!events.is_empty());
    let mut cores: Vec<AdaptiveDiffusionNode> =
        (0..n).map(|_| AdaptiveDiffusionNode::new(params)).collect();
    replay_trace(&mut cores, &graph, &events, |core, view, out| {
        core.start_broadcast(view, out)
    })
    .unwrap();
}

/// Rebuilds the flexible protocol's group memberships exactly as the
/// harness does (same seed-derived setup RNG, same key seed), so the
/// replayed cores start from the same initial state as the recorded run.
fn flex_memberships(n: usize, config: FlexConfig, seed: u64) -> Vec<Option<GroupMembership>> {
    let mut setup_rng = StdRng::seed_from_u64(seed ^ 0xD1F7_BEEF);
    let all_nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let groups = form_groups(&all_nodes, config.k, &mut setup_rng).unwrap();
    let mut memberships: Vec<Option<GroupMembership>> = (0..n).map(|_| None).collect();
    for group in &groups {
        for (node, membership) in group_memberships(group, seed) {
            memberships[node.index()] = Some(membership);
        }
    }
    memberships
}

#[test]
fn flexible_protocol_replays_exactly() {
    let n = 60;
    let seed = 41;
    let graph = overlay(n, seed);
    let config = FlexConfig::default();
    let payload = b"replayed flexible broadcast".to_vec();

    let build_cores = || -> Vec<FlexNode> {
        flex_memberships(n, config, seed)
            .into_iter()
            .map(|membership| FlexNode::new(config, membership))
            .collect()
    };

    let trace = TraceHandle::new();
    let nodes = build_cores()
        .into_iter()
        .map(|core| SimDriver::traced(core, trace.clone()))
        .collect();
    let mut sim = Simulator::new(graph.clone(), nodes, sim_config(seed));
    let start_payload = payload.clone();
    sim.trigger(NodeId::new(7), |driver, ctx| {
        driver.drive(ctx, move |node, view, out| {
            node.start_broadcast(start_payload, view, out);
        });
    });
    let metrics = sim.run();
    assert_eq!(metrics.coverage(), 1.0);

    let events = trace.take();
    // All three phases appear in the trace's polls.
    assert!(events.len() > n);
    let mut cores = build_cores();
    replay_trace(&mut cores, &graph, &events, |core, view, out| {
        core.start_broadcast(payload.clone(), view, out)
    })
    .unwrap();
}
