//! Experiment harness: setting up and running whole broadcasts.
//!
//! The harness owns everything that happens *around* the per-node state
//! machines: forming the DC-net groups, deriving the pairwise keys,
//! instantiating one [`FlexNode`] per overlay node, kicking off the
//! broadcast and condensing the simulator metrics into a per-phase
//! [`FlexReport`]. It also provides [`ProtocolKind`], a small abstraction
//! that lets the comparison experiments (E1, E10) run all four
//! dissemination strategies — flood, Dandelion, adaptive diffusion and the
//! flexible protocol — through one call.

use crate::config::FlexConfig;
use crate::keycache::{derive_group, KeyScratch};
use crate::message::{PHASE1_KINDS, PHASE2_KINDS, PHASE3_KINDS};
use crate::node::{FlexNode, GroupRoster};
use fnp_crypto::dh::KeyPair;
use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
use fnp_gossip::{DandelionParams, StemLine};
use fnp_groups::{form_groups, FormationError};
use fnp_netsim::{Graph, Metrics, NodeId, SimConfig, Simulator, TrialArena};
use fnp_proto::SimDriver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::rc::Rc;

/// Result of one flexible-protocol broadcast.
#[derive(Clone, Debug)]
pub struct FlexReport {
    /// Raw simulator metrics.
    pub metrics: Metrics,
    /// The members of the originator's DC-net group.
    pub origin_group: Vec<NodeId>,
    /// Messages sent in phase 1 (DC-net).
    pub phase1_messages: u64,
    /// Messages sent in phase 2 (adaptive diffusion, incl. the final spread).
    pub phase2_messages: u64,
    /// Messages sent in phase 3 (flood and prune).
    pub phase3_messages: u64,
    /// Bytes sent in phase 1.
    pub phase1_bytes: u64,
    /// Bytes sent in phase 2.
    pub phase2_bytes: u64,
    /// Bytes sent in phase 3.
    pub phase3_bytes: u64,
}

impl FlexReport {
    fn from_metrics(metrics: Metrics, origin_group: Vec<NodeId>) -> Self {
        let sum_messages = |kinds: &[&str]| kinds.iter().map(|k| metrics.messages_of_kind(k)).sum();
        let sum_bytes = |kinds: &[&str]| kinds.iter().map(|k| metrics.bytes_of_kind(k)).sum();
        Self {
            phase1_messages: sum_messages(PHASE1_KINDS),
            phase2_messages: sum_messages(PHASE2_KINDS),
            phase3_messages: sum_messages(PHASE3_KINDS),
            phase1_bytes: sum_bytes(PHASE1_KINDS),
            phase2_bytes: sum_bytes(PHASE2_KINDS),
            phase3_bytes: sum_bytes(PHASE3_KINDS),
            origin_group,
            metrics,
        }
    }

    /// Fraction of nodes that received the transaction.
    pub fn coverage(&self) -> f64 {
        self.metrics.coverage()
    }

    /// Total messages across all phases.
    pub fn total_messages(&self) -> u64 {
        self.metrics.messages_sent
    }
}

/// Errors raised while setting up a flexible broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// The protocol configuration is invalid.
    Config(crate::config::ConfigError),
    /// DC-net groups could not be formed over the overlay.
    Formation(FormationError),
    /// The requested origin node does not exist in the overlay.
    OriginOutOfRange {
        /// The requested origin.
        origin: NodeId,
        /// Number of overlay nodes.
        nodes: usize,
    },
    /// The payload does not fit the configured DC-net slot.
    PayloadTooLarge {
        /// Payload length in bytes.
        len: usize,
        /// Payload capacity of the slot in bytes.
        capacity: usize,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Config(inner) => write!(f, "{inner}"),
            HarnessError::Formation(inner) => write!(f, "{inner}"),
            HarnessError::OriginOutOfRange { origin, nodes } => {
                write!(f, "origin {origin} outside overlay of {nodes} nodes")
            }
            HarnessError::PayloadTooLarge { len, capacity } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {capacity}-byte DC-net slot capacity"
                )
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<crate::config::ConfigError> for HarnessError {
    fn from(value: crate::config::ConfigError) -> Self {
        HarnessError::Config(value)
    }
}

impl From<FormationError> for HarnessError {
    fn from(value: FormationError) -> Self {
        HarnessError::Formation(value)
    }
}

/// Derives the deterministic long-term key pair of an overlay node.
///
/// Real deployments would generate keys independently; deriving them from
/// the node index keeps experiments reproducible without changing any of
/// the protocol logic (the pads still cancel, the election still works).
pub fn node_key_pair(node: NodeId, key_seed: u64) -> KeyPair {
    KeyPair::from_secret(key_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (node.index() as u64 + 1))
}

/// Fails unless `origin` is one of the overlay's `nodes` nodes.
fn check_origin(origin: NodeId, nodes: usize) -> Result<(), HarnessError> {
    if origin.index() < nodes {
        Ok(())
    } else {
        Err(HarnessError::OriginOutOfRange { origin, nodes })
    }
}

/// The one group set-up: appends one configured [`FlexNode`] per node of an
/// `n`-node overlay to `nodes`, each wrapped by `wrap`, in node order, all
/// sharing one roster of no group; then partitions the overlay into DC-net
/// groups (setup RNG `seed ^ 0xD1F7_BEEF`) and derives every group's roster
/// under key seed `seed`, all over one [`KeyScratch`], writing each
/// membership straight into its node, reached through `core`. Every roster
/// shares one `Rc` of `config`, and no step allocates per node beyond the
/// node itself and its pad keys.
///
/// `config` must already be validated.
fn flex_nodes<T>(
    nodes: &mut Vec<T>,
    n: usize,
    config: FlexConfig,
    seed: u64,
    wrap: impl Fn(FlexNode) -> T,
    core: impl Fn(&mut T) -> &mut FlexNode,
) -> Result<(), HarnessError> {
    let mut setup_rng = StdRng::seed_from_u64(seed ^ 0xD1F7_BEEF);
    let all_nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let groups = form_groups(&all_nodes, config.k, &mut setup_rng)?;

    let first = nodes.len();
    let config = Rc::new(config);
    let lone = Rc::new(GroupRoster::lone(Rc::clone(&config)));
    nodes.extend((0..n).map(|_| wrap(FlexNode::with_roster(Rc::clone(&lone), 0))));
    let mut scratch = KeyScratch::default();
    for group in &groups {
        derive_group(group, seed, &config, &mut scratch, |node, membership| {
            core(&mut nodes[first + node.index()]).join(membership);
        });
    }
    Ok(())
}

/// Sets up and runs one flexible-protocol broadcast of `payload` from
/// `origin` over `graph`.
///
/// The overlay is partitioned into DC-net groups of size `config.k` to
/// `2·config.k − 1`; every node participates in exactly one group. The
/// run records every node's first receipt so that adversary estimators can
/// score it.
///
/// # Errors
///
/// Returns a [`HarnessError`] if the configuration is invalid, the origin
/// is out of range, the payload exceeds the slot capacity
/// ([`HarnessError::PayloadTooLarge`]) or groups cannot be formed (network
/// smaller than `k`).
pub fn run_flexible_broadcast(
    graph: Graph,
    origin: NodeId,
    payload: Vec<u8>,
    config: FlexConfig,
    sim_config: SimConfig,
) -> Result<FlexReport, HarnessError> {
    run_flexible_broadcast_in(
        &mut TrialArena::new(),
        graph,
        origin,
        payload,
        config,
        sim_config,
    )
}

/// Like [`run_flexible_broadcast`], but reuses `arena`'s pooled simulator
/// storage (recycle the report's [`Metrics`] via
/// [`TrialArena::recycle_metrics`] once aggregated).
///
/// # Errors
///
/// Same failure modes as [`run_flexible_broadcast`].
pub fn run_flexible_broadcast_in(
    arena: &mut TrialArena,
    graph: Graph,
    origin: NodeId,
    payload: Vec<u8>,
    config: FlexConfig,
    sim_config: SimConfig,
) -> Result<FlexReport, HarnessError> {
    config.validate()?;
    let n = graph.node_count();
    check_origin(origin, n)?;
    let capacity = fnp_dcnet::slot::capacity(config.slot_len);
    if payload.len() > capacity {
        return Err(HarnessError::PayloadTooLarge {
            len: payload.len(),
            capacity,
        });
    }

    let mut nodes: Vec<SimDriver<FlexNode>> = arena.take_nodes();
    flex_nodes(
        &mut nodes,
        n,
        config,
        sim_config.seed,
        SimDriver::new,
        SimDriver::core_mut,
    )?;
    let origin_group = nodes[origin.index()].core().group_members().to_vec();

    let mut recorded = sim_config;
    recorded.record_receipts = true;
    let mut sim = Simulator::new_in(arena, graph, nodes, recorded);
    // `trigger` takes a `FnOnce`, so the payload can be moved in directly.
    sim.trigger(origin, |driver, ctx| {
        driver.drive(ctx, move |node, view, out| {
            node.start_broadcast(payload, view, out);
        });
    });
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    arena.store_nodes(nodes);
    Ok(FlexReport::from_metrics(metrics, origin_group))
}

/// Builds one configured [`FlexNode`] per overlay node — the prototypes a
/// steady-state session spawns per-transaction instances from.
///
/// The group formation and pairwise-key derivation are those of
/// [`run_flexible_broadcast_in`], so a steady-state trial sees exactly the
/// group landscape a single-broadcast trial at the same seed would.
///
/// `arena` is unused: set-up keeps nothing between trials. The parameter
/// stays because the frozen `benchmark/src/api.rs` calls this signature;
/// to be retired with the next benchmark issue (ROADMAP item 1d).
///
/// # Errors
///
/// Returns a [`HarnessError`] if the configuration is invalid or groups
/// cannot be formed (network smaller than `k`).
pub fn flex_steady_prototypes_in(
    _arena: &mut TrialArena,
    n: usize,
    config: FlexConfig,
    seed: u64,
) -> Result<Vec<FlexNode>, HarnessError> {
    config.validate()?;
    let mut nodes = Vec::with_capacity(n);
    flex_nodes(&mut nodes, n, config, seed, |node| node, |node| node)?;
    Ok(nodes)
}

/// The four dissemination strategies the experiments compare.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolKind {
    /// Plain flood-and-prune (no privacy).
    Flood,
    /// Dandelion stem/fluff.
    Dandelion(DandelionParams),
    /// Adaptive diffusion run to full dissemination.
    AdaptiveDiffusion(AdParams),
    /// The paper's flexible three-phase protocol.
    Flexible(FlexConfig),
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::Flood => write!(f, "flood"),
            ProtocolKind::Dandelion(_) => write!(f, "dandelion"),
            ProtocolKind::AdaptiveDiffusion(_) => write!(f, "adaptive-diffusion"),
            ProtocolKind::Flexible(config) => write!(f, "{config}"),
        }
    }
}

/// Runs one broadcast of `kind` from `origin` over `graph` and returns the
/// simulator metrics (with first receipts recorded, so adversary estimators
/// can be applied to the result; the full trace only if `sim_config` asks
/// for it).
///
/// # Errors
///
/// [`HarnessError::OriginOutOfRange`] for every kind if `origin` is not a
/// node of `graph`; [`ProtocolKind::Flexible`] additionally fails on an
/// invalid config (reported ahead of the origin) or if groups cannot be
/// formed. A baseline with a valid origin always succeeds.
pub fn run_protocol(
    kind: ProtocolKind,
    graph: Graph,
    origin: NodeId,
    sim_config: SimConfig,
) -> Result<Metrics, HarnessError> {
    run_protocol_in(&mut TrialArena::new(), kind, graph, origin, sim_config)
}

/// Like [`run_protocol`], but reuses `arena`'s pooled simulator storage
/// (recycle the returned [`Metrics`] via [`TrialArena::recycle_metrics`]
/// once aggregated).
///
/// # Errors
///
/// Same failure modes as [`run_protocol`].
pub fn run_protocol_in(
    arena: &mut TrialArena,
    kind: ProtocolKind,
    graph: Graph,
    origin: NodeId,
    sim_config: SimConfig,
) -> Result<Metrics, HarnessError> {
    // A flexible run that is wrong on both counts reports its config.
    if let ProtocolKind::Flexible(config) = &kind {
        config.validate()?;
    }
    check_origin(origin, graph.node_count())?;
    let mut recorded = sim_config;
    recorded.record_receipts = true;
    match kind {
        ProtocolKind::Flood => Ok(fnp_gossip::run_flood_in(arena, graph, origin, 1, recorded)),
        ProtocolKind::Dandelion(params) => {
            let mut rng = StdRng::seed_from_u64(recorded.seed ^ 0xDA4D_E110_u64);
            let line = StemLine::random(graph.node_count(), &mut rng);
            Ok(
                fnp_gossip::run_dandelion_in(arena, graph, &line, origin, 1, params, recorded)
                    .metrics,
            )
        }
        ProtocolKind::AdaptiveDiffusion(params) => {
            let node_count = graph.node_count();
            let mut nodes: Vec<SimDriver<AdaptiveDiffusionNode>> = arena.take_nodes();
            nodes.extend(
                (0..node_count).map(|_| SimDriver::new(AdaptiveDiffusionNode::new(params))),
            );
            let mut sim = Simulator::new_in(arena, graph, nodes, recorded);
            sim.trigger(origin, |driver, ctx| {
                driver.drive(ctx, |node, view, out| node.start_broadcast(view, out));
            });
            sim.run();
            let (nodes, metrics) = sim.into_parts_in(arena);
            arena.store_nodes(nodes);
            Ok(metrics)
        }
        ProtocolKind::Flexible(config) => {
            let payload = b"flexible broadcast payload".to_vec();
            run_flexible_broadcast_in(arena, graph, origin, payload, config, recorded)
                .map(|report| report.metrics)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::topology;

    fn overlay(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        topology::random_regular(n, 8, &mut rng).unwrap()
    }

    #[test]
    fn flexible_broadcast_reaches_every_node() {
        let graph = overlay(200, 1);
        let report = run_flexible_broadcast(
            graph,
            NodeId::new(17),
            b"pay 3 tokens to bob".to_vec(),
            FlexConfig::default(),
            SimConfig {
                seed: 1,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.coverage(),
            1.0,
            "metrics: {:?}",
            report.metrics.counters()
        );
        // All three phases actually ran.
        assert!(report.phase1_messages > 0, "phase 1 silent");
        assert!(report.phase2_messages > 0, "phase 2 silent");
        assert!(report.phase3_messages > 0, "phase 3 silent");
        assert_eq!(report.metrics.counter("flex-elected-vs"), 1);
        assert!(report.origin_group.contains(&NodeId::new(17)));
        assert!(report.origin_group.len() >= FlexConfig::default().k);
    }

    #[test]
    fn dc_phase_cost_scales_quadratically_with_k() {
        let graph = overlay(120, 2);
        let run = |k: usize| {
            run_flexible_broadcast(
                graph.clone(),
                NodeId::new(0),
                b"tx".to_vec(),
                FlexConfig::default().with_k(k),
                SimConfig {
                    seed: 2,
                    ..SimConfig::default()
                },
            )
            .unwrap()
            .phase1_messages
        };
        let small = run(4);
        let large = run(8);
        // Phase-1 cost grows superlinearly in k (quadratic per round, and the
        // group absorbs more rounds); allow a generous band around 4×.
        assert!(large > 2 * small, "k=4: {small}, k=8: {large}");
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let graph = overlay(50, 3);
        let err = run_flexible_broadcast(
            graph.clone(),
            NodeId::new(0),
            b"tx".to_vec(),
            FlexConfig::default().with_k(1),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::Config(_)));

        let err = run_flexible_broadcast(
            graph.clone(),
            NodeId::new(999),
            b"tx".to_vec(),
            FlexConfig::default(),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::OriginOutOfRange { .. }));

        // Network smaller than k.
        let tiny = topology::complete(3).unwrap();
        let err = run_flexible_broadcast(
            tiny,
            NodeId::new(0),
            b"tx".to_vec(),
            FlexConfig::default().with_k(5),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::Formation(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn an_oversize_payload_is_an_error_and_a_full_slot_still_delivers() {
        let capacity = fnp_dcnet::slot::capacity(FlexConfig::default().slot_len);
        assert_eq!(capacity, 292);
        let broadcast = |len: usize| {
            run_flexible_broadcast(
                overlay(100, 4),
                NodeId::new(0),
                vec![7; len],
                FlexConfig::default(),
                SimConfig {
                    seed: 4,
                    ..SimConfig::default()
                },
            )
        };
        assert_eq!(
            broadcast(1000).unwrap_err(),
            HarnessError::PayloadTooLarge {
                len: 1000,
                capacity: 292
            }
        );
        assert_eq!(broadcast(capacity).unwrap().coverage(), 1.0);
    }

    #[test]
    fn all_protocol_kinds_deliver_everywhere() {
        let graph = overlay(150, 4);
        let kinds = [
            ProtocolKind::Flood,
            ProtocolKind::Dandelion(DandelionParams::default()),
            ProtocolKind::AdaptiveDiffusion(AdParams {
                max_rounds: 64,
                ..AdParams::default()
            }),
            ProtocolKind::Flexible(FlexConfig::default()),
        ];
        let origin = NodeId::new(5);
        for kind in kinds {
            let metrics = run_protocol(
                kind,
                graph.clone(),
                origin,
                SimConfig {
                    seed: 4,
                    ..SimConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(metrics.coverage(), 1.0, "{kind} did not reach everyone");
            assert_eq!(metrics.trace.capacity(), 0, "{kind} should keep no log");
            let receipts = metrics.receipts().expect("receipts are recorded");
            for (node, delivered) in metrics.delivered_at.iter().enumerate() {
                // Only the origin delivers without having received anything.
                assert!(
                    delivered.is_none() || receipts[node].is_some() || node == origin.index(),
                    "{kind}: node {node} delivered without a receipt"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let graph = overlay(100, 5);
        let run = || {
            run_flexible_broadcast(
                graph.clone(),
                NodeId::new(3),
                b"tx".to_vec(),
                FlexConfig::default(),
                SimConfig {
                    seed: 77,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_messages(), b.total_messages());
        assert_eq!(a.metrics.delivered_at, b.metrics.delivered_at);
        assert_eq!(a.origin_group, b.origin_group);
    }

    #[test]
    fn reused_arena_reproduces_fresh_arena_broadcasts() {
        let graph = overlay(100, 6);
        let config = SimConfig {
            seed: 21,
            ..SimConfig::default()
        };
        let run = |arena: &mut TrialArena| {
            run_flexible_broadcast_in(
                arena,
                graph.clone(),
                NodeId::new(9),
                b"tx".to_vec(),
                FlexConfig::default(),
                config.clone(),
            )
            .unwrap()
        };

        let fresh = run(&mut TrialArena::new());
        let mut arena = TrialArena::new();
        let first = run(&mut arena);
        let second = run(&mut arena); // on the first run's pooled storage
        for report in [&first, &second] {
            assert_eq!(report.total_messages(), fresh.total_messages());
            assert_eq!(report.metrics.delivered_at, fresh.metrics.delivered_at);
            assert_eq!(report.origin_group, fresh.origin_group);
        }
    }

    #[test]
    fn reused_arena_reproduces_a_fresh_arena_when_the_seed_changes() {
        let graph = overlay(100, 6);
        let run = |arena: &mut TrialArena, seed: u64| {
            run_flexible_broadcast_in(
                arena,
                graph.clone(),
                NodeId::new(9),
                b"tx".to_vec(),
                FlexConfig::default(),
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let mut arena = TrialArena::new();
        run(&mut arena, 1);
        let reseeded = run(&mut arena, 2); // nothing of seed 1 may show
        let fresh = run(&mut TrialArena::new(), 2);
        assert_eq!(reseeded.total_messages(), fresh.total_messages());
        assert_eq!(reseeded.metrics.delivered_at, fresh.metrics.delivered_at);
    }

    #[test]
    fn baselines_and_flexible_reject_an_out_of_range_origin() {
        let kinds = [
            ProtocolKind::Flood,
            ProtocolKind::Dandelion(DandelionParams::default()),
            ProtocolKind::AdaptiveDiffusion(AdParams::default()),
            ProtocolKind::Flexible(FlexConfig::default()),
        ];
        for kind in kinds {
            // One past the last node, and far past it.
            for origin in [10, 999] {
                let err = run_protocol(
                    kind,
                    topology::ring(10).unwrap(),
                    NodeId::new(origin),
                    SimConfig::default(),
                )
                .unwrap_err();
                assert_eq!(
                    err,
                    HarnessError::OriginOutOfRange {
                        origin: NodeId::new(origin),
                        nodes: 10
                    },
                    "{kind}"
                );
            }
        }
        // Wrong on both counts: the config is reported, as before.
        let err = run_protocol(
            ProtocolKind::Flexible(FlexConfig::default().with_k(1)),
            topology::ring(10).unwrap(),
            NodeId::new(10),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::Config(_)), "{err}");
    }

    #[test]
    fn steady_flexible_broadcasts_overlap_and_cover() {
        use fnp_proto::steady::{run_steady_in, Arrival};
        let n = 60;
        let graph = overlay(n, 8);
        let mut arena = TrialArena::new();
        // Two transactions injected half a second apart: the second arrives
        // while the first is still in its DC-net phase, so their rounds
        // genuinely overlap on the origin's group.
        let arrivals = [
            Arrival {
                at: 1,
                origin: NodeId::new(10),
            },
            Arrival {
                at: 500_000,
                origin: NodeId::new(10),
            },
            Arrival {
                at: 700_000,
                origin: NodeId::new(33),
            },
        ];
        let prototypes =
            flex_steady_prototypes_in(&mut arena, n, FlexConfig::default(), 8).unwrap();
        let (metrics, report) = run_steady_in(
            &mut arena,
            graph,
            prototypes,
            &arrivals,
            &[NodeId::new(5)],
            3,
            SimConfig {
                seed: 8,
                ..SimConfig::default()
            },
        );
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            assert_eq!(
                outcome.delivered_count, n,
                "tx {tx} did not reach the whole overlay"
            );
            assert!(outcome.first_miner_delivery.is_some(), "tx {tx}");
            assert!(outcome.completed_at.is_some(), "tx {tx} never drained");
        }
        assert!(report.peak_concurrent >= 2, "broadcasts should overlap");
        // Each transaction pays its own DC-net phase: at least two rounds'
        // worth of contributions crossed the wire.
        assert!(metrics.messages_of_kind("flex-dc") > 0);
    }

    #[test]
    fn node_key_pairs_are_deterministic_and_distinct() {
        let a = node_key_pair(NodeId::new(1), 7);
        let b = node_key_pair(NodeId::new(1), 7);
        let c = node_key_pair(NodeId::new(2), 7);
        assert_eq!(a.public_key(), b.public_key());
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn protocol_kind_display() {
        assert_eq!(ProtocolKind::Flood.to_string(), "flood");
        assert!(ProtocolKind::Flexible(FlexConfig::default())
            .to_string()
            .contains("k=5"));
    }
}
