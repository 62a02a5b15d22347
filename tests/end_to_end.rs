//! Cross-crate integration tests: the full flexible broadcast pipeline from
//! group formation through DC-net, adaptive diffusion and flooding, checked
//! against the delivery and determinism guarantees the paper relies on.

use fnp_core::{run_flexible_broadcast, run_protocol, ElectionStrategy, FlexConfig, ProtocolKind};
use fnp_diffusion::AdParams;
use fnp_gossip::DandelionParams;
use fnp_netsim::{topology, NodeId, SimConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn overlay(n: usize, degree: usize, seed: u64) -> fnp_netsim::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    topology::random_regular(n, degree, &mut rng).unwrap()
}

#[test]
fn flexible_broadcast_delivers_on_multiple_topologies() {
    let topologies = [
        Topology::RandomRegular { degree: 8 },
        Topology::ErdosRenyi {
            edge_probability: 0.04,
        },
        Topology::WattsStrogatz {
            k: 6,
            rewire_probability: 0.2,
        },
        Topology::BarabasiAlbert { attachment: 4 },
    ];
    for (index, family) in topologies.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(index as u64);
        let graph = family.generate(300, &mut rng).unwrap();
        let report = run_flexible_broadcast(
            graph,
            NodeId::new(7),
            b"integration tx".to_vec(),
            FlexConfig::default(),
            SimConfig {
                seed: index as u64,
                ..SimConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(
            report.coverage(),
            1.0,
            "{family} did not reach full coverage"
        );
        assert!(
            report.phase1_messages > 0 && report.phase2_messages > 0 && report.phase3_messages > 0
        );
    }
}

#[test]
fn flexible_broadcast_delivers_from_any_origin() {
    let graph = overlay(200, 8, 11);
    for origin in [0usize, 57, 121, 199] {
        let report = run_flexible_broadcast(
            graph.clone(),
            NodeId::new(origin),
            format!("tx from {origin}").into_bytes(),
            FlexConfig::default(),
            SimConfig {
                seed: origin as u64,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.coverage(), 1.0, "origin {origin}");
        assert!(report.origin_group.contains(&NodeId::new(origin)));
    }
}

#[test]
fn parameter_sweep_keeps_delivery_guarantee() {
    let graph = overlay(200, 8, 12);
    for k in [3usize, 5, 8] {
        for d in [1u32, 4, 8] {
            let config = FlexConfig::default().with_k(k).with_d(d);
            let report = run_flexible_broadcast(
                graph.clone(),
                NodeId::new(3),
                b"sweep tx".to_vec(),
                config,
                SimConfig {
                    seed: (k as u64) * 100 + d as u64,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            assert_eq!(report.coverage(), 1.0, "k={k} d={d}");
            assert!(
                report.origin_group.len() >= k && report.origin_group.len() < 2 * k,
                "group size {} outside [{k}, {}]",
                report.origin_group.len(),
                2 * k - 1
            );
        }
    }
}

#[test]
fn larger_d_costs_more_diffusion_messages() {
    let graph = overlay(300, 8, 13);
    let run = |d: u32| {
        run_flexible_broadcast(
            graph.clone(),
            NodeId::new(9),
            b"tx".to_vec(),
            FlexConfig::default().with_d(d),
            SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
        )
        .unwrap()
    };
    let shallow = run(1);
    let deep = run(8);
    assert!(
        deep.phase2_messages > shallow.phase2_messages,
        "d=1: {}, d=8: {}",
        shallow.phase2_messages,
        deep.phase2_messages
    );
    // Regardless of d, delivery is guaranteed by phase 3.
    assert_eq!(shallow.coverage(), 1.0);
    assert_eq!(deep.coverage(), 1.0);
}

#[test]
fn all_four_protocols_deliver_and_are_deterministic() {
    let graph = overlay(250, 8, 14);
    let kinds = [
        ProtocolKind::Flood,
        ProtocolKind::Dandelion(DandelionParams::default()),
        ProtocolKind::AdaptiveDiffusion(AdParams {
            max_rounds: 96,
            ..AdParams::default()
        }),
        ProtocolKind::Flexible(FlexConfig::default()),
    ];
    for kind in kinds {
        let run = || {
            run_protocol(
                kind,
                graph.clone(),
                NodeId::new(17),
                SimConfig {
                    seed: 3,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.coverage(), 1.0, "{kind}");
        assert_eq!(a.messages_sent, b.messages_sent, "{kind} not deterministic");
        assert_eq!(a.delivered_at, b.delivered_at, "{kind} not deterministic");
    }
}

#[test]
fn phase_breakdown_accounts_for_all_messages() {
    let graph = overlay(200, 8, 15);
    let report = run_flexible_broadcast(
        graph,
        NodeId::new(0),
        b"accounting tx".to_vec(),
        FlexConfig::default(),
        SimConfig {
            seed: 1,
            ..SimConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        report.phase1_messages + report.phase2_messages + report.phase3_messages,
        report.total_messages(),
        "every message must belong to exactly one phase"
    );
    assert_eq!(
        report.phase1_bytes + report.phase2_bytes + report.phase3_bytes,
        report.metrics.bytes_sent,
    );
}

#[test]
fn ablated_election_still_delivers_to_everyone() {
    // The ablation only changes *who* becomes the virtual source, not the
    // delivery machinery; coverage must stay at 100 % for both strategies.
    for strategy in [
        ElectionStrategy::HashBased,
        ElectionStrategy::OriginatorAsSource,
    ] {
        let config = FlexConfig::default().with_election(strategy);
        let metrics = run_protocol(
            ProtocolKind::Flexible(config),
            overlay(200, 8, 7),
            NodeId::new(33),
            SimConfig {
                seed: 7,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(metrics.coverage(), 1.0, "{strategy:?} lost coverage");
    }
}
