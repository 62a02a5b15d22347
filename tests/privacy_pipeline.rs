//! Integration tests of the privacy pipeline: run a broadcast, let the
//! adversary watch it, and check that the measured privacy matches the
//! qualitative claims of the paper (§V-B): the flexible protocol is harder
//! to deanonymise than plain flooding, and the DC-net group shields the
//! originator even from an adversary that observes most of the overlay.

use fnp_adversary::{first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment};
use fnp_core::{run_flexible_broadcast, run_protocol, FlexConfig, ProtocolKind, PHASE1_KINDS};
use fnp_netsim::{topology, Metrics, NodeId, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 200;
const RUNS: usize = 12;
const ADVERSARY_FRACTION: f64 = 0.2;

/// Runs `RUNS` attacked broadcasts of `kind` and returns the first-spy
/// detection probability.
fn detection_probability(kind: ProtocolKind, base_seed: u64) -> f64 {
    let mut experiment = PrivacyExperiment::new();
    for run in 0..RUNS {
        let seed = base_seed + run as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(N, 8, &mut rng).unwrap();
        let origin = NodeId::new(rng.gen_range(0..N));
        let metrics = run_protocol(
            kind,
            graph,
            origin,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .expect("protocol run");
        assert_eq!(metrics.coverage(), 1.0);
        let adversaries = AdversarySet::random_fraction(N, ADVERSARY_FRACTION, &[origin], &mut rng);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        experiment.record(AttackOutcome {
            origin,
            estimate: first_spy(&view),
        });
    }
    experiment.detection_probability()
}

#[test]
fn flexible_protocol_is_harder_to_deanonymise_than_flooding() {
    let flood = detection_probability(ProtocolKind::Flood, 100);
    let flexible = detection_probability(ProtocolKind::Flexible(FlexConfig::default()), 100);
    // Flooding falls to the first-spy attack in a large fraction of runs;
    // the flexible protocol's phase 1+2 should cut that substantially.
    assert!(flood > 0.3, "flooding unexpectedly private: {flood}");
    assert!(
        flexible < flood,
        "flexible ({flexible}) should beat flooding ({flood})"
    );
}

#[test]
fn first_spy_never_sees_inside_the_dc_group() {
    // Against the flexible protocol the first relayer an adversary observes
    // is (almost always) a diffusion/flood relayer, not the DC-net
    // originator itself; the originator's own transmissions in phase 1 go
    // only to its group members, and in this test the whole group is honest.
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(N, 8, &mut rng).unwrap();
        let origin = NodeId::new(rng.gen_range(0..N));
        let report = run_flexible_broadcast(
            graph,
            origin,
            b"group shield tx".to_vec(),
            FlexConfig::default(),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
        .unwrap();
        // Adversary everywhere except the originator's group.
        let adversaries = AdversarySet::random_fraction(N, 0.5, &report.origin_group, &mut rng);
        let view = AdversaryView::from_metrics(&report.metrics, &adversaries);
        if let Some(estimate) = first_spy(&view).best_guess {
            // The blamed node is whoever relayed into the adversary set first;
            // the protocol's goal is that this is *not reliably* the origin.
            // Over five seeds the origin must not be blamed every single time.
            if estimate != origin {
                return;
            }
        }
    }
    panic!("the first-spy attack identified the originator in every run");
}

#[test]
fn detection_probability_grows_with_adversary_fraction() {
    // Sanity check of the whole pipeline: more observers can only help the
    // attacker (monotone in expectation; we allow small-sample noise by
    // comparing the extremes).
    let mut detection = Vec::new();
    for fraction in [0.05, 0.4] {
        let mut experiment = PrivacyExperiment::new();
        for run in 0..RUNS {
            let seed = 500 + run as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = topology::random_regular(N, 8, &mut rng).unwrap();
            let origin = NodeId::new(rng.gen_range(0..N));
            let metrics = run_protocol(
                ProtocolKind::Flood,
                graph,
                origin,
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            let adversaries = AdversarySet::random_fraction(N, fraction, &[origin], &mut rng);
            assert_eq!(adversaries.fraction(), fraction);
            let view = AdversaryView::from_metrics(&metrics, &adversaries);
            experiment.record(AttackOutcome {
                origin,
                estimate: first_spy(&view),
            });
        }
        detection.push(experiment.detection_probability());
    }
    assert!(
        detection[1] >= detection[0],
        "5% adversary: {}, 40% adversary: {}",
        detection[0],
        detection[1]
    );
}

/// Sender of the earliest `(at, from, to)` trace entry whose kind is not
/// exempt: whom an eavesdropper on every link blames.
fn first_wire_sender(metrics: &Metrics, exempt: &[&str]) -> Option<NodeId> {
    metrics
        .trace
        .iter()
        .filter(|entry| !exempt.contains(&entry.kind))
        .min_by_key(|entry| (entry.at, entry.from, entry.to))
        .map(|entry| entry.from)
}

#[test]
fn the_first_message_on_the_wire_names_the_flood_origin_only() {
    // The paper's premise (§I): network traffic reveals who sent a
    // transaction. Under flooding the earliest message on any link comes
    // from the originator, every time. Under the flexible protocol the
    // DC-net shares are exempt (every group member sends one each round,
    // payload or not), and the earliest remaining message comes from the
    // elected virtual source in the origin's group: the origin itself only
    // when the election picks it (seed 4). Pinned per seed.
    const FLEXIBLE_SENDERS: [usize; 8] = [112, 90, 26, 85, 69, 141, 80, 10];
    for (seed, expected) in (0..).zip(FLEXIBLE_SENDERS) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(N, 8, &mut rng).unwrap();
        let origin = NodeId::new(rng.gen_range(0..N));
        let traced = |kind| {
            let config = SimConfig {
                seed,
                record_trace: true,
                ..SimConfig::default()
            };
            run_protocol(kind, graph.clone(), origin, config).unwrap()
        };
        let flood = traced(ProtocolKind::Flood);
        assert_eq!(first_wire_sender(&flood, &[]), Some(origin), "seed {seed}");
        let flexible = traced(ProtocolKind::Flexible(FlexConfig::default()));
        assert_eq!(
            first_wire_sender(&flexible, PHASE1_KINDS),
            Some(NodeId::new(expected)),
            "seed {seed}"
        );
    }
}

#[test]
fn estimates_are_deterministic_for_a_fixed_trace() {
    let mut rng = StdRng::seed_from_u64(9);
    let graph = topology::random_regular(N, 8, &mut rng).unwrap();
    let origin = NodeId::new(3);
    let metrics = run_protocol(
        ProtocolKind::Flood,
        graph,
        origin,
        SimConfig {
            seed: 9,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let adversaries = AdversarySet::from_nodes(N, (10..50).map(NodeId::new));
    let view_a = AdversaryView::from_metrics(&metrics, &adversaries);
    let view_b = AdversaryView::from_metrics(&metrics, &adversaries);
    assert_eq!(view_a, view_b);
    assert_eq!(first_spy(&view_a).best_guess, first_spy(&view_b).best_guess);
}

#[test]
fn truncated_simulation_degrades_gracefully() {
    // Failure injection: cut the simulation off long before the flood phase
    // can finish. Nothing should panic, coverage is partial, and the phase
    // accounting still adds up.
    let mut rng = StdRng::seed_from_u64(21);
    let graph = topology::random_regular(N, 8, &mut rng).unwrap();
    let report = run_flexible_broadcast(
        graph,
        NodeId::new(0),
        b"truncated tx".to_vec(),
        FlexConfig::default(),
        SimConfig {
            seed: 21,
            max_time: 900_000, // 0.9 simulated seconds: within the DC phase
            ..SimConfig::default()
        },
    )
    .unwrap();
    assert!(report.coverage() < 1.0);
    assert_eq!(
        report.phase1_messages + report.phase2_messages + report.phase3_messages,
        report.total_messages()
    );
}
