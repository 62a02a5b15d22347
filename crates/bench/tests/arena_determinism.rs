//! Arena reuse must be observationally invisible.
//!
//! Each `TrialRunner` worker hands one reusable `TrialArena` (overlay
//! adjacency, node storage, event queue, metrics, hot lanes) to every trial
//! it executes; a trial therefore runs on storage *reset* from the previous
//! trial rather than freshly allocated. These tests pin the contract that
//! the reset is complete:
//!
//! * at the trial level, running trials A then B through one reused arena
//!   (including across protocol types, which exercises the type-erased
//!   pools) yields byte-identical metrics for B compared to a fresh arena;
//! * at the driver level, rows computed with per-worker arena reuse are
//!   byte-identical to rows computed with a brand-new arena per trial
//!   ([`TrialRunner::with_fresh_arenas`]), across {1, 2, 4} worker threads
//!   (each thread count distributes trials — and hence arena histories —
//!   differently over the workers).
//!
//! Rows are compared through their `Debug` rendering, which for `f64`
//! prints the shortest round-trip representation — two renderings are equal
//! exactly when every field is bit-identical.

use fnp_bench::{TrialArena, TrialRunner};
use fnp_core::{run_protocol, run_protocol_in, FlexConfig, ProtocolKind};
use fnp_netsim::{NodeId, SimConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn assert_reuse_matches_fresh<R: std::fmt::Debug>(
    experiment: &str,
    run: impl Fn(&TrialRunner) -> R,
) {
    let fresh = format!("{:?}", run(&TrialRunner::sequential().with_fresh_arenas()));
    for threads in THREAD_COUNTS {
        let reused = format!("{:?}", run(&TrialRunner::new(threads)));
        assert_eq!(
            reused, fresh,
            "{experiment}: {threads}-thread arena-reusing run diverged from fresh-arena run"
        );
    }
}

#[test]
fn trials_a_then_b_in_one_arena_match_fresh_arena_runs() {
    // One arena runs a chain of trials over *different* protocols, overlay
    // sizes and seeds — maximal cross-trial contamination surface (the
    // type-erased node/queue pools get checked out under changing types,
    // graphs shrink and grow). Every trial must match the same trial run on
    // a fresh arena.
    let kinds = [
        ("flood", ProtocolKind::Flood),
        (
            "dandelion",
            ProtocolKind::Dandelion(fnp_gossip::DandelionParams::default()),
        ),
        (
            "adaptive-diffusion",
            ProtocolKind::AdaptiveDiffusion(fnp_diffusion::AdParams {
                max_rounds: 48,
                ..fnp_diffusion::AdParams::default()
            }),
        ),
        ("flexible", ProtocolKind::Flexible(FlexConfig::default())),
    ];
    let mut arena = TrialArena::new();
    for (trial, &(label, kind)) in kinds.iter().chain(kinds.iter()).enumerate() {
        let n = [60, 80, 40][trial % 3];
        let seed = 100 + trial as u64;
        let config = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let graph = fnp_bench::standard_overlay_in(&mut arena, n, seed);
        let reused = run_protocol_in(
            &mut arena,
            kind,
            graph,
            NodeId::new(trial % n),
            config.clone(),
        )
        .expect("protocol run");
        let fresh = run_protocol(
            kind,
            fnp_bench::standard_overlay_in(&mut TrialArena::new(), n, seed),
            NodeId::new(trial % n),
            config,
        )
        .expect("protocol run");
        assert_eq!(
            format!("{reused:?}"),
            format!("{fresh:?}"),
            "trial {trial} ({label}, n={n}) diverged in the reused arena"
        );
        arena.recycle_metrics(reused);
    }
}

#[test]
fn growing_then_shrinking_the_overlay_leaves_no_stale_state() {
    // The overlay grows, shrinks hard, and grows back — all under the SAME
    // protocol and seed, so every pooled buffer (adjacency lanes, node
    // vector, time-wheel, the overlay generator's scratch, the group-key
    // cache) is genuinely reused at a new size instead of being discarded
    // by a type mismatch. A stale lane from the 300-node trial leaking into
    // the following 50-node trial would diverge from the fresh-arena run.
    let sizes = [50usize, 300, 50, 300, 80];
    for kind in [
        ProtocolKind::Flood,
        ProtocolKind::Flexible(FlexConfig::default()),
    ] {
        let mut arena = TrialArena::new();
        for (trial, &n) in sizes.iter().enumerate() {
            let config = SimConfig {
                seed: 9,
                ..SimConfig::default()
            };
            let graph = fnp_bench::standard_overlay_in(&mut arena, n, 9);
            let origin = NodeId::new(n - 1);
            let reused = run_protocol_in(&mut arena, kind, graph, origin, config.clone())
                .expect("protocol run");
            let fresh = run_protocol(
                kind,
                fnp_bench::standard_overlay_in(&mut TrialArena::new(), n, 9),
                origin,
                config,
            )
            .expect("protocol run");
            assert_eq!(
                format!("{reused:?}"),
                format!("{fresh:?}"),
                "trial {trial} ({kind}, n={n}) diverged after a grow/shrink cycle"
            );
            // The first-receipt table is pooled with the metrics: a receipt
            // of the 300-node trial must not survive into the 50-node one.
            let receipts = reused.receipts().expect("run_protocol_in records receipts");
            assert_eq!(receipts.len(), n);
            assert_eq!(Some(receipts), fresh.receipts(), "trial {trial} ({kind})");
            arena.recycle_metrics(reused);
        }
        // An unrecorded run on the same arena hands back no table at all.
        let graph = fnp_bench::standard_overlay_in(&mut arena, 50, 9);
        let unrecorded =
            fnp_gossip::run_flood_in(&mut arena, graph, NodeId::new(0), 1, SimConfig::default());
        assert!(unrecorded.receipts().is_none());
    }
}

#[test]
fn landscape_rows_match_fresh_arena_rows() {
    assert_reuse_matches_fresh("landscape", |runner| {
        fnp_bench::landscape_with(runner, 60, 4, &[0.2], 11)
    });
}

#[test]
fn flood_deanonymization_rows_match_fresh_arena_rows() {
    assert_reuse_matches_fresh("flood_deanonymization", |runner| {
        fnp_bench::flood_deanonymization_with(runner, &[80, 40], &[0.2], 3, 12)
    });
}

#[test]
fn three_phase_rows_match_fresh_arena_rows() {
    assert_reuse_matches_fresh("three_phase_breakdown", |runner| {
        fnp_bench::three_phase_breakdown_with(runner, 60, &[3], &[2, 4], 3, 15)
    });
}

#[test]
fn latency_rows_match_fresh_arena_rows() {
    assert_reuse_matches_fresh("latency", |runner| {
        fnp_bench::latency_with(runner, 60, 4, 17)
    });
}

#[test]
fn steady_state_rows_match_fresh_arena_rows() {
    // Steady-state trials lease per-transaction hot lanes from the arena's
    // pools, run four different node types through the type-erased node
    // storage and hand their instance rows back to the arena, where the
    // next trial of the same protocol — the higher rate after the lower —
    // finds them; a stale lane, session or instance left by a previous
    // trial would show up as a row difference against the fresh-arena run.
    assert_reuse_matches_fresh("steady_state", |runner| {
        fnp_bench::steady_state_with(runner, 50, 10, 2, &[2.0, 8.0], 2 * fnp_netsim::SECOND, 22)
    });
}

#[test]
fn dandelion_rows_match_fresh_arena_rows() {
    assert_reuse_matches_fresh("dandelion_privacy", |runner| {
        fnp_bench::dandelion_privacy_with(runner, 70, &[0.2], &[0.5, 0.9], 3, 13)
    });
}
