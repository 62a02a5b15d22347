//! Allocation wall for the event queue: a trial's heap traffic follows the
//! events it has in flight, not the buckets they pass through.
//!
//! Adaptive diffusion at the paper's `n` is the trial that tells the two
//! apart. Each of its 96 rounds sends a spread wave of a few thousand
//! messages down the infection tree and lets it drain before the next, so
//! the queue never holds much more than one wave — a few hundred kilobytes
//! of events — while over the trial the waves land in every bucket of the
//! time wheel in turn. A wheel whose buckets each keep the buffer they grew
//! requests 9.5 MB for that trial on a cold arena and 2.6 MB more on the
//! next seed, whose waves fall differently; one that draws fixed chunks
//! from a shared free list requests what a wave needs, once.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! keeps, for the measuring thread, the bytes requested so far and the
//! bytes live now. CI runs this wall in release mode: in a debug build the
//! time wheel carries a shadow heap whose growth the bounds would measure
//! instead.

use fnp_diffusion::{run_adaptive_diffusion_in, AdParams, AdaptiveDiffusionNode};
use fnp_netsim::{topology, Graph, Metrics, NodeId, SimConfig, Simulator, TrialArena};
use fnp_proto::SimDriver;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The paper grid's overlay size and degree.
const NODES: usize = 1000;

/// Bytes the first trial on a fresh arena may request. Measured: 0.88 MB —
/// the wheel's chunks for one wave, `current` doubling up to the fullest
/// bucket, the first-receipt table, metrics, hot lanes, a thousand nodes
/// and their child lists. Per-bucket buffers read 9.49 MB.
const COLD_BOUND: u64 = 2 << 20;

/// Bytes a later seed may request on the arena the first one warmed: its
/// nodes' child lists, and the few chunks by which its largest wave
/// exceeds the largest so far. Measured: 51 KB each; per-bucket buffers,
/// which every seed's waves fill differently, read 2.61 MB and 1.11 MB.
const WARM_BOUND: u64 = 256 << 10;

/// Bytes the arena may hold once the trials are done: the overlay, the
/// node vector, metrics with the receipt table, hot lanes, and the queue
/// — the only part that depends on what ran. Measured: 0.62 MB; with
/// per-bucket buffers 6.68 MB.
const LIVE_BOUND: i64 = 1 << 20;

/// One adaptive-diffusion broadcast run to quiescence — all 96 rounds, as
/// `fnp_core::run_protocol_in` runs it for the paper grid, not cut off at
/// full coverage as `run_adaptive_diffusion_in` is — on `arena`.
fn trial(arena: &mut TrialArena, graph: Graph, seed: u64) -> Metrics {
    let params = AdParams {
        max_rounds: 96,
        ..AdParams::default()
    };
    let mut nodes: Vec<SimDriver<AdaptiveDiffusionNode>> = arena.take_nodes();
    let node = SimDriver::new(AdaptiveDiffusionNode::new(params));
    nodes.extend(std::iter::repeat_n(node, NODES));
    let config = SimConfig {
        seed,
        record_receipts: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new_in(arena, graph, nodes, config);
    sim.trigger(NodeId::new(7 * seed as usize), |driver, ctx| {
        driver.drive(ctx, |node, view, out| node.start_broadcast(view, out));
    });
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    arena.store_nodes(nodes);
    metrics
}

#[test]
fn an_adaptive_diffusion_trial_requests_what_its_waves_need_once() {
    let graph = topology::random_regular(NODES, 8, &mut StdRng::seed_from_u64(3)).expect("overlay");
    // Armed for the whole test, so the live count sees a buffer allocated
    // by one trial and freed by the next.
    counting_alloc::arm();
    let mut arena = TrialArena::new();
    let trials: Vec<u64> = [2u64, 3, 4]
        .into_iter()
        .map(|seed| {
            let graph = graph.clone();
            let before = counting_alloc::heap().requested;
            let metrics = trial(&mut arena, graph, seed);
            assert_eq!(metrics.coverage(), 1.0, "seed {seed} did not cover");
            // 288 086, 242 550 and 318 909 messages: no trial is small
            // beside the one that warmed the arena.
            assert!(metrics.messages_sent > 200_000);
            arena.recycle_metrics(metrics);
            counting_alloc::heap().requested - before
        })
        .collect();
    let held = counting_alloc::disarm().live;

    assert!(
        trials[0] <= COLD_BOUND,
        "the cold trial requested {} B",
        trials[0]
    );
    assert!(
        trials[1..].iter().all(|&warm| warm <= WARM_BOUND),
        "bytes requested per trial: {trials:?}"
    );
    assert!(held <= LIVE_BOUND, "the arena holds {held} B");
}

/// Bytes a warm trial over `NODES` isolated nodes may request: one
/// parameter block shared by every node (48 B with its reference counts)
/// and the origin's first effect buffer (160 B). Nothing spreads, so
/// nothing else is asked of the heap. Measured: 208 B. A parameter block
/// per node reads 48 000 B more; re-boxing the pooled event queue every
/// trial read 4 304 B more.
const SET_UP_BOUND: u64 = 256;

#[test]
fn an_n_node_set_up_requests_one_parameter_block() {
    let mut arena = TrialArena::new();
    let trial = |arena: &mut TrialArena| {
        let graph = arena.graph(NODES);
        let report = run_adaptive_diffusion_in(
            arena,
            graph,
            NodeId::new(0),
            AdParams::default(),
            SimConfig::default(),
        );
        assert_eq!(report.metrics.delivered_count(), 1, "the origin alone");
        arena.recycle_metrics(report.metrics);
    };
    // The first trial warms the arena's pooled simulator storage.
    trial(&mut arena);
    let requested = counting_alloc::measure(|| trial(&mut arena)).requested;
    assert!(
        requested <= SET_UP_BOUND,
        "{requested} B for a warm trial over {NODES} isolated nodes (bound {SET_UP_BOUND})"
    );
}
