//! `steady_mix` — overlapping Poisson-arrival broadcasts plus mempool replay.
//!
//! One unit is `steady_state_with(n = 300, miners = 12, runs = 1,
//! rates = [2, 8], horizon = 6 s)`: 8 sessions (4 protocols × 2 rates). It
//! uses the same simulator as the flood and grid workloads *differently* —
//! many concurrent broadcasts through `SteadyNode`'s maps, `LanePool`
//! leasing and the retained latency samples — so a single-broadcast
//! optimisation that taxes the multiplexer shows here. One op is one
//! injected transaction carried to retirement.

use crate::alloc;
use crate::api::{
    derive_seed, flex_steady_prototypes_in, percentile, poisson_arrivals, replay_steady_mempool,
    run_flood_in, run_steady_in, standard_overlay_in, steady_state_with, AdParams,
    AdaptiveDiffusionNode, Arrival, DandelionNode, DandelionParams, FlexConfig, FloodNode, Graph,
    LanePool, Mempool, Metrics, MinerDelivery, MinerSet, NodeId, ProtocolKind, Rng, SeedableRng,
    SimConfig, SimTime, StdRng, SteadyMempoolConfig, SteadyReport, StemLine, Transaction,
    TrialArena, TrialRunner, SECOND,
};
use crate::harness::{pooled_unit_seed, Layers, Meter, Model, Traced, Unit, Workload, UNIT_SPAN};
use crate::stats::{median, Fnv};
use crate::trace::Recorder;
use crate::workloads::flood_large::TX_ID;
use crate::workloads::ns_per_iteration;
use std::hint::black_box;
use std::time::Instant;

/// Overlay size.
pub const NODES: usize = 300;
/// Nodes `0..MINERS` mine.
pub const MINERS: usize = 12;
/// Arrival rates swept, in transactions per simulated second.
pub const RATES: [f64; 2] = [2.0, 8.0];
/// Arrival window of a session.
pub const HORIZON: SimTime = 6 * SECOND;
const DEGREE: usize = 8;

/// What the checks and the digest need of one protocol × rate cell; both
/// the driver's rows and the decomposed sessions reduce to this.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    protocol: &'static str,
    rate: f64,
    injected: usize,
    delivered_fraction: f64,
    included_fraction: f64,
    peak_concurrent: usize,
    messages_per_tx: f64,
    p99_delivery_ms: f64,
}

/// Invariants of the eight cells. Adaptive diffusion is exempt from full
/// delivery: its moderated round budget stops short of everyone by design.
fn check(cells: &[Cell]) -> Option<String> {
    if cells.len() != 4 * RATES.len() {
        return Some(format!(
            "{} cells, expected {}",
            cells.len(),
            4 * RATES.len()
        ));
    }
    for cell in cells {
        let Cell { protocol, rate, .. } = cell;
        if cell.injected == 0 {
            return Some(format!("{protocol} at rate {rate} injected nothing"));
        }
        if *protocol != "adaptive-diffusion" && cell.delivered_fraction != 1.0 {
            return Some(format!(
                "{protocol} at rate {rate} delivered {} of its (tx, node) pairs",
                cell.delivered_fraction
            ));
        }
        if cell.included_fraction > 1.0 {
            return Some(format!(
                "{protocol} at rate {rate} included more than it injected"
            ));
        }
        if *rate == 8.0 && cell.peak_concurrent < 2 {
            return Some(format!(
                "{protocol} at rate 8 never overlapped two broadcasts"
            ));
        }
    }
    None
}

fn finish(cells: &[Cell], mut model: Model) -> Unit {
    let mut digest = Fnv::default();
    for cell in cells {
        digest.bytes(cell.protocol.as_bytes());
        digest.u64(cell.injected as u64);
        digest.u64(cell.peak_concurrent as u64);
        for value in [
            cell.rate,
            cell.delivered_fraction,
            cell.included_fraction,
            cell.messages_per_tx,
            cell.p99_delivery_ms,
        ] {
            digest.f64(value);
        }
    }
    let messages: f64 = cells
        .iter()
        .map(|cell| cell.messages_per_tx * cell.injected as f64)
        .sum();
    model.msgs = messages.round() as u64;
    Unit {
        ops: cells.iter().map(|cell| cell.injected as u64).sum(),
        failure: check(cells),
        model,
        digest: digest.finish(),
    }
}

/// Set-up state: none beyond the arena the decomposed sessions share.
#[derive(Debug)]
pub struct SteadyMix;

fn base_seed(unit_seed: u64) -> u64 {
    unit_seed >> 8
}

/// The protocol suite of `steady_state_with`, with the span each session
/// runs under.
fn suite() -> [(&'static str, &'static str, ProtocolKind); 4] {
    [
        ("flood", "proto.steady.session.flood", ProtocolKind::Flood),
        (
            "dandelion",
            "proto.steady.session.dandelion",
            ProtocolKind::Dandelion(DandelionParams::default()),
        ),
        (
            "adaptive-diffusion",
            "proto.steady.session.diffusion",
            ProtocolKind::AdaptiveDiffusion(AdParams {
                max_rounds: 32,
                ..AdParams::default()
            }),
        ),
        (
            "flexible",
            "proto.steady.session.flexible",
            ProtocolKind::Flexible(FlexConfig::default()),
        ),
    ]
}

const TX_BYTES: usize = 250;

/// The inputs of one session, drawn as the driver's private `steady_trial`
/// draws them.
struct Session {
    rng: StdRng,
    arrivals: Vec<Arrival>,
    adversaries: Vec<NodeId>,
}

fn session_inputs(rate: f64, seed: u64) -> Session {
    let mut rng = StdRng::seed_from_u64(seed);
    let adversary_count = (NODES / 10).max(1);
    let mut outsiders: Vec<NodeId> = (MINERS..NODES).map(NodeId::new).collect();
    for i in 0..adversary_count {
        let j = rng.gen_range(i..outsiders.len());
        outsiders.swap(i, j);
    }
    let adversaries = outsiders[..adversary_count].to_vec();
    let senders = &outsiders[adversary_count..];
    let times = poisson_arrivals(rate, HORIZON, &mut rng).expect("positive finite rate");
    let arrivals = times
        .into_iter()
        .map(|at| Arrival {
            at,
            origin: senders[rng.gen_range(0..senders.len())],
        })
        .collect();
    Session {
        rng,
        arrivals,
        adversaries,
    }
}

/// Runs one session of `kind` over `graph`.
fn run_session(
    arena: &mut TrialArena,
    graph: Graph,
    kind: ProtocolKind,
    session: &mut Session,
    seed: u64,
    recorder: &mut Recorder,
    span: &'static str,
) -> (Metrics, SteadyReport) {
    let config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let Session {
        rng,
        arrivals,
        adversaries,
    } = session;
    match kind {
        ProtocolKind::Flood => {
            let prototypes = (0..NODES).map(|_| FloodNode::new()).collect();
            recorder.span(span, || {
                run_steady_in(
                    arena,
                    graph,
                    prototypes,
                    arrivals,
                    adversaries,
                    MINERS,
                    config,
                )
            })
        }
        ProtocolKind::Dandelion(params) => {
            let line = StemLine::random(NODES, rng);
            let prototypes = (0..NODES)
                .map(|i| DandelionNode::new(params, line.successor(NodeId::new(i))))
                .collect();
            recorder.span(span, || {
                run_steady_in(
                    arena,
                    graph,
                    prototypes,
                    arrivals,
                    adversaries,
                    MINERS,
                    config,
                )
            })
        }
        ProtocolKind::AdaptiveDiffusion(params) => {
            let prototypes = (0..NODES)
                .map(|_| AdaptiveDiffusionNode::new(params))
                .collect();
            recorder.span(span, || {
                run_steady_in(
                    arena,
                    graph,
                    prototypes,
                    arrivals,
                    adversaries,
                    MINERS,
                    config,
                )
            })
        }
        ProtocolKind::Flexible(flex) => {
            let prototypes = recorder
                .span("core.harness.prototypes", || {
                    flex_steady_prototypes_in(arena, NODES, flex, seed)
                })
                .expect("flexible prototype set-up");
            recorder.span(span, || {
                run_steady_in(
                    arena,
                    graph,
                    prototypes,
                    arrivals,
                    adversaries,
                    MINERS,
                    config,
                )
            })
        }
    }
}

fn mempool_config() -> SteadyMempoolConfig {
    SteadyMempoolConfig {
        capacity_bytes: 64 * TX_BYTES,
        block_max_bytes: 8 * TX_BYTES,
        mean_block_interval: 2 * SECOND,
        max_drain_blocks: 1_000,
    }
}

fn miner_deliveries(report: &SteadyReport) -> Vec<MinerDelivery> {
    report
        .per_tx
        .iter()
        .enumerate()
        .filter_map(|(tx, outcome)| {
            outcome.first_miner_delivery.map(|at| MinerDelivery {
                at,
                tx: Transaction::new(
                    outcome.origin,
                    TX_BYTES,
                    100 + tx as u64,
                    outcome.injected_at,
                ),
            })
        })
        .collect()
}

impl Workload for SteadyMix {
    const NAME: &'static str = "steady_mix";
    const SPANS_PER_UNIT: usize = 8 * 8;

    fn set_up(_seed: u64, _recorder: &mut Recorder) -> Self {
        Self
    }

    /// A run completes about 23 units; a pool of 16 is covered by each.
    fn unit_seed(seed: u64, index: u64) -> u64 {
        pooled_unit_seed(16, seed, index)
    }

    fn unit(&mut self, unit_seed: u64, threads: usize, meter: &mut Meter) -> Unit {
        let runner = TrialRunner::new(threads);
        let rows = meter.measure(|| {
            steady_state_with(
                &runner,
                NODES,
                MINERS,
                1,
                &RATES,
                HORIZON,
                base_seed(unit_seed),
            )
        });
        let cells: Vec<Cell> = rows
            .iter()
            .map(|row| Cell {
                protocol: row.protocol,
                rate: row.rate_per_second,
                injected: row.injected,
                delivered_fraction: row.delivered_fraction,
                included_fraction: row.included_fraction,
                peak_concurrent: row.peak_concurrent,
                messages_per_tx: row.mean_messages_per_tx,
                p99_delivery_ms: row.p99_delivery_ms,
            })
            .collect();
        finish(&cells, Model::default())
    }

    fn traced_unit(&mut self, unit_seed: u64, recorder: &mut Recorder) -> Unit {
        let base_seed = base_seed(unit_seed);
        let mut arena = TrialArena::new();
        let mut model = Model::default();
        let mut cells = Vec::new();
        let mut all_latencies_ms = Vec::new();
        let miners = MinerSet::uniform(MINERS).expect("at least one miner");
        let open = recorder.begin(UNIT_SPAN);
        for (label, span, kind) in suite() {
            for rate in RATES {
                // The driver's pinned per-cell seed formula, run 0.
                let seed = base_seed + (rate * 100.0) as u64;
                let open = recorder.begin("harness.trial");
                let mut session =
                    recorder.span("netsim.arrival.poisson", || session_inputs(rate, seed));
                let graph = recorder.span("netsim.topology.build", || {
                    standard_overlay_in(&mut arena, NODES, seed)
                });
                let (metrics, report) =
                    run_session(&mut arena, graph, kind, &mut session, seed, recorder, span);
                let deliveries = miner_deliveries(&report);
                let pool = recorder.span("blockchain.steady.replay", || {
                    replay_steady_mempool(&miners, &deliveries, mempool_config(), &mut session.rng)
                });
                let injected = report.per_tx.len();
                let latencies_ms: Vec<f64> = report
                    .latencies_us
                    .iter()
                    .map(|&us| us as f64 / 1e3)
                    .collect();
                cells.push(Cell {
                    protocol: label,
                    rate,
                    injected,
                    delivered_fraction: report.latencies_us.len() as f64
                        / (injected * NODES) as f64,
                    included_fraction: pool.included as f64 / injected as f64,
                    peak_concurrent: report.peak_concurrent,
                    messages_per_tx: metrics.messages_sent as f64 / injected as f64,
                    p99_delivery_ms: percentile(&latencies_ms, 99.0),
                });
                all_latencies_ms.extend(latencies_ms);
                model.bytes += metrics.bytes_sent;
                model.events += metrics.events_processed;
                recorder.add_count(DELIVERIES, deliveries.len() as u64);
                arena.recycle_metrics(metrics);
                recorder.end(open);
            }
        }
        recorder.end(open);
        model.p99_delivery_ms = percentile(&all_latencies_ms, 99.0);
        finish(&cells, model)
    }

    fn layers(&mut self, seed: u64, traced: &Traced<'_>, out: &mut Layers) {
        let edges_per_build = (NODES * DEGREE / 2) as f64;
        out.insert(
            "netsim.topology.build_ns_per_edge",
            traced.median_over_units("netsim.topology.build", |total| {
                total.total_ns as f64 / (total.calls as f64 * edges_per_build)
            }),
        );
        let per_session = |layer| {
            traced.median_over_units(layer, |total| {
                total.total_ns as f64 / total.calls as f64 / 1e6
            })
        };
        out.insert(
            "proto.steady.flood_ms",
            per_session("proto.steady.session.flood"),
        );
        out.insert(
            "proto.steady.dandelion_ms",
            per_session("proto.steady.session.dandelion"),
        );
        out.insert(
            "proto.steady.diffusion_ms",
            per_session("proto.steady.session.diffusion"),
        );
        out.insert(
            "proto.steady.flexible_ms",
            per_session("proto.steady.session.flexible"),
        );
        out.insert(
            "core.harness.prototypes_ms",
            per_session("core.harness.prototypes"),
        );
        out.insert(
            "model.p99_delivery_ms",
            traced.units[0].model.p99_delivery_ms,
        );

        out.insert(
            "blockchain.steady.replay_us_per_delivery",
            traced.ns_per_count("blockchain.steady.replay", DELIVERIES) / 1e3,
        );

        // Steady flood sessions at rate 8 against single broadcasts over
        // the same overlay: ns per event each, and their ratio — the
        // multiplexer's overhead.
        let mut arena = TrialArena::new();
        let mut recorder = Recorder::with_capacity(64);
        let (mut steady, mut single) = (Vec::new(), Vec::new());
        for pass in 0..20u64 {
            let seed = base_seed(derive_seed(seed, pass));
            let mut session = session_inputs(8.0, seed);
            let graph = standard_overlay_in(&mut arena, NODES, seed);
            let start = Instant::now();
            let (metrics, report) = run_session(
                &mut arena,
                graph,
                ProtocolKind::Flood,
                &mut session,
                seed,
                &mut recorder,
                "probe",
            );
            steady.push(start.elapsed().as_nanos() as f64 / metrics.events_processed as f64);
            black_box(report);
            let graph = standard_overlay_in(&mut arena, NODES, seed);
            let start = Instant::now();
            let flood = run_flood_in(
                &mut arena,
                graph,
                NodeId::new(0),
                TX_ID,
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            single.push(start.elapsed().as_nanos() as f64 / flood.events_processed as f64);
            arena.recycle_metrics(metrics);
            arena.recycle_metrics(flood);
        }
        let steady = median(&steady);
        out.insert("proto.steady.ns_per_event", steady);
        out.insert("proto.steady.overhead_ratio", steady / median(&single));

        let mut session = session_inputs(8.0, base_seed(seed));
        let graph = standard_overlay_in(&mut arena, NODES, base_seed(seed));
        let ((_, report), bytes) = alloc::count(|| {
            run_session(
                &mut arena,
                graph,
                ProtocolKind::Flood,
                &mut session,
                base_seed(seed),
                &mut recorder,
                "probe",
            )
        });
        out.insert(
            "proto.steady.alloc_bytes_per_tx",
            bytes as f64 / report.per_tx.len() as f64,
        );

        let mut lanes = LanePool::new(NODES);
        out.insert(
            "netsim.lanes.acquire_release_ns",
            ns_per_iteration(200_000, |_| {
                let lane = lanes.acquire();
                lanes.release(black_box(lane));
            }),
        );

        // The replay's pool: 64 transactions, 8 per block.
        let transactions: Vec<Transaction> = (0..64)
            .map(|tx| Transaction::new(NodeId::new(tx), TX_BYTES, 100 + tx as u64, tx as u64 + 1))
            .collect();
        let mut pool = Mempool::new(64 * TX_BYTES);
        let fill = |pool: &mut Mempool| {
            for tx in &transactions {
                black_box(pool.insert(tx.clone())).expect("fresh transaction fits");
            }
        };
        let per_fill = ns_per_iteration(2_000, |_| {
            pool = Mempool::new(64 * TX_BYTES);
            fill(&mut pool);
        });
        out.insert(
            "blockchain.mempool.insert_ns",
            per_fill / transactions.len() as f64,
        );
        out.insert(
            "blockchain.mempool.select_ns",
            ns_per_iteration(20_000, |_| {
                black_box(pool.select_for_block(8 * TX_BYTES));
            }),
        );
    }
}

/// Counter of miner deliveries `blockchain.steady.replay` replayed.
const DELIVERIES: &str = "blockchain.steady.deliveries";
