//! `paper_grid` — the privacy–performance landscape at the paper's n = 1000.
//!
//! One unit is `landscape_with(n = 1000, runs = 2, fractions = [0.1, 0.3])`:
//! 16 traced trials (4 protocols × 2 × 2), each rebuilding the overlay,
//! forming groups, deriving pairwise keys cold, running one DC round,
//! diffusion, flood and the first-spy estimator. Short, cache-resident
//! trials where per-trial construction, `record_trace`, arena reuse and key
//! derivation dominate; the only workload on two `TrialRunner` workers. One
//! op is one protocol trial.

use crate::api::{
    as_millis, derive_seed, first_spy, form_groups, landscape_with, protocol_suite, run_flood_in,
    run_protocol_in, standard_overlay_in, summarize, AdversarySet, AdversaryView, AttackOutcome,
    FlexConfig, FloodNode, GridPlan, GroupKeyCache, LandscapeRow, Metrics, NodeId,
    PrivacyExperiment, ProtocolKind, Rng, SeedableRng, SimConfig, SimDriver, StdRng, TrialArena,
    TrialRunner,
};
use crate::harness::{pooled_unit_seed, Layers, Meter, Model, Traced, Unit, Workload, UNIT_SPAN};
use crate::stats::{median, Fnv};
use crate::trace::Recorder;
use crate::workloads::flood_large::{decomposed_flood, start_driver, Flood, TX_ID};
use crate::workloads::ns_per_iteration;
use std::time::Instant;

/// The paper's network size.
pub const NODES: usize = 1_000;
/// Repetitions per cell.
pub const RUNS: usize = 2;
/// Adversary fractions swept.
pub const FRACTIONS: [f64; 2] = [0.1, 0.3];
/// Trials per unit: 4 protocols × fractions × runs.
pub const TRIALS: u64 = 16;
/// Degree of the standard overlay.
const DEGREE: usize = 8;

/// No state: every unit rebuilds everything, as a figure binary does.
#[derive(Debug)]
pub struct PaperGrid;

/// The driver adds small offsets to the base seed; keeping the top byte
/// clear keeps that sum far from overflow.
fn base_seed(unit_seed: u64) -> u64 {
    unit_seed >> 8
}

/// Invariants of the eight landscape rows (not their values: later PRs
/// change rows on purpose).
fn check(rows: &[LandscapeRow]) -> Option<String> {
    if rows.len() != 4 * FRACTIONS.len() {
        return Some(format!(
            "{} rows, expected {}",
            rows.len(),
            4 * FRACTIONS.len()
        ));
    }
    // A row's latency averages the trials that reached everyone; no such
    // trial leaves it at 0.
    for row in rows
        .iter()
        .filter(|row| matches!(row.protocol, "flood" | "flexible"))
    {
        if !(row.mean_latency_ms.is_finite() && row.mean_latency_ms > 0.0) {
            return Some(format!(
                "{} at {} never reached full coverage",
                row.protocol, row.adversary_fraction
            ));
        }
    }
    let expected = (NODES * DEGREE - (NODES - 1)) as f64; // 2|E| − (n − 1)
    for row in rows.iter().filter(|row| row.protocol == "flood") {
        if (row.mean_messages - expected).abs() > expected / 10.0 {
            return Some(format!(
                "flood sent {} messages, expected about {expected}",
                row.mean_messages
            ));
        }
    }
    None
}

fn finish(rows: &[LandscapeRow], model: Model) -> Unit {
    let mut digest = Fnv::default();
    for row in rows {
        digest.bytes(row.protocol.as_bytes());
        for value in [
            row.adversary_fraction,
            row.detection_probability,
            row.mean_messages,
            row.mean_latency_ms,
        ] {
            digest.f64(value);
        }
    }
    Unit {
        ops: TRIALS,
        failure: check(rows),
        model,
        digest: digest.finish(),
    }
}

/// What one decomposed trial hands the row aggregation.
struct Trial {
    messages: f64,
    latency: Option<u64>,
    outcome: AttackOutcome,
}

impl PaperGrid {
    /// One trial of `landscape_with`, re-assembled from its public pieces.
    fn traced_trial(
        arena: &mut TrialArena,
        kind: ProtocolKind,
        fraction: f64,
        seed: u64,
        model: &mut Model,
        recorder: &mut Recorder,
    ) -> Trial {
        let open = recorder.begin("harness.trial");
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = recorder.span("netsim.topology.build", || {
            standard_overlay_in(arena, NODES, seed)
        });
        let origin = NodeId::new(rng.gen_range(0..NODES));
        let config = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let metrics: Metrics = match kind {
            ProtocolKind::Flood => {
                let open = recorder.begin("gossip.flood.trial");
                let traced_config = SimConfig {
                    record_trace: true,
                    ..config
                };
                let metrics = decomposed_flood(
                    arena,
                    Flood {
                        graph,
                        origin,
                        config: traced_config,
                    },
                    recorder,
                    || SimDriver::new(FloodNode::new()),
                    start_driver,
                    |sim| {
                        sim.run();
                    },
                );
                recorder.end(open);
                metrics
            }
            other => {
                let name = match other {
                    ProtocolKind::Dandelion(_) => "gossip.dandelion.trial",
                    ProtocolKind::AdaptiveDiffusion(_) => "diffusion.protocol.trial",
                    _ => "core.harness.flex_trial",
                };
                recorder
                    .span(name, || {
                        run_protocol_in(arena, other, graph, origin, config)
                    })
                    .expect("protocol run")
            }
        };
        let adversaries = recorder.span("adversary.observer.sample", || {
            AdversarySet::random_fraction(NODES, fraction, &[origin], &mut rng)
        });
        let view = recorder.span("adversary.observer.view", || {
            AdversaryView::from_metrics(&metrics, &adversaries)
        });
        let estimate = recorder.span("adversary.estimators.first_spy", || first_spy(&view));
        model.msgs += metrics.messages_sent;
        model.bytes += metrics.bytes_sent;
        model.events += metrics.events_processed;
        let trial = Trial {
            messages: metrics.messages_sent as f64,
            latency: metrics.time_to_coverage(1.0),
            outcome: AttackOutcome { origin, estimate },
        };
        recorder.span("netsim.arena.recycle_metrics", || {
            arena.recycle_metrics(metrics)
        });
        recorder.end(open);
        trial
    }
}

impl Workload for PaperGrid {
    const NAME: &'static str = "paper_grid";
    const THREADS: usize = 2;
    const SPANS_PER_UNIT: usize = 16 * 16;

    fn set_up(_seed: u64, _recorder: &mut Recorder) -> Self {
        Self
    }

    /// A run completes about 55 units; a pool of 32 is covered by each.
    fn unit_seed(seed: u64, index: u64) -> u64 {
        pooled_unit_seed(32, seed, index)
    }

    fn unit(&mut self, unit_seed: u64, threads: usize, meter: &mut Meter) -> Unit {
        let runner = TrialRunner::new(threads);
        let rows = meter
            .measure(|| landscape_with(&runner, NODES, RUNS, &FRACTIONS, base_seed(unit_seed)));
        // The rows carry mean messages only; bytes and events are exact in
        // the decomposed unit.
        let msgs: f64 = rows.iter().map(|row| row.mean_messages * RUNS as f64).sum();
        finish(
            &rows,
            Model {
                msgs: msgs.round() as u64,
                ..Model::default()
            },
        )
    }

    fn traced_unit(&mut self, unit_seed: u64, recorder: &mut Recorder) -> Unit {
        let base_seed = base_seed(unit_seed);
        let mut arena = TrialArena::new();
        let mut model = Model::default();
        let mut rows = Vec::new();
        let open = recorder.begin(UNIT_SPAN);
        for (label, kind) in protocol_suite() {
            for fraction in FRACTIONS {
                let mut experiment = PrivacyExperiment::new();
                let mut messages = Vec::new();
                let mut latencies = Vec::new();
                for run in 0..RUNS {
                    // The driver's pinned per-cell seed formula.
                    let seed = base_seed + run as u64 * 17 + (fraction * 1000.0) as u64;
                    let trial =
                        Self::traced_trial(&mut arena, kind, fraction, seed, &mut model, recorder);
                    messages.push(trial.messages);
                    latencies.extend(trial.latency.map(as_millis));
                    experiment.record(trial.outcome);
                }
                rows.push(LandscapeRow {
                    protocol: label,
                    adversary_fraction: fraction,
                    detection_probability: experiment.detection_probability(),
                    mean_messages: summarize(&messages).mean,
                    mean_latency_ms: summarize(&latencies).mean,
                });
            }
        }
        recorder.end(open);
        finish(&rows, model)
    }

    fn layers(&mut self, seed: u64, traced: &Traced<'_>, out: &mut Layers) {
        let edges_per_build = (NODES * DEGREE / 2) as f64;
        out.insert(
            "netsim.topology.build_ns_per_edge",
            traced.median_over_units("netsim.topology.build", |total| {
                total.total_ns as f64 / (total.calls as f64 * edges_per_build)
            }),
        );
        let per_call = |layer, scale: f64| {
            traced.median_over_units(layer, |total| {
                total.total_ns as f64 / total.calls as f64 / scale
            })
        };
        out.insert("netsim.sim.new_in_us", per_call("netsim.sim.new_in", 1e3));
        out.insert(
            "netsim.sim.into_parts_us",
            per_call("netsim.sim.into_parts_in", 1e3),
        );
        out.insert("gossip.flood.trial_ms", per_call("gossip.flood.trial", 1e6));
        out.insert(
            "gossip.dandelion.trial_ms",
            per_call("gossip.dandelion.trial", 1e6),
        );
        out.insert(
            "diffusion.protocol.trial_ms",
            per_call("diffusion.protocol.trial", 1e6),
        );
        out.insert(
            "core.harness.flex_trial_ms",
            per_call("core.harness.flex_trial", 1e6),
        );
        out.insert(
            "adversary.observer.view_us",
            per_call("adversary.observer.view", 1e3),
        );
        out.insert(
            "adversary.estimators.first_spy_us",
            per_call("adversary.estimators.first_spy", 1e3),
        );
        out.insert(
            "netsim.runner.speedup_2t",
            traced.reference_ms / traced.threaded_ms,
        );

        // `record_trace` on minus off, on the same floods.
        let mut arena = TrialArena::new();
        let mut flood = |record_trace: bool, pass: u64| {
            let graph = standard_overlay_in(&mut arena, NODES, seed);
            let config = SimConfig {
                seed: seed ^ pass,
                record_trace,
                ..SimConfig::default()
            };
            let start = Instant::now();
            let metrics = run_flood_in(&mut arena, graph, NodeId::new(0), TX_ID, config);
            let nanos = start.elapsed().as_nanos() as f64;
            let events = metrics.events_processed as f64;
            arena.recycle_metrics(metrics);
            nanos / events
        };
        let paired: Vec<f64> = (0..200)
            .map(|pass| flood(true, pass) - flood(false, pass))
            .collect();
        out.insert("netsim.metrics.trace_ns_per_event", median(&paired));

        // The same units with a fresh arena per trial, over pooled ones.
        let pooled = TrialRunner::sequential();
        let fresh = pooled.with_fresh_arenas();
        let gains: Vec<f64> = (0..3)
            .map(|pass| {
                let base_seed = base_seed(derive_seed(seed, pass));
                let time = |runner: &TrialRunner| {
                    let start = Instant::now();
                    std::hint::black_box(landscape_with(
                        runner, NODES, RUNS, &FRACTIONS, base_seed,
                    ));
                    start.elapsed().as_secs_f64()
                };
                time(&fresh) / time(&pooled)
            })
            .collect();
        out.insert("netsim.arena.reuse_gain", median(&gains));

        // A unit-shaped grid of trials that do nothing: what the runner
        // itself costs per trial, thread start-up included.
        let runner = TrialRunner::new(Self::THREADS);
        let plan = GridPlan::new(4 * FRACTIONS.len(), RUNS);
        let per_grid = ns_per_iteration(500, |_| {
            std::hint::black_box(runner.run_grid(plan, |_, cell, run| cell + run));
        });
        out.insert(
            "netsim.runner.dispatch_us_per_trial",
            per_grid / TRIALS as f64 / 1e3,
        );

        // Group formation and key derivation as every flexible trial pays
        // them: the driver's seed formula changes the key seed per trial,
        // so each trial is a cache miss. The second pass is the hit.
        let k = FlexConfig::default().k;
        let nodes: Vec<NodeId> = (0..NODES).map(NodeId::new).collect();
        let mut formation = Vec::new();
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for pass in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed ^ pass);
            let start = Instant::now();
            let groups = form_groups(&nodes, k, &mut rng).expect("n ≥ k");
            formation.push(start.elapsed().as_nanos() as f64 / 1e3);
            let mut cache = GroupKeyCache::new(seed ^ pass);
            for samples in [&mut cold, &mut warm] {
                let start = Instant::now();
                for group in &groups {
                    std::hint::black_box(cache.memberships(group));
                }
                samples.push(start.elapsed().as_nanos() as f64 / 1e3 / groups.len() as f64);
            }
        }
        out.insert("groups.formation.form_groups_us", median(&formation));
        out.insert("core.keycache.cold_us_per_group", median(&cold));
        out.insert("core.keycache.warm_us_per_group", median(&warm));
    }
}
