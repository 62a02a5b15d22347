//! Experiment E1 (paper Fig. 1): the measured privacy–performance landscape.
//!
//! For each protocol and adversary fraction the table reports the first-spy
//! detection probability (privacy axis) and the message/latency cost
//! (performance axis), placing all four protocols in the plane the paper
//! sketches qualitatively.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{protocol_suite, sim_config, standard_overlay_in, GridPlan, TrialRunner};
use fnp_adversary::{first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment};
use fnp_core::{run_protocol_in, ProtocolKind};
use fnp_netsim::{summarize, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the privacy–performance landscape (experiment E1).
#[derive(Clone, Debug)]
pub struct LandscapeRow {
    /// Protocol label.
    pub protocol: &'static str,
    /// Adversary fraction φ.
    pub adversary_fraction: f64,
    /// First-spy detection probability (privacy axis; lower is better).
    pub detection_probability: f64,
    /// Mean messages per broadcast (performance axis; lower is better).
    pub mean_messages: f64,
    /// Mean time to full coverage in milliseconds.
    pub mean_latency_ms: f64,
}

impl ToJson for LandscapeRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("adversary_fraction", self.adversary_fraction.into()),
            ("detection_probability", self.detection_probability.into()),
            ("mean_messages", self.mean_messages.into()),
            ("mean_latency_ms", self.mean_latency_ms.into()),
        ])
    }
}

/// Runs experiment E1: every protocol × adversary fraction cell.
///
/// The full cell×run grid executes as one flattened [`GridPlan`] on
/// `runner`, with per-worker [`crate::TrialArena`] reuse; rows come back in cell
/// order, byte-identical to the nested per-cell loops this replaces.
pub fn landscape_with(
    runner: &TrialRunner,
    n: usize,
    runs: usize,
    fractions: &[f64],
    base_seed: u64,
) -> Vec<LandscapeRow> {
    let cells: Vec<(&'static str, ProtocolKind, f64)> = protocol_suite()
        .into_iter()
        .flat_map(|(label, kind)| {
            fractions
                .iter()
                .map(move |&fraction| (label, kind, fraction))
        })
        .collect();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (_, kind, fraction) = cells[cell];
        // Pinned per-cell seed formula; the lossy f64 cast is part of it.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let seed = base_seed + run as u64 * 17 + (fraction * 1000.0) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));
        let metrics =
            run_protocol_in(arena, kind, graph, origin, sim_config(seed)).expect("protocol run");
        let adversaries = AdversarySet::random_fraction(n, fraction, &[origin], &mut rng);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        let outcome = AttackOutcome {
            origin,
            estimate: first_spy(&view),
        };
        let result = (
            metrics.messages_sent as f64,
            metrics.time_to_coverage(1.0),
            outcome,
        );
        arena.recycle_metrics(metrics);
        result
    });
    let mut rows = Vec::new();
    for (&(label, _, fraction), trials) in cells.iter().zip(per_cell) {
        let mut experiment = PrivacyExperiment::new();
        let mut messages = Vec::new();
        let mut latencies = Vec::new();
        for (message_count, latency, outcome) in trials {
            messages.push(message_count);
            if let Some(at) = latency {
                latencies.push(fnp_netsim::as_millis(at));
            }
            experiment.record(outcome);
        }
        rows.push(LandscapeRow {
            protocol: label,
            adversary_fraction: fraction,
            detection_probability: experiment.detection_probability(),
            mean_messages: summarize(&messages).mean,
            mean_latency_ms: summarize(&latencies).mean,
        });
    }
    rows
}

/// The `fnp-bench fig1_landscape` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig1_landscape",
    about: "E1: Fig. 1 privacy-performance landscape",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(500);
    let runs = args.runs.unwrap_or(10);
    let fractions = [0.1, 0.2, 0.3];
    let base_seed: u64 = 1;
    println!("E1 / Fig. 1 — privacy-performance landscape ({n} nodes, {runs} runs per cell)\n");
    println!(
        "{:<20} {:>8} {:>12} {:>14} {:>14}",
        "protocol", "phi", "P[detect]", "messages", "t100% (ms)"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("fractions", Json::arr(fractions)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        landscape_with(&runner, n, runs, &fractions, base_seed)
    });
    for row in &rows {
        println!(
            "{:<20} {:>8.2} {:>12.3} {:>14.0} {:>14.0}",
            row.protocol,
            row.adversary_fraction,
            row.detection_probability,
            row.mean_messages,
            row.mean_latency_ms
        );
    }
    println!("\nLower-left is better privacy, lower-right is better performance;");
    println!("the flexible protocol should sit between the cryptographic and the");
    println!("topological extremes (point 2 of the paper's Fig. 1).");
}
