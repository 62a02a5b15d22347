//! Experiment E3 (paper Fig. 3, §III-A): Dandelion's stem/fluff privacy as
//! a function of the adversary fraction and the stem-continue probability,
//! showing that its protection degrades once the adversary controls a
//! large fraction of nodes (the motivation for the cryptographic phase 1).

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{sim_config, standard_overlay_in, GridPlan, TrialRunner};
use fnp_adversary::{first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment};
use fnp_core::{run_protocol_in, ProtocolKind};
use fnp_gossip::DandelionParams;
use fnp_netsim::{summarize, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the Dandelion experiment (E3).
#[derive(Clone, Debug)]
pub struct DandelionRow {
    /// Adversary fraction φ.
    pub adversary_fraction: f64,
    /// Stem-continue probability used.
    pub stem_probability: f64,
    /// First-spy detection probability.
    pub detection_probability: f64,
    /// Mean stem length observed.
    pub mean_stem_length: f64,
}

impl ToJson for DandelionRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("adversary_fraction", Json::from(self.adversary_fraction)),
            ("stem_probability", self.stem_probability.into()),
            ("detection_probability", self.detection_probability.into()),
            ("mean_stem_length", self.mean_stem_length.into()),
        ])
    }
}

/// Runs experiment E3: Dandelion's first-spy detection probability across
/// adversary fractions and stem lengths, over the flattened
/// (stem probability × fraction) × run grid.
pub fn dandelion_privacy_with(
    runner: &TrialRunner,
    n: usize,
    fractions: &[f64],
    stem_probabilities: &[f64],
    runs: usize,
    base_seed: u64,
) -> Vec<DandelionRow> {
    let cells: Vec<(f64, f64)> = stem_probabilities
        .iter()
        .flat_map(|&stem| fractions.iter().map(move |&fraction| (stem, fraction)))
        .collect();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (stem_probability, fraction) = cells[cell];
        // Pinned per-cell seed formula; the lossy f64 cast is part of it.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let seed = base_seed + run as u64 * 13 + (fraction * 100.0) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));
        let params = DandelionParams {
            stem_continue_probability: stem_probability,
            max_stem_hops: 20,
        };
        let metrics = run_protocol_in(
            arena,
            ProtocolKind::Dandelion(params),
            graph,
            origin,
            sim_config(seed),
        )
        .expect("dandelion run");
        let stem_length = metrics.messages_of_kind("dandelion-stem") as f64;
        let adversaries = AdversarySet::random_fraction(n, fraction, &[origin], &mut rng);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        let outcome = AttackOutcome {
            origin,
            estimate: first_spy(&view),
        };
        arena.recycle_metrics(metrics);
        (stem_length, outcome)
    });
    let mut rows = Vec::new();
    for (&(stem_probability, fraction), trials) in cells.iter().zip(per_cell) {
        let mut experiment = PrivacyExperiment::new();
        let mut stems = Vec::new();
        for (stem_length, outcome) in trials {
            stems.push(stem_length);
            experiment.record(outcome);
        }
        rows.push(DandelionRow {
            adversary_fraction: fraction,
            stem_probability,
            detection_probability: experiment.detection_probability(),
            mean_stem_length: summarize(&stems).mean,
        });
    }
    rows
}

/// The `fnp-bench fig3_dandelion` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig3_dandelion",
    about: "E3: Fig. 3 / §III-A Dandelion behaviour",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(500);
    let runs = args.runs.unwrap_or(10);
    let fractions = [0.05, 0.15, 0.25, 0.35, 0.5];
    let stem_probabilities = [0.5, 0.9];
    let base_seed: u64 = 3;
    println!("E3 / Fig. 3 — Dandelion first-spy privacy ({n} nodes, {runs} runs per cell)\n");
    println!(
        "{:<12} {:>8} {:>12} {:>16}",
        "stem prob", "phi", "P[detect]", "mean stem len"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("fractions", Json::arr(fractions)),
        ("stem_probabilities", Json::arr(stem_probabilities)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        dandelion_privacy_with(&runner, n, &fractions, &stem_probabilities, runs, base_seed)
    });
    for row in &rows {
        println!(
            "{:<12.2} {:>8.2} {:>12.3} {:>16.1}",
            row.stem_probability,
            row.adversary_fraction,
            row.detection_probability,
            row.mean_stem_length
        );
    }
}
