//! Experiment E2 (paper Fig. 2, §I, §III-A): deanonymising plain
//! flood-and-prune with first-spy and Jordan-centre estimators as the
//! adversary fraction grows (the "≈20 % of nodes suffice" claim).

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{sim_config, standard_overlay_in, GridPlan, TrialRunner};
use fnp_adversary::{
    first_spy, jordan_center, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment,
    PrivacySummary,
};
use fnp_core::{run_protocol_in, ProtocolKind};
use fnp_netsim::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the flooding-deanonymisation experiment (E2).
#[derive(Clone, Debug)]
pub struct FloodDeanonRow {
    /// Network size.
    pub n: usize,
    /// Adversary fraction φ.
    pub adversary_fraction: f64,
    /// First-spy summary.
    pub first_spy: PrivacySummary,
    /// Jordan-centre summary.
    pub jordan_center: PrivacySummary,
}

impl ToJson for FloodDeanonRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("adversary_fraction", self.adversary_fraction.into()),
            ("first_spy", self.first_spy.to_json()),
            ("jordan_center", self.jordan_center.to_json()),
        ])
    }
}

/// Runs experiment E2: first-spy and centrality attacks against plain
/// flood-and-prune, as a function of the adversary fraction, over the
/// flattened (size × fraction) × run grid.
pub fn flood_deanonymization_with(
    runner: &TrialRunner,
    sizes: &[usize],
    fractions: &[f64],
    runs: usize,
    base_seed: u64,
) -> Vec<FloodDeanonRow> {
    let cells: Vec<(usize, f64)> = sizes
        .iter()
        .flat_map(|&n| fractions.iter().map(move |&fraction| (n, fraction)))
        .collect();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (n, fraction) = cells[cell];
        // Pinned per-cell seed formula; the lossy f64 cast is part of it.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let seed = base_seed + run as u64 * 31 + n as u64 + (fraction * 100.0) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        // The overlay is needed twice (once consumed by the run, once by the
        // centrality estimator), so the simulator gets a clone — which the
        // arena then recycles for the next trial's checkout.
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));
        let metrics = run_protocol_in(
            arena,
            ProtocolKind::Flood,
            graph.clone(),
            origin,
            sim_config(seed),
        )
        .expect("flood run");
        let adversaries = AdversarySet::random_fraction(n, fraction, &[origin], &mut rng);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        let honest = adversaries.honest_nodes();
        let spy = AttackOutcome {
            origin,
            estimate: first_spy(&view),
        };
        let centre = AttackOutcome {
            origin,
            estimate: jordan_center(&graph, &view, &honest),
        };
        arena.recycle_metrics(metrics);
        (spy, centre)
    });
    let mut rows = Vec::new();
    for (&(n, fraction), trials) in cells.iter().zip(per_cell) {
        let mut spy = PrivacyExperiment::new();
        let mut centre = PrivacyExperiment::new();
        for (spy_outcome, centre_outcome) in trials {
            spy.record(spy_outcome);
            centre.record(centre_outcome);
        }
        rows.push(FloodDeanonRow {
            n,
            adversary_fraction: fraction,
            first_spy: spy.summary(),
            jordan_center: centre.summary(),
        });
    }
    rows
}

/// The `fnp-bench fig2_flood_deanon` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig2_flood_deanon",
    about: "E2: Fig. 2 / §I flooding deanonymisation",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let sizes = match args.n {
        Some(n) => vec![n],
        None => vec![250, 500, 1000],
    };
    let fractions = [0.05, 0.1, 0.2, 0.3, 0.5];
    let runs = args.runs.unwrap_or(10);
    let base_seed: u64 = 2;
    println!("E2 / Fig. 2 — flood-and-prune deanonymisation ({runs} runs per cell)\n");
    println!(
        "{:<8} {:>8} {:>16} {:>18} {:>18}",
        "n", "phi", "first-spy P[det]", "jordan P[det]", "anonymity set"
    );
    let params = Json::obj([
        ("sizes", Json::arr(sizes.iter().copied())),
        ("fractions", Json::arr(fractions)),
        ("runs", Json::from(runs)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        flood_deanonymization_with(&runner, &sizes, &fractions, runs, base_seed)
    });
    for row in &rows {
        println!(
            "{:<8} {:>8.2} {:>16.3} {:>18.3} {:>18.1}",
            row.n,
            row.adversary_fraction,
            row.first_spy.detection_probability,
            row.jordan_center.detection_probability,
            row.first_spy.mean_anonymity_set_size
        );
    }
}
