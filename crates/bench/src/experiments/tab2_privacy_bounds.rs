//! Experiment E7 (§V-B): the attacker's detection probability against the
//! flexible protocol, compared with the 1/k floor guaranteed by the DC-net
//! phase and the 1/n perfect-obfuscation target.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{sim_config, standard_overlay_in, GridPlan, TrialRunner};
use fnp_adversary::{
    first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment, PrivacySummary,
};
use fnp_core::{run_protocol_in, FlexConfig, ProtocolKind};
use fnp_netsim::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the privacy-bounds experiment (E7).
#[derive(Clone, Debug)]
pub struct PrivacyBoundsRow {
    /// Group size k.
    pub k: usize,
    /// Diffusion depth d.
    pub d: u32,
    /// Adversary fraction φ.
    pub adversary_fraction: f64,
    /// First-spy summary against the flexible protocol.
    pub summary: PrivacySummary,
    /// The k-anonymity bound 1/k the DC-net phase guarantees.
    pub group_bound: f64,
    /// The perfect-obfuscation target 1/n.
    pub ideal: f64,
}

impl ToJson for PrivacyBoundsRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("d", self.d.into()),
            ("adversary_fraction", self.adversary_fraction.into()),
            ("summary", self.summary.to_json()),
            ("group_bound", self.group_bound.into()),
            ("ideal", self.ideal.into()),
        ])
    }
}

/// Runs experiment E7: the attacker's success against the flexible protocol
/// compared with the 1/k floor and the 1/n ideal, over the flattened
/// (k × d × fraction) × run grid.
pub fn privacy_bounds_with(
    runner: &TrialRunner,
    n: usize,
    ks: &[usize],
    ds: &[u32],
    fractions: &[f64],
    runs: usize,
    base_seed: u64,
) -> Vec<PrivacyBoundsRow> {
    let cells: Vec<(usize, u32, f64)> = ks
        .iter()
        .flat_map(|&k| {
            ds.iter()
                .flat_map(move |&d| fractions.iter().map(move |&fraction| (k, d, fraction)))
        })
        .collect();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (k, d, fraction) = cells[cell];
        let seed = base_seed + run as u64 * 3 + k as u64 * 100 + d as u64 * 10;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));
        let metrics = run_protocol_in(
            arena,
            ProtocolKind::Flexible(FlexConfig::default().with_k(k).with_d(d)),
            graph,
            origin,
            sim_config(seed),
        )
        .expect("flexible run");
        let adversaries = AdversarySet::random_fraction(n, fraction, &[origin], &mut rng);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        let outcome = AttackOutcome {
            origin,
            estimate: first_spy(&view),
        };
        arena.recycle_metrics(metrics);
        outcome
    });
    let mut rows = Vec::new();
    for (&(k, d, fraction), trials) in cells.iter().zip(per_cell) {
        let mut experiment = PrivacyExperiment::new();
        for outcome in trials {
            experiment.record(outcome);
        }
        rows.push(PrivacyBoundsRow {
            k,
            d,
            adversary_fraction: fraction,
            summary: experiment.summary(),
            group_bound: 1.0 / k as f64,
            ideal: 1.0 / n as f64,
        });
    }
    rows
}

/// The `fnp-bench tab2_privacy_bounds` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "tab2_privacy_bounds",
    about: "E7: §V-B l-anonymity / near-1/n detection",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(500);
    let runs = args.runs.unwrap_or(10);
    let ks = [3, 5, 10];
    let ds = [4];
    let fractions = [0.1, 0.2, 0.3];
    let base_seed: u64 = 7;
    println!(
        "E7 / §V-B — privacy bounds of the flexible protocol ({n} nodes, {runs} runs per cell)\n"
    );
    println!(
        "{:<4} {:<4} {:>8} {:>12} {:>14} {:>10} {:>10}",
        "k", "d", "phi", "P[detect]", "anonymity set", "1/k bound", "1/n ideal"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("ks", Json::arr(ks)),
        ("ds", Json::arr(ds)),
        ("fractions", Json::arr(fractions)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        privacy_bounds_with(&runner, n, &ks, &ds, &fractions, runs, base_seed)
    });
    for row in &rows {
        println!(
            "{:<4} {:<4} {:>8.2} {:>12.3} {:>14.1} {:>10.3} {:>10.4}",
            row.k,
            row.d,
            row.adversary_fraction,
            row.summary.detection_probability,
            row.summary.mean_anonymity_set_size,
            row.group_bound,
            row.ideal
        );
    }
}
