//! Experiment E5 (paper Fig. 5, §IV-B): an end-to-end run of the flexible
//! three-phase protocol with the per-phase message breakdown across the
//! (k, d) parameter grid.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{sim_config, standard_overlay_in, GridPlan, TrialRunner};
use fnp_core::{run_flexible_broadcast_in, FlexConfig};
use fnp_netsim::{summarize, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the three-phase breakdown experiment (E5).
#[derive(Clone, Debug)]
pub struct ThreePhaseRow {
    /// Group size k.
    pub k: usize,
    /// Diffusion depth d.
    pub d: u32,
    /// Mean phase-1 messages.
    pub phase1: f64,
    /// Mean phase-2 messages.
    pub phase2: f64,
    /// Mean phase-3 messages.
    pub phase3: f64,
    /// Mean total messages.
    pub total: f64,
    /// Mean coverage (should be 1.0).
    pub coverage: f64,
}

impl ToJson for ThreePhaseRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("d", self.d.into()),
            ("phase1", self.phase1.into()),
            ("phase2", self.phase2.into()),
            ("phase3", self.phase3.into()),
            ("total", self.total.into()),
            ("coverage", self.coverage.into()),
        ])
    }
}

/// Runs experiment E5: the per-phase message breakdown of the flexible
/// protocol across (k, d), over the flattened (k × d) × run grid.
pub fn three_phase_breakdown_with(
    runner: &TrialRunner,
    n: usize,
    ks: &[usize],
    ds: &[u32],
    runs: usize,
    base_seed: u64,
) -> Vec<ThreePhaseRow> {
    let cells: Vec<(usize, u32)> = ks
        .iter()
        .flat_map(|&k| ds.iter().map(move |&d| (k, d)))
        .collect();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (k, d) = cells[cell];
        let seed = base_seed + run as u64 * 7 + k as u64 * 1000 + d as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));
        let report = run_flexible_broadcast_in(
            arena,
            graph,
            origin,
            b"three phase tx".to_vec(),
            FlexConfig::default().with_k(k).with_d(d),
            sim_config(seed),
        )
        .expect("flexible run");
        let result = [
            report.phase1_messages as f64,
            report.phase2_messages as f64,
            report.phase3_messages as f64,
            report.total_messages() as f64,
            report.coverage(),
        ];
        arena.recycle_metrics(report.metrics);
        result
    });
    let mut rows = Vec::new();
    for (&(k, d), trials) in cells.iter().zip(per_cell) {
        let column = |index: usize| {
            let values: Vec<f64> = trials.iter().map(|trial| trial[index]).collect();
            summarize(&values).mean
        };
        rows.push(ThreePhaseRow {
            k,
            d,
            phase1: column(0),
            phase2: column(1),
            phase3: column(2),
            total: column(3),
            coverage: column(4),
        });
    }
    rows
}

/// The `fnp-bench fig5_three_phase` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig5_three_phase",
    about: "E5: Fig. 5 / §IV-B three-phase breakdown",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(500);
    let runs = args.runs.unwrap_or(5);
    let ks = [3, 5, 10];
    let ds = [2, 4, 8];
    let base_seed: u64 = 5;
    println!("E5 / Fig. 5 — three-phase breakdown ({n} nodes, {runs} runs per cell)\n");
    println!(
        "{:<4} {:<4} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "k", "d", "phase1", "phase2", "phase3", "total", "coverage"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("ks", Json::arr(ks)),
        ("ds", Json::arr(ds)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        three_phase_breakdown_with(&runner, n, &ks, &ds, runs, base_seed)
    });
    for row in &rows {
        println!(
            "{:<4} {:<4} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>9.1}%",
            row.k,
            row.d,
            row.phase1,
            row.phase2,
            row.phase3,
            row.total,
            row.coverage * 100.0
        );
    }
}
