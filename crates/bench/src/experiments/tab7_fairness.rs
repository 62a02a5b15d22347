//! Experiment E12 (§II): how each broadcast protocol's dissemination latency
//! translates into miner fee-income (un)fairness and transaction inclusion
//! delay.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{
    protocol_suite, sim_config, standard_overlay_in, GridPlan, TrialRunner, PAPER_NETWORK_SIZE,
};
use fnp_core::run_protocol_in;
use fnp_netsim::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the fee-fairness experiment (E12).
#[derive(Clone, Debug)]
pub struct FairnessRow {
    /// Protocol label.
    pub protocol: &'static str,
    /// Jain fairness index of miner fee income normalised by hash rate
    /// (1.0 = perfectly proportional).
    pub jain_index: f64,
    /// Gini coefficient of the same distribution (0.0 = perfectly
    /// proportional).
    pub gini: f64,
    /// Mean delay from broadcast start to block inclusion, in milliseconds.
    pub mean_inclusion_delay_ms: f64,
    /// Fraction of transactions never included within the race budget.
    pub orphaned_fraction: f64,
}

impl ToJson for FairnessRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("jain_index", self.jain_index.into()),
            ("gini", self.gini.into()),
            (
                "mean_inclusion_delay_ms",
                self.mean_inclusion_delay_ms.into(),
            ),
            ("orphaned_fraction", self.orphaned_fraction.into()),
        ])
    }
}

/// Runs experiment E12: §II's latency-fairness argument measured end to end.
///
/// For each protocol a transaction is broadcast `runs` times on an
/// `n`-node overlay whose first `miner_count` nodes are equal-hash-rate
/// miners; each broadcast's per-miner delivery times feed `races_per_run`
/// simulated block races. Each broadcast races in its own
/// [`fnp_blockchain::InclusionRace`]; the per-trial aggregates merge in
/// plan order, which is equivalent to one sequential accumulator.
pub fn fee_fairness_with(
    runner: &TrialRunner,
    n: usize,
    miner_count: usize,
    runs: usize,
    races_per_run: usize,
    base_seed: u64,
) -> Vec<FairnessRow> {
    use fnp_blockchain::{InclusionRace, MinerSet, RaceConfig};
    let miners = MinerSet::uniform(miner_count).expect("at least one miner");
    // Keep the block race fast relative to dissemination so that latency
    // differences actually matter (a 10-minute Bitcoin interval would let
    // every protocol catch up long before the next block).
    let race_config = RaceConfig {
        mean_block_interval: 5 * fnp_netsim::SECOND,
        fee: 100,
        max_blocks: 200,
    };
    let cells = protocol_suite();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (_, kind) = cells[cell];
        let seed = base_seed + run as u64 * 31;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        // The wallet is a non-miner node so that every miner has to learn
        // the transaction over the network.
        let origin = NodeId::new(rng.gen_range(miner_count..n));
        let metrics =
            run_protocol_in(arena, kind, graph, origin, sim_config(seed)).expect("protocol run");
        let mut race = InclusionRace::new();
        for _ in 0..races_per_run {
            race.run_once(&metrics, &miners, race_config, &mut rng);
        }
        arena.recycle_metrics(metrics);
        race
    });
    let mut rows = Vec::new();
    for ((label, _), trials) in cells.iter().zip(per_cell) {
        let mut race = InclusionRace::new();
        for trial in trials {
            race.merge(trial);
        }
        let report = race.report(&miners);
        rows.push(FairnessRow {
            protocol: label,
            jain_index: report.jain_index,
            gini: report.gini,
            // `mean_inclusion_delay` is in SimTime units (microseconds).
            mean_inclusion_delay_ms: report.mean_inclusion_delay / 1_000.0,
            orphaned_fraction: report.orphaned_fraction,
        });
    }
    rows
}

/// The `fnp-bench tab7_fairness` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "tab7_fairness",
    about: "E12: §II fee fairness under latency",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(PAPER_NETWORK_SIZE);
    let miner_count = 100.min(n / 2);
    let runs = args.runs.unwrap_or(5);
    let races_per_run = 400;
    let base_seed: u64 = 9;
    println!("E12 / §II — dissemination latency vs miner fee fairness\n");
    println!("{n}-node overlay, {miner_count} equal-hash-rate miners, 5 s mean block interval\n");
    println!(
        "{:<20} {:>12} {:>10} {:>20} {:>12}",
        "protocol", "Jain index", "Gini", "inclusion delay (ms)", "orphaned"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("miner_count", Json::from(miner_count)),
        ("runs", Json::from(runs)),
        ("races_per_run", Json::from(races_per_run)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        fee_fairness_with(&runner, n, miner_count, runs, races_per_run, base_seed)
    });
    for row in &rows {
        println!(
            "{:<20} {:>12.3} {:>10.3} {:>20.0} {:>12.3}",
            row.protocol,
            row.jain_index,
            row.gini,
            row.mean_inclusion_delay_ms,
            row.orphaned_fraction
        );
    }
    println!(
        "\nHigher Jain index (and lower Gini) = fee income proportional to hash rate; \
         privacy mechanisms pay for anonymity with inclusion delay and, if dissemination \
         is skewed, with fairness."
    );
}
