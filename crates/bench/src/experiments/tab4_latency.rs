//! Experiment E10 (§II, §V-C): dissemination latency of the four protocols,
//! quantifying the fairness cost (time to reach the miners) that privacy
//! mechanisms pay.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{protocol_suite, sim_config, standard_overlay_in, GridPlan, TrialRunner};
use fnp_core::run_protocol_in;
use fnp_netsim::{summarize, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the latency experiment (E10).
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Protocol label.
    pub protocol: &'static str,
    /// Mean milliseconds to 50 % coverage.
    pub t50_ms: f64,
    /// Mean milliseconds to 90 % coverage.
    pub t90_ms: f64,
    /// Mean milliseconds to full coverage.
    pub t100_ms: f64,
    /// Mean total messages.
    pub messages: f64,
}

impl ToJson for LatencyRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("t50_ms", self.t50_ms.into()),
            ("t90_ms", self.t90_ms.into()),
            ("t100_ms", self.t100_ms.into()),
            ("messages", self.messages.into()),
        ])
    }
}

/// Runs experiment E10: dissemination latency of all four protocols, over
/// the flattened protocol × run grid.
pub fn latency_with(
    runner: &TrialRunner,
    n: usize,
    runs: usize,
    base_seed: u64,
) -> Vec<LatencyRow> {
    let cells = protocol_suite();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (_, kind) = cells[cell];
        let seed = base_seed + run as u64 * 23;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));
        let metrics =
            run_protocol_in(arena, kind, graph, origin, sim_config(seed)).expect("protocol run");
        let result = (
            metrics.messages_sent as f64,
            metrics.time_to_coverage(0.5),
            metrics.time_to_coverage(0.9),
            metrics.time_to_coverage(1.0),
        );
        arena.recycle_metrics(metrics);
        result
    });
    let mut rows = Vec::new();
    for ((label, _), trials) in cells.iter().zip(per_cell) {
        let mut t50 = Vec::new();
        let mut t90 = Vec::new();
        let mut t100 = Vec::new();
        let mut messages = Vec::new();
        for (message_count, c50, c90, c100) in trials {
            messages.push(message_count);
            for (coverage_time, bucket) in [(c50, &mut t50), (c90, &mut t90), (c100, &mut t100)] {
                if let Some(at) = coverage_time {
                    bucket.push(fnp_netsim::as_millis(at));
                }
            }
        }
        rows.push(LatencyRow {
            protocol: label,
            t50_ms: summarize(&t50).mean,
            t90_ms: summarize(&t90).mean,
            t100_ms: summarize(&t100).mean,
            messages: summarize(&messages).mean,
        });
    }
    rows
}

/// The `fnp-bench tab4_latency` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "tab4_latency",
    about: "E10: §II latency / fairness trade-off",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(500);
    let runs = args.runs.unwrap_or(5);
    let base_seed: u64 = 8;
    println!("E10 / §II — dissemination latency ({n} nodes, {runs} runs per protocol)\n");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12}",
        "protocol", "t50% (ms)", "t90% (ms)", "t100% (ms)", "messages"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        latency_with(&runner, n, runs, base_seed)
    });
    for row in &rows {
        println!(
            "{:<20} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            row.protocol, row.t50_ms, row.t90_ms, row.t100_ms, row.messages
        );
    }
}
