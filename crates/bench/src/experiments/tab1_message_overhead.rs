//! Experiment E6 (§V-A): the paper's headline simulation — adaptive
//! diffusion needs ≈12 500 messages to reach all 1 000 peers versus ≈7 000
//! for flood-and-prune; the flexible protocol only pays the diffusion
//! premium for its first d rounds.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{sim_config, standard_overlay_in, TrialRunner};
use fnp_core::{run_flexible_broadcast_in, run_protocol_in, FlexConfig, ProtocolKind};
use fnp_diffusion::AdParams;
use fnp_netsim::{summarize, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of the §V-A message-overhead comparison (E6).
#[derive(Clone, Debug)]
pub struct MessageOverheadResult {
    /// Network size.
    pub n: usize,
    /// Mean messages for full adaptive diffusion to reach all peers.
    pub adaptive_diffusion_messages: f64,
    /// Mean messages for flood-and-prune to reach all peers.
    pub flood_messages: f64,
    /// Mean messages for the flexible protocol (d-limited diffusion).
    pub flexible_messages: f64,
    /// Ratio adaptive-diffusion / flood (the paper reports ≈12 500/7 000 ≈ 1.8).
    pub overhead_ratio: f64,
}

impl ToJson for MessageOverheadResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            (
                "adaptive_diffusion_messages",
                self.adaptive_diffusion_messages.into(),
            ),
            ("flood_messages", self.flood_messages.into()),
            ("flexible_messages", self.flexible_messages.into()),
            ("overhead_ratio", self.overhead_ratio.into()),
        ])
    }
}

/// Runs experiment E6: the paper's §V-A simulation.
pub fn message_overhead_with(
    runner: &TrialRunner,
    n: usize,
    runs: usize,
    base_seed: u64,
) -> MessageOverheadResult {
    let trials = runner.run_with_arena(runs, |arena, run| {
        let seed = base_seed + run as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));

        let report = fnp_diffusion::run_adaptive_diffusion_in(
            arena,
            graph.clone(),
            origin,
            AdParams {
                max_rounds: 256,
                ..AdParams::default()
            },
            sim_config(seed),
        );
        let adaptive = report.messages_until_full_coverage.map(|m| m as f64);
        arena.recycle_metrics(report.metrics);

        let flood = run_protocol_in(
            arena,
            ProtocolKind::Flood,
            graph.clone(),
            origin,
            sim_config(seed),
        )
        .expect("flood run");
        let flood_messages = flood.messages_sent as f64;
        arena.recycle_metrics(flood);

        let flexible = run_flexible_broadcast_in(
            arena,
            graph,
            origin,
            b"overhead tx".to_vec(),
            FlexConfig::default(),
            sim_config(seed),
        )
        .expect("flexible run");
        let flexible_messages = flexible.total_messages() as f64;
        arena.recycle_metrics(flexible.metrics);
        (adaptive, flood_messages, flexible_messages)
    });
    let mut ad_messages = Vec::new();
    let mut flood_messages = Vec::new();
    let mut flexible_messages = Vec::new();
    for (adaptive, flood, flexible) in trials {
        if let Some(messages) = adaptive {
            ad_messages.push(messages);
        }
        flood_messages.push(flood);
        flexible_messages.push(flexible);
    }
    let ad = summarize(&ad_messages).mean;
    let flood = summarize(&flood_messages).mean;
    MessageOverheadResult {
        n,
        adaptive_diffusion_messages: ad,
        flood_messages: flood,
        flexible_messages: summarize(&flexible_messages).mean,
        overhead_ratio: if flood > 0.0 { ad / flood } else { 0.0 },
    }
}

/// The `fnp-bench tab1_message_overhead` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "tab1_message_overhead",
    about: "E6: §V-A 12 500 vs 7 000 messages",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(1000);
    let runs = args.runs.unwrap_or(10);
    let base_seed: u64 = 6;
    println!("E6 / §V-A — message overhead on {n} peers ({runs} runs)\n");
    let params = Json::obj([
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        vec![message_overhead_with(&runner, n, runs, base_seed)]
    });
    let result = &rows[0];
    println!(
        "flood-and-prune (all peers)     : {:>10.0} messages",
        result.flood_messages
    );
    println!(
        "adaptive diffusion (all peers)  : {:>10.0} messages",
        result.adaptive_diffusion_messages
    );
    println!(
        "flexible protocol (k=5, d=4)    : {:>10.0} messages",
        result.flexible_messages
    );
    println!(
        "adaptive-diffusion / flood ratio: {:>10.2}",
        result.overhead_ratio
    );
    println!("\npaper reference: ~12,500 vs ~7,000 messages (ratio ~1.8).");
}
