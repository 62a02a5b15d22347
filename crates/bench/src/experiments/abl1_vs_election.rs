//! Ablation A1 (§IV-B): the hash-based virtual-source election versus the
//! ablated variant in which the originator keeps the virtual-source role.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{sim_config, standard_overlay_in, GridPlan, TrialRunner, PAPER_NETWORK_SIZE};
use fnp_adversary::{
    first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment, PrivacySummary,
};
use fnp_core::{run_protocol_in, FlexConfig, ProtocolKind};
use fnp_netsim::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the virtual-source election ablation (A1).
#[derive(Clone, Debug)]
pub struct ElectionAblationRow {
    /// Election strategy label.
    pub strategy: &'static str,
    /// First-spy summary against the flexible protocol under this strategy.
    pub summary: PrivacySummary,
}

impl ToJson for ElectionAblationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("strategy", Json::from(self.strategy)),
            ("summary", self.summary.to_json()),
        ])
    }
}

/// Runs ablation A1: the paper's hash-based virtual-source election versus
/// keeping the originator as the virtual source.
///
/// Both variants run the identical three-phase protocol; only the 1→2
/// transition differs. The hash-based election decorrelates the diffusion
/// centre from the true sender, so the first-spy detection probability
/// should not exceed (and is typically well below) the ablated variant's.
pub fn election_ablation_with(
    runner: &TrialRunner,
    n: usize,
    adversary_fraction: f64,
    runs: usize,
    base_seed: u64,
) -> Vec<ElectionAblationRow> {
    use fnp_core::ElectionStrategy;
    let strategies: [(&'static str, ElectionStrategy); 2] = [
        ("hash-based", ElectionStrategy::HashBased),
        ("originator-as-source", ElectionStrategy::OriginatorAsSource),
    ];
    let per_cell = runner.run_grid(GridPlan::new(strategies.len(), runs), |arena, cell, run| {
        let (_, strategy) = strategies[cell];
        let seed = base_seed + run as u64 * 13;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = standard_overlay_in(arena, n, seed);
        let origin = NodeId::new(rng.gen_range(0..n));
        let config = FlexConfig::default().with_election(strategy);
        let metrics = run_protocol_in(
            arena,
            ProtocolKind::Flexible(config),
            graph,
            origin,
            sim_config(seed),
        )
        .expect("flexible run");
        let adversaries = AdversarySet::random_fraction(n, adversary_fraction, &[origin], &mut rng);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        let outcome = AttackOutcome {
            origin,
            estimate: first_spy(&view),
        };
        arena.recycle_metrics(metrics);
        outcome
    });
    let mut rows = Vec::new();
    for ((label, _), trials) in strategies.iter().zip(per_cell) {
        let mut experiment = PrivacyExperiment::new();
        for outcome in trials {
            experiment.record(outcome);
        }
        rows.push(ElectionAblationRow {
            strategy: label,
            summary: experiment.summary(),
        });
    }
    rows
}

/// The `fnp-bench abl1_vs_election` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "abl1_vs_election",
    about: "A1: §IV-B virtual-source election ablation",
    overrides: &["--n", "--runs"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(PAPER_NETWORK_SIZE);
    let runs = args.runs.unwrap_or(20);
    let adversary_fraction = 0.2;
    let base_seed: u64 = 21;
    println!("A1 / §IV-B — virtual-source election ablation\n");
    println!("{n}-node overlay, adversary fraction {adversary_fraction}, first-spy estimator\n");
    println!(
        "{:<24} {:>12} {:>18} {:>16}",
        "election", "P[detect]", "anonymity set", "entropy (bits)"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("adversary_fraction", Json::from(adversary_fraction)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        election_ablation_with(&runner, n, adversary_fraction, runs, base_seed)
    });
    for row in &rows {
        println!(
            "{:<24} {:>12.3} {:>18.1} {:>16.2}",
            row.strategy,
            row.summary.detection_probability,
            row.summary.mean_anonymity_set_size,
            row.summary.mean_entropy_bits
        );
    }
    println!(
        "\nThe hash-based election decorrelates the diffusion centre from the true \
         sender without any extra messages; keeping the originator as the virtual \
         source gives the attacker back that correlation."
    );
}
