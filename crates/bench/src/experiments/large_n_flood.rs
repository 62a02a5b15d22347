//! The large-n flood: overlay build → diameter estimate → one untraced
//! flood over an `--n`-node overlay (default one million).
//!
//! This is the only production caller of the intra-trial threaded paths —
//! the overlay's CSR finalize and the diameter BFS fan out over `--threads`
//! scoped workers inside the single trial — and the repo's evidence that a
//! million-node trial completes on commodity hardware. Every field of the
//! row is deterministic and identical at any thread count; how fast the
//! same path runs is `benchmark/`'s `flood_large` workload, not this.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{overlay_on_threads, sim_config, TrialArena};
use fnp_netsim::NodeId;

/// The outcome of the large-n flood.
#[derive(Clone, Debug, PartialEq)]
pub struct LargeNFloodRow {
    /// Overlay size.
    pub n: usize,
    /// Diameter of the overlay, as far as `estimator` establishes it.
    pub diameter: usize,
    /// Which estimator produced `diameter` (exact below 2 048 nodes,
    /// double-sweep above).
    pub estimator: String,
    /// Messages the flood sent.
    pub messages: u64,
    /// Fraction of nodes the flood reached.
    pub coverage: f64,
}

impl ToJson for LargeNFloodRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("diameter", self.diameter.into()),
            ("estimator", self.estimator.as_str().into()),
            ("messages", self.messages.into()),
            ("coverage", self.coverage.into()),
        ])
    }
}

/// Builds the standard `n`-node overlay, estimates its diameter and floods
/// it once from node 0, untraced, with the overlay finalize and the
/// diameter BFS split across `threads` workers.
///
/// # Panics
///
/// Panics if the overlay cannot be generated or is not connected, which
/// for degree-8 overlays does not happen in practice.
pub fn large_n_flood(n: usize, seed: u64, threads: usize) -> LargeNFloodRow {
    let mut arena = TrialArena::new();
    let graph = overlay_on_threads(&mut arena, n, seed, threads);
    let (diameter, estimator) = graph
        .diameter_estimate_with_threads(threads)
        .expect("standard overlays are connected");
    let metrics = fnp_gossip::run_flood_in(&mut arena, graph, NodeId::new(0), 1, sim_config(seed));
    LargeNFloodRow {
        n,
        diameter,
        estimator: estimator.to_string(),
        messages: metrics.messages_sent,
        coverage: metrics.coverage(),
    }
}

/// The `fnp-bench large_n_flood` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "large_n_flood",
    about: "overlay build, diameter estimate and one untraced flood at n = 10^6",
    overrides: &["--n"],
    run,
};

fn run(args: &BinArgs) {
    let n = args.n.unwrap_or(1_000_000);
    let base_seed: u64 = 1;
    println!(
        "large-n flood — overlay build, diameter estimate, one untraced flood over {n} nodes\n"
    );
    let params = Json::obj([("n", Json::from(n)), ("base_seed", Json::from(base_seed))]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        vec![large_n_flood(n, base_seed, args.runner().threads())]
    });
    for row in &rows {
        println!("diameter : {} ({} estimator)", row.diameter, row.estimator);
        println!("messages : {}", row.messages);
        println!("coverage : {:.2}", row.coverage);
    }
}
