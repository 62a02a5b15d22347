//! # fnp-bench — experiment harness for every figure and claim of the paper
//!
//! One binary, `fnp-bench <experiment> [flags]`, regenerates the paper's
//! evaluation artefacts (Fig. 1–5 and the quantitative claims of §III and
//! §V), one [`experiments`] module and one [`EXPERIMENTS`] entry each:
//!
//! | experiment | id | paper artefact |
//! |---|---|---|
//! | `fig1_landscape` | E1 | Fig. 1 privacy–performance landscape |
//! | `fig2_flood_deanon` | E2 | Fig. 2 / §I flooding deanonymisation |
//! | `fig3_dandelion` | E3 | Fig. 3 / §III-A Dandelion behaviour |
//! | `fig4_dcnet_cost` | E4 + E9 | Fig. 4 / §III-B, §V-A DC-net cost |
//! | `fig5_three_phase` | E5 | Fig. 5 / §IV-B three-phase breakdown |
//! | `fig6_steady_state` | E13 | §V under sustained load: Poisson arrivals, overlapping broadcasts, mempool drain |
//! | `tab1_message_overhead` | E6 | §V-A 12 500 vs 7 000 messages |
//! | `tab2_privacy_bounds` | E7 | §V-B ℓ-anonymity / near-1/n detection |
//! | `tab3_group_overlap` | E8 | §IV-C overlapping-group skew |
//! | `tab4_latency` | E10 | §II latency / fairness trade-off |
//! | `tab5_dissent_startup` | E11 | §III-B Dissent startup cost |
//! | `tab7_fairness` | E12 | §II fee fairness under latency |
//! | `abl1_vs_election` | A1 | §IV-B virtual-source election ablation |
//! | `large_n_flood` | — | one untraced flood over a million-node overlay |
//!
//! # Parallel trial execution
//!
//! Every driver takes an explicit [`TrialRunner`] and routes its
//! independent repetitions through it. Grid experiments flatten their full
//! cell×run cross product into one [`GridPlan`] so every worker stays busy
//! even when the per-cell `runs` is small, and each worker reuses one
//! [`TrialArena`] (overlay adjacency, node storage, event queue, metrics)
//! across all the trials it executes. Results are aggregated in plan order
//! and each trial derives its seed independently, so a parallel run
//! produces **byte-identical rows** to a single-threaded one — the
//! `runner_determinism`, `arena_determinism` and `golden` integration
//! tests assert this per thread count.
//!
//! The flags (`--threads`, `--json`, and the `--n` / `--runs` / `--rates`
//! size overrides each experiment honours) are described in [`cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The reporting paths cast between usize/u64/f64 for JSON rows; every
// remaining cast site must either be provably lossless or carry an
// explicit allow with the reason.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::cast_sign_loss)]

pub mod cli;
pub mod experiments;
pub mod json;
#[cfg(test)]
mod tests;

pub use experiments::abl1_vs_election::{election_ablation_with, ElectionAblationRow};
pub use experiments::fig1_landscape::{landscape_with, LandscapeRow};
pub use experiments::fig2_flood_deanon::{flood_deanonymization_with, FloodDeanonRow};
pub use experiments::fig3_dandelion::{dandelion_privacy_with, DandelionRow};
pub use experiments::fig4_dcnet_cost::{dcnet_cost_with, DcNetCostRow};
pub use experiments::fig5_three_phase::{three_phase_breakdown_with, ThreePhaseRow};
pub use experiments::fig6_steady_state::{steady_state_with, SteadyStateRow};
pub use experiments::large_n_flood::{large_n_flood, LargeNFloodRow};
pub use experiments::tab1_message_overhead::{message_overhead_with, MessageOverheadResult};
pub use experiments::tab2_privacy_bounds::{privacy_bounds_with, PrivacyBoundsRow};
pub use experiments::tab3_group_overlap::{group_overlap_with, GroupOverlapRow};
pub use experiments::tab4_latency::{latency_with, LatencyRow};
pub use experiments::tab5_dissent_startup::{dissent_startup_with, DissentStartupRow};
pub use experiments::tab7_fairness::{fee_fairness_with, FairnessRow};
pub use experiments::{Experiment, EXPERIMENTS};

use fnp_core::{FlexConfig, ProtocolKind};
use fnp_diffusion::AdParams;
use fnp_gossip::DandelionParams;
pub use fnp_netsim::{derive_seed, GridPlan, TrialArena, TrialRunner};
use fnp_netsim::{topology, Graph, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default overlay size used by the full experiments (the paper's
/// evaluation network size).
pub const PAPER_NETWORK_SIZE: usize = 1_000;

/// Builds the standard Bitcoin-like overlay used across experiments into
/// `arena`'s pooled graph storage — byte-identical to a fresh build,
/// without the per-trial adjacency reallocations.
///
/// # Panics
///
/// Panics if the random-regular generator fails, which for degree-8 graphs
/// of the sizes used here does not happen in practice.
pub fn standard_overlay_in(arena: &mut TrialArena, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = arena.graph(0);
    let mut scratch = arena.regular_scratch();
    topology::random_regular_into(&mut graph, n, 8, &mut rng, &mut scratch)
        .expect("degree-8 overlay generation");
    arena.store_regular_scratch(scratch);
    graph
}

/// The four protocols compared throughout the evaluation.
pub fn protocol_suite() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        ("flood", ProtocolKind::Flood),
        (
            "dandelion",
            ProtocolKind::Dandelion(DandelionParams::default()),
        ),
        (
            "adaptive-diffusion",
            ProtocolKind::AdaptiveDiffusion(AdParams {
                max_rounds: 96,
                ..AdParams::default()
            }),
        ),
        ("flexible", ProtocolKind::Flexible(FlexConfig::default())),
    ]
}

/// The simulator configuration of one trial: defaults plus its seed.
pub(crate) fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}
