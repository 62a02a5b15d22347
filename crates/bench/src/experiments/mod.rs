//! The experiment table: one module per experiment, one [`Experiment`]
//! entry per module, one [`EXPERIMENTS`] array the `fnp-bench` binary
//! dispatches over.
//!
//! Each module holds everything about its experiment: the row type and its
//! [`ToJson`] impl, the driver (`*_with`, taking an explicit
//! [`TrialRunner`](crate::TrialRunner)), and the `run` function that prints
//! the table and writes the `--json` report.

use crate::cli::BinArgs;
use crate::json::{Json, ToJson};

pub mod abl1_vs_election;
pub mod fig1_landscape;
pub mod fig2_flood_deanon;
pub mod fig3_dandelion;
pub mod fig4_dcnet_cost;
pub mod fig5_three_phase;
pub mod fig6_steady_state;
pub mod large_n_flood;
pub mod tab1_message_overhead;
pub mod tab2_privacy_bounds;
pub mod tab3_group_overlap;
pub mod tab4_latency;
pub mod tab5_dissent_startup;
pub mod tab7_fairness;

/// One runnable experiment: `fnp-bench <name> [flags]`.
pub struct Experiment {
    /// The name given on the command line and written to the JSON report.
    pub name: &'static str,
    /// One line for `--help`: experiment id and paper artefact.
    pub about: &'static str,
    /// The size overrides (`--n`, `--runs`, `--rates`) this experiment
    /// honours; the command line rejects the others.
    pub overrides: &'static [&'static str],
    /// Runs the experiment: prints its table to stdout and writes the
    /// JSON report if `--json` was given.
    pub run: fn(&BinArgs),
}

/// Every experiment `fnp-bench` can run, in `--help` order.
pub const EXPERIMENTS: [Experiment; 14] = [
    fig1_landscape::EXPERIMENT,
    fig2_flood_deanon::EXPERIMENT,
    fig3_dandelion::EXPERIMENT,
    fig4_dcnet_cost::EXPERIMENT,
    fig5_three_phase::EXPERIMENT,
    fig6_steady_state::EXPERIMENT,
    tab1_message_overhead::EXPERIMENT,
    tab2_privacy_bounds::EXPERIMENT,
    tab3_group_overlap::EXPERIMENT,
    tab4_latency::EXPERIMENT,
    tab5_dissent_startup::EXPERIMENT,
    tab7_fairness::EXPERIMENT,
    abl1_vs_election::EXPERIMENT,
    large_n_flood::EXPERIMENT,
];

impl ToJson for fnp_adversary::PrivacySummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("runs", Json::from(self.runs)),
            ("detection_probability", self.detection_probability.into()),
            (
                "mean_probability_on_origin",
                self.mean_probability_on_origin.into(),
            ),
            (
                "mean_anonymity_set_size",
                self.mean_anonymity_set_size.into(),
            ),
            ("mean_entropy_bits", self.mean_entropy_bits.into()),
        ])
    }
}
