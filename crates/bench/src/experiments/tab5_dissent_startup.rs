//! Experiment E11 (§III-B): startup latency and traffic of the Dissent-style
//! announcement shuffle, reproducing the claim that the announcement round
//! "becomes noticeably slow, e.g., 30 seconds, for group sizes of 8 to 12".

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use fnp_shuffle::{round_traffic, StartupCostModel};

/// One row of the Dissent startup experiment (E11).
#[derive(Clone, Debug)]
pub struct DissentStartupRow {
    /// Group size.
    pub k: usize,
    /// Modelled startup latency of the announcement phase, in seconds
    /// (calibrated to the paper's "≈30 s for 8–12 members" anchor).
    pub startup_seconds: f64,
    /// Point-to-point messages of one full round (announcement + bulk).
    pub messages: u64,
    /// Bytes of one full round.
    pub bytes: u64,
    /// Serial hand-off steps of the announcement shuffle.
    pub serial_steps: usize,
}

impl ToJson for DissentStartupRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("startup_seconds", self.startup_seconds.into()),
            ("messages", self.messages.into()),
            ("bytes", self.bytes.into()),
            ("serial_steps", self.serial_steps.into()),
        ])
    }
}

/// Runs experiment E11: the Dissent-style baseline's startup cost as a
/// function of group size (§III-B's argument against shuffle-based systems
/// for blockchain dissemination). Each row is one round in which one member
/// broadcasts a typical 250-byte transaction, computed from the closed forms
/// of [`fnp_shuffle::cost`].
pub fn dissent_startup(ks: &[usize]) -> Vec<DissentStartupRow> {
    let model = StartupCostModel::default();
    ks.iter()
        .map(|&k| {
            let traffic = round_traffic(k, 250);
            DissentStartupRow {
                k,
                startup_seconds: model.estimate(k).latency_seconds(),
                messages: traffic.messages,
                bytes: traffic.bytes,
                serial_steps: traffic.serial_steps,
            }
        })
        .collect()
}

/// The `fnp-bench tab5_dissent_startup` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "tab5_dissent_startup",
    about: "E11: §III-B Dissent startup cost",
    overrides: &[],
    run,
};

fn run(args: &BinArgs) {
    let ks = [4, 6, 8, 10, 12, 16];
    println!("E11 / §III-B — Dissent-style announcement startup cost\n");
    println!(
        "{:<6} {:>14} {:>12} {:>12} {:>14}",
        "k", "startup (s)", "messages", "bytes", "serial steps"
    );
    let params = Json::obj([("ks", Json::arr(ks))]);
    let rows = with_report(args, EXPERIMENT.name, params, || dissent_startup(&ks));
    for row in &rows {
        println!(
            "{:<6} {:>14.1} {:>12} {:>12} {:>14}",
            row.k, row.startup_seconds, row.messages, row.bytes, row.serial_steps
        );
    }
    println!(
        "\nThe paper's anchor is the 8–12 range: tens of seconds of startup latency, \
         which it argues is unacceptable for blockchain transaction dissemination."
    );
}
