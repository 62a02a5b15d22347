//! Experiments E4 and E9 (paper Fig. 4, §III-B, §V-A): the O(k²) per-round
//! message cost of the DC-net constructions and the byte savings of the
//! 32-bit length-reservation optimisation for idle rounds.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{derive_seed, TrialRunner};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the DC-net cost experiment (E4 + E9).
#[derive(Clone, Debug)]
pub struct DcNetCostRow {
    /// Group size k.
    pub k: usize,
    /// Messages per explicit (Fig. 4) round.
    pub explicit_messages: u64,
    /// Messages per keyed (pad-based) round.
    pub keyed_messages: u64,
    /// Bytes per keyed round at the full slot size.
    pub keyed_bytes: u64,
    /// Bytes per idle round with the §V-A reservation optimisation.
    pub idle_bytes_with_reservation: u64,
    /// Bytes per idle round without the optimisation.
    pub idle_bytes_without_reservation: u64,
}

impl ToJson for DcNetCostRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::from(self.k)),
            ("explicit_messages", self.explicit_messages.into()),
            ("keyed_messages", self.keyed_messages.into()),
            ("keyed_bytes", self.keyed_bytes.into()),
            (
                "idle_bytes_with_reservation",
                self.idle_bytes_with_reservation.into(),
            ),
            (
                "idle_bytes_without_reservation",
                self.idle_bytes_without_reservation.into(),
            ),
        ])
    }
}

/// Runs experiment E4/E9: per-round cost of the DC-net constructions and
/// the savings of the reservation optimisation, as functions of k.
///
/// Each group size derives its own seed via [`derive_seed`], so the rows
/// are independent and can run in parallel.
pub fn dcnet_cost_with(
    runner: &TrialRunner,
    ks: &[usize],
    slot_len: usize,
    seed: u64,
) -> Vec<DcNetCostRow> {
    runner.run(ks.len(), |index| {
        let k = ks[index];
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, k as u64));
        let payloads = vec![None; k];
        let explicit =
            fnp_dcnet::run_explicit_round(&payloads, slot_len, &mut rng).expect("explicit round");
        let mut keyed_group =
            fnp_dcnet::KeyedDcGroup::new(k, slot_len, &mut rng).expect("keyed group");
        let keyed = keyed_group.run_round(0, &payloads).expect("keyed round");
        let model = fnp_dcnet::ReservationCostModel::new(k, slot_len);
        DcNetCostRow {
            k,
            explicit_messages: explicit.messages_sent,
            keyed_messages: keyed.messages_sent,
            keyed_bytes: keyed.bytes_sent,
            idle_bytes_with_reservation: model.idle_round_bytes_with_reservation(),
            idle_bytes_without_reservation: model.idle_round_bytes_without_reservation(),
        }
    })
}

/// The `fnp-bench fig4_dcnet_cost` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig4_dcnet_cost",
    about: "E4+E9: Fig. 4 / §III-B, §V-A DC-net cost",
    overrides: &[],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let ks = [3, 4, 5, 6, 8, 10, 12, 16];
    let slot = 512;
    let base_seed: u64 = 4;
    println!("E4+E9 / Fig. 4 — DC-net round cost (slot = {slot} bytes)\n");
    println!(
        "{:<4} {:>18} {:>14} {:>14} {:>22} {:>24}",
        "k",
        "explicit msgs/rnd",
        "keyed msgs/rnd",
        "keyed bytes",
        "idle bytes (reserved)",
        "idle bytes (full slot)"
    );
    let params = Json::obj([
        ("ks", Json::arr(ks)),
        ("slot_len", Json::from(slot)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        dcnet_cost_with(&runner, &ks, slot, base_seed)
    });
    for row in &rows {
        println!(
            "{:<4} {:>18} {:>14} {:>14} {:>22} {:>24}",
            row.k,
            row.explicit_messages,
            row.keyed_messages,
            row.keyed_bytes,
            row.idle_bytes_with_reservation,
            row.idle_bytes_without_reservation
        );
    }
    println!("\nBoth variants grow quadratically in k; the reservation optimisation");
    println!("cuts idle-round traffic by the slot/12 factor discussed in §V-A.");
}
