//! Two cryptographic baselines side by side: the paper's plain DC-net
//! (Phase 1 of the flexible protocol) against the Dissent-style
//! shuffle-plus-bulk round, whose cost `fnp-shuffle` models in closed form.
//!
//! Both deliver a transaction anonymously inside a group of k members; the
//! comparison shows why the paper builds on the DC-net rather than the
//! shuffle: similar traffic, but the shuffle's serial announcement phase
//! adds a startup latency that grows into tens of seconds for the group
//! sizes the paper considers (§III-B).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dissent_vs_dcnet
//! ```

use fnp_dcnet::{KeyedDcGroup, SlotOutcome};
use fnp_shuffle::{round_traffic, StartupCostModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let transaction = b"alice pays bob 3 tokens".to_vec();
    println!(
        "anonymous intra-group transmission of a {}-byte transaction\n",
        transaction.len()
    );
    println!(
        "{:<4} {:>16} {:>14} {:>18} {:>16} {:>18}",
        "k", "dc-net msgs", "dc-net bytes", "dissent msgs", "dissent bytes", "dissent startup"
    );

    for k in [4usize, 6, 8, 10, 12] {
        let mut rng = StdRng::seed_from_u64(k as u64);

        // --- Plain keyed DC-net: one sized round carries the payload. ---
        let slot_len = transaction.len() + 8;
        let mut dc_group = KeyedDcGroup::new(k, slot_len, &mut rng)?;
        let mut payloads: Vec<Option<Vec<u8>>> = vec![None; k];
        payloads[k / 2] = Some(transaction.clone());
        let dc_report = dc_group.run_round(0, &payloads)?;
        assert!(matches!(dc_report.outcome, SlotOutcome::Message(ref m) if *m == transaction));

        // --- Dissent-style round, from the cost model: shuffle + bulk slot. ---
        let dissent = round_traffic(k, transaction.len());
        let startup = StartupCostModel::default().estimate(k);

        println!(
            "{:<4} {:>16} {:>14} {:>18} {:>16} {:>15.1} s",
            k,
            dc_report.messages_sent,
            dc_report.bytes_sent,
            dissent.messages,
            dissent.bytes,
            startup.latency_seconds()
        );
    }

    println!("\nstartup model sensitivity (k = 10):");
    for (label, model) in [
        ("paper-era constants", StartupCostModel::default()),
        ("modern hardware    ", StartupCostModel::modern()),
    ] {
        let estimate = model.estimate(10);
        println!(
            "  {label}: {:>6.1} s ({} serial steps, {} public-key operations)",
            estimate.latency_seconds(),
            estimate.serial_steps,
            estimate.crypto_operations
        );
    }
    println!(
        "\nEven with modern constants the announcement phase stays serial in k, which is \
         why the paper prefers a DC-net floor plus statistical spreading."
    );
    Ok(())
}
