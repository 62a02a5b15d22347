//! The §II scenario end to end: a wallet broadcasts a fee-paying transaction
//! with different dissemination protocols, miners race for blocks, and the
//! fee income distribution shows how dissemination latency turns into
//! (un)fairness.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example miner_fairness
//! ```

use fnp_blockchain::{InclusionRace, Mempool, MinerSet, RaceConfig, Transaction};
use fnp_core::{run_protocol, FlexConfig, ProtocolKind};
use fnp_netsim::{as_millis, topology, NodeId, SimConfig, SECOND};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 400;
    let miner_count = 40;
    let mut rng = StdRng::seed_from_u64(2);
    let graph = topology::random_regular(n, 8, &mut rng)?;
    let miners = MinerSet::uniform(miner_count)?;

    println!("== part 1: one transaction, one block race ==\n");

    // A wallet (a non-miner node) creates and broadcasts a transaction with
    // the flexible protocol; the first miner to both know it and win a block
    // includes it.
    let wallet = NodeId::new(200);
    let tx = Transaction::new(wallet, 250, 120, 0);
    let mut mempool = Mempool::new(1_000_000);
    mempool.insert(tx.clone())?;

    let metrics = run_protocol(
        ProtocolKind::Flexible(FlexConfig::default()),
        graph.clone(),
        wallet,
        SimConfig {
            seed: 3,
            ..SimConfig::default()
        },
    )?;
    println!(
        "broadcast reached {:.0}% of the network with {} messages",
        metrics.coverage() * 100.0,
        metrics.messages_sent
    );

    let race_config = RaceConfig {
        mean_block_interval: 5 * SECOND,
        fee: tx.fee(),
        max_blocks: 200,
    };
    let outcome = fnp_blockchain::race_transaction(&metrics, &miners, race_config, &mut rng);
    if let fnp_blockchain::RaceOutcome::Included {
        miner,
        at,
        blocks_waited,
    } = outcome
    {
        // The winning miner fills its block from the mempool by fee rate.
        let block = mempool.select_for_block(1_000_000);
        let fees: u64 = block.iter().map(Transaction::fee).sum();
        println!(
            "miner {} included tx {} after {} block(s) at {:.0} ms and earned {} in fees\n",
            miner.index(),
            tx.id(),
            blocks_waited,
            as_millis(at),
            fees
        );
    } else {
        println!("the transaction was orphaned within the race budget\n");
    }

    println!("== part 2: fairness across protocols ==\n");
    println!(
        "{:<20} {:>12} {:>10} {:>22}",
        "protocol", "Jain index", "Gini", "inclusion delay (ms)"
    );
    for (label, kind) in [
        ("flood", ProtocolKind::Flood),
        ("flexible", ProtocolKind::Flexible(FlexConfig::default())),
    ] {
        let mut race = InclusionRace::new();
        for run in 0..4u64 {
            let seed = 100 + run;
            let mut run_rng = StdRng::seed_from_u64(seed);
            let graph = topology::random_regular(n, 8, &mut run_rng)?;
            let origin = NodeId::new(run_rng.gen_range(miner_count..n));
            let metrics = run_protocol(
                kind,
                graph,
                origin,
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )?;
            for _ in 0..300 {
                race.run_once(&metrics, &miners, race_config, &mut run_rng);
            }
        }
        let report = race.report(&miners);
        println!(
            "{:<20} {:>12.3} {:>10.3} {:>22.0}",
            label,
            report.jain_index,
            report.gini,
            report.mean_inclusion_delay / 1_000.0
        );
    }
    println!(
        "\nBoth protocols deliver to every miner, so fee income stays close to \
         proportional; the privacy protocol pays with a longer inclusion delay — the \
         trade-off §II describes."
    );
    Ok(())
}
