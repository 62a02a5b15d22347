//! A wallet's view: submit several transactions through the flexible
//! protocol, including two wallets that happen to collide in the same
//! DC-net round, and watch the collision/back-off machinery resolve it.
//!
//! This exercises the workload that motivates the paper: ordinary users
//! submitting payment transactions who do not want their IP address linked
//! to their payments, sharing DC-net groups with strangers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example wallet_broadcast
//! ```

use fnp_core::{run_flexible_broadcast, FlexConfig};
use fnp_dcnet::keyed::KeyedDcGroup;
use fnp_dcnet::slot::SlotOutcome;
use fnp_netsim::{topology, NodeId, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== part 1: three wallets broadcast through the full protocol ==\n");

    let mut rng = StdRng::seed_from_u64(7);
    let graph = topology::random_regular(400, 8, &mut rng)?;
    let config = FlexConfig::default();

    let wallets = [
        (NodeId::new(11), "wallet-a pays cafe 0.002"),
        (NodeId::new(222), "wallet-b pays rent 1.250"),
        (NodeId::new(333), "wallet-c donates 0.100"),
    ];

    for (seed, (origin, tx)) in wallets.iter().enumerate() {
        let report = run_flexible_broadcast(
            graph.clone(),
            *origin,
            tx.as_bytes().to_vec(),
            config,
            SimConfig {
                seed: seed as u64,
                ..SimConfig::default()
            },
        )?;
        println!(
            "{origin}: \"{tx}\" — coverage {:.0}%, {} msgs (dc {}, diffusion {}, flood {}), group of {}",
            report.coverage() * 100.0,
            report.total_messages(),
            report.phase1_messages,
            report.phase2_messages,
            report.phase3_messages,
            report.origin_group.len(),
        );
    }

    println!("\n== part 2: two wallets collide inside one DC-net group ==\n");

    // Two members of the same 6-member group try to send in the same round.
    // The slot's check trailer detects the collision; with the back-off rule
    // one of them retries in a later round and both transactions eventually
    // go out.
    let mut rng = StdRng::seed_from_u64(99);
    let mut group = KeyedDcGroup::new(6, 256, &mut rng)?;
    let tx_a = b"wallet-a pays cafe 0.002".to_vec();
    let tx_b = b"wallet-b pays rent 1.250".to_vec();

    let mut round = 0u64;
    let mut pending: Vec<(usize, Vec<u8>)> = vec![(0, tx_a), (3, tx_b)];
    while !pending.is_empty() && round < 10 {
        // Everyone with a pending transaction sends this round (worst case —
        // a real wallet would randomise its back-off).
        let mut payloads: Vec<Option<Vec<u8>>> = vec![None; 6];
        let senders: Vec<usize> = pending.iter().map(|(member, _)| *member).collect();
        for (member, tx) in &pending {
            // After the first collision, member 3 backs off for one round.
            if round == 1 && *member == 3 {
                continue;
            }
            payloads[*member] = Some(tx.clone());
        }
        let report = group.run_round(round, &payloads)?;
        match &report.outcome {
            SlotOutcome::Collision => {
                println!(
                    "round {round}: collision between members {senders:?} — retrying with back-off"
                );
            }
            SlotOutcome::Message(message) => {
                println!(
                    "round {round}: delivered \"{}\" ({} messages in the group)",
                    String::from_utf8_lossy(message),
                    report.messages_sent
                );
                pending.retain(|(_, tx)| tx != message);
            }
            SlotOutcome::Silence => {
                println!("round {round}: silent round");
            }
        }
        round += 1;
    }
    assert!(pending.is_empty(), "all wallet transactions were delivered");
    println!("\nall wallet transactions delivered anonymously");
    Ok(())
}
