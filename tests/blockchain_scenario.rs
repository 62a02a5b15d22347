//! Cross-crate integration tests for the §II scenario: transactions
//! broadcast with the workspace's dissemination protocols feed the
//! blockchain substrate (mempool, block races, fee income), and the
//! resulting fee distribution reflects dissemination latency.

use fnp_blockchain::{InclusionRace, Mempool, MinerSet, RaceConfig, RaceOutcome, Transaction};
use fnp_core::{run_protocol, FlexConfig, ProtocolKind};
use fnp_netsim::{topology, Metrics, NodeId, SimConfig, SECOND};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

fn overlay(n: usize, seed: u64) -> fnp_netsim::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    topology::random_regular(n, 8, &mut rng).unwrap()
}

#[test]
fn a_flexible_broadcast_feeds_a_block_race_and_a_chain() {
    let n = 200;
    let wallet = NodeId::new(150);
    let metrics = run_protocol(
        ProtocolKind::Flexible(FlexConfig::default()),
        overlay(n, 1),
        wallet,
        SimConfig {
            seed: 1,
            ..SimConfig::default()
        },
    )
    .unwrap();
    assert_eq!(metrics.coverage(), 1.0);

    let miners = MinerSet::uniform(20).unwrap();
    let tx = Transaction::new(wallet, 250, 80, 0);
    let mut mempool = Mempool::new(1_000_000);
    mempool.insert(tx.clone()).unwrap();

    let mut rng = StdRng::seed_from_u64(2);
    let outcome = fnp_blockchain::race_transaction(
        &metrics,
        &miners,
        RaceConfig {
            mean_block_interval: 2 * SECOND,
            fee: tx.fee(),
            max_blocks: 100,
        },
        &mut rng,
    );
    let RaceOutcome::Included { miner, at, .. } = outcome else {
        panic!("with full coverage the transaction must be included");
    };

    // The winning miner fills its block from the mempool, so the fee it
    // earns is the transaction's.
    assert!(at >= metrics.delivered_at[miner.index()].unwrap());
    let block = mempool.select_for_block(1_000_000);
    assert_eq!(block, vec![tx.clone()]);
    assert_eq!(block.iter().map(Transaction::fee).sum::<u64>(), tx.fee());
}

#[test]
fn every_protocol_in_the_suite_lets_all_miners_earn() {
    // With full delivery the long-run fee distribution must stay close to
    // proportional for every protocol (Jain index near 1); this is the
    // delivery/fairness requirement §II puts on any dissemination mechanism.
    let rows = fnp_bench_free_fairness();
    for (label, jain) in rows {
        assert!(
            jain > 0.8,
            "{label} produced an unfair distribution: {jain}"
        );
    }
}

/// Small local fairness sweep (kept independent of the fnp-bench crate so
/// the integration test exercises the public facade only).
fn fnp_bench_free_fairness() -> Vec<(&'static str, f64)> {
    let n = 150;
    let miner_count = 15;
    let miners = MinerSet::uniform(miner_count).unwrap();
    let race_config = RaceConfig {
        mean_block_interval: 3 * SECOND,
        fee: 50,
        max_blocks: 200,
    };
    [
        ("flood", ProtocolKind::Flood),
        ("flexible", ProtocolKind::Flexible(FlexConfig::default())),
    ]
    .into_iter()
    .map(|(label, kind)| {
        let mut race = InclusionRace::new();
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let origin = NodeId::new(miner_count + 5 + seed as usize);
            let metrics = run_protocol(
                kind,
                overlay(n, seed),
                origin,
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            for _ in 0..400 {
                race.run_once(&metrics, &miners, race_config, &mut rng);
            }
        }
        (label, race.report(&miners).jain_index)
    })
    .collect()
}

#[test]
fn skewed_delivery_is_less_fair_than_uniform_delivery() {
    let miners = MinerSet::uniform(10).unwrap();
    let race_config = RaceConfig {
        mean_block_interval: SECOND,
        fee: 10,
        max_blocks: 100,
    };

    let mut uniform = Metrics::new(10);
    let mut skewed = Metrics::new(10);
    for i in 0..10 {
        uniform.delivered_at[i] = Some(0);
        // Half the miners learn the transaction only much later.
        skewed.delivered_at[i] = Some(if i < 5 { 0 } else { 20 * SECOND });
    }

    let mut rng = StdRng::seed_from_u64(9);
    let mut uniform_race = InclusionRace::new();
    let mut skewed_race = InclusionRace::new();
    for _ in 0..2_000 {
        uniform_race.run_once(&uniform, &miners, race_config, &mut rng);
        skewed_race.run_once(&skewed, &miners, race_config, &mut rng);
    }
    let uniform_report = uniform_race.report(&miners);
    let skewed_report = skewed_race.report(&miners);
    assert!(
        skewed_report.jain_index < uniform_report.jain_index,
        "skewed delivery should be less fair ({} vs {})",
        skewed_report.jain_index,
        uniform_report.jain_index
    );
    assert!(skewed_report.gini > uniform_report.gini);
    assert!(skewed_report.mean_inclusion_delay > uniform_report.mean_inclusion_delay);
}

#[test]
fn mempool_and_chain_compose_over_multiple_blocks() {
    let mut rng = StdRng::seed_from_u64(4);
    let miners = MinerSet::uniform(5).unwrap();
    let mut mempool = Mempool::new(100_000);
    // The chain is the sequence of mined blocks, each the transactions its
    // miner selected.
    let mut chain: Vec<Vec<Transaction>> = Vec::new();

    // Ten wallets submit transactions; blocks of at most two transactions are
    // mined until the pool drains.
    for i in 0..10usize {
        mempool
            .insert(Transaction::new(
                NodeId::new(100 + i),
                250,
                (i as u64 + 1) * 10,
                0,
            ))
            .unwrap();
    }
    let mut fees_by_miner: BTreeMap<NodeId, u64> = BTreeMap::new();
    while !mempool.is_empty() {
        let winner = miners.sample_winner(&mut rng);
        let txs = mempool.select_for_block(500);
        for tx in &txs {
            assert!(mempool.remove(&tx.id()).is_some());
        }
        *fees_by_miner.entry(winner).or_default() += txs.iter().map(Transaction::fee).sum::<u64>();
        chain.push(txs);
    }
    assert_eq!(
        chain.len(),
        5,
        "10 transactions in blocks of 2 need 5 blocks"
    );
    let included: BTreeSet<_> = chain.iter().flatten().map(Transaction::id).collect();
    assert_eq!(included.len(), 10, "no transaction is selected twice");
    let total_fees: u64 = fees_by_miner.values().sum();
    assert_eq!(total_fees, (1..=10).map(|i| i * 10).sum::<u64>());
    // Fee-rate ordering means the first mined block carries the two most
    // generous transactions.
    assert_eq!(chain[0].iter().map(Transaction::fee).sum::<u64>(), 100 + 90);
}
