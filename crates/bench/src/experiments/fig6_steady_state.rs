//! Experiment E13 (fig6): steady-state heavy traffic — Poisson transaction
//! arrivals, overlapping broadcasts and a shared mempool drained by an
//! exponential block process.
//!
//! The single-broadcast experiments measure each protocol in isolation;
//! this driver measures them **under load**: many wallets inject
//! transactions into one overlay at a sustained rate, the broadcasts
//! overlap in flight, and every transaction's first miner delivery feeds a
//! mempool that miners keep draining into blocks. Reported per
//! protocol × rate cell: throughput, delivery-latency percentiles,
//! messages per transaction, peak in-flight concurrency, mempool occupancy
//! and eviction-survivor inclusion, and the first-spy detection rate under
//! overlapping traffic. Rows are byte-identical at any `--threads` count.

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::{sim_config, standard_overlay_in, GridPlan, TrialArena, TrialRunner};
use fnp_core::{FlexConfig, ProtocolKind};
use fnp_diffusion::AdParams;
use fnp_gossip::DandelionParams;
use fnp_netsim::{percentile_sorted_by, summarize, NodeId, SimTime, SECOND};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One row of the steady-state heavy-traffic experiment (E13 / fig6).
///
/// Each row aggregates `runs` independent sessions of one protocol under
/// one Poisson arrival rate: many wallets inject transactions into the
/// same overlay, the broadcasts overlap in flight, and every transaction's
/// first miner delivery feeds a shared mempool drained by an exponential
/// block process.
#[derive(Clone, Debug)]
pub struct SteadyStateRow {
    /// Protocol label.
    pub protocol: &'static str,
    /// Poisson arrival rate, in transactions per simulated second.
    pub rate_per_second: f64,
    /// Transactions injected across all runs.
    pub injected: usize,
    /// Achieved fraction of the `injected × n` possible deliveries
    /// (mean per-transaction coverage; 1.0 = every broadcast completed).
    pub delivered_fraction: f64,
    /// Fully delivered transactions per simulated second, averaged over
    /// runs.
    pub throughput_tx_per_s: f64,
    /// Median delivery latency over every `(transaction, node)` delivery,
    /// in milliseconds since that transaction's injection.
    pub p50_delivery_ms: f64,
    /// 95th-percentile delivery latency in milliseconds.
    pub p95_delivery_ms: f64,
    /// 99th-percentile delivery latency in milliseconds.
    pub p99_delivery_ms: f64,
    /// Mean messages sent per injected transaction.
    pub mean_messages_per_tx: f64,
    /// Highest number of transactions simultaneously in flight (max over
    /// runs) — the overlap the session actually sustained.
    pub peak_concurrent: usize,
    /// Mempool occupancy high-water mark, in transactions (max over runs).
    pub mempool_peak_len: usize,
    /// Mean mempool occupancy sampled after every miner delivery,
    /// averaged over runs.
    pub mempool_mean_len: f64,
    /// Fraction of injected transactions included in a block before the
    /// drain budget ran out.
    pub included_fraction: f64,
    /// Mean delay from first miner delivery to block inclusion, in
    /// milliseconds.
    pub mean_inclusion_delay_ms: f64,
    /// Fraction of transactions whose first-spy estimate named the true
    /// origin — privacy under load; lower is better.
    pub first_spy_detection: f64,
}

impl ToJson for SteadyStateRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::from(self.protocol)),
            ("rate_per_second", self.rate_per_second.into()),
            ("injected", self.injected.into()),
            ("delivered_fraction", self.delivered_fraction.into()),
            ("throughput_tx_per_s", self.throughput_tx_per_s.into()),
            ("p50_delivery_ms", self.p50_delivery_ms.into()),
            ("p95_delivery_ms", self.p95_delivery_ms.into()),
            ("p99_delivery_ms", self.p99_delivery_ms.into()),
            ("mean_messages_per_tx", self.mean_messages_per_tx.into()),
            ("peak_concurrent", self.peak_concurrent.into()),
            ("mempool_peak_len", self.mempool_peak_len.into()),
            ("mempool_mean_len", self.mempool_mean_len.into()),
            ("included_fraction", self.included_fraction.into()),
            (
                "mean_inclusion_delay_ms",
                self.mean_inclusion_delay_ms.into(),
            ),
            ("first_spy_detection", self.first_spy_detection.into()),
        ])
    }
}

/// Per-trial aggregates of one steady-state session (numbers only, so the
/// grid workers stay cheap to join).
struct SteadyTrial {
    injected: usize,
    deliveries: usize,
    fully_delivered: usize,
    latencies_us: Vec<u64>,
    messages: u64,
    peak_concurrent: usize,
    detected: usize,
    included: usize,
    inclusion_delays_us: Vec<u64>,
    mempool_peak_len: usize,
    mempool_mean_len: f64,
}

/// Fixed transaction size (bytes) used by the steady-state mempool replay.
const STEADY_TX_BYTES: usize = 250;

/// One steady-state trial: build the overlay, draw the Poisson arrival
/// schedule, run the overlapping broadcasts and replay the miner
/// deliveries against the mempool. Everything derives from `seed`, so the
/// trial is a pure function of its cell — byte-identical at any worker
/// count.
fn steady_trial(
    arena: &mut TrialArena,
    kind: ProtocolKind,
    n: usize,
    miner_count: usize,
    rate: f64,
    horizon: SimTime,
    seed: u64,
) -> SteadyTrial {
    use fnp_blockchain::{
        replay_steady_mempool, MinerDelivery, MinerSet, SteadyMempoolConfig, Transaction,
    };
    use fnp_proto::steady::run_steady_in;
    use fnp_proto::Arrival;

    let mut rng = StdRng::seed_from_u64(seed);
    let graph = standard_overlay_in(arena, n, seed);

    // Nodes 0..miner_count are the miners. Wallets and adversaries are
    // drawn from the remaining nodes: every miner has to learn each
    // transaction over the network, and the spies watch from the edge
    // rather than from inside the mining set.
    let adversary_count = (n / 10).max(1);
    let mut outsiders: Vec<NodeId> = (miner_count..n).map(NodeId::new).collect();
    for i in 0..adversary_count {
        let j = rng.gen_range(i..outsiders.len());
        outsiders.swap(i, j);
    }
    let adversaries: Vec<NodeId> = outsiders[..adversary_count].to_vec();
    let senders = &outsiders[adversary_count..];

    let times = fnp_netsim::poisson_arrivals(rate, horizon, &mut rng)
        .expect("callers validate arrival rates");
    let arrivals: Vec<Arrival> = times
        .into_iter()
        .map(|at| Arrival {
            at,
            origin: senders[rng.gen_range(0..senders.len())],
        })
        .collect();

    let config = sim_config(seed);
    let (metrics, report) = match kind {
        ProtocolKind::Flood => {
            let prototypes = (0..n).map(|_| fnp_gossip::FloodNode::new()).collect();
            run_steady_in(
                arena,
                graph,
                prototypes,
                &arrivals,
                &adversaries,
                miner_count,
                config,
            )
        }
        ProtocolKind::Dandelion(params) => {
            let line = fnp_gossip::StemLine::random(n, &mut rng);
            let prototypes = (0..n)
                .map(|i| fnp_gossip::DandelionNode::new(params, line.successor(NodeId::new(i))))
                .collect();
            run_steady_in(
                arena,
                graph,
                prototypes,
                &arrivals,
                &adversaries,
                miner_count,
                config,
            )
        }
        ProtocolKind::AdaptiveDiffusion(params) => {
            let prototypes = vec![fnp_diffusion::AdaptiveDiffusionNode::new(params); n];
            run_steady_in(
                arena,
                graph,
                prototypes,
                &arrivals,
                &adversaries,
                miner_count,
                config,
            )
        }
        ProtocolKind::Flexible(flex_config) => {
            let prototypes = fnp_core::flex_steady_prototypes_in(arena, n, flex_config, seed)
                .expect("flexible prototype setup");
            run_steady_in(
                arena,
                graph,
                prototypes,
                &arrivals,
                &adversaries,
                miner_count,
                config,
            )
        }
    };

    // Feed each transaction's first miner delivery into the shared pool.
    // Distinct fees make the eviction order strict; the injection time
    // doubles as the uniqueness salt of the transaction id (arrival times
    // are strictly increasing).
    let deliveries: Vec<MinerDelivery> = report
        .per_tx
        .iter()
        .enumerate()
        .filter_map(|(tx, outcome)| {
            outcome.first_miner_delivery.map(|at| MinerDelivery {
                at,
                tx: Transaction::new(
                    outcome.origin,
                    STEADY_TX_BYTES,
                    100 + tx as u64,
                    outcome.injected_at,
                ),
            })
        })
        .collect();
    let miners = MinerSet::uniform(miner_count).expect("at least one miner");
    let pool_report = replay_steady_mempool(
        &miners,
        &deliveries,
        SteadyMempoolConfig {
            // A pool of ~64 transactions: generous in the steady regime,
            // tight enough that a burst exercises the fee-eviction policy.
            capacity_bytes: 64 * STEADY_TX_BYTES,
            // Eight transactions per block, every two seconds on average.
            block_max_bytes: 8 * STEADY_TX_BYTES,
            mean_block_interval: 2 * SECOND,
            max_drain_blocks: 1_000,
        },
        &mut rng,
    );

    let detected = report
        .per_tx
        .iter()
        .filter(|outcome| outcome.first_spy_estimate == Some(outcome.origin))
        .count();
    let fully_delivered = report
        .per_tx
        .iter()
        .filter(|outcome| outcome.delivered_count == n)
        .count();
    let trial = SteadyTrial {
        injected: report.per_tx.len(),
        deliveries: report.latencies_us.len(),
        fully_delivered,
        latencies_us: report.latencies_us,
        messages: metrics.messages_sent,
        peak_concurrent: report.peak_concurrent,
        detected,
        included: pool_report.included,
        inclusion_delays_us: pool_report.inclusion_delays_us,
        mempool_peak_len: pool_report.peak_len,
        mempool_mean_len: pool_report.mean_len,
    };
    arena.recycle_metrics(metrics);
    trial
}

/// A latency in microseconds, in milliseconds: non-decreasing and
/// non-negative, so a sample sorted in microseconds is sorted in
/// milliseconds too (see [`percentile_sorted_by`]).
fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Runs experiment E13: every protocol × arrival-rate cell of the
/// steady-state heavy-traffic grid.
///
/// The cell×run cross product executes as one flattened [`GridPlan`];
/// the per-cell seed depends on `(rate, run)` but **not** on the protocol,
/// so at a given rate all four protocols face the same overlay, the same
/// arrival schedule and the same wallets — a paired comparison.
///
/// # Panics
///
/// Panics if fewer than two non-miner, non-adversary nodes remain to act
/// as wallets (`n` must comfortably exceed `miner_count + n/10`), or if
/// any rate is zero, negative or non-finite (validate with
/// [`fnp_netsim::validate_rate`] first — the CLI layer already does).
pub fn steady_state_with(
    runner: &TrialRunner,
    n: usize,
    miner_count: usize,
    runs: usize,
    rates: &[f64],
    horizon: SimTime,
    base_seed: u64,
) -> Vec<SteadyStateRow> {
    // Same four protocols as `protocol_suite`, but adaptive diffusion runs
    // with a moderated round budget: the 96-round tail is sized for one
    // broadcast on the paper's 1 000-node overlay, and under sustained
    // arrivals it would keep every transaction spreading for tens of
    // simulated seconds after full coverage, dwarfing the arrival window.
    let suite: Vec<(&'static str, ProtocolKind)> = vec![
        ("flood", ProtocolKind::Flood),
        (
            "dandelion",
            ProtocolKind::Dandelion(DandelionParams::default()),
        ),
        (
            "adaptive-diffusion",
            ProtocolKind::AdaptiveDiffusion(AdParams {
                max_rounds: 32,
                ..AdParams::default()
            }),
        ),
        ("flexible", ProtocolKind::Flexible(FlexConfig::default())),
    ];
    let cells: Vec<(&'static str, ProtocolKind, f64)> = suite
        .into_iter()
        .flat_map(|(label, kind)| rates.iter().map(move |&rate| (label, kind, rate)))
        .collect();
    let per_cell = runner.run_grid(GridPlan::new(cells.len(), runs), |arena, cell, run| {
        let (_, kind, rate) = cells[cell];
        // Pinned per-cell seed formula; the lossy f64 cast is part of it.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let seed = base_seed + run as u64 * 17 + (rate * 100.0) as u64;
        steady_trial(arena, kind, n, miner_count, rate, horizon, seed)
    });

    let horizon_seconds = horizon as f64 / SECOND as f64;
    let mut rows = Vec::new();
    for (&(label, _, rate), trials) in cells.iter().zip(per_cell) {
        let trial_count = trials.len();
        let mut injected = 0usize;
        let mut deliveries = 0usize;
        let mut fully_delivered = 0usize;
        let mut messages = 0u64;
        let mut peak_concurrent = 0usize;
        let mut detected = 0usize;
        let mut included = 0usize;
        let mut mempool_peak_len = 0usize;
        let mut mempool_mean_sum = 0.0f64;
        // Sorted in microseconds and converted only where read: the first
        // trial's log is sorted in place, later ones appended to it.
        let mut latencies_us: Vec<u64> = Vec::new();
        let mut inclusion_ms: Vec<f64> = Vec::new();
        for trial in trials {
            injected += trial.injected;
            deliveries += trial.deliveries;
            fully_delivered += trial.fully_delivered;
            messages += trial.messages;
            peak_concurrent = peak_concurrent.max(trial.peak_concurrent);
            detected += trial.detected;
            included += trial.included;
            mempool_peak_len = mempool_peak_len.max(trial.mempool_peak_len);
            mempool_mean_sum += trial.mempool_mean_len;
            if latencies_us.is_empty() {
                latencies_us = trial.latencies_us;
            } else {
                latencies_us.extend_from_slice(&trial.latencies_us);
            }
            inclusion_ms.extend(trial.inclusion_delays_us.iter().map(|&us| us_to_ms(us)));
        }
        latencies_us.sort_unstable();
        let injected_f = injected as f64;
        rows.push(SteadyStateRow {
            protocol: label,
            rate_per_second: rate,
            injected,
            delivered_fraction: if injected == 0 {
                0.0
            } else {
                deliveries as f64 / (injected_f * n as f64)
            },
            throughput_tx_per_s: fully_delivered as f64
                / (horizon_seconds * trial_count.max(1) as f64),
            p50_delivery_ms: percentile_sorted_by(&latencies_us, 50.0, us_to_ms),
            p95_delivery_ms: percentile_sorted_by(&latencies_us, 95.0, us_to_ms),
            p99_delivery_ms: percentile_sorted_by(&latencies_us, 99.0, us_to_ms),
            mean_messages_per_tx: if injected == 0 {
                0.0
            } else {
                messages as f64 / injected_f
            },
            peak_concurrent,
            mempool_peak_len,
            mempool_mean_len: mempool_mean_sum / trial_count.max(1) as f64,
            included_fraction: if injected == 0 {
                0.0
            } else {
                included as f64 / injected_f
            },
            mean_inclusion_delay_ms: summarize(&inclusion_ms).mean,
            first_spy_detection: if injected == 0 {
                0.0
            } else {
                detected as f64 / injected_f
            },
        });
    }
    rows
}

/// The `fnp-bench fig6_steady_state` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig6_steady_state",
    about: "E13: §V under sustained load (Poisson arrivals, mempool drain)",
    overrides: &["--n", "--runs", "--rates"],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let n = args.n.unwrap_or(200);
    let miner_count = 20.min(n / 4).max(1);
    let runs = args.runs.unwrap_or(3);
    let rates = args.rates.clone().unwrap_or_else(|| vec![1.0, 4.0]);
    let horizon = 5 * SECOND;
    let base_seed: u64 = 13;
    println!("E13 / fig6 — steady-state heavy traffic, overlapping broadcasts\n");
    println!(
        "{n}-node overlay, {miner_count} miners, {}s arrival window, rates {rates:?} tx/s, \
         {runs} runs per cell\n",
        horizon / SECOND
    );
    println!(
        "{:<20} {:>6} {:>5} {:>6} {:>9} {:>9} {:>9} {:>8} {:>5} {:>6} {:>7} {:>8}",
        "protocol",
        "tx/s",
        "txs",
        "cover",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "msgs/tx",
        "peak",
        "pool",
        "incl",
        "spy"
    );
    let params = Json::obj([
        ("n", Json::from(n)),
        ("miner_count", Json::from(miner_count)),
        ("runs", Json::from(runs)),
        ("rates", Json::arr(rates.iter().copied())),
        ("horizon_us", Json::from(horizon)),
        ("base_seed", Json::from(base_seed)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        steady_state_with(&runner, n, miner_count, runs, &rates, horizon, base_seed)
    });
    for row in &rows {
        println!(
            "{:<20} {:>6.1} {:>5} {:>6.3} {:>9.1} {:>9.1} {:>9.1} {:>8.1} {:>5} {:>6} {:>7.3} {:>8.3}",
            row.protocol,
            row.rate_per_second,
            row.injected,
            row.delivered_fraction,
            row.p50_delivery_ms,
            row.p95_delivery_ms,
            row.p99_delivery_ms,
            row.mean_messages_per_tx,
            row.peak_concurrent,
            row.mempool_peak_len,
            row.included_fraction,
            row.first_spy_detection
        );
    }
    println!(
        "\nAt a fixed rate every protocol faces the same arrival schedule (paired seeds); \
         privacy mechanisms pay for anonymity with tail latency and mempool dwell time, \
         and the first-spy column shows whether overlapping traffic helps or hurts them."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::percentile_sorted;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Percentiles read from the microsecond sort carry the same bits as
    /// those of every sample converted to milliseconds and sorted there.
    #[test]
    fn percentiles_of_the_microsecond_sort_match_the_millisecond_sort() {
        let mut rng = StdRng::seed_from_u64(47);
        let pool = [0, 1, 999, 1_000, 250_000, 1 << 53, (1 << 53) + 1, u64::MAX];
        let mut samples: Vec<Vec<u64>> = vec![
            vec![],
            vec![1_234],
            vec![7, 7, 7, 3, 3, 1_000_001],
            // Distinct in microseconds, one value in milliseconds.
            vec![(1 << 53) + 1, 1 << 53, u64::MAX - 1, u64::MAX],
        ];
        samples.extend((0..200).map(|_| {
            let len = rng.gen_range(1..40);
            (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect()
        }));
        for sample in samples {
            let mut ms: Vec<f64> = sample.iter().map(|&us| us_to_ms(us)).collect();
            ms.sort_unstable_by(f64::total_cmp);
            let mut us = sample.clone();
            us.sort_unstable();
            for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
                assert_eq!(
                    percentile_sorted_by(&us, p, us_to_ms).to_bits(),
                    percentile_sorted(&ms, p).to_bits(),
                    "p{p} of {sample:?}"
                );
            }
        }
    }
}
