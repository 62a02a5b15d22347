//! The first-receipt table is the transmission log's first entry per node.
//!
//! `AdversaryView::from_metrics` reads only the n-entry table the simulator
//! fills at delivery (`Metrics::receipts`). A run with `record_trace: true`
//! carries both the table and the full log, so the log is the oracle: for
//! all four protocols, with and without nodes going down mid-broadcast,
//! every node's receipt must be the first log entry addressed to it, and the
//! view must equal the filter-the-log reference below. The reference lives
//! here only (the style of `csr_reference.rs` / `mempool_model.rs`).
//!
//! CI runs this file in release mode, where it uses the paper's n = 1 000.

use fnp_adversary::{AdversarySet, AdversaryView, Observation};
use fnp_bench::{protocol_suite, standard_overlay_in, TrialArena};
use fnp_core::run_protocol;
use fnp_netsim::{ChurnSchedule, Metrics, NodeId, SimConfig, TraceEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const NODES: usize = if cfg!(debug_assertions) { 150 } else { 1000 };
const SEED: u64 = 21;

/// The view as it was computed before the table existed: walk the whole
/// log, keep the first entry per adversarial receiver, in `NodeId` order.
fn view_from_log(metrics: &Metrics, adversaries: &AdversarySet) -> AdversaryView {
    let mut first: BTreeMap<NodeId, &TraceEntry> = BTreeMap::new();
    for entry in &metrics.trace {
        if adversaries.contains(entry.to) {
            first.entry(entry.to).or_insert(entry);
        }
    }
    let observation = |entry: &TraceEntry| Observation {
        observer: entry.to,
        relayed_by: entry.from,
        at: entry.at,
        kind: entry.kind,
    };
    AdversaryView {
        observations: first.into_values().map(observation).collect(),
    }
}

fn assert_table_matches_log(label: &str, metrics: &Metrics, origin: NodeId) {
    let receipts = metrics.receipts().expect("a traced run records receipts");
    assert_eq!(receipts.len(), NODES);
    for (index, receipt) in receipts.iter().enumerate() {
        let node = NodeId::new(index);
        let logged = metrics.trace.iter().find(|entry| entry.to == node);
        let noted = receipt.map(|r| (r.at, r.from, metrics.kinds().name(r.kind)));
        assert_eq!(
            noted,
            logged.map(|entry| (entry.at, entry.from, entry.kind)),
            "{label}: receipt of {node} is not its first log entry"
        );
    }
    for fraction in [0.1, 0.3] {
        let mut rng = StdRng::seed_from_u64(SEED);
        let adversaries = AdversarySet::random_fraction(NODES, fraction, &[origin], &mut rng);
        assert_eq!(
            AdversaryView::from_metrics(metrics, &adversaries),
            view_from_log(metrics, &adversaries),
            "{label}: view at adversary fraction {fraction} differs from the log's"
        );
    }
}

fn traced(churn: ChurnSchedule) -> SimConfig {
    SimConfig {
        seed: SEED,
        record_trace: true,
        churn,
        ..SimConfig::default()
    }
}

#[test]
fn receipts_are_the_first_log_entry_per_node() {
    let origin = NodeId::new(7);
    for (label, kind) in protocol_suite() {
        let graph = standard_overlay_in(&mut TrialArena::new(), NODES, SEED);
        let metrics =
            run_protocol(kind, graph, origin, traced(ChurnSchedule::none())).expect("protocol run");
        assert_eq!(metrics.coverage(), 1.0, "{label}");
        assert_table_matches_log(label, &metrics, origin);
    }
}

#[test]
fn receipts_are_the_first_log_entry_per_node_under_churn() {
    let origin = NodeId::new(7);
    for (label, kind) in protocol_suite() {
        let overlay = || standard_overlay_in(&mut TrialArena::new(), NODES, SEED);
        // Same seed, so the churned run is the baseline up to `down_from`.
        let baseline = run_protocol(kind, overlay(), origin, traced(ChurnSchedule::none()))
            .expect("baseline run");
        let down_from = baseline.time_to_coverage(0.2).expect("reaches 20 %");
        let down_until = baseline.time_to_coverage(0.8).expect("reaches 80 %");
        let mut rng = StdRng::seed_from_u64(SEED);
        let churn =
            ChurnSchedule::random_fraction(NODES, 0.15, down_from, down_until, &[origin], &mut rng);

        let metrics =
            run_protocol(kind, overlay(), origin, traced(churn.clone())).expect("churned run");
        assert!(
            metrics.counter("dropped-offline") > 0,
            "{label}: the outage missed the broadcast"
        );
        assert_table_matches_log(label, &metrics, origin);
        // A message dropped at a node that was down left no receipt.
        let receipts = metrics.receipts().expect("recorded");
        for node in churn.affected_nodes() {
            if let Some(receipt) = receipts[node.index()] {
                assert!(
                    !churn.is_down(node, receipt.at),
                    "{label}: {node} noted a receipt while down"
                );
            }
        }
    }
}
