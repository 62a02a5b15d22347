//! Steady-state sessions of adaptive diffusion leak nothing.
//!
//! Under the steady multiplexer a live transaction is a slot: it leases a
//! lane set and a slot number at arrival and returns both when its last
//! event drains, and the session keeps its per-node instances in the row
//! numbered with that slot, emptied at retirement. Adaptive diffusion is
//! the core that leans on this hardest — its 32-round tail keeps a
//! transaction live for about a minute of simulated time, and its round
//! timers are the only per-transaction timers in the paper's protocols.
//! Over random arrival schedules, after the run: every transaction has
//! drained, every slot is back on the free list (so no lease — lanes and
//! slot travel together — is outstanding), the session numbered exactly
//! one row per slot of its peak concurrency, and no row holds an instance.

use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
use fnp_netsim::{topology, NodeId, SimConfig, SimTime, Simulator, SECOND};
use fnp_proto::steady::{Arrival, SteadyNode, SteadySession};
use fnp_proto::SimDriver;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_schedules_return_every_lane_slot_and_instance(
        seed in any::<u64>(),
        n in 12usize..40,
        // Gaps from back-to-back to past a whole broadcast, so slots are
        // both shared out concurrently and recycled within one run.
        schedule in proptest::collection::vec((1..90 * SECOND, 0usize..1000), 1..12),
    ) {
        let graph = topology::random_regular(n, 4, &mut StdRng::seed_from_u64(seed))
            .expect("4-regular overlay on an even node count");
        let mut at: SimTime = 0;
        let arrivals: Vec<Arrival> = schedule
            .iter()
            .map(|&(gap, origin)| {
                at += gap;
                Arrival { at, origin: NodeId::new(origin % n) }
            })
            .collect();

        let session = Rc::new(RefCell::new(SteadySession::new(n, &arrivals, &[], 0)));
        let mut per_node = vec![Vec::new(); n];
        for (tx, arrival) in arrivals.iter().enumerate() {
            per_node[arrival.origin.index()].push((arrival.at, tx as u64));
        }
        let nodes = per_node
            .into_iter()
            .map(|arrivals| {
                let prototype = AdaptiveDiffusionNode::new(AdParams::default());
                SimDriver::new(SteadyNode::new(prototype, Rc::clone(&session), arrivals))
            })
            .collect();
        let config = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulator::new(graph, nodes, config);
        sim.run();
        drop(sim);
        let session = Rc::into_inner(session).expect("nodes dropped").into_inner();
        let (free_slots, rows, instances) =
            (session.free_slots(), session.rows(), session.instances());
        let report = session.into_report();
        // Every slot ever numbered is free again: nothing is still leased.
        prop_assert_eq!(free_slots, report.peak_concurrent);
        prop_assert_eq!(rows, report.peak_concurrent);
        prop_assert!(instances == 0, "a retired transaction kept {} instances", instances);
        prop_assert!(report.peak_concurrent <= arrivals.len());
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            prop_assert!(outcome.completed_at.is_some(), "tx {} never drained", tx);
            prop_assert!(outcome.delivered_count > 1, "tx {} never left its origin", tx);
        }
    }
}
