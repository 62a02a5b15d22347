//! # fnp-netsim — discrete-event peer-to-peer network simulator
//!
//! The evaluation of *"A Flexible Network Approach to Privacy of Blockchain
//! Transactions"* (ICDCS 2018) studies how transactions disseminate over a
//! peer-to-peer overlay of roughly a thousand nodes, how many messages each
//! dissemination strategy costs, and what an adversary observing part of
//! the network can infer about the originator. This crate provides the
//! substrate for all of that:
//!
//! * [`graph`] / [`topology`] — the overlay graph and generators for the
//!   standard topology families (random regular "Bitcoin-like" overlays,
//!   Erdős–Rényi, Watts–Strogatz, Barabási–Albert, rings, lines, trees…).
//! * [`sim`] — the deterministic discrete-event simulator. Protocols are
//!   [`ProtocolNode`] state machines reacting to messages and timers via a
//!   [`Context`] handle.
//! * [`mailbox`] — the [`Effect`] vocabulary and the [`Mailbox`] buffer a
//!   handler's actions are pushed into; shared with the sans-IO cores of
//!   `fnp-proto`, which push into the simulator's own mailbox.
//! * [`latency`] — link-latency models (constant, uniform, exponential).
//! * [`metrics`] — per-run aggregates (message/byte counts by kind,
//!   delivery times, coverage latency), the per-node first-receipt table
//!   the adversary estimators read, and the optional full transmission
//!   trace.
//! * [`stats`] — means, percentiles and entropy helpers for experiment
//!   reports.
//! * [`runner`] — the parallel trial engine: fans independent seeded runs
//!   out over scoped worker threads with results in deterministic plan
//!   order, including flattened cell×run grids ([`GridPlan`]).
//! * [`hot`] — struct-of-arrays storage for the hot per-node protocol
//!   fields (seen flags, phase tags, counters), kept out of the cold node
//!   structs so the event loop's duplicate checks stay in cache.
//! * [`arena`] — per-worker [`TrialArena`]s that recycle graph, queue,
//!   metrics and node-storage allocations between trials.
//! * [`arrival`] / [`lanes`] — steady-state building blocks: Poisson
//!   arrival schedules precomputed from the trial seed, and a pool of
//!   per-transaction hot-lane sets so overlapping broadcasts never share
//!   duplicate-suppression state.
//!
//! The simulator is single-threaded and deterministic under a fixed
//! [`SimConfig::seed`]; experiment harnesses parallelise across *runs*, not
//! within them, via [`TrialRunner`].
//!
//! # Example: plain flooding on a random regular overlay
//!
//! ```
//! use fnp_netsim::{
//!     topology, Context, LatencyModel, NodeId, Payload, ProtocolNode, SimConfig, Simulator,
//! };
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! #[derive(Clone, Debug)]
//! struct Tx;
//! impl Payload for Tx {
//!     fn kind(&self) -> &'static str { "tx" }
//! }
//!
//! #[derive(Default)]
//! struct Flooder { seen: bool }
//! impl ProtocolNode for Flooder {
//!     type Message = Tx;
//!     fn on_message(&mut self, from: NodeId, msg: Tx, ctx: &mut Context<'_, Tx>) {
//!         if !std::mem::replace(&mut self.seen, true) {
//!             ctx.mark_delivered();
//!             ctx.send_to_neighbors_except(msg, &[from]);
//!         }
//!     }
//! }
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = topology::random_regular(100, 8, &mut rng)?;
//! let nodes = (0..100).map(|_| Flooder::default()).collect();
//! let mut sim = Simulator::new(graph, nodes, SimConfig::default());
//! sim.trigger(NodeId::new(0), |node, ctx| {
//!     node.seen = true;
//!     ctx.mark_delivered();
//!     ctx.send_to_neighbors_except(Tx, &[]);
//! });
//! let metrics = sim.run();
//! assert_eq!(metrics.coverage(), 1.0);
//! # Ok::<(), fnp_netsim::GenerateTopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The hot lanes cast between u32/u64/usize/f64; every remaining cast site
// must either be provably lossless or carry an explicit allow with the
// reason.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::cast_sign_loss)]

pub mod arena;
pub mod arrival;
pub mod bits;
pub mod churn;
pub mod graph;
pub mod hot;
pub mod lanes;
pub mod latency;
pub mod mailbox;
pub mod message;
pub mod metrics;
pub mod node;
pub mod runner;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;
mod wheel;

pub use arena::TrialArena;
pub use arrival::{poisson_arrivals, validate_rate, ArrivalRateError};
pub use bits::BitSet;
pub use churn::{ChurnSchedule, NodeOutage};
pub use graph::{DiameterEstimator, Graph, GraphBuilder, EXACT_DIAMETER_MAX_NODES};
pub use hot::{HotState, LaneSlot, NodeLanes};
pub use lanes::LanePool;
pub use latency::{InvalidLatencyModel, LatencyModel, EXPONENTIAL_JITTER_CAP};
pub use mailbox::{Effect, Mailbox};
pub use message::{Payload, TestPayload};
pub use metrics::{KindId, KindRegistry, Metrics, Receipt, TraceEntry};
pub use node::NodeId;
pub use runner::{derive_seed, GridPlan, TrialRunner};
pub use sim::{Context, ContextView, ProtocolNode, SimConfig, Simulator};
pub use stats::{entropy_bits, percentile, percentile_sorted, summarize, Summary};
pub use time::{as_millis, from_millis, SimTime, MILLISECOND, SECOND};
pub use topology::{GenerateTopologyError, Topology};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every generated topology is connected and has the requested size.
        #[test]
        fn prop_generated_topologies_are_connected(
            n in 5usize..80,
            seed in any::<u64>(),
            family in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topology = match family {
                0 => Topology::RandomRegular { degree: 4 },
                1 => Topology::ErdosRenyi { edge_probability: 0.2 },
                2 => Topology::Ring,
                _ => Topology::Tree { arity: 3 },
            };
            // Random-regular needs n*degree even; bump n if necessary.
            let n = if matches!(topology, Topology::RandomRegular { .. }) && (n * 4) % 2 != 0 {
                n + 1
            } else {
                n
            };
            let graph = topology.generate(n, &mut rng).unwrap();
            prop_assert_eq!(graph.node_count(), n);
            prop_assert!(graph.is_connected());
        }

        /// BFS distances satisfy the triangle inequality over edges:
        /// |d(u) - d(v)| <= 1 for every edge (u, v).
        #[test]
        fn prop_bfs_distances_are_lipschitz_over_edges(n in 2usize..60, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = topology::erdos_renyi(n, 0.3, &mut rng)
                .or_else(|_| topology::ring(n))
                .unwrap();
            let dist = graph.bfs_distances(NodeId::new(0));
            for (a, b) in graph.edges() {
                let (da, db) = (dist[a.index()], dist[b.index()]);
                if let (Some(da), Some(db)) = (da, db) {
                    prop_assert!(da.abs_diff(db) <= 1);
                }
            }
        }

        /// Flooding over any connected generated topology reaches every node,
        /// regardless of origin, latency model or seed.
        #[test]
        fn prop_flooding_covers_connected_graphs(
            n in 2usize..60,
            origin in 0usize..60,
            seed in any::<u64>(),
        ) {
            #[derive(Default)]
            struct Flooder { seen: bool }
            impl ProtocolNode for Flooder {
                type Message = TestPayload;
                fn on_message(
                    &mut self,
                    from: NodeId,
                    msg: TestPayload,
                    ctx: &mut Context<'_, TestPayload>,
                ) {
                    if !std::mem::replace(&mut self.seen, true) {
                        ctx.mark_delivered();
                        ctx.send_to_neighbors_except(msg, &[from]);
                    }
                }
            }

            let mut rng = StdRng::seed_from_u64(seed);
            let graph = topology::erdos_renyi(n, 0.25, &mut rng)
                .or_else(|_| topology::ring(n))
                .unwrap();
            let origin = NodeId::new(origin % n);
            let nodes = (0..n).map(|_| Flooder::default()).collect();
            let mut sim = Simulator::new(graph, nodes, SimConfig { seed, ..SimConfig::default() });
            sim.trigger(origin, |node, ctx| {
                node.seen = true;
                ctx.mark_delivered();
                ctx.send_to_neighbors_except(TestPayload::new("flood", 1), &[]);
            });
            prop_assert_eq!(sim.run().coverage(), 1.0);
        }
    }
}
