//! A self-contained [`NodeView`] for drivers outside the simulator.
//!
//! Real-transport drivers such as the `fnp-node` binary own exactly one
//! node; [`StandaloneEnv`] packages that node's identity, neighbour list,
//! clock, RNG and hot-lane slots into a view the sans-IO cores can run
//! against. Time only moves when the driver advances it (event-time
//! semantics: set it to the timestamp of the input being processed).

use crate::view::{HotLanes, NodeView};
use fnp_netsim::{NodeId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Environment of a single node outside the simulator.
#[derive(Clone, Debug)]
pub struct StandaloneEnv {
    node: NodeId,
    node_count: usize,
    neighbors: Vec<NodeId>,
    now: SimTime,
    rng: StdRng,
    seen: bool,
    phase: u8,
    counter: u32,
}

impl StandaloneEnv {
    /// Creates the environment of `node` in an overlay of `node_count`
    /// nodes with the given neighbours (sorted and deduplicated to match
    /// the simulator's deterministic neighbour order).
    #[must_use]
    pub fn new(node: NodeId, node_count: usize, mut neighbors: Vec<NodeId>, seed: u64) -> Self {
        neighbors.sort_unstable();
        neighbors.dedup();
        Self {
            node,
            node_count,
            neighbors,
            now: 0,
            rng: StdRng::seed_from_u64(seed),
            seen: false,
            phase: 0,
            counter: 0,
        }
    }

    /// Advances the clock to `at` (never backwards).
    pub fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }
}

impl HotLanes for StandaloneEnv {
    fn seen(&self) -> bool {
        self.seen
    }

    fn set_seen(&mut self) -> bool {
        std::mem::replace(&mut self.seen, true)
    }

    fn phase(&self) -> u8 {
        self.phase
    }

    fn set_phase(&mut self, phase: u8) {
        self.phase = phase;
    }

    fn counter_lane(&self) -> u32 {
        self.counter
    }

    fn set_counter_lane(&mut self, value: u32) {
        self.counter = value;
    }
}

impl NodeView for StandaloneEnv {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_sorted_and_deduplicated() {
        let env = StandaloneEnv::new(
            NodeId::new(2),
            5,
            vec![NodeId::new(4), NodeId::new(1), NodeId::new(4)],
            7,
        );
        assert_eq!(env.neighbors(), &[NodeId::new(1), NodeId::new(4)]);
        assert_eq!(env.node_id(), NodeId::new(2));
        assert_eq!(env.node_count(), 5);
    }

    #[test]
    fn clock_is_monotone() {
        let mut env = StandaloneEnv::new(NodeId::new(0), 1, vec![], 0);
        env.advance_to(10);
        env.advance_to(5);
        assert_eq!(env.now(), 10);
    }

    #[test]
    fn random_neighbor_draws_like_an_index_into_the_eligible_list() {
        use rand::Rng;
        let ids = |indices: &[usize]| indices.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        let mut env = StandaloneEnv::new(NodeId::new(0), 9, ids(&[1, 3, 5, 8]), 11);
        let mut reference = env.clone();
        let eligible = ids(&[1, 3, 8]);
        for _ in 0..50 {
            let expected = eligible[reference.rng().gen_range(0..eligible.len())];
            let drawn = env.random_neighbor_except(Some(NodeId::new(5)));
            assert_eq!(drawn, Some(expected));
        }

        // No eligible neighbour: `None`, and no draw is consumed.
        let mut lone = StandaloneEnv::new(NodeId::new(0), 2, ids(&[1]), 3);
        let untouched = lone.clone().rng().gen_range(0..u64::MAX);
        assert_eq!(lone.random_neighbor_except(Some(NodeId::new(1))), None);
        assert_eq!(lone.rng().gen_range(0..u64::MAX), untouched);
    }

    #[test]
    fn hot_lanes_roundtrip() {
        let mut env = StandaloneEnv::new(NodeId::new(0), 1, vec![], 0);
        assert!(!env.set_seen());
        assert!(env.set_seen());
        env.set_phase(3);
        assert_eq!(env.phase(), 3);
        assert!(!env.round_seen(0));
        env.mark_round_seen(4);
        assert!(env.round_seen(4));
        assert!(!env.round_seen(5));
        assert_eq!(env.counter_lane(), 5);
    }
}
