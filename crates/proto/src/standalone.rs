//! A self-contained environment for drivers outside the simulator.
//!
//! Real-transport drivers such as the `fnp-node` binary own exactly one
//! node; [`StandaloneEnv`] holds that node's identity, neighbour list,
//! clock, RNG and hot-lane slots, and lends them to the sans-IO cores as a
//! [`ContextView`] — the same environment type the simulator hands them.
//! Time only moves when the driver advances it (event-time semantics: set
//! it to the timestamp of the input being processed).

use fnp_netsim::{ContextView, NodeId, NodeLanes, SimTime};
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
    lanes: NodeLanes,
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
            lanes: NodeLanes::default(),
        }
    }

    /// Advances the clock to `at` (never backwards).
    pub fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }

    /// Lends the environment to a core as a [`ContextView`].
    pub fn view(&mut self) -> ContextView<'_> {
        ContextView::new(
            self.node,
            self.now,
            &self.neighbors,
            self.node_count,
            &mut self.rng,
            self.lanes.slot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_sorted_and_deduplicated() {
        let mut env = StandaloneEnv::new(
            NodeId::new(2),
            5,
            vec![NodeId::new(4), NodeId::new(1), NodeId::new(4)],
            7,
        );
        let view = env.view();
        assert_eq!(view.neighbors(), &[NodeId::new(1), NodeId::new(4)]);
        assert_eq!(view.node_id(), NodeId::new(2));
        assert_eq!(view.node_count(), 5);
    }

    #[test]
    fn clock_is_monotone() {
        let mut env = StandaloneEnv::new(NodeId::new(0), 1, vec![], 0);
        env.advance_to(10);
        env.advance_to(5);
        assert_eq!(env.view().now(), 10);
    }

    #[test]
    fn random_neighbor_draws_like_an_index_into_the_eligible_list() {
        use rand::Rng;
        let ids = |indices: &[usize]| indices.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        let mut env = StandaloneEnv::new(NodeId::new(0), 9, ids(&[1, 3, 5, 8]), 11);
        let mut reference = env.clone();
        let eligible = ids(&[1, 3, 8]);
        for _ in 0..50 {
            let expected = eligible[reference.view().rng().gen_range(0..eligible.len())];
            let drawn = env.view().random_neighbor_except(Some(NodeId::new(5)));
            assert_eq!(drawn, Some(expected));
        }

        // No eligible neighbour: `None`, and no draw is consumed.
        let mut lone = StandaloneEnv::new(NodeId::new(0), 2, ids(&[1]), 3);
        let untouched = lone.clone().view().rng().gen_range(0..u64::MAX);
        let mut view = lone.view();
        assert_eq!(view.random_neighbor_except(Some(NodeId::new(1))), None);
        assert_eq!(view.rng().gen_range(0..u64::MAX), untouched);
    }

    #[test]
    fn hot_lanes_roundtrip() {
        let mut env = StandaloneEnv::new(NodeId::new(0), 1, vec![], 0);
        let mut view = env.view();
        assert!(!view.set_seen());
        assert!(view.set_seen());
        view.set_phase(3);
        assert_eq!(view.phase(), 3);
        assert!(!view.round_seen(0));
        view.mark_round_seen(4);
        assert!(view.round_seen(4));
        assert!(!view.round_seen(5));
        assert_eq!(view.counter_lane(), 5);
        // The lanes outlive the view that wrote them.
        let view = env.view();
        assert!(view.seen());
        assert_eq!((view.phase(), view.counter_lane()), (3, 5));
    }
}
