//! Struct-of-arrays storage for the hot per-node protocol state.
//!
//! Protocol state machines mix two very different kinds of per-node data:
//! a few bytes that the event loop consults on *every* delivery (has this
//! node seen the broadcast? which phase is it in? which spread wave did it
//! process last?) and kilobytes of cold state touched rarely (key material,
//! payload buffers, group membership tables). Storing both in one
//! `Vec<Node>` interleaves them, so the hottest check of the whole
//! simulation — the duplicate-suppression test at the top of nearly every
//! message handler — drags a whole node struct through the cache.
//!
//! [`HotState`] splits the hot fields out into dense parallel lanes owned
//! by the [`Simulator`](crate::Simulator): one u64-word [`BitSet`] of seen
//! flags (64 nodes per cache word — the whole lane of a 10⁶-node overlay
//! fits in L2), one `Vec<u8>` of phase tags and one `Vec<u32>` of per-node
//! counters, indexed by [`NodeId::index`]. Protocols read and write *their own*
//! node's slots through the [`Context`](crate::Context) accessors
//! ([`ContextView::seen`](crate::ContextView::seen) and friends), preserving the
//! distributed-system abstraction: no state machine can peek at another
//! node's lanes mid-run. After a run the whole layout is inspectable via
//! [`Simulator::hot`](crate::Simulator::hot).
//!
//! The lanes are pure storage — moving a flag into a lane must not change
//! a single event, which the cross-crate determinism suites assert
//! byte-for-byte.

use crate::bits::BitSet;
use crate::node::NodeId;

/// Dense struct-of-arrays lanes for the hot per-node protocol fields.
///
/// One slot of every lane per simulated node; all lanes start zeroed
/// (`false` / `0`). What each lane *means* is up to the protocol:
/// flood-and-prune only uses the seen flag, the flexible broadcast uses the
/// phase tag for its flood switch and the counter for spread-wave
/// deduplication.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotState {
    /// Seen/delivered flag per node, bit-packed.
    seen: BitSet,
    /// Protocol phase tag per node.
    phase: Vec<u8>,
    /// General-purpose per-node counter (spread-wave round, hop budget, …).
    counter: Vec<u32>,
}

impl HotState {
    /// Creates zeroed lanes for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut state = Self::default();
        state.reset(n);
        state
    }

    /// Number of nodes covered by the lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether the lanes cover no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Re-zeroes every lane and resizes them to `n` nodes, reusing the
    /// existing allocations (this is what makes an arena reset cheap; see
    /// [`TrialArena`](crate::TrialArena)).
    pub fn reset(&mut self, n: usize) {
        self.seen.reset(n);
        reset_lane(&mut self.phase, n, 0);
        reset_lane(&mut self.counter, n, 0);
    }

    /// The seen flag of `node`.
    #[must_use]
    pub fn seen(&self, node: NodeId) -> bool {
        self.seen.get(node.index())
    }

    /// Sets the seen flag of `node`, returning the previous value.
    pub fn set_seen(&mut self, node: NodeId) -> bool {
        self.seen.set(node.index())
    }

    /// The phase tag of `node`.
    #[must_use]
    pub fn phase(&self, node: NodeId) -> u8 {
        self.phase[node.index()]
    }

    /// Sets the phase tag of `node`.
    pub fn set_phase(&mut self, node: NodeId, phase: u8) {
        self.phase[node.index()] = phase;
    }

    /// The counter slot of `node`.
    #[must_use]
    pub fn counter(&self, node: NodeId) -> u32 {
        self.counter[node.index()]
    }

    /// Sets the counter slot of `node`.
    pub fn set_counter(&mut self, node: NodeId, value: u32) {
        self.counter[node.index()] = value;
    }

    /// Number of nodes whose seen flag is set (hardware popcount over the
    /// bit-packed lane).
    #[must_use]
    pub fn seen_count(&self) -> usize {
        self.seen.count_ones()
    }
}

/// Zeroes `lane` and resizes it to `n` slots without shrinking its
/// allocation.
fn reset_lane<T: Copy>(lane: &mut Vec<T>, n: usize, zero: T) {
    lane.clear();
    lane.resize(n, zero);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_start_zeroed() {
        let hot = HotState::new(3);
        assert_eq!(hot.len(), 3);
        assert!(!hot.is_empty());
        for index in 0..3 {
            let node = NodeId::new(index);
            assert!(!hot.seen(node));
            assert_eq!(hot.phase(node), 0);
            assert_eq!(hot.counter(node), 0);
        }
        assert_eq!(hot.seen_count(), 0);
    }

    #[test]
    fn set_seen_returns_previous_value() {
        let mut hot = HotState::new(2);
        let node = NodeId::new(1);
        assert!(!hot.set_seen(node));
        assert!(hot.set_seen(node));
        assert!(hot.seen(node));
        assert!(!hot.seen(NodeId::new(0)));
        assert_eq!(hot.seen_count(), 1);
    }

    #[test]
    fn phase_and_counter_roundtrip() {
        let mut hot = HotState::new(2);
        hot.set_phase(NodeId::new(0), 7);
        hot.set_counter(NodeId::new(1), 42);
        assert_eq!(hot.phase(NodeId::new(0)), 7);
        assert_eq!(hot.phase(NodeId::new(1)), 0);
        assert_eq!(hot.counter(NodeId::new(1)), 42);
    }

    #[test]
    fn reset_rezeros_and_resizes() {
        let mut hot = HotState::new(4);
        hot.set_seen(NodeId::new(3));
        hot.set_phase(NodeId::new(2), 9);
        hot.set_counter(NodeId::new(1), 5);
        hot.reset(2);
        assert_eq!(hot.len(), 2);
        assert!(!hot.seen(NodeId::new(1)));
        assert_eq!(hot.phase(NodeId::new(1)), 0);
        assert_eq!(hot.counter(NodeId::new(1)), 0);
        // Growing again also yields zeroed slots.
        hot.reset(5);
        assert_eq!(hot.len(), 5);
        assert!(!hot.seen(NodeId::new(4)));
    }

    #[test]
    fn empty_state() {
        let hot = HotState::new(0);
        assert!(hot.is_empty());
        assert_eq!(hot.len(), 0);
    }
}
