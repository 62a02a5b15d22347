//! Per-transaction hot-lane pool for multi-source simulation sessions.
//!
//! The simulator's own [`HotState`] lanes assume one broadcast per run: a
//! single seen bit, phase tag and counter per node. Under sustained traffic
//! many broadcasts overlap in flight, and their duplicate-suppression state
//! must not collide — node 7 having seen transaction 3 says nothing about
//! transaction 4. A [`LanePool`] hands out one full set of zeroed lanes per
//! *live* transaction and recycles it the moment the transaction's last
//! in-flight event drains, so the working set stays proportional to the
//! number of concurrently-active broadcasts, not to the total injected.
//!
//! The pool is pure storage, exactly like [`HotState`] itself: acquiring a
//! recycled lane set is observationally identical to acquiring a fresh one
//! (the steady-state determinism suites assert byte-identical rows across
//! thread counts and arena reuse).

use crate::hot::HotState;

/// A free-list pool of per-transaction [`HotState`] lane sets, all sized
/// for the same `n`-node overlay.
#[derive(Debug, Default)]
pub struct LanePool {
    n: usize,
    free: Vec<HotState>,
    /// High-water mark of simultaneously checked-out lane sets.
    peak_live: usize,
    live: usize,
}

impl LanePool {
    /// Creates an empty pool for an `n`-node overlay.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            free: Vec::new(),
            peak_live: 0,
            live: 0,
        }
    }

    /// Number of nodes each lane set covers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Checks out a zeroed lane set, reusing a recycled allocation when one
    /// is available.
    pub fn acquire(&mut self) -> HotState {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.free.pop() {
            Some(mut lanes) => {
                lanes.reset(self.n);
                lanes
            }
            None => HotState::new(self.n),
        }
    }

    /// Returns a lane set to the pool. The contents are irrelevant — the
    /// next [`acquire`](Self::acquire) re-zeroes them.
    pub fn release(&mut self, lanes: HotState) {
        debug_assert!(self.live > 0, "released more lane sets than acquired");
        self.live -= 1;
        self.free.push(lanes);
    }

    /// Highest number of lane sets simultaneously live so far — the
    /// concurrent-broadcast high-water mark of the session.
    #[must_use]
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Number of lane sets currently checked out.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn acquired_lanes_are_zeroed_even_after_reuse() {
        let mut pool = LanePool::new(4);
        let mut lanes = pool.acquire();
        lanes.set_seen(NodeId::new(2));
        lanes.set_phase(NodeId::new(1), 9);
        lanes.set_counter(NodeId::new(3), 7);
        pool.release(lanes);
        let reused = pool.acquire();
        assert_eq!(reused, HotState::new(4));
    }

    #[test]
    fn peak_live_tracks_the_high_water_mark() {
        let mut pool = LanePool::new(2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.live(), 2);
        pool.release(a);
        let c = pool.acquire();
        assert_eq!(pool.live(), 2);
        pool.release(b);
        pool.release(c);
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.peak_live(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released more lane sets than acquired")]
    fn a_double_release_is_caught() {
        let mut pool = LanePool::new(2);
        let lanes = pool.acquire();
        pool.release(lanes.clone());
        pool.release(lanes);
    }

    #[test]
    fn pool_reuses_released_allocations() {
        let mut pool = LanePool::new(100);
        let a = pool.acquire();
        pool.release(a);
        assert_eq!(pool.free.len(), 1);
        let _b = pool.acquire();
        assert!(
            pool.free.is_empty(),
            "released lanes are reused, not leaked"
        );
        assert_eq!(pool.node_count(), 100);
    }
}
