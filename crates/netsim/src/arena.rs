//! Per-worker allocation reuse across simulation trials.
//!
//! A trial's world is an overlay [`Graph`], a node-state vector, an
//! event-queue time-wheel, zeroed [`Metrics`] and hot-field lanes, and the
//! *shapes* of consecutive trials in a sweep are identical (same `n`, same
//! degree, same protocol). A [`TrialArena`] pools exactly that simulator
//! storage and nothing else: each [`TrialRunner`](crate::TrialRunner)
//! worker owns one arena and hands it to every trial it executes
//! ([`TrialRunner::run_with_arena`](crate::TrialRunner::run_with_arena)).
//! Finished simulations return their storage to the arena
//! ([`Simulator::into_parts_in`](crate::Simulator::into_parts_in)); the
//! next trial checks the same buffers out again, *reset* rather than
//! reallocated. Because every checkout fully re-zeroes the storage
//! (`Graph::reset`, `Metrics::reset`, `HotState::reset`, cleared queue and
//! node vectors), a reused arena is observationally identical to a fresh
//! one — the arena-reuse determinism suite asserts byte-identical rows.
//!
//! The event-queue, node-vector and steady-row pools are type-erased
//! (`Box<dyn Any>`) because their element types are protocol-specific; a
//! checkout under a different type drops the pooled storage and falls back
//! to a fresh allocation, so each pool holds one type at a time. A checkout
//! under the same type moves the storage out of its box and leaves the box
//! pooled for the return, so no trial of the same type as the last one
//! allocates a box; a type switch drops the pool and boxes afresh. The wheel's
//! sort-key buffers hold plain `u64`s, so the arena keeps them apart from
//! the typed wheel and lends them to whichever wheel it checks out; and
//! since a [`TrialRunner`](crate::TrialRunner) builds every worker a fresh
//! arena per batch, a dropped arena leaves them in a process-wide pool for
//! the next arena to draw, so that a sweep of batches grows them once, not
//! once per batch. Arenas are intentionally *not* `Send`: each worker
//! thread builds its own and never shares it.

use crate::graph::Graph;
use crate::hot::HotState;
use crate::metrics::Metrics;
use crate::topology::RegularScratch;
use crate::wheel::{SortKeys, TimeWheel, WheelItem};
use std::any::Any;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Sort-key buffers of dropped arenas; see the [module documentation](self).
/// It holds at most as many entries as arenas were ever alive at once, each
/// clamped by `TimeWheel::reset` against the last trial it served.
static DROPPED_WHEEL_KEYS: Mutex<Vec<SortKeys>> = Mutex::new(Vec::new());

/// Locks [`DROPPED_WHEEL_KEYS`]. Every access is one `push` or `pop`, so a
/// panic while the lock was held cannot have left the list half-updated,
/// and a poisoned lock is used as it is.
fn dropped_wheel_keys() -> MutexGuard<'static, Vec<SortKeys>> {
    DROPPED_WHEEL_KEYS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Reusable per-worker storage for simulation trials.
///
/// See the [module documentation](self) for the lifecycle. All checkouts
/// return storage that is indistinguishable from freshly allocated (same
/// contents, possibly more capacity); all returns accept storage in any
/// state and clear what must be cleared.
#[derive(Debug, Default)]
pub struct TrialArena {
    graph: Option<Graph>,
    metrics: Option<Metrics>,
    hot: Option<HotState>,
    /// Cleared event-queue time-wheel of the previous trial, type-erased
    /// (`TimeWheel<Event<M>>` for whatever `M` ran last).
    queue: Option<Box<dyn Any>>,
    /// The time wheel's sort-key buffers, kept apart from `queue` so that
    /// a protocol switch, which drops the typed wheel, keeps them; drawn
    /// from [`DROPPED_WHEEL_KEYS`] at the first checkout and left there on
    /// drop.
    wheel_keys: SortKeys,
    /// Cleared node-state vector of the previous trial, type-erased
    /// (`Vec<N>` for whatever protocol ran last).
    nodes: Option<Box<dyn Any>>,
    /// Emptied instance rows of the previous steady session, type-erased
    /// (whatever row type ran last); see
    /// [`take_rows`](TrialArena::take_rows).
    rows: Option<Box<dyn Any>>,
    /// Scratch buffers of the configuration-model overlay generator.
    regular_scratch: Option<RegularScratch>,
}

impl TrialArena {
    /// Creates an empty arena. The first trial allocates; later trials
    /// reuse.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a graph of `n` isolated nodes, reusing the pooled
    /// adjacency storage when available.
    #[must_use]
    pub fn graph(&mut self, n: usize) -> Graph {
        match self.graph.take() {
            Some(mut graph) => {
                graph.reset(n);
                graph
            }
            None => Graph::new(n),
        }
    }

    /// Returns a graph to the pool for the next checkout.
    pub fn store_graph(&mut self, graph: Graph) {
        self.graph = Some(graph);
    }

    /// Checks out zeroed metrics for an `n`-node run, reusing pooled
    /// counter storage when available.
    #[must_use]
    pub fn metrics(&mut self, n: usize) -> Metrics {
        match self.metrics.take() {
            Some(mut metrics) => {
                metrics.reset(n);
                metrics
            }
            None => Metrics::new(n),
        }
    }

    /// Returns metrics to the pool. Call this once a trial has finished
    /// aggregating (the metrics are reset at the next checkout, so any
    /// content is fine).
    pub fn recycle_metrics(&mut self, metrics: Metrics) {
        self.metrics = Some(metrics);
    }

    /// Checks out zeroed hot-state lanes for `n` nodes.
    #[must_use]
    pub fn hot(&mut self, n: usize) -> HotState {
        match self.hot.take() {
            Some(mut hot) => {
                hot.reset(n);
                hot
            }
            None => HotState::new(n),
        }
    }

    /// Returns hot-state lanes to the pool.
    pub fn store_hot(&mut self, hot: HotState) {
        self.hot = Some(hot);
    }

    /// Checks out an empty event-queue time-wheel, reusing the pooled one
    /// when the previous trial used the same event type. The simulator
    /// re-arms the wheel (bucket width, window) for its latency model
    /// before use, so a pooled wheel contributes its allocations and
    /// nothing else — all of them, unless the previous trial left them
    /// several times oversized (see `TimeWheel::reset`). Whatever the
    /// event type, the wheel gets the pooled sort-key buffers.
    pub(crate) fn take_queue<T: WheelItem + 'static>(&mut self) -> TimeWheel<T> {
        let mut wheel: TimeWheel<T> = take_typed(&mut self.queue);
        debug_assert_eq!(wheel.len(), 0, "pooled wheels are stored cleared");
        if self.wheel_keys.capacity() == 0 {
            self.wheel_keys = dropped_wheel_keys().pop().unwrap_or_default();
        }
        wheel.lend_keys(std::mem::take(&mut self.wheel_keys));
        wheel
    }

    /// Returns an event-queue time-wheel to the pool (cleared here; any
    /// events still queued — e.g. after an early-stopped run — are
    /// dropped).
    pub(crate) fn store_queue<T: WheelItem + 'static>(&mut self, mut queue: TimeWheel<T>) {
        queue.clear();
        self.wheel_keys = queue.take_keys();
        store_typed(&mut self.queue, queue);
    }

    /// Checks out an empty node-state vector, reusing the pooled allocation
    /// when the previous trial ran the same protocol type.
    #[must_use]
    pub fn take_nodes<T: 'static>(&mut self) -> Vec<T> {
        let nodes: Vec<T> = take_typed(&mut self.nodes);
        debug_assert!(nodes.is_empty(), "pooled vectors are stored cleared");
        nodes
    }

    /// Returns a node-state vector to the pool (cleared here).
    pub fn store_nodes<T: 'static>(&mut self, mut nodes: Vec<T>) {
        nodes.clear();
        store_typed(&mut self.nodes, nodes);
    }

    /// Checks out the rows the previous steady session stored, if it stored
    /// rows of type `R`; otherwise none. Unlike the node vector, the rows
    /// come back as they were stored: the session empties each row itself,
    /// and reuses only rows of its own overlay size.
    #[must_use]
    pub fn take_rows<R: 'static>(&mut self) -> Vec<R> {
        take_typed(&mut self.rows)
    }

    /// Returns a steady session's emptied instance rows to the pool.
    pub fn store_rows<R: 'static>(&mut self, rows: Vec<R>) {
        store_typed(&mut self.rows, rows);
    }

    /// Checks out the pooled scratch buffers of the configuration-model
    /// overlay generator (see
    /// [`random_regular_into`](crate::topology::random_regular_into)).
    /// The generator clears them before use, so a dirty checkout is
    /// indistinguishable from [`RegularScratch::new`].
    #[must_use]
    pub fn regular_scratch(&mut self) -> RegularScratch {
        self.regular_scratch.take().unwrap_or_default()
    }

    /// Returns overlay-generator scratch buffers to the pool.
    pub fn store_regular_scratch(&mut self, scratch: RegularScratch) {
        self.regular_scratch = Some(scratch);
    }
}

impl Drop for TrialArena {
    fn drop(&mut self) {
        if self.wheel_keys.capacity() > 0 {
            dropped_wheel_keys().push(std::mem::take(&mut self.wheel_keys));
        }
    }
}

/// Takes the value pooled in `slot` if it is a `T`, leaving a default in
/// its box for [`store_typed`] to fill again. Otherwise (empty pool or a
/// different type) drops whatever the pool held and returns a default.
fn take_typed<T: Default + 'static>(slot: &mut Option<Box<dyn Any>>) -> T {
    match slot.as_mut().and_then(|boxed| boxed.downcast_mut::<T>()) {
        Some(pooled) => std::mem::take(pooled),
        None => {
            *slot = None;
            T::default()
        }
    }
}

/// Pools `value` in `slot`: in the box already there when it holds a `T`,
/// in a new box otherwise.
fn store_typed<T: 'static>(slot: &mut Option<Box<dyn Any>>, value: T) {
    match slot.as_mut().and_then(|boxed| boxed.downcast_mut::<T>()) {
        Some(pooled) => *pooled = value,
        None => *slot = Some(Box::new(value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn graph_checkout_is_clean_and_reuses_storage() {
        let mut arena = TrialArena::new();
        let mut graph = arena.graph(3);
        graph.add_edge(NodeId::new(0), NodeId::new(1));
        arena.store_graph(graph);

        let reused = arena.graph(3);
        assert_eq!(reused.node_count(), 3);
        assert_eq!(reused.edge_count(), 0);
        assert_eq!(reused, Graph::new(3));
    }

    #[test]
    fn metrics_checkout_is_zeroed() {
        let mut arena = TrialArena::new();
        let mut metrics = arena.metrics(2);
        metrics.record_send("x", 10);
        metrics.record_delivery(NodeId::new(1), 5);
        arena.recycle_metrics(metrics);

        let reused = arena.metrics(4);
        assert_eq!(reused.messages_sent, 0);
        assert_eq!(reused.delivered_count(), 0);
        assert_eq!(reused.delivered_at.len(), 4);
        assert_eq!(reused.messages_of_kind("x"), 0);
        assert!(reused.messages_by_kind().is_empty());
    }

    #[test]
    fn hot_checkout_is_zeroed() {
        let mut arena = TrialArena::new();
        let mut hot = arena.hot(2);
        hot.set_seen(NodeId::new(0));
        arena.store_hot(hot);
        let reused = arena.hot(3);
        assert_eq!(reused, HotState::new(3));
    }

    #[test]
    fn node_pool_reuses_matching_type_and_drops_mismatches() {
        let mut arena = TrialArena::new();
        let mut nodes: Vec<u64> = arena.take_nodes();
        nodes.extend([1, 2, 3]);
        let capacity = nodes.capacity();
        arena.store_nodes(nodes);

        // Same type: the allocation comes back (cleared).
        let reused: Vec<u64> = arena.take_nodes();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), capacity);
        arena.store_nodes(reused);

        // Different type: fresh vector, no panic.
        let other: Vec<String> = arena.take_nodes();
        assert!(other.is_empty());
    }

    #[test]
    fn queue_pool_behaves_like_node_pool() {
        #[derive(Debug)]
        struct Tick(u64);
        impl WheelItem for Tick {
            fn key(&self) -> (u64, u64) {
                (self.0, 0)
            }
        }
        #[derive(Debug)]
        struct Tock;
        impl WheelItem for Tock {
            fn key(&self) -> (u64, u64) {
                (0, 0)
            }
        }

        let mut arena = TrialArena::new();
        let mut queue: TimeWheel<Tick> = arena.take_queue();
        queue.reset(10);
        queue.push(Tick(9));
        arena.store_queue(queue);
        // Same event type: the wheel comes back, cleared.
        let mut reused: TimeWheel<Tick> = arena.take_queue();
        assert_eq!(reused.len(), 0);
        assert!(reused.pop().is_none());
        arena.store_queue(reused);
        // Different event type: fresh wheel, no panic.
        let mut mismatched: TimeWheel<Tock> = arena.take_queue();
        assert_eq!(mismatched.len(), 0);
        assert!(mismatched.pop().is_none());
    }

    #[test]
    fn a_same_type_checkout_leaves_the_box_pooled() {
        #[derive(Debug)]
        struct Tick(u64);
        impl WheelItem for Tick {
            fn key(&self) -> (u64, u64) {
                (self.0, 0)
            }
        }
        let boxed = |slot: &Option<Box<dyn Any>>| {
            slot.as_deref()
                .map(|pooled| std::ptr::from_ref(pooled).cast::<u8>())
        };
        let mut arena = TrialArena::new();
        let queue: TimeWheel<Tick> = arena.take_queue();
        arena.store_queue(queue);
        let nodes: Vec<u32> = arena.take_nodes();
        arena.store_nodes(nodes);
        let (queue_box, nodes_box) = (boxed(&arena.queue), boxed(&arena.nodes));
        assert!(queue_box.is_some() && nodes_box.is_some());
        for _ in 0..3 {
            let queue: TimeWheel<Tick> = arena.take_queue();
            let nodes: Vec<u32> = arena.take_nodes();
            // Out on loan, the storage leaves its box behind.
            assert_eq!(boxed(&arena.queue), queue_box);
            arena.store_queue(queue);
            arena.store_nodes(nodes);
            assert_eq!(boxed(&arena.queue), queue_box);
            assert_eq!(boxed(&arena.nodes), nodes_box);
        }
        // A checkout under another type drops the pooled storage.
        let _: Vec<u64> = arena.take_nodes();
        assert!(arena.nodes.is_none());
    }

    #[test]
    fn rows_come_back_as_stored_under_their_own_type() {
        let mut arena = TrialArena::new();
        arena.store_rows(vec![vec![Some(1u8), None], vec![None, Some(2)]]);
        let rows: Vec<Vec<Option<u8>>> = arena.take_rows();
        assert_eq!(rows, [[Some(1), None], [None, Some(2)]]);
        arena.store_rows(rows);
        let other: Vec<Vec<Option<u16>>> = arena.take_rows();
        assert!(other.is_empty());
        let gone: Vec<Vec<Option<u8>>> = arena.take_rows();
        assert!(gone.is_empty(), "a mismatched checkout dropped the rows");
    }

    #[test]
    fn wheel_keys_outlive_a_switch_of_event_type() {
        // A protocol switch drops the pooled wheel; its sort keys, which
        // hold no event, stay in the arena for the next wheel.
        #[derive(Debug)]
        struct Timed(u64, u64);
        impl WheelItem for Timed {
            fn key(&self) -> (u64, u64) {
                (self.0, self.1)
            }
        }
        #[derive(Debug)]
        struct Tock;
        impl WheelItem for Tock {
            fn key(&self) -> (u64, u64) {
                (0, 0)
            }
        }
        let mut arena = TrialArena::new();
        let mut queue: TimeWheel<Timed> = arena.take_queue();
        queue.reset(100);
        // One bucket of 500 events at offsets 0..100 into it.
        for seq in 0..500 {
            queue.push(Timed(100 + seq % 100, seq));
        }
        while queue.pop().is_some() {}
        arena.store_queue(queue);
        let kept = arena.wheel_keys.capacity();
        assert!(kept >= 2 * 500, "the arena kept {kept} keys of capacity");
        let other: TimeWheel<Tock> = arena.take_queue();
        assert_eq!(other.key_capacity(), kept);
        assert_eq!(arena.wheel_keys.capacity(), 0, "lent, not copied");
    }
}
