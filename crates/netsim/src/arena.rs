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
//! The event-queue and node-vector pools are type-erased (`Box<dyn Any>`)
//! because their element types are protocol-specific; a checkout under a
//! different type simply falls back to a fresh allocation. Arenas are
//! intentionally *not* `Send`: each worker thread builds its own and never
//! shares it.

use crate::graph::Graph;
use crate::hot::HotState;
use crate::metrics::Metrics;
use crate::topology::RegularScratch;
use crate::wheel::{TimeWheel, WheelItem};
use std::any::Any;

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
    /// Cleared node-state vector of the previous trial, type-erased
    /// (`Vec<N>` for whatever protocol ran last).
    nodes: Option<Box<dyn Any>>,
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
    /// several times oversized (see `TimeWheel::reset`).
    pub(crate) fn take_queue<T: WheelItem + 'static>(&mut self) -> TimeWheel<T> {
        match self.queue.take() {
            Some(boxed) => match boxed.downcast::<TimeWheel<T>>() {
                Ok(wheel) => {
                    debug_assert_eq!(wheel.len(), 0, "pooled wheels are stored cleared");
                    *wheel
                }
                Err(_) => TimeWheel::empty(),
            },
            None => TimeWheel::empty(),
        }
    }

    /// Returns an event-queue time-wheel to the pool (cleared here; any
    /// events still queued — e.g. after an early-stopped run — are
    /// dropped).
    pub(crate) fn store_queue<T: WheelItem + 'static>(&mut self, mut queue: TimeWheel<T>) {
        queue.clear();
        self.queue = Some(Box::new(queue));
    }

    /// Checks out an empty node-state vector, reusing the pooled allocation
    /// when the previous trial ran the same protocol type.
    #[must_use]
    pub fn take_nodes<T: 'static>(&mut self) -> Vec<T> {
        take_typed_vec(&mut self.nodes)
    }

    /// Returns a node-state vector to the pool (cleared here).
    pub fn store_nodes<T: 'static>(&mut self, mut nodes: Vec<T>) {
        nodes.clear();
        self.nodes = Some(Box::new(nodes));
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

/// Takes the pooled vector out of `slot` if it holds a `Vec<T>`; otherwise
/// (empty pool or a different element type) returns a fresh vector.
fn take_typed_vec<T: 'static>(slot: &mut Option<Box<dyn Any>>) -> Vec<T> {
    match slot.take() {
        Some(boxed) => match boxed.downcast::<Vec<T>>() {
            Ok(vec) => {
                debug_assert!(vec.is_empty(), "pooled vectors are stored cleared");
                *vec
            }
            Err(_) => Vec::new(),
        },
        None => Vec::new(),
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
}
