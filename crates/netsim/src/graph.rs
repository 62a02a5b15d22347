//! Undirected graphs representing the peer-to-peer overlay.
//!
//! The overlay of a blockchain network is an undirected graph: an edge means
//! the two peers maintain a TCP connection and relay transactions to each
//! other. [`Graph`] stores the adjacency structure and offers the handful of
//! graph algorithms the protocols and adversary estimators need: breadth-
//! first search, connectivity, eccentricity/diameter and degree bounds.
//!
//! # CSR layout
//!
//! Adjacency lives in an exact compressed-sparse-row layout instead of one
//! heap `Vec` per node: node `i`'s sorted neighbour list is the slice
//! `targets[offsets[i]..offsets[i + 1]]`, so the graph is two flat arrays
//! (`n + 1` offsets, `2m` targets) and neighbour iteration is two offset
//! loads and a slice — no per-node heap indirection, which turns the
//! large-n BFS sweeps from latency-bound pointer chases into
//! bandwidth-bound scans.
//!
//! An overlay is built once and then only read. The topology generators
//! (and [`GraphBuilder`]) accumulate a flat pair list and lay it out in one
//! counting-sort pass by source, then sort each span. [`Graph::add_edge`]
//! keeps the layout exact by inserting into `targets` and shifting the
//! later offsets — O(n + m) per edge, meant for small hand-built graphs.
//!
//! Because every span is sorted, one edge set has exactly one layout:
//! neighbour iteration order — and therefore every downstream simulation
//! event — matches the old `Vec<Vec<NodeId>>` representation (the CSR
//! reference suite checks the two), and the derived `PartialEq` compares
//! edge sets.

use crate::bits::BitSet;
use crate::node::NodeId;
use std::fmt;

/// Largest node count for which [`Graph::diameter_estimate`] still runs the
/// exact all-pairs-BFS computation.
///
/// Below this threshold (which covers every network size in the paper's
/// evaluation) the reported diameter is byte-identical to the historical
/// exact output; above it, a double-sweep estimate is used, because exact
/// O(n·(n+m)) is a multi-hour computation at n = 10⁶.
pub const EXACT_DIAMETER_MAX_NODES: usize = 2048;

/// Number of deterministic probe nodes for the sampled-eccentricity
/// refinement of [`Graph::diameter_estimate`].
const DIAMETER_ECCENTRICITY_SAMPLES: usize = 8;

/// Smallest BFS frontier worth splitting across worker threads; below this
/// the spawn/join overhead dominates the expansion work.
const PARALLEL_FRONTIER_MIN: usize = 4096;

/// Smallest span-sort workload worth splitting across worker threads.
const PARALLEL_SORT_MIN_SLOTS: usize = 1 << 12;

/// Which algorithm produced a [`Graph::diameter_estimate`] figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiameterEstimator {
    /// All-pairs BFS: the figure is the exact diameter.
    Exact,
    /// Double-sweep (2-BFS) plus sampled-eccentricity refinement: the
    /// figure is a lower bound on the diameter — exact on trees, and
    /// typically exact or off by one on the random overlay families the
    /// experiments use.
    DoubleSweep,
}

impl fmt::Display for DiameterEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiameterEstimator::Exact => write!(f, "exact"),
            DiameterEstimator::DoubleSweep => write!(f, "double-sweep"),
        }
    }
}

/// Converts a CSR slot count or degree to its stored `u32` form.
///
/// The largest experiment leg (10⁶ nodes, degree 8) uses ~8·10⁶ slots, so
/// `u32` spans are ample; the check guards against silent truncation if a
/// future workload outgrows them.
fn to_u32(value: usize) -> u32 {
    u32::try_from(value).expect("CSR slot index exceeds u32 range")
}

/// An undirected simple graph over nodes `0..n`.
///
/// Self-loops and parallel edges are rejected at insertion time; neighbour
/// lists are kept sorted so that neighbour iteration order is deterministic,
/// which in turn keeps whole simulations reproducible under a fixed seed.
/// See the [module documentation](self) for the flat CSR representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// Span bounds: node `i`'s neighbours are
    /// `targets[offsets[i]..offsets[i + 1]]`. Length `n + 1`.
    offsets: Vec<u32>,
    /// Flat neighbour storage, all sorted spans back to back.
    targets: Vec<NodeId>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            edge_count: 0,
        }
    }

    /// Resets the graph to `n` isolated nodes, reusing the flat CSR
    /// allocations of the previous population (the cheap path of a
    /// [`TrialArena`](crate::TrialArena) checkout).
    ///
    /// The result is indistinguishable from `Graph::new(n)`.
    pub fn reset(&mut self, n: usize) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        self.targets.clear();
        self.edge_count = 0;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Returns `true` if the edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.node_count() {
            return false;
        }
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Adds the undirected edge `{a, b}`.
    ///
    /// Returns `true` if the edge was inserted, `false` if it already existed
    /// or is a self-loop.
    ///
    /// Each endpoint's neighbour is inserted at its sorted position and the
    /// offsets after it shift by one, so one call costs O(n + m): fine for
    /// small hand-built graphs, while generators go through
    /// [`GraphBuilder`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(
            a.index() < self.node_count() && b.index() < self.node_count(),
            "edge endpoints {a:?}, {b:?} out of range for graph of {} nodes",
            self.node_count()
        );
        if a == b || self.has_edge(a, b) {
            return false;
        }
        for (node, neighbor) in [(a, b), (b, a)] {
            let start = self.offsets[node.index()] as usize;
            let pos = start + self.neighbors(node).binary_search(&neighbor).unwrap_err();
            self.targets.insert(pos, neighbor);
            for offset in &mut self.offsets[node.index() + 1..] {
                *offset += 1;
            }
        }
        self.edge_count += 1;
        true
    }

    /// Returns the sorted neighbour list of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterator over all undirected edges, each reported once with
    /// `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(|a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Rebuilds the CSR arrays from an edge list via counting sort by
    /// source, reusing the existing allocations.
    ///
    /// Each pair is one undirected edge; order and orientation are
    /// irrelevant. `threads` parallelises the per-span sort; the sorted
    /// result is identical at any thread count.
    ///
    /// Returns `false` (leaving the graph empty over `n` nodes) if the
    /// list contains a self-loop or duplicate edge.
    pub(crate) fn build_from_pairs(
        &mut self,
        n: usize,
        pairs: &[(u32, u32)],
        threads: usize,
    ) -> bool {
        self.reset(n);
        // Pass 1: count node `i`'s degree into `offsets[i + 1]`, then
        // prefix-sum, so `offsets[i]` is the start of span `i`.
        for &(a, b) in pairs {
            self.offsets[a as usize + 1] += 1;
            self.offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.targets
            .resize(to_u32(2 * pairs.len()) as usize, NodeId::new(0));
        // Pass 2: scatter both directions of every edge, advancing
        // `offsets[i]` as node `i`'s cursor. Afterwards `offsets[i]` holds
        // the end of span `i`, which is the start of span `i + 1`: shifting
        // the array back one slot restores the span starts.
        for &(a, b) in pairs {
            let (a, b) = (a as usize, b as usize);
            self.targets[self.offsets[a] as usize] = NodeId::new(b);
            self.offsets[a] += 1;
            self.targets[self.offsets[b] as usize] = NodeId::new(a);
            self.offsets[b] += 1;
        }
        self.offsets.copy_within(0..n, 1);
        self.offsets[0] = 0;
        // Pass 3: sort each span (optionally across threads).
        sort_spans(&self.offsets, &mut self.targets, threads);
        // Validate simplicity: sorted spans make duplicates adjacent.
        let simple = self.nodes().all(|node| {
            let span = self.neighbors(node);
            span.windows(2).all(|w| w[0] != w[1]) && span.binary_search(&node).is_err()
        });
        if !simple {
            self.reset(n);
            return false;
        }
        self.edge_count = pairs.len();
        true
    }

    /// Breadth-first distances (in hops) from `source`.
    ///
    /// Unreachable nodes get `None`.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut scratch = BfsScratch::default();
        self.bfs_levels(source, 1, &mut scratch);
        scratch
            .dist
            .iter()
            .map(|&d| (d != UNREACHED).then_some(d as usize))
            .collect()
    }

    /// Returns `true` if every node is reachable from every other node.
    ///
    /// The empty graph and the single-node graph are considered connected.
    pub fn is_connected(&self) -> bool {
        if self.node_count() <= 1 {
            return true;
        }
        let mut scratch = BfsScratch::default();
        let (reached, _) = self.bfs_levels(NodeId::new(0), 1, &mut scratch);
        reached == self.node_count()
    }

    /// Eccentricity of `node`: the maximum BFS distance to any reachable
    /// node. Returns `None` if some node is unreachable.
    pub fn eccentricity(&self, node: NodeId) -> Option<usize> {
        let mut scratch = BfsScratch::default();
        self.eccentricity_with(node, &mut scratch)
    }

    fn eccentricity_with(&self, node: NodeId, scratch: &mut BfsScratch) -> Option<usize> {
        let (reached, levels) = self.bfs_levels(node, 1, scratch);
        (reached == self.node_count()).then_some(levels)
    }

    /// Graph diameter: the maximum eccentricity over all nodes, or `None` if
    /// the graph is disconnected (or empty).
    ///
    /// Runs one BFS per node — O(n·(n+m)) — which is fine for the network
    /// sizes the paper's evaluation uses (≈ 1 000 peers). The BFS scratch
    /// (distance lane, visited bitset, frontier buffers) is shared across
    /// all n sweeps.
    pub fn diameter(&self) -> Option<usize> {
        if self.node_count() == 0 {
            return None;
        }
        let mut scratch = BfsScratch::default();
        let mut diameter = 0usize;
        for node in self.nodes() {
            diameter = diameter.max(self.eccentricity_with(node, &mut scratch)?);
        }
        Some(diameter)
    }

    /// Graph diameter, or a tight lower-bound estimate when the graph is
    /// too large for the exact algorithm; reports which estimator ran.
    ///
    /// Up to [`EXACT_DIAMETER_MAX_NODES`] nodes this is exactly
    /// [`Graph::diameter`] (one BFS per node). Beyond that it switches to a
    /// double sweep — BFS from node 0 to find a peripheral node `u`, then
    /// BFS from `u` — refined by the eccentricities of the second sweep's
    /// endpoint and a deterministic stride of probe nodes. The result is a
    /// lower bound on the true diameter at O(1) BFS passes instead of
    /// O(n), and `None` for disconnected (or empty) graphs either way.
    pub fn diameter_estimate(&self) -> Option<(usize, DiameterEstimator)> {
        self.diameter_estimate_with_threads(1)
    }

    /// [`Graph::diameter_estimate`] with the double-sweep BFS frontiers
    /// split across `threads` worker threads (level-synchronous expansion,
    /// deterministic per-chunk merge order).
    ///
    /// The reported figure is byte-identical at any thread count: frontier
    /// chunks only *read* the shared visited set during expansion, and the
    /// merge consumes their candidate buffers in chunk order, which
    /// reproduces the sequential discovery order exactly. `threads == 0`
    /// and `threads == 1` both mean sequential; the exact small-n path
    /// ignores the thread count.
    pub fn diameter_estimate_with_threads(
        &self,
        threads: usize,
    ) -> Option<(usize, DiameterEstimator)> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        if n <= EXACT_DIAMETER_MAX_NODES {
            return self.diameter().map(|d| (d, DiameterEstimator::Exact));
        }
        let mut scratch = BfsScratch::default();
        // Double sweep: the farthest node from an arbitrary start sits on
        // the periphery, so its eccentricity approximates the diameter
        // from below (exactly, on trees).
        let (u, _) = self.farthest_from(NodeId::new(0), threads, &mut scratch)?;
        let (w, mut best) = self.farthest_from(u, threads, &mut scratch)?;
        // Sampled-eccentricity refinement: more sources can only raise the
        // lower bound. The probe set (second sweep's endpoint plus a fixed
        // stride over node indices) is deterministic, so repeated calls on
        // the same graph report the same figure.
        let stride = (n / DIAMETER_ECCENTRICITY_SAMPLES).max(1);
        for probe in std::iter::once(w).chain((0..n).step_by(stride).map(NodeId::new)) {
            let (_, eccentricity) = self.farthest_from(probe, threads, &mut scratch)?;
            best = best.max(eccentricity);
        }
        Some((best, DiameterEstimator::DoubleSweep))
    }

    /// The node farthest from `source` (lowest index on ties) and its BFS
    /// distance, or `None` if any node is unreachable.
    fn farthest_from(
        &self,
        source: NodeId,
        threads: usize,
        scratch: &mut BfsScratch,
    ) -> Option<(NodeId, usize)> {
        let (reached, _) = self.bfs_levels(source, threads, scratch);
        if reached != self.node_count() {
            return None;
        }
        let mut result = (source, 0u32);
        for (index, &distance) in scratch.dist.iter().enumerate() {
            if distance > result.1 {
                result = (NodeId::new(index), distance);
            }
        }
        Some((result.0, result.1 as usize))
    }

    /// Level-synchronous BFS from `source` into `scratch.dist`
    /// (`u32::MAX` = unreached). Returns `(reached nodes, max distance)`.
    ///
    /// With `threads > 1`, frontiers at least [`PARALLEL_FRONTIER_MIN`]
    /// long are split into contiguous chunks expanded concurrently. The
    /// visited bitset is frozen during expansion (threads only read it and
    /// write thread-private candidate buffers) and the merge walks the
    /// buffers in chunk order, so the next frontier — and the distances —
    /// come out identical to the sequential sweep at any thread count.
    fn bfs_levels(
        &self,
        source: NodeId,
        threads: usize,
        scratch: &mut BfsScratch,
    ) -> (usize, usize) {
        let n = self.node_count();
        scratch.dist.clear();
        scratch.dist.resize(n, UNREACHED);
        scratch.visited.reset(n);
        scratch.frontier.clear();
        scratch.next.clear();

        scratch.dist[source.index()] = 0;
        scratch.visited.set(source.index());
        scratch.frontier.push(source);
        let mut reached = 1usize;
        let mut level = 0u32;

        while !scratch.frontier.is_empty() {
            scratch.next.clear();
            if threads > 1 && scratch.frontier.len() >= PARALLEL_FRONTIER_MIN {
                self.expand_frontier_parallel(threads, scratch);
            } else {
                for i in 0..scratch.frontier.len() {
                    let u = scratch.frontier[i];
                    for &v in self.neighbors(u) {
                        if !scratch.visited.set(v.index()) {
                            scratch.next.push(v);
                        }
                    }
                }
            }
            if scratch.next.is_empty() {
                break;
            }
            level += 1;
            for &v in &scratch.next {
                scratch.dist[v.index()] = level;
            }
            reached += scratch.next.len();
            std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        }
        (reached, level as usize)
    }

    /// One parallel frontier expansion: split `scratch.frontier` into
    /// `threads` contiguous chunks, expand each into a thread-private
    /// candidate buffer against the frozen visited set, then merge the
    /// buffers in chunk order (deduplicating via the visited set) into
    /// `scratch.next`.
    fn expand_frontier_parallel(&self, threads: usize, scratch: &mut BfsScratch) {
        let frontier = &scratch.frontier;
        let visited = &scratch.visited;
        let chunk_len = frontier.len().div_ceil(threads);
        scratch.candidates.resize_with(threads, Vec::new);
        let mut buffers = std::mem::take(&mut scratch.candidates);
        std::thread::scope(|scope| {
            for (chunk, buffer) in frontier.chunks(chunk_len).zip(buffers.iter_mut()) {
                scope.spawn(move || {
                    buffer.clear();
                    for &u in chunk {
                        for &v in self.neighbors(u) {
                            if !visited.get(v.index()) {
                                buffer.push(v);
                            }
                        }
                    }
                });
            }
        });
        for buffer in &buffers {
            for &v in buffer {
                if !scratch.visited.set(v.index()) {
                    scratch.next.push(v);
                }
            }
        }
        scratch.candidates = buffers;
    }

    /// Minimum and maximum degree; `None` for the empty graph.
    pub fn degree_bounds(&self) -> Option<(usize, usize)> {
        if self.node_count() == 0 {
            return None;
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        for node in self.nodes() {
            let d = self.degree(node);
            min = min.min(d);
            max = max.max(d);
        }
        Some((min, max))
    }
}

/// Distance marker for unreached nodes in the BFS scratch lane.
const UNREACHED: u32 = u32::MAX;

/// Reusable breadth-first-search working storage: the distance lane, the
/// visited bitset, the current/next frontier buffers and the per-thread
/// candidate buffers of the parallel expansion.
#[derive(Debug, Default)]
struct BfsScratch {
    dist: Vec<u32>,
    visited: BitSet,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    candidates: Vec<Vec<NodeId>>,
}

/// Sorts every span, splitting the node range across `threads` scoped
/// worker threads when the workload is large enough. The result is the
/// unique sorted order per span, so thread count cannot change it.
fn sort_spans(offsets: &[u32], targets: &mut [NodeId], threads: usize) {
    let n = offsets.len() - 1;
    if threads <= 1 || targets.len() < PARALLEL_SORT_MIN_SLOTS {
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        return;
    }
    // Cut the node range so each worker gets a similar number of slots,
    // then hand each worker the disjoint sub-slice holding its spans.
    let total = targets.len();
    let mut cuts = Vec::with_capacity(threads + 1);
    cuts.push(0usize);
    for t in 1..threads {
        let goal = to_u32(total * t / threads);
        let cut = offsets.partition_point(|&o| o < goal).min(n);
        cuts.push(cut.max(*cuts.last().expect("cuts is non-empty")));
    }
    cuts.push(n);
    std::thread::scope(|scope| {
        let mut rest: &mut [NodeId] = targets;
        let mut consumed = 0usize;
        for window in cuts.windows(2) {
            let (lo, hi) = (window[0], window[1]);
            let end_slot = offsets[hi] as usize;
            let (chunk, tail) = rest.split_at_mut(end_slot - consumed);
            rest = tail;
            let base = consumed;
            consumed = end_slot;
            scope.spawn(move || {
                for i in lo..hi {
                    chunk[offsets[i] as usize - base..offsets[i + 1] as usize - base]
                        .sort_unstable();
                }
            });
        }
    });
}

/// Accumulates an edge list and finalizes it into a [`Graph`] in one
/// counting-sort pass — the canonical way to construct a topology.
///
/// Unlike [`Graph::add_edge`] (which keeps the CSR invariants on every
/// call), the builder defers all layout work to [`GraphBuilder::finalize`],
/// so building an m-edge graph costs O(n + m) regardless of insertion
/// order.
///
/// # Examples
///
/// ```
/// use fnp_netsim::{GraphBuilder, NodeId};
///
/// let mut builder = GraphBuilder::new(3);
/// builder.add_edge(NodeId::new(2), NodeId::new(0));
/// builder.add_edge(NodeId::new(0), NodeId::new(1));
/// let g = builder.finalize();
/// assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(2)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    pairs: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph over nodes `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            pairs: Vec::new(),
        }
    }

    /// Records the undirected edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `a == b`. Duplicate edges
    /// are *not* detected here — they fail [`GraphBuilder::finalize`].
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "edge endpoints {a:?}, {b:?} out of range for graph of {} nodes",
            self.n
        );
        assert!(a != b, "self-loop {a:?} rejected");
        self.pairs.push((to_u32(a.index()), to_u32(b.index())));
    }

    /// Number of edges recorded so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.pairs.len()
    }

    /// Builds the graph: counting sort by source, per-span neighbour sort.
    ///
    /// # Panics
    ///
    /// Panics if the recorded edges contain a duplicate.
    #[must_use]
    pub fn finalize(self) -> Graph {
        let mut graph = Graph::new(self.n);
        assert!(
            graph.build_from_pairs(self.n, &self.pairs, 1),
            "edge list contains a duplicate edge"
        );
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i));
        }
        g
    }

    #[test]
    fn empty_graph_properties() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), None);
        assert_eq!(g.degree_bounds(), None);
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::new(1);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
        assert_eq!(g.eccentricity(NodeId::new(0)), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId::new(0), NodeId::new(5));
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = Graph::new(5);
        g.add_edge(NodeId::new(2), NodeId::new(4));
        g.add_edge(NodeId::new(2), NodeId::new(0));
        g.add_edge(NodeId::new(2), NodeId::new(3));
        assert_eq!(
            g.neighbors(NodeId::new(2)),
            &[NodeId::new(0), NodeId::new(3), NodeId::new(4)]
        );
    }

    #[test]
    fn equality_is_semantic_not_layout() {
        // Sorted exact spans give one layout per edge set, so the same
        // edges inserted in any order, or built in one pass, compare equal.
        let mut reversed = Graph::new(4);
        let mut builder = GraphBuilder::new(4);
        for i in (1..4).rev() {
            reversed.add_edge(NodeId::new(i), NodeId::new(i - 1));
            builder.add_edge(NodeId::new(i), NodeId::new(i - 1));
        }
        assert_eq!(reversed, path_graph(4));
        assert_eq!(builder.finalize(), path_graph(4));
        assert_ne!(path_graph(4), path_graph(5));
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let dist = g.bfs_distances(NodeId::new(0));
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(2), NodeId::new(3));
        assert!(!g.is_connected());
        assert_eq!(
            g.bfs_distances(NodeId::new(0)),
            vec![Some(0), Some(1), None, None]
        );
        g.add_edge(NodeId::new(1), NodeId::new(2));
        assert!(g.is_connected());
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(path_graph(6).diameter(), Some(5));

        let mut cycle = path_graph(6);
        cycle.add_edge(NodeId::new(5), NodeId::new(0));
        assert_eq!(cycle.diameter(), Some(3));
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let g = Graph::new(3);
        assert_eq!(g.diameter(), None);
        assert_eq!(g.diameter_estimate(), None);
    }

    #[test]
    fn diameter_estimate_is_exact_below_the_threshold() {
        // Paper-scale graphs take the exact path, so rows that report a
        // diameter stay byte-identical to the all-pairs computation.
        for g in [path_graph(6), path_graph(100)] {
            let (d, estimator) = g.diameter_estimate().unwrap();
            assert_eq!(Some(d), g.diameter());
            assert_eq!(estimator, DiameterEstimator::Exact);
        }
        let mut cycle = path_graph(6);
        cycle.add_edge(NodeId::new(5), NodeId::new(0));
        assert_eq!(
            cycle.diameter_estimate(),
            Some((3, DiameterEstimator::Exact))
        );
    }

    #[test]
    fn diameter_estimate_double_sweep_on_large_paths_and_cycles() {
        // Above the threshold the double sweep runs — and on paths and
        // cycles it recovers the exact diameter.
        let n = EXACT_DIAMETER_MAX_NODES + 1000;
        let path = path_graph(n);
        assert_eq!(
            path.diameter_estimate(),
            Some((n - 1, DiameterEstimator::DoubleSweep))
        );
        let mut cycle = path_graph(n);
        cycle.add_edge(NodeId::new(n - 1), NodeId::new(0));
        assert_eq!(
            cycle.diameter_estimate(),
            Some((n / 2, DiameterEstimator::DoubleSweep))
        );
        // Large and disconnected still reports None.
        let mut split = GraphBuilder::new(n);
        for i in (1..n).filter(|&i| i != 18) {
            split.add_edge(NodeId::new(i - 1), NodeId::new(i));
        }
        assert_eq!(split.finalize().diameter_estimate(), None);
    }

    #[test]
    fn diameter_estimate_is_thread_count_invariant() {
        let n = EXACT_DIAMETER_MAX_NODES + 1000;
        let mut cycle = path_graph(n);
        cycle.add_edge(NodeId::new(n - 1), NodeId::new(0));
        let sequential = cycle.diameter_estimate();
        for threads in [2, 4] {
            assert_eq!(cycle.diameter_estimate_with_threads(threads), sequential);
        }
    }

    #[test]
    fn diameter_estimator_display_names() {
        assert_eq!(DiameterEstimator::Exact.to_string(), "exact");
        assert_eq!(DiameterEstimator::DoubleSweep.to_string(), "double-sweep");
    }

    #[test]
    fn degree_statistics() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1));
        g.add_edge(NodeId::new(0), NodeId::new(2));
        g.add_edge(NodeId::new(0), NodeId::new(3));
        assert_eq!(g.degree(NodeId::new(0)), 3);
        assert_eq!(g.degree_bounds(), Some((1, 3)));
    }

    #[test]
    fn reset_matches_a_fresh_graph() {
        let mut g = path_graph(5);
        g.reset(3);
        assert_eq!(g, Graph::new(3));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(NodeId::new(0)), 0);
        // Growing past the previous size also works.
        g.reset(7);
        assert_eq!(g, Graph::new(7));
        assert!(g.add_edge(NodeId::new(5), NodeId::new(6)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edges_reported_once() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.add_edge(NodeId::new(1), NodeId::new(2)));
        assert!(!g.add_edge(NodeId::new(0), NodeId::new(1)), "duplicate");
        assert!(!g.add_edge(NodeId::new(2), NodeId::new(1)), "reverse");
        assert!(!g.add_edge(NodeId::new(1), NodeId::new(1)), "self-loop");
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(2))
            ]
        );
    }

    #[test]
    fn builder_finalize_matches_incremental_adds() {
        let mut builder = GraphBuilder::new(6);
        let mut incremental = Graph::new(6);
        for (a, b) in [(4, 1), (0, 5), (1, 0), (2, 4), (3, 2), (5, 4)] {
            builder.add_edge(NodeId::new(a), NodeId::new(b));
            incremental.add_edge(NodeId::new(a), NodeId::new(b));
        }
        assert_eq!(builder.edge_count(), 6);
        let built = builder.finalize();
        assert_eq!(built, incremental);
        assert_eq!(built.edge_count(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn builder_rejects_duplicates_at_finalize() {
        let mut builder = GraphBuilder::new(3);
        builder.add_edge(NodeId::new(0), NodeId::new(1));
        builder.add_edge(NodeId::new(1), NodeId::new(0));
        let _ = builder.finalize();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn builder_rejects_self_loops_immediately() {
        let mut builder = GraphBuilder::new(3);
        builder.add_edge(NodeId::new(1), NodeId::new(1));
    }

    #[test]
    fn parallel_span_sort_matches_sequential() {
        // Star-ish graph with very uneven span lengths exercises the
        // slot-balanced node cuts.
        let n = 3000;
        let mut pairs = Vec::new();
        for i in 1..n {
            pairs.push((0u32, to_u32(i)));
        }
        for i in (1..n - 1).rev() {
            pairs.push((to_u32(i), to_u32(i + 1)));
        }
        let mut sequential = Graph::new(n);
        assert!(sequential.build_from_pairs(n, &pairs, 1));
        for threads in [2, 3, 8] {
            let mut parallel = Graph::new(n);
            assert!(parallel.build_from_pairs(n, &pairs, threads));
            assert_eq!(parallel, sequential);
        }
    }

    #[test]
    fn paper_overlay_is_two_exact_arrays() {
        // The §V-A overlay: 1 000 peers, 8 links each, stored as n + 1
        // offsets and 2m targets with no spare slots, in two `Vec`s and a
        // `usize`.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = crate::topology::random_regular(1000, 8, &mut rng).unwrap();
        assert_eq!(g.offsets.len(), 1001);
        assert_eq!(g.targets.len(), 8000);
        assert_eq!(g.edge_count(), 4000);
        assert_eq!(size_of::<Graph>(), 56);
    }
}
