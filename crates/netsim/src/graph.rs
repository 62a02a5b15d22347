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

use crate::node::NodeId;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

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
    /// irrelevant.
    ///
    /// Returns `false` (leaving the graph empty over `n` nodes) if the
    /// list contains a self-loop or duplicate edge.
    pub(crate) fn build_from_pairs(&mut self, n: usize, pairs: &[(u32, u32)]) -> bool {
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
        // Pass 3: sort each span.
        for i in 0..n {
            self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize].sort_unstable();
        }
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
    /// Unreachable nodes get `None`. This is the plain level-synchronous
    /// BFS; the sweeps that need only reach and eccentricity
    /// ([`Graph::is_connected`], [`Graph::eccentricity`] and the diameter
    /// sweeps) run a bit-parallel pass instead, and the unit tests hold
    /// them to this function.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.node_count()];
        dist[source.index()] = Some(0);
        let mut frontier = vec![source];
        let mut next = Vec::new();
        let mut level = 0;
        while !frontier.is_empty() {
            level += 1;
            for &u in &frontier {
                for &v in self.neighbors(u) {
                    if dist[v.index()].is_none() {
                        dist[v.index()] = Some(level);
                        next.push(v);
                    }
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        dist
    }

    /// Returns `true` if every node is reachable from every other node.
    ///
    /// The empty graph and the single-node graph are considered connected.
    pub fn is_connected(&self) -> bool {
        self.node_count() <= 1 || self.eccentricity(NodeId::new(0)).is_some()
    }

    /// Eccentricity of `node`: the maximum BFS distance to any reachable
    /// node. Returns `None` if some node is unreachable.
    pub fn eccentricity(&self, node: NodeId) -> Option<usize> {
        let (_, eccentricity) = self.farthest_from(node, &mut LaneScratch::default())?;
        Some(eccentricity)
    }

    /// Graph diameter: the maximum eccentricity over all nodes, or `None` if
    /// the graph is disconnected (or empty).
    ///
    /// Runs ⌈n/64⌉ bit-parallel passes, each sweeping 64 sources at once
    /// with one mask bit per source: O(⌈n/64⌉ · D · (n + m)) word
    /// operations for diameter D, against O(n · (n + m)) for one BFS per
    /// node. That is fine for the network sizes the paper's evaluation uses
    /// (≈ 1 000 peers); [`Graph::diameter_estimate`] calls it up to
    /// [`EXACT_DIAMETER_MAX_NODES`].
    pub fn diameter(&self) -> Option<usize> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        let mut scratch = LaneScratch::<u64>::default();
        let mut eccentricities = [0u32; 64];
        let mut sources = [NodeId::new(0); 64];
        let mut diameter = 0u32;
        for first in (0..n).step_by(64) {
            let sources = &mut sources[..64.min(n - first)];
            for (lane, source) in sources.iter_mut().enumerate() {
                *source = NodeId::new(first + lane);
            }
            let eccentricities = &mut eccentricities[..sources.len()];
            if !self.bit_parallel_sweep(sources, &mut scratch, eccentricities) {
                return None;
            }
            diameter = eccentricities.iter().fold(diameter, |d, &e| d.max(e));
        }
        Some(diameter as usize)
    }

    /// Graph diameter, or a tight lower-bound estimate when the graph is
    /// too large for the exact algorithm; reports which estimator ran.
    ///
    /// Up to [`EXACT_DIAMETER_MAX_NODES`] nodes this is exactly
    /// [`Graph::diameter`]. Beyond that it switches to a double sweep — BFS
    /// from node 0 to find a peripheral node `u`, then BFS from `u` —
    /// refined by the eccentricities of the second sweep's endpoint and a
    /// deterministic stride of probe nodes, all probes in one bit-parallel
    /// pass. The result is a lower bound on the true diameter at three
    /// sweeps instead of n, and `None` for disconnected (or empty) graphs
    /// either way.
    pub fn diameter_estimate(&self) -> Option<(usize, DiameterEstimator)> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        if n <= EXACT_DIAMETER_MAX_NODES {
            return self.diameter().map(|d| (d, DiameterEstimator::Exact));
        }
        let mut scratch = LaneScratch::default();
        // Double sweep: the farthest node from an arbitrary start sits on
        // the periphery, so its eccentricity approximates the diameter
        // from below (exactly, on trees).
        let (u, _) = self.farthest_from(NodeId::new(0), &mut scratch)?;
        let (w, swept) = self.farthest_from(u, &mut scratch)?;
        // Free the one-lane masks before the probe pass allocates its own.
        drop(scratch);
        // Sampled-eccentricity refinement: more sources can only raise the
        // lower bound. The probe set (second sweep's endpoint plus a fixed
        // stride over node indices) is deterministic, so repeated calls on
        // the same graph report the same figure. The stride skips node 0:
        // the first sweep measured its eccentricity as `d(0, u)`, which
        // `swept` (u's eccentricity) already bounds from above.
        let stride = (n / DIAMETER_ECCENTRICITY_SAMPLES).max(1);
        let probes: Vec<NodeId> = std::iter::once(w)
            .chain((stride..n).step_by(stride).map(NodeId::new))
            .collect();
        let probed = self.eccentricities(&probes)?;
        let best = probed.into_iter().fold(swept, usize::max);
        Some((best, DiameterEstimator::DoubleSweep))
    }

    /// Forwards to [`Graph::diameter_estimate`]; `threads` is ignored.
    ///
    /// A trial runs on one thread, so the sweep has no thread count. This
    /// forwarder stays only because the benchmark crate's `flood_large`
    /// workload calls it; it goes when that crate's imports are narrowed
    /// (ROADMAP item 1d).
    pub fn diameter_estimate_with_threads(
        &self,
        _threads: usize,
    ) -> Option<(usize, DiameterEstimator)> {
        self.diameter_estimate()
    }

    /// The node farthest from `source` (lowest index on ties) and its BFS
    /// distance, or `None` if any node is unreachable: a one-lane
    /// [`Graph::bit_parallel_sweep`], whose last level is left in
    /// `scratch.fresh`.
    fn farthest_from(
        &self,
        source: NodeId,
        scratch: &mut LaneScratch<u8>,
    ) -> Option<(NodeId, usize)> {
        let mut eccentricity = [0];
        if !self.bit_parallel_sweep(&[source], scratch, &mut eccentricity) {
            return None;
        }
        let farthest = scratch.fresh.iter().copied().min()?;
        Some((farthest, eccentricity[0] as usize))
    }

    /// Eccentricities of up to 64 `sources` (duplicates allowed) in one
    /// bit-parallel pass, or `None` if some node is unreachable from them.
    ///
    /// The lane width follows the source count: one byte per node and
    /// lane set for up to 8 sources (the estimate's probes when 8 divides
    /// n), two for up to 16 (its nine probes otherwise), eight beyond.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or longer than 64.
    fn eccentricities(&self, sources: &[NodeId]) -> Option<Vec<usize>> {
        let mut eccentricities = [0u32; 64];
        let out = &mut eccentricities[..sources.len()];
        let connected = match sources.len() {
            0..=8 => self.bit_parallel_sweep(sources, &mut LaneScratch::<u8>::default(), out),
            9..=16 => self.bit_parallel_sweep(sources, &mut LaneScratch::<u16>::default(), out),
            _ => self.bit_parallel_sweep(sources, &mut LaneScratch::<u64>::default(), out),
        };
        connected.then(|| out.iter().map(|&e| e as usize).collect())
    }

    /// Multi-source BFS (Then et al., "The More the Merrier", VLDB 2014):
    /// source `i` owns lane `i` of every mask, and one pass over the graph
    /// advances all sources by a level. Writes each source's eccentricity
    /// into `eccentricities` and returns whether every source reached every
    /// node; `scratch.fresh` is left holding the nodes of the last level
    /// that reached any (each listed once).
    ///
    /// A level runs top-down — each frontier node pushes its `visit` lanes
    /// to its neighbours' `next` — while the frontier's edges number at
    /// most the open nodes (those some source has not reached yet), and
    /// bottom-up otherwise: each open node gathers the `visit` lanes of its
    /// neighbours. Where the sources' frontiers overlap, one edge scan
    /// serves all of them.
    fn bit_parallel_sweep<M: Lanes>(
        &self,
        sources: &[NodeId],
        scratch: &mut LaneScratch<M>,
        eccentricities: &mut [u32],
    ) -> bool {
        let n = self.node_count();
        let k = sources.len();
        assert!(
            (1..=M::WIDTH).contains(&k),
            "{k} sources for {}-lane masks",
            M::WIDTH
        );
        let all = M::first(k);
        let LaneScratch {
            seen,
            visit,
            next,
            frontier,
            fresh,
        } = scratch;
        for lanes in [&mut *seen, &mut *visit, &mut *next] {
            lanes.clear();
            lanes.resize(n, M::ZERO);
        }
        frontier.clear();
        for (lane, &source) in sources.iter().enumerate() {
            let v = source.index();
            if visit[v] == M::ZERO {
                frontier.push(source);
            }
            seen[v] |= M::lane(lane);
            visit[v] |= M::lane(lane);
        }
        let mut full = frontier.iter().filter(|v| seen[v.index()] == all).count();
        let mut frontier_edges: usize = frontier.iter().map(|&v| self.degree(v)).sum();
        eccentricities.fill(0);
        let mut level = 0u32;

        while !frontier.is_empty() {
            level += 1;
            fresh.clear();
            let mut reached = M::ZERO;
            let mut edges = 0;
            if frontier_edges <= n - full {
                // Top-down: every frontier node pushes its `visit` lanes to
                // its neighbours, listing a neighbour the first time it
                // gains one.
                for &v in frontier.iter() {
                    let lanes = visit[v.index()];
                    for &u in self.neighbors(v) {
                        let i = u.index();
                        let new = lanes & !seen[i];
                        if new != M::ZERO {
                            if next[i] == M::ZERO {
                                fresh.push(u);
                                edges += self.degree(u);
                            }
                            next[i] |= new;
                            seen[i] |= new;
                            reached |= new;
                            full += usize::from(seen[i] == all);
                        }
                    }
                }
            } else {
                // Bottom-up: every open node gathers its neighbours'
                // `visit` lanes.
                for (i, (seen_i, next_i)) in seen.iter_mut().zip(next.iter_mut()).enumerate() {
                    if *seen_i == all {
                        continue;
                    }
                    let node = NodeId::new(i);
                    let mut gathered = M::ZERO;
                    for &u in self.neighbors(node) {
                        gathered |= visit[u.index()];
                        if gathered | *seen_i == all {
                            break;
                        }
                    }
                    let new = gathered & !*seen_i;
                    if new != M::ZERO {
                        *next_i = new;
                        *seen_i |= new;
                        reached |= new;
                        fresh.push(node);
                        edges += self.degree(node);
                        full += usize::from(*seen_i == all);
                    }
                }
            }
            // The new level becomes `visit`; the old one, cleared, is the
            // next level's `next`.
            std::mem::swap(visit, next);
            for &v in frontier.iter() {
                next[v.index()] = M::ZERO;
            }
            let mut reached = reached.to_u64();
            while reached != 0 {
                eccentricities[reached.trailing_zeros() as usize] = level;
                reached &= reached - 1;
            }
            frontier_edges = edges;
            std::mem::swap(frontier, fresh);
        }
        full == n
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

/// One bit per source of a bit-parallel pass ([`Graph::bit_parallel_sweep`]),
/// in the narrowest unsigned integer that holds the sources.
trait Lanes:
    Copy
    + Default
    + Eq
    + BitOr<Output = Self>
    + BitOrAssign
    + BitAnd<Output = Self>
    + Not<Output = Self>
{
    /// Lanes per mask.
    const WIDTH: usize;
    /// The empty mask.
    const ZERO: Self;
    /// The mask of lane `i` alone.
    fn lane(i: usize) -> Self;
    /// The mask of lanes `0..k`, for `1 <= k <= WIDTH`.
    fn first(k: usize) -> Self;
    /// The mask widened to 64 lanes.
    fn to_u64(self) -> u64;
}

macro_rules! impl_lanes {
    ($($t:ty),*) => {$(
        impl Lanes for $t {
            const WIDTH: usize = <$t>::BITS as usize;
            const ZERO: Self = 0;
            fn lane(i: usize) -> Self {
                1 << i
            }
            fn first(k: usize) -> Self {
                <$t>::MAX >> (Self::WIDTH - k)
            }
            fn to_u64(self) -> u64 {
                self.into()
            }
        }
    )*};
}
impl_lanes!(u8, u16, u64);

/// Working storage of one bit-parallel pass: per node, the lanes (sources)
/// that have `seen` it, that `visit` it at the current level and that reach
/// it `next`; plus the current frontier and the nodes `fresh` at the next
/// level, each listed once. After a pass, `fresh` holds its last level.
#[derive(Debug, Default)]
struct LaneScratch<M> {
    seen: Vec<M>,
    visit: Vec<M>,
    next: Vec<M>,
    frontier: Vec<NodeId>,
    fresh: Vec<NodeId>,
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
            graph.build_from_pairs(self.n, &self.pairs),
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

    /// What a one-lane sweep from `source` must find, read off the
    /// level-synchronous [`Graph::bfs_distances`]: the farthest node
    /// (lowest index on ties) and its distance, or `None` if some node is
    /// unreachable.
    fn oracle_farthest(g: &Graph, source: NodeId) -> Option<(NodeId, usize)> {
        let dist: Vec<usize> = g.bfs_distances(source).into_iter().collect::<Option<_>>()?;
        let far =
            (0..dist.len()).fold(source.index(), |f, v| if dist[v] > dist[f] { v } else { f });
        Some((NodeId::new(far), dist[far]))
    }

    fn oracle_eccentricity(g: &Graph, source: NodeId) -> Option<usize> {
        oracle_farthest(g, source).map(|(_, e)| e)
    }

    fn oracle_diameter(g: &Graph) -> Option<usize> {
        if g.node_count() == 0 {
            return None;
        }
        g.nodes()
            .map(|v| oracle_eccentricity(g, v))
            .try_fold(0, |d, e| Some(d.max(e?)))
    }

    /// The double sweep and probe set of [`Graph::diameter_estimate`], one
    /// oracle sweep per source (node 0 swept twice, as it once was).
    fn oracle_double_sweep(g: &Graph) -> Option<usize> {
        let n = g.node_count();
        let (u, _) = oracle_farthest(g, NodeId::new(0))?;
        let (w, mut best) = oracle_farthest(g, u)?;
        let stride = (n / DIAMETER_ECCENTRICITY_SAMPLES).max(1);
        for probe in std::iter::once(w).chain((0..n).step_by(stride).map(NodeId::new)) {
            best = best.max(oracle_eccentricity(g, probe)?);
        }
        Some(best)
    }

    /// `count` sources spread over the graph with a stride that wraps, so
    /// small graphs get duplicates.
    fn spread_sources(g: &Graph, count: usize, salt: usize) -> Vec<NodeId> {
        (0..count)
            .map(|i| NodeId::new((salt + i * 37) % g.node_count()))
            .collect()
    }

    /// Checks every sweep of `g` against the oracle: connectivity,
    /// eccentricity and farthest node from `sources`, and the bit-parallel
    /// eccentricities of 1, 2, 9, 16 and 64 sources.
    fn assert_matches_oracle(g: &Graph, sources: &[NodeId]) {
        for &source in sources {
            let expected = oracle_farthest(g, source);
            assert_eq!(
                g.farthest_from(source, &mut LaneScratch::default()),
                expected,
                "farthest from {source:?}"
            );
            assert_eq!(g.eccentricity(source), expected.map(|(_, e)| e));
            if source.index() == 0 {
                assert_eq!(g.is_connected(), expected.is_some());
            }
        }
        for (salt, count) in [1, 2, 9, 16, 64].into_iter().enumerate() {
            let lanes = spread_sources(g, count, salt);
            let expected: Option<Vec<usize>> =
                lanes.iter().map(|&s| oracle_eccentricity(g, s)).collect();
            assert_eq!(g.eccentricities(&lanes), expected, "{count} sources");
        }
    }

    /// The disjoint union of `a` and `b`, `b`'s nodes numbered after `a`'s.
    fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
        let offset = a.node_count();
        let mut builder = GraphBuilder::new(offset + b.node_count());
        for (x, y) in a.edges() {
            builder.add_edge(x, y);
        }
        for (x, y) in b.edges() {
            builder.add_edge(
                NodeId::new(offset + x.index()),
                NodeId::new(offset + y.index()),
            );
        }
        builder.finalize()
    }

    #[test]
    fn hand_built_graphs_match_the_oracle() {
        use crate::topology::{line, ring, star, tree};
        let mut isolated = GraphBuilder::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            isolated.add_edge(NodeId::new(a), NodeId::new(b));
        }
        let graphs = [
            line(1).unwrap(),
            line(2).unwrap(),
            line(7).unwrap(),
            line(130).unwrap(),
            ring(3).unwrap(),
            ring(64).unwrap(),
            ring(129).unwrap(),
            star(2).unwrap(),
            star(65).unwrap(),
            star(3000).unwrap(),
            tree(15, 2).unwrap(),
            tree(2500, 2).unwrap(),
            disjoint_union(&ring(40).unwrap(), &line(30).unwrap()),
            disjoint_union(&star(70).unwrap(), &Graph::new(1)),
            isolated.finalize(),
        ];
        for g in &graphs {
            let n = g.node_count();
            let every_node: Vec<_> = g.nodes().collect();
            let sources = if n <= 200 {
                every_node
            } else {
                spread_sources(g, 24, 5)
            };
            assert_matches_oracle(g, &sources);
            if n <= 300 {
                assert_eq!(g.diameter(), oracle_diameter(g), "n = {n}");
            }
            let expected = if n <= EXACT_DIAMETER_MAX_NODES {
                oracle_diameter(g)
            } else {
                oracle_double_sweep(g)
            };
            assert_eq!(g.diameter_estimate().map(|(d, _)| d), expected, "n = {n}");
        }
    }

    #[test]
    fn duplicate_sources_share_their_eccentricity() {
        let g = path_graph(10);
        let sources = [3, 3, 0, 9, 3].map(NodeId::new);
        assert_eq!(g.eccentricities(&sources), Some(vec![6, 6, 9, 9, 6]));
        let split = disjoint_union(&path_graph(3), &path_graph(3));
        assert_eq!(split.eccentricities(&[NodeId::new(0); 64]), None);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// On random regular overlays (and, with `split`, the disjoint
            /// union of two), every BFS entry point agrees with the
            /// level-synchronous oracle.
            #[test]
            fn prop_random_regular_sweeps_match_the_oracle(
                n in 3usize..3000,
                degree_choice in 0usize..4,
                seed in any::<u64>(),
                split in any::<bool>(),
                salt in 0usize..97,
            ) {
                let degree = [3, 4, 6, 8][degree_choice].min(n - 1);
                let n = n + (n * degree) % 2;
                let mut rng = StdRng::seed_from_u64(seed);
                let regular = crate::topology::random_regular(n, degree, &mut rng).unwrap();
                let g = if split {
                    let other = crate::topology::random_regular(degree + 1, degree, &mut rng).unwrap();
                    disjoint_union(&regular, &other)
                } else {
                    regular
                };
                assert_matches_oracle(&g, &spread_sources(&g, 4, salt));
                if g.node_count() <= 300 {
                    prop_assert_eq!(g.diameter(), oracle_diameter(&g));
                }
                if g.node_count() > EXACT_DIAMETER_MAX_NODES {
                    prop_assert_eq!(
                        g.diameter_estimate().map(|(d, _)| d),
                        oracle_double_sweep(&g)
                    );
                }
            }
        }
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
        // And on a star it finds the two-hop leaf-to-leaf paths.
        assert_eq!(
            crate::topology::star(6000).unwrap().diameter_estimate(),
            Some((2, DiameterEstimator::DoubleSweep))
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
        // The forwarder ignores its thread count.
        let n = EXACT_DIAMETER_MAX_NODES + 1000;
        let mut cycle = path_graph(n);
        cycle.add_edge(NodeId::new(n - 1), NodeId::new(0));
        let sequential = cycle.diameter_estimate();
        for threads in [0, 1, 4] {
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
