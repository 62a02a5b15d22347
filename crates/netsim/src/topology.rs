//! Topology generators for the simulated peer-to-peer overlay.
//!
//! The paper's evaluation (§V-A) simulates dissemination over a network of
//! 1 000 peers; Bitcoin-like overlays are commonly modelled as roughly
//! regular random graphs with degree around 8 (each peer keeps 8 outbound
//! connections). This module provides that model plus the other standard
//! families used by the adaptive-diffusion and Dandelion papers the
//! protocol builds on: Erdős–Rényi, Watts–Strogatz, Barabási–Albert, rings,
//! lines, complete graphs, stars and regular trees.
//!
//! All generators are deterministic under a caller-provided RNG, and all of
//! them guarantee a *connected* result (retrying or patching where the raw
//! random model could produce disconnected graphs) because the dissemination
//! protocols need every node to be reachable.

use crate::graph::{Graph, GraphBuilder};
use crate::node::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The topology families supported by the simulator.
///
/// The enum form (rather than free functions only) lets experiment configs
/// name a topology declaratively and sweep over families.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// Random `degree`-regular graph (degree · n must be even).
    RandomRegular {
        /// Degree of every node.
        degree: usize,
    },
    /// Erdős–Rényi G(n, p) with edge probability `edge_probability`.
    ErdosRenyi {
        /// Independent probability of each possible edge.
        edge_probability: f64,
    },
    /// Watts–Strogatz small-world graph: ring lattice with `k` nearest
    /// neighbours, each edge rewired with probability `rewire_probability`.
    WattsStrogatz {
        /// Even number of lattice neighbours per node.
        k: usize,
        /// Probability of rewiring each lattice edge.
        rewire_probability: f64,
    },
    /// Barabási–Albert preferential attachment with `attachment` edges per
    /// new node.
    BarabasiAlbert {
        /// Edges added by every arriving node.
        attachment: usize,
    },
    /// Simple cycle over all nodes.
    Ring,
    /// Simple path (line graph) over all nodes.
    Line,
    /// Complete graph.
    Complete,
    /// Star: node 0 connected to every other node.
    Star,
    /// Complete `arity`-ary tree rooted at node 0.
    Tree {
        /// Children per internal node.
        arity: usize,
    },
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::RandomRegular { degree } => write!(f, "random-regular(d={degree})"),
            Topology::ErdosRenyi { edge_probability } => {
                write!(f, "erdos-renyi(p={edge_probability})")
            }
            Topology::WattsStrogatz {
                k,
                rewire_probability,
            } => {
                write!(f, "watts-strogatz(k={k},p={rewire_probability})")
            }
            Topology::BarabasiAlbert { attachment } => write!(f, "barabasi-albert(m={attachment})"),
            Topology::Ring => write!(f, "ring"),
            Topology::Line => write!(f, "line"),
            Topology::Complete => write!(f, "complete"),
            Topology::Star => write!(f, "star"),
            Topology::Tree { arity } => write!(f, "tree(arity={arity})"),
        }
    }
}

/// Error produced when a topology cannot be generated with the requested
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateTopologyError {
    /// The parameter combination is invalid (e.g. odd `n * degree` for a
    /// regular graph, degree ≥ n, zero nodes).
    InvalidParameters {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The randomised generator failed to produce a valid connected graph
    /// within its retry budget.
    GenerationFailed {
        /// Number of attempts made before giving up.
        attempts: usize,
    },
}

impl fmt::Display for GenerateTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateTopologyError::InvalidParameters { reason } => {
                write!(f, "invalid topology parameters: {reason}")
            }
            GenerateTopologyError::GenerationFailed { attempts } => {
                write!(
                    f,
                    "failed to generate a connected topology after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for GenerateTopologyError {}

impl Topology {
    /// Generates a connected graph with `n` nodes from this topology family.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateTopologyError::InvalidParameters`] for impossible
    /// parameter combinations and [`GenerateTopologyError::GenerationFailed`]
    /// if the randomised construction repeatedly fails (pathological
    /// parameters such as extremely sparse Erdős–Rényi graphs).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Result<Graph, GenerateTopologyError> {
        match *self {
            Topology::RandomRegular { degree } => random_regular(n, degree, rng),
            Topology::ErdosRenyi { edge_probability } => erdos_renyi(n, edge_probability, rng),
            Topology::WattsStrogatz {
                k,
                rewire_probability,
            } => watts_strogatz(n, k, rewire_probability, rng),
            Topology::BarabasiAlbert { attachment } => barabasi_albert(n, attachment, rng),
            Topology::Ring => ring(n),
            Topology::Line => line(n),
            Topology::Complete => complete(n),
            Topology::Star => star(n),
            Topology::Tree { arity } => tree(n, arity),
        }
    }
}

fn invalid(reason: impl Into<String>) -> GenerateTopologyError {
    GenerateTopologyError::InvalidParameters {
        reason: reason.into(),
    }
}

fn require_nodes(n: usize) -> Result<(), GenerateTopologyError> {
    if n == 0 {
        Err(invalid("topology requires at least one node"))
    } else {
        Ok(())
    }
}

/// The line edges 0 – 1 – … – (n-1) as a builder, shared by [`line`] and
/// [`ring`].
fn line_builder(n: usize) -> GraphBuilder {
    let mut builder = GraphBuilder::new(n);
    for i in 1..n {
        builder.add_edge(NodeId::new(i - 1), NodeId::new(i));
    }
    builder
}

/// Simple path 0 – 1 – 2 – … – (n-1).
pub fn line(n: usize) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    Ok(line_builder(n).finalize())
}

/// Cycle over all `n` nodes (requires `n >= 3` to be a simple cycle; `n` of
/// 1 or 2 degenerate to a point / single edge).
pub fn ring(n: usize) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    let mut builder = line_builder(n);
    if n >= 3 {
        builder.add_edge(NodeId::new(n - 1), NodeId::new(0));
    }
    Ok(builder.finalize())
}

/// Complete graph on `n` nodes.
pub fn complete(n: usize) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            builder.add_edge(NodeId::new(i), NodeId::new(j));
        }
    }
    Ok(builder.finalize())
}

/// Star with node 0 as hub.
pub fn star(n: usize) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    let mut builder = GraphBuilder::new(n);
    for i in 1..n {
        builder.add_edge(NodeId::new(0), NodeId::new(i));
    }
    Ok(builder.finalize())
}

/// Complete `arity`-ary tree: node `i`'s children are `arity*i + 1 ..= arity*i + arity`.
pub fn tree(n: usize, arity: usize) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    if arity == 0 {
        return Err(invalid("tree arity must be at least 1"));
    }
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        // Children are numbered in parent order, so once a node has none
        // (or its first child index overflows) every later node is a leaf.
        let Some(first) = arity
            .checked_mul(i)
            .and_then(|base| base.checked_add(1))
            .filter(|&first| first < n)
        else {
            break;
        };
        for child in first..first.saturating_add(arity).min(n) {
            builder.add_edge(NodeId::new(i), NodeId::new(child));
        }
    }
    Ok(builder.finalize())
}

/// Erdős–Rényi G(n, p), retried until connected (up to 50 attempts).
pub fn erdos_renyi<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(invalid(format!("edge probability {p} outside [0, 1]")));
    }
    const ATTEMPTS: usize = 50;
    for _ in 0..ATTEMPTS {
        let mut builder = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(p) {
                    builder.add_edge(NodeId::new(i), NodeId::new(j));
                }
            }
        }
        let g = builder.finalize();
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GenerateTopologyError::GenerationFailed { attempts: ATTEMPTS })
}

/// Random `degree`-regular graph via the pairing/configuration model,
/// retried until simple and connected.
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    degree: usize,
    rng: &mut R,
) -> Result<Graph, GenerateTopologyError> {
    let mut graph = Graph::new(0);
    random_regular_into(&mut graph, n, degree, rng, &mut RegularScratch::new())?;
    Ok(graph)
}

/// Hasher for packed stub-pair keys: one splitmix64 finalizer round over
/// the `u64` key.
///
/// The repair delta map is only ever probed (`get`/`entry`) and cleared —
/// never iterated — so the hash function cannot influence any observable
/// output; it only sets the probe cost, and a single multiply-xor-shift
/// round beats SipHash by an order of magnitude on the repair loop's hot
/// lookups.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairKeyHasher {
    state: u64,
}

impl Hasher for PairKeyHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by `u64` keys, which take `write_u64`).
        for &byte in bytes {
            self.state = (self.state ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        // splitmix64 finalizer: full avalanche in three rounds.
        let mut z = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.state = z ^ (z >> 31);
    }
}

/// Repair-delta map keyed by packed `(low, high)` stub pairs: how much the
/// live multiplicity of a key differs from the counting-sort snapshot taken
/// right after stub pairing. Signed, because swaps decrement keys the
/// snapshot counted. Only keys touched by a swap ever enter the map, so it
/// stays tiny even at n = 10⁶ (the snapshot itself is a sorted array, not a
/// hash map).
type PairDeltas = HashMap<u64, i32, BuildHasherDefault<PairKeyHasher>>;

/// How oversized a pooled scratch buffer may be, relative to the current
/// overlay's needs, before [`RegularScratch::clamp`] releases it. The
/// factor-of-4 headroom keeps steady-state sweeps reallocation-free while
/// bounding the residue a one-off million-node leg leaves in every worker.
const SCRATCH_CLAMP_FACTOR: usize = 4;

/// Reusable scratch buffers of the configuration-model generator.
///
/// One [`random_regular_into`] call for an `n`-node degree-`d` overlay
/// fills an `n·d`-element stub list, an `n·d/2`-element edge list and a
/// counting-sort multiplicity snapshot of the same order — tens of
/// megabytes of transient allocations per trial at n = 10⁶. Pooling the
/// scratch in a
/// [`TrialArena`](crate::TrialArena) (see
/// [`TrialArena::regular_scratch`](crate::TrialArena::regular_scratch))
/// turns that into a one-time cost per worker. The buffers carry no state
/// between calls: every use clears them first, so a dirty scratch is
/// indistinguishable from a fresh one. Each use also *clamps* capacity
/// afterwards (see [`RegularScratch::clamp`]), so one large-n trial does
/// not pin its peak footprint in the pool forever.
#[derive(Debug, Default)]
pub struct RegularScratch {
    stubs: Vec<u32>,
    edges: Vec<(u32, u32)>,
    /// Per-low-endpoint bucket boundaries of the multiplicity snapshot
    /// (`n + 1` prefix sums over edge keys, counting-sort style).
    key_offsets: Vec<u32>,
    /// Snapshot payload: one `(high, edge index)` entry per edge, bucketed
    /// by low endpoint and sorted within each bucket, so a key's snapshot
    /// multiplicity is a run length found by binary search.
    key_slots: Vec<(u32, u32)>,
    /// Indices of the initially-bad edges (self-loops, parallel runs), in
    /// ascending order — the repair loop's work list.
    bad: Vec<u32>,
    deltas: PairDeltas,
}

impl RegularScratch {
    /// Creates empty scratch buffers (allocated on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Releases excess capacity left by a larger previous overlay: any
    /// buffer holding more than `SCRATCH_CLAMP_FACTOR` (4×) times what a
    /// `stub_count`-stub generation needs is shrunk back to that need.
    ///
    /// Called by the generator after every run (the grow-then-shrink
    /// regression suite pins the behaviour); also callable directly when a
    /// harness wants to trim pooled workers between phases.
    pub fn clamp(&mut self, stub_count: usize) {
        if self.stubs.capacity() > SCRATCH_CLAMP_FACTOR * stub_count.max(1) {
            self.stubs.shrink_to(stub_count);
        }
        // `key_offsets` needs one slot per node plus one; node count is at
        // most the stub count, so the stub budget bounds it too.
        if self.key_offsets.capacity() > SCRATCH_CLAMP_FACTOR * (stub_count + 1) {
            self.key_offsets.shrink_to(stub_count + 1);
        }
        let edge_count = stub_count / 2;
        if self.edges.capacity() > SCRATCH_CLAMP_FACTOR * edge_count.max(1) {
            self.edges.shrink_to(edge_count);
        }
        if self.key_slots.capacity() > SCRATCH_CLAMP_FACTOR * edge_count.max(1) {
            self.key_slots.shrink_to(edge_count);
        }
        if self.bad.capacity() > SCRATCH_CLAMP_FACTOR * edge_count.max(1) {
            self.bad.shrink_to(edge_count);
        }
        if self.deltas.capacity() > SCRATCH_CLAMP_FACTOR * edge_count.max(1) {
            self.deltas.shrink_to(edge_count);
        }
    }

    /// Current capacity of the stub buffer (exposed for capacity-regression
    /// tests).
    #[must_use]
    pub fn stub_capacity(&self) -> usize {
        self.stubs.capacity()
    }
}

/// Like [`random_regular`], but regenerates into `graph` with the
/// caller's pooled [`RegularScratch`] buffers, reusing the adjacency and
/// scratch allocations of earlier calls (the overlay checkout path of a
/// [`TrialArena`](crate::TrialArena)).
///
/// Consumes the RNG exactly as [`random_regular`] does, so the generated
/// overlay is byte-identical regardless of which entry point (or which
/// recycled graph and scratch) is used. On error `graph` is left cleared.
pub fn random_regular_into<R: Rng + ?Sized>(
    graph: &mut Graph,
    n: usize,
    degree: usize,
    rng: &mut R,
    scratch: &mut RegularScratch,
) -> Result<(), GenerateTopologyError> {
    graph.reset(0);
    require_nodes(n)?;
    if degree == 0 && n > 1 {
        return Err(invalid("regular degree 0 cannot be connected"));
    }
    if degree >= n {
        return Err(invalid(format!(
            "degree {degree} must be smaller than n = {n}"
        )));
    }
    if !(n * degree).is_multiple_of(2) {
        return Err(invalid(format!("n * degree = {} must be even", n * degree)));
    }
    if n == 1 {
        graph.reset(1);
        return Ok(());
    }

    let result = random_regular_attempts(graph, n, degree, rng, scratch);
    // Capacity clamp: a pooled scratch must not pin the footprint of the
    // largest overlay it ever generated (the n = 10⁶ leg would otherwise
    // leave ~100 MB parked in every worker arena for the rest of the
    // process).
    scratch.clamp(n * degree);
    result
}

/// The retry loop of the configuration-model generator; see
/// [`random_regular_into`] for the contract.
fn random_regular_attempts<R: Rng + ?Sized>(
    graph: &mut Graph,
    n: usize,
    degree: usize,
    rng: &mut R,
    scratch: &mut RegularScratch,
) -> Result<(), GenerateTopologyError> {
    const ATTEMPTS: usize = 50;
    for _ in 0..ATTEMPTS {
        // Configuration model: each node contributes `degree` stubs; a random
        // perfect matching over stubs yields an edge multiset which is then
        // repaired into a simple graph by double edge swaps (self-loops and
        // parallel edges are swapped against randomly chosen good edges).
        // The buffers come from `scratch` and are re-filled from zero, so
        // nothing of a previous call can leak into this one.
        let RegularScratch {
            stubs,
            edges,
            key_offsets,
            key_slots,
            bad,
            deltas,
        } = scratch;
        stubs.clear();
        stubs.extend((0..n).flat_map(|i| std::iter::repeat_n(to_u32(i), degree)));
        stubs.shuffle(rng);
        edges.clear();
        edges.extend(stubs.chunks_exact(2).map(|pair| (pair[0], pair[1])));

        // Multiplicity snapshot via counting sort, replacing the full hash
        // map (one insert per edge) that used to dominate the build at
        // n = 10⁶. Edge keys are bucketed by low endpoint; each bucket is
        // sorted by `(high, edge index)`, so a key's snapshot multiplicity
        // is a run length found by binary search, and the initially-bad
        // edges (self-loops, parallel runs) fall out of one linear walk.
        let split = |a: u32, b: u32| if a <= b { (a, b) } else { (b, a) };
        key_offsets.clear();
        key_offsets.resize(n + 1, 0);
        for &(a, b) in edges.iter() {
            key_offsets[split(a, b).0 as usize + 1] += 1;
        }
        for i in 0..n {
            key_offsets[i + 1] += key_offsets[i];
        }
        // The stub list is dead once the edge list exists; its first `n`
        // slots serve as the scatter cursors.
        let cursors = &mut stubs[..n];
        cursors.copy_from_slice(&key_offsets[..n]);
        key_slots.clear();
        key_slots.resize(edges.len(), (0, 0));
        for (index, &(a, b)) in edges.iter().enumerate() {
            let (low, high) = split(a, b);
            let slot = cursors[low as usize];
            cursors[low as usize] += 1;
            key_slots[slot as usize] = (high, to_u32(index));
        }
        bad.clear();
        for low in 0..n {
            let span = &mut key_slots[key_offsets[low] as usize..key_offsets[low + 1] as usize];
            span.sort_unstable();
            let mut i = 0;
            while i < span.len() {
                let high = span[i].0;
                let mut j = i + 1;
                while j < span.len() && span[j].0 == high {
                    j += 1;
                }
                if high == to_u32(low) || j - i > 1 {
                    bad.extend(span[i..j].iter().map(|&(_, index)| index));
                }
                i = j;
            }
        }
        // The old repair loop walked a forward cursor over *all* edges;
        // since a successful swap only ever installs good edges and
        // decrements other multiplicities, a good edge never turns bad and
        // the cursor only ever stopped at initially-bad indices. Visiting
        // the sorted bad list therefore reproduces the cursor's stop
        // sequence — and the RNG stream and swap choices — byte-identically,
        // without the O(E) scan.
        bad.sort_unstable();

        let key_offsets = &key_offsets[..];
        let key_slots = &key_slots[..];
        let key = |a: u32, b: u32| {
            let (low, high) = split(a, b);
            (u64::from(low) << 32) | u64::from(high)
        };
        // Live multiplicity of `(a, b)` = snapshot run length + swap delta.
        let current = |a: u32, b: u32, deltas: &PairDeltas| -> i64 {
            let (low, high) = split(a, b);
            let span = &key_slots
                [key_offsets[low as usize] as usize..key_offsets[low as usize + 1] as usize];
            let start = span.partition_point(|&(h, _)| h < high);
            let run = span[start..].partition_point(|&(h, _)| h == high);
            i64::from(to_u32(run)) + i64::from(deltas.get(&key(a, b)).copied().unwrap_or(0))
        };

        deltas.clear();
        let mut repaired = true;
        let mut budget = 200 * edges.len().max(1);
        'bad_edges: for &index in bad.iter() {
            let i = index as usize;
            loop {
                let (a, b) = edges[i];
                // The edge may have healed since the snapshot without being
                // visited: an earlier swap can overwrite this slot (as the
                // random partner) or drop this key's multiplicity below 2.
                if a != b && current(a, b, deltas) <= 1 {
                    break;
                }
                if budget == 0 {
                    repaired = false;
                    break 'bad_edges;
                }
                budget -= 1;
                let j = rng.gen_range(0..edges.len());
                if i == j {
                    continue;
                }
                let (c, d) = edges[j];
                // Propose (a, b), (c, d) -> (a, d), (c, b).
                if a == d || c == b {
                    continue;
                }
                let new_1 = key(a, d);
                let new_2 = key(c, b);
                if current(a, d, deltas) > 0 || current(c, b, deltas) > 0 || new_1 == new_2 {
                    continue;
                }
                // Apply the swap. Both installed edges are good (their keys
                // had live multiplicity 0 and distinct endpoints), so the
                // remaining bad-list entries stay the only repair candidates.
                *deltas.entry(key(a, b)).or_insert(0) -= 1;
                *deltas.entry(key(c, d)).or_insert(0) -= 1;
                *deltas.entry(new_1).or_insert(0) += 1;
                *deltas.entry(new_2).or_insert(0) += 1;
                edges[i] = (a, d);
                edges[j] = (c, b);
                break;
            }
        }
        if !repaired {
            continue;
        }

        // The repaired edge list is simple by construction; one counting-
        // sort pass builds the CSR adjacency directly from it (the
        // `build_from_pairs` validation re-checks simplicity and reports a
        // failed attempt rather than a corrupt graph if it were ever
        // violated).
        if graph.build_from_pairs(n, edges) && graph.is_connected() {
            return Ok(());
        }
    }
    graph.reset(0);
    Err(GenerateTopologyError::GenerationFailed { attempts: ATTEMPTS })
}

/// Converts a node index to its `u32` stub form; network sizes are bounded
/// far below `u32::MAX`.
fn to_u32(value: usize) -> u32 {
    u32::try_from(value).expect("node index exceeds u32 range")
}

/// Watts–Strogatz small-world graph, patched to stay connected.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rewire_probability: f64,
    rng: &mut R,
) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    if !k.is_multiple_of(2) {
        return Err(invalid(format!(
            "lattice neighbour count k = {k} must be even"
        )));
    }
    if k == 0 && n > 1 {
        return Err(invalid("lattice neighbour count 0 cannot be connected"));
    }
    if k >= n {
        return Err(invalid(format!("k = {k} must be smaller than n = {n}")));
    }
    if !(0.0..=1.0).contains(&rewire_probability) {
        return Err(invalid(format!(
            "rewire probability {rewire_probability} outside [0, 1]"
        )));
    }

    // Edges as `(low, high)` index pairs, rewired in the set and laid out
    // as a graph once per attempt.
    let pair = |a: usize, b: usize| (a.min(b), a.max(b));
    const ATTEMPTS: usize = 50;
    for _ in 0..ATTEMPTS {
        // Start from the ring lattice.
        let mut edges = BTreeSet::new();
        for i in 0..n {
            for offset in 1..=(k / 2) {
                edges.insert(pair(i, (i + offset) % n));
            }
        }
        // Rewire each lattice edge (i, i+offset) with the given probability.
        for i in 0..n {
            for offset in 1..=(k / 2) {
                let j = (i + offset) % n;
                if !rng.gen_bool(rewire_probability) {
                    continue;
                }
                // Pick a new endpoint distinct from i and not already adjacent.
                let candidate = rng.gen_range(0..n);
                if candidate == i || edges.contains(&pair(i, candidate)) {
                    continue;
                }
                if edges.remove(&pair(i, j)) {
                    edges.insert(pair(i, candidate));
                }
            }
        }
        let mut builder = GraphBuilder::new(n);
        for &(a, b) in &edges {
            builder.add_edge(NodeId::new(a), NodeId::new(b));
        }
        let g = builder.finalize();
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GenerateTopologyError::GenerationFailed { attempts: ATTEMPTS })
}

/// Barabási–Albert preferential attachment graph.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    attachment: usize,
    rng: &mut R,
) -> Result<Graph, GenerateTopologyError> {
    require_nodes(n)?;
    if attachment == 0 {
        return Err(invalid("attachment count must be at least 1"));
    }
    if attachment >= n {
        return Err(invalid(format!(
            "attachment count {attachment} must be smaller than n = {n}"
        )));
    }

    // The whole construction works on the flat edge/endpoint lists — the
    // graph itself is only materialised once, at the end. A new node's
    // edges can never duplicate (its targets are distinct and it had no
    // prior edges), so the deferred finalize sees a simple edge list.
    let mut builder = GraphBuilder::new(n);
    // Seed clique over the first `attachment + 1` nodes keeps the start
    // connected; pushing pairs in (i, j) order matches the edge iteration
    // order the endpoints list was historically seeded from.
    let seed = attachment + 1;
    // Degree-proportional sampling via a repeated-endpoints list.
    let mut endpoints: Vec<usize> = Vec::new();
    for i in 0..seed {
        for j in (i + 1)..seed {
            builder.add_edge(NodeId::new(i), NodeId::new(j));
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    for new_node in seed..n {
        // BTreeSet: edge insertion order must be deterministic for a given
        // RNG seed (HashSet iteration order is randomized per process).
        let mut targets = BTreeSet::new();
        let mut guard = 0usize;
        while targets.len() < attachment && guard < 10_000 {
            guard += 1;
            let target = *endpoints
                .as_slice()
                .choose(rng)
                .expect("endpoint list is never empty after seeding");
            if target != new_node {
                targets.insert(target);
            }
        }
        for &target in &targets {
            builder.add_edge(NodeId::new(new_node), NodeId::new(target));
            endpoints.push(new_node);
            endpoints.push(target);
        }
    }
    let g = builder.finalize();
    debug_assert!(g.is_connected());
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scratch_clamp_releases_large_trial_capacity() {
        // Grow-then-shrink-then-grow: a pooled scratch that served a
        // million-node leg (synthesised here by reserving its footprint
        // directly, to keep the test fast) must shed that capacity after
        // the next small generation instead of pinning it in the worker
        // arena for the rest of the process.
        let mut scratch = RegularScratch::new();
        scratch.stubs.reserve(1_000_000);
        scratch.edges.reserve(500_000);
        scratch.key_offsets.reserve(1_000_001);
        scratch.key_slots.reserve(500_000);
        scratch.bad.reserve(500_000);
        scratch.deltas.reserve(500_000);
        let large_stub_capacity = scratch.stub_capacity();
        assert!(large_stub_capacity >= 1_000_000);

        let mut graph = Graph::new(0);
        let (n, degree) = (100, 8);
        random_regular_into(&mut graph, n, degree, &mut rng(3), &mut scratch).unwrap();
        assert!(graph.is_connected());
        let need = n * degree;
        assert!(
            scratch.stub_capacity() <= SCRATCH_CLAMP_FACTOR * need,
            "stub capacity {} not clamped to {need}-stub scale",
            scratch.stub_capacity()
        );
        assert!(scratch.edges.capacity() <= SCRATCH_CLAMP_FACTOR * (need / 2));
        assert!(scratch.key_offsets.capacity() <= SCRATCH_CLAMP_FACTOR * (need + 1));
        assert!(scratch.key_slots.capacity() <= SCRATCH_CLAMP_FACTOR * (need / 2));
        assert!(scratch.bad.capacity() <= SCRATCH_CLAMP_FACTOR * (need / 2));
        assert!(scratch.deltas.capacity() <= SCRATCH_CLAMP_FACTOR * (need / 2));

        // Growing again after the clamp still works, and a right-sized
        // large trial retains its capacity for reuse.
        random_regular_into(&mut graph, 2_000, degree, &mut rng(4), &mut scratch).unwrap();
        assert!(graph.is_connected());
        assert!(scratch.stub_capacity() >= 2_000 * degree);
        assert!(scratch.stub_capacity() <= SCRATCH_CLAMP_FACTOR * 2_000 * degree);
    }

    #[test]
    fn random_regular_into_matches_random_regular() {
        // The into-variant must consume the RNG identically and produce the
        // same overlay, even when regenerating into a dirty recycled graph.
        let fresh = random_regular(60, 4, &mut rng(9)).unwrap();
        let mut recycled = complete(10).unwrap();
        let mut scratch = RegularScratch::new();
        random_regular_into(&mut recycled, 60, 4, &mut rng(9), &mut scratch).unwrap();
        assert_eq!(fresh, recycled);

        // Errors clear the target graph.
        let mut target = complete(5).unwrap();
        assert!(random_regular_into(&mut target, 7, 3, &mut rng(1), &mut scratch).is_err());
        assert_eq!(target.node_count(), 0);
    }

    #[test]
    fn pooled_scratch_is_invisible_in_the_generated_overlay() {
        // A scratch dirtied by a previous generation — including one of a
        // *larger* overlay, the stale-buffer hazard — must not change the
        // result or the RNG consumption.
        let fresh = random_regular(60, 4, &mut rng(9)).unwrap();
        let mut scratch = RegularScratch::new();
        let mut graph = Graph::new(0);
        random_regular_into(&mut graph, 200, 6, &mut rng(3), &mut scratch).unwrap();
        random_regular_into(&mut graph, 60, 4, &mut rng(9), &mut scratch).unwrap();
        assert_eq!(fresh, graph);
        // And the RNG stream continues identically after either variant.
        let mut r1 = rng(9);
        let mut r2 = rng(9);
        random_regular(60, 4, &mut r1).unwrap();
        random_regular_into(&mut graph, 60, 4, &mut r2, &mut scratch).unwrap();
        assert_eq!(r1.gen_range(0..u64::MAX), r2.gen_range(0..u64::MAX));
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn line_and_ring_shapes() {
        let l = line(5).unwrap();
        assert_eq!(l.edge_count(), 4);
        assert_eq!(l.diameter(), Some(4));

        let r = ring(5).unwrap();
        assert_eq!(r.edge_count(), 5);
        assert_eq!(r.diameter(), Some(2));
    }

    #[test]
    fn ring_small_cases() {
        assert_eq!(ring(1).unwrap().edge_count(), 0);
        assert_eq!(ring(2).unwrap().edge_count(), 1);
        assert_eq!(ring(3).unwrap().edge_count(), 3);
    }

    #[test]
    fn complete_and_star_shapes() {
        let c = complete(6).unwrap();
        assert_eq!(c.edge_count(), 15);
        assert_eq!(c.diameter(), Some(1));

        let s = star(6).unwrap();
        assert_eq!(s.edge_count(), 5);
        assert_eq!(s.degree(NodeId::new(0)), 5);
        assert_eq!(s.diameter(), Some(2));
    }

    #[test]
    fn tree_shape() {
        let t = tree(7, 2).unwrap();
        assert_eq!(t.edge_count(), 6);
        assert!(t.is_connected());
        assert_eq!(t.degree(NodeId::new(0)), 2);
        assert_eq!(
            t.neighbors(NodeId::new(1)),
            &[NodeId::new(0), NodeId::new(3), NodeId::new(4)]
        );
    }

    #[test]
    fn tree_with_a_huge_arity_is_a_star() {
        // Only node 0 has children; the loop must stop there instead of
        // walking `arity` candidate children per node.
        assert_eq!(tree(5, usize::MAX).unwrap(), star(5).unwrap());
        assert_eq!(tree(1000, 1 << 40).unwrap(), star(1000).unwrap());
    }

    #[test]
    fn tree_rejects_zero_arity() {
        assert!(matches!(
            tree(5, 0),
            Err(GenerateTopologyError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(line(0).is_err());
        assert!(complete(0).is_err());
        assert!(erdos_renyi(0, 0.5, &mut rng(1)).is_err());
    }

    #[test]
    fn random_regular_produces_regular_connected_graphs() {
        let mut r = rng(11);
        for (n, d) in [(10, 3), (50, 4), (100, 8)] {
            let g = random_regular(n, d, &mut r).unwrap();
            assert!(g.is_connected());
            for node in g.nodes() {
                assert_eq!(
                    g.degree(node),
                    d,
                    "node {node} in {n}-node {d}-regular graph"
                );
            }
        }
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        let mut r = rng(1);
        assert!(random_regular(5, 3, &mut r).is_err(), "odd n*d");
        assert!(random_regular(5, 5, &mut r).is_err(), "degree >= n");
        assert!(random_regular(5, 0, &mut r).is_err(), "degree 0");
    }

    #[test]
    fn erdos_renyi_connected_and_sized() {
        let mut r = rng(2);
        let g = erdos_renyi(80, 0.1, &mut r).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.node_count(), 80);
        // Expected edges ≈ p * n(n-1)/2 = 316; allow a generous band.
        assert!(
            g.edge_count() > 150 && g.edge_count() < 550,
            "{}",
            g.edge_count()
        );
    }

    #[test]
    fn erdos_renyi_rejects_bad_probability() {
        let mut r = rng(3);
        assert!(erdos_renyi(10, 1.5, &mut r).is_err());
        assert!(erdos_renyi(10, -0.1, &mut r).is_err());
    }

    #[test]
    fn erdos_renyi_sparse_fails_gracefully() {
        let mut r = rng(4);
        let result = erdos_renyi(100, 0.0, &mut r);
        assert!(matches!(
            result,
            Err(GenerateTopologyError::GenerationFailed { .. })
        ));
    }

    #[test]
    fn watts_strogatz_connected_with_expected_edge_count() {
        let mut r = rng(5);
        let g = watts_strogatz(100, 6, 0.1, &mut r).unwrap();
        assert!(g.is_connected());
        // Rewiring never changes the edge count (only endpoints).
        assert_eq!(g.edge_count(), 100 * 3);
    }

    #[test]
    fn watts_strogatz_rejects_bad_parameters() {
        let mut r = rng(6);
        assert!(watts_strogatz(10, 3, 0.1, &mut r).is_err(), "odd k");
        assert!(watts_strogatz(10, 10, 0.1, &mut r).is_err(), "k >= n");
        assert!(watts_strogatz(10, 4, 1.2, &mut r).is_err(), "p > 1");
        assert!(
            matches!(
                watts_strogatz(10, 0, 0.1, &mut r),
                Err(GenerateTopologyError::InvalidParameters { .. })
            ),
            "k = 0 with n > 1"
        );
        assert_eq!(watts_strogatz(1, 0, 0.1, &mut r).unwrap().node_count(), 1);
    }

    #[test]
    fn watts_strogatz_edges_are_pinned_under_a_fixed_seed() {
        // Any change to the rewiring's RNG draws or acceptance rule shows
        // up as a different edge list.
        let g = watts_strogatz(16, 4, 0.3, &mut rng(7)).unwrap();
        let edges: Vec<_> = g.edges().map(|(a, b)| (a.index(), b.index())).collect();
        #[rustfmt::skip]
        let expected = [
            (0, 2), (0, 4), (0, 10), (0, 14), (0, 15), (1, 2), (1, 3), (2, 3),
            (2, 4), (3, 4), (3, 5), (3, 11), (4, 6), (4, 9), (4, 13), (4, 15),
            (5, 7), (5, 15), (6, 8), (6, 11), (7, 8), (7, 9), (8, 9), (8, 10),
            (9, 10), (9, 11), (10, 15), (11, 13), (12, 13), (12, 14), (13, 15), (14, 15),
        ];
        assert_eq!(edges, expected);
    }

    #[test]
    fn barabasi_albert_is_connected_and_skewed() {
        let mut r = rng(7);
        let g = barabasi_albert(200, 3, &mut r).unwrap();
        assert!(g.is_connected());
        let (min, max) = g.degree_bounds().unwrap();
        assert!(min >= 1);
        // Preferential attachment produces hubs far above the minimum degree.
        assert!(max >= 10, "expected a hub, max degree was {max}");
    }

    #[test]
    fn barabasi_albert_rejects_bad_parameters() {
        let mut r = rng(8);
        assert!(barabasi_albert(5, 0, &mut r).is_err());
        assert!(barabasi_albert(5, 5, &mut r).is_err());
    }

    #[test]
    fn enum_generate_dispatches_each_family() {
        let mut r = rng(9);
        let families = [
            Topology::RandomRegular { degree: 4 },
            Topology::ErdosRenyi {
                edge_probability: 0.15,
            },
            Topology::WattsStrogatz {
                k: 4,
                rewire_probability: 0.2,
            },
            Topology::BarabasiAlbert { attachment: 2 },
            Topology::Ring,
            Topology::Line,
            Topology::Complete,
            Topology::Star,
            Topology::Tree { arity: 3 },
        ];
        for family in families {
            let g = family
                .generate(40, &mut r)
                .unwrap_or_else(|e| panic!("{family}: {e}"));
            assert_eq!(g.node_count(), 40);
            assert!(g.is_connected(), "{family} must be connected");
        }
    }

    #[test]
    fn generation_is_deterministic_under_a_fixed_seed() {
        let g1 = Topology::RandomRegular { degree: 6 }
            .generate(60, &mut rng(42))
            .unwrap();
        let g2 = Topology::RandomRegular { degree: 6 }
            .generate(60, &mut rng(42))
            .unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Topology::Ring.to_string(), "ring");
        assert_eq!(
            Topology::RandomRegular { degree: 8 }.to_string(),
            "random-regular(d=8)"
        );
        assert!(Topology::WattsStrogatz {
            k: 4,
            rewire_probability: 0.1
        }
        .to_string()
        .contains("watts-strogatz"));
    }

    #[test]
    fn error_display() {
        let err = GenerateTopologyError::InvalidParameters { reason: "x".into() };
        assert!(err.to_string().contains("invalid"));
        let err = GenerateTopologyError::GenerationFailed { attempts: 3 };
        assert!(err.to_string().contains('3'));
    }
}
