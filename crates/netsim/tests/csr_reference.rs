//! Equivalence of the CSR graph core against the pre-CSR reference
//! representation.
//!
//! The overlay graph used to store adjacency as one `Vec<NodeId>` per node;
//! the CSR rewrite flattened it into exact offset/target arrays. This suite
//! retains the old representation as an executable reference
//! ([`RefGraph`]) and checks that every read accessor (`neighbors`,
//! `has_edge`, `degree`, `edges`, BFS distances, connectivity) agrees with
//! it across all topology generators, and that `add_edge` on a hand-built
//! graph agrees with it insert for insert.

use fnp_netsim::{topology, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The pre-CSR adjacency representation: one sorted neighbour `Vec` per
/// node. Deliberately simple — its correctness is obvious by inspection,
/// which is what makes it a useful oracle.
#[derive(Clone, Debug)]
struct RefGraph {
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl RefGraph {
    fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let Err(pos_a) = self.adj[a.index()].binary_search(&b) else {
            return false;
        };
        self.adj[a.index()].insert(pos_a, b);
        let pos_b = self.adj[b.index()]
            .binary_search(&a)
            .expect_err("edge must be absent from both endpoints");
        self.adj[b.index()].insert(pos_b, a);
        self.edge_count += 1;
        true
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj[a.index()].binary_search(&b).is_ok()
    }

    fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (index, neighbors) in self.adj.iter().enumerate() {
            let a = NodeId::new(index);
            for &b in neighbors {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.adj.len()];
        dist[source.index()] = Some(0);
        let mut queue = VecDeque::from([source]);
        while let Some(node) = queue.pop_front() {
            let d = dist[node.index()].expect("queued nodes have a distance");
            for &next in &self.adj[node.index()] {
                if dist[next.index()].is_none() {
                    dist[next.index()] = Some(d + 1);
                    queue.push_back(next);
                }
            }
        }
        dist
    }

    fn is_connected(&self) -> bool {
        self.adj.is_empty()
            || self
                .bfs_distances(NodeId::new(0))
                .iter()
                .all(Option::is_some)
    }
}

/// Mirrors `graph`'s edge set into a fresh reference graph.
fn mirror(graph: &Graph) -> RefGraph {
    let mut reference = RefGraph::new(graph.node_count());
    for (a, b) in graph.edges() {
        assert!(reference.add_edge(a, b), "edges() must not repeat an edge");
    }
    reference
}

/// Asserts every read accessor of `graph` agrees with `reference`.
fn assert_equivalent(graph: &Graph, reference: &RefGraph, context: &str) {
    let n = graph.node_count();
    assert_eq!(n, reference.adj.len(), "{context}: node count");
    assert_eq!(
        graph.edge_count(),
        reference.edge_count,
        "{context}: edge count"
    );
    for index in 0..n {
        let node = NodeId::new(index);
        assert_eq!(
            graph.neighbors(node),
            reference.adj[index].as_slice(),
            "{context}: neighbors of {node}"
        );
        assert_eq!(
            graph.degree(node),
            reference.adj[index].len(),
            "{context}: degree of {node}"
        );
    }
    assert_eq!(
        graph.edges().collect::<Vec<_>>(),
        reference.edges(),
        "{context}: edge iteration"
    );
    for a in 0..n {
        for b in 0..n {
            assert_eq!(
                graph.has_edge(NodeId::new(a), NodeId::new(b)),
                reference.has_edge(NodeId::new(a), NodeId::new(b)),
                "{context}: has_edge({a}, {b})"
            );
        }
    }
    for source in [0, n / 2, n.saturating_sub(1)] {
        if source < n {
            assert_eq!(
                graph.bfs_distances(NodeId::new(source)),
                reference.bfs_distances(NodeId::new(source)),
                "{context}: BFS distances from {source}"
            );
        }
    }
    assert_eq!(
        graph.is_connected(),
        reference.is_connected(),
        "{context}: connectivity"
    );
}

/// Every topology family, generated at a size small enough for the
/// all-pairs `has_edge` sweep.
fn generated_families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        ("line", topology::line(41).unwrap()),
        ("ring", topology::ring(40).unwrap()),
        ("complete", topology::complete(24).unwrap()),
        ("star", topology::star(33).unwrap()),
        ("tree", topology::tree(40, 3).unwrap()),
        (
            "random-regular",
            topology::random_regular(48, 6, &mut rng).unwrap(),
        ),
        (
            "erdos-renyi",
            topology::erdos_renyi(44, 0.15, &mut rng).unwrap(),
        ),
        (
            "watts-strogatz",
            topology::watts_strogatz(42, 6, 0.2, &mut rng).unwrap(),
        ),
        (
            "barabasi-albert",
            topology::barabasi_albert(45, 3, &mut rng).unwrap(),
        ),
    ]
}

#[test]
fn generators_agree_with_the_reference_representation() {
    for (name, graph) in generated_families(0xC5) {
        let reference = mirror(&graph);
        assert_equivalent(&graph, &reference, name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary insertion sequences (duplicates, reversed pairs and
    /// self-loops included) on both representations produce identical
    /// per-insert results and identical final state.
    #[test]
    fn prop_random_mutation_sequences_are_equivalent(
        n in 2usize..24,
        ops in proptest::collection::vec((0usize..24, 0usize..24), 0..120),
    ) {
        let mut graph = Graph::new(n);
        let mut reference = RefGraph::new(n);
        for (raw_a, raw_b) in ops {
            let a = NodeId::new(raw_a % n);
            let b = NodeId::new(raw_b % n);
            prop_assert_eq!(graph.add_edge(a, b), reference.add_edge(a, b));
        }
        assert_equivalent(&graph, &reference, "proptest sequence");
    }
}
