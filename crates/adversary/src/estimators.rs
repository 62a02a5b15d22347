//! Deanonymisation estimators.
//!
//! Given what its colluding nodes observed (see [`crate::observer`]), the
//! adversary guesses the originator of the broadcast. Two standard
//! estimators from the literature the paper builds on are provided:
//!
//! * **First spy** — blame the honest node that first relayed the
//!   transaction to any adversarial node. This is the cheap attack of
//!   Biryukov et al. that plain flooding falls to (Fig. 2, experiment E2)
//!   and the estimator the Dandelion analysis uses.
//! * **Rumour centrality / Jordan centre** — blame the honest node that
//!   minimises the maximum graph distance to the adversary's observation
//!   points, weighted by observation order. This models a stronger
//!   observer that exploits the *symmetry* of flood-and-prune: the true
//!   source sits near the centre of the infected ball (exactly the
//!   intuition of the paper's Fig. 2).
//!
//! Both return a full posterior (candidate → score) so that experiments can
//! report not only precision but anonymity-set sizes and entropy.

use crate::observer::AdversaryView;
use fnp_netsim::{Graph, NodeId};
use std::collections::BTreeMap;

/// A guess produced by an estimator: a normalised posterior over candidate
/// originators plus the single most-suspected node.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// Normalised suspicion score per candidate node (sums to 1 unless the
    /// estimator had no information at all, in which case it is empty).
    pub posterior: BTreeMap<NodeId, f64>,
    /// The most suspected node (ties broken towards the smaller id).
    pub best_guess: Option<NodeId>,
}

impl Estimate {
    pub(crate) fn from_scores(scores: BTreeMap<NodeId, f64>) -> Self {
        let total: f64 = scores.values().copied().filter(|s| *s > 0.0).sum();
        if total <= 0.0 {
            return Self {
                posterior: BTreeMap::new(),
                best_guess: None,
            };
        }
        let posterior: BTreeMap<NodeId, f64> = scores
            .into_iter()
            .filter(|(_, score)| *score > 0.0)
            .map(|(node, score)| (node, score / total))
            .collect();
        let best_guess = posterior
            .iter()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .expect("scores are finite")
                    .then(b.0.cmp(a.0))
            })
            .map(|(node, _)| *node);
        Self {
            posterior,
            best_guess,
        }
    }

    /// Probability the estimator assigns to `node` (0.0 if absent).
    pub fn probability_of(&self, node: NodeId) -> f64 {
        self.posterior.get(&node).copied().unwrap_or(0.0)
    }

    /// True if the estimator's single best guess equals `origin`.
    pub fn convicts(&self, origin: NodeId) -> bool {
        self.best_guess == Some(origin)
    }

    /// The effective anonymity-set size: the number of candidates carrying
    /// non-negligible probability mass (≥ 1 % of the maximum score).
    pub fn anonymity_set_size(&self) -> usize {
        let max = self.posterior.values().copied().fold(0.0f64, f64::max);
        if max <= 0.0 {
            return 0;
        }
        self.posterior
            .values()
            .filter(|score| **score >= max * 0.01)
            .count()
    }

    /// Shannon entropy (bits) of the posterior — `log2(n)` means the
    /// adversary learned nothing beyond "one of these n nodes".
    pub fn entropy_bits(&self) -> f64 {
        let weights: Vec<f64> = self.posterior.values().copied().collect();
        fnp_netsim::entropy_bits(&weights)
    }
}

/// The first-spy estimator: the honest node that first delivered the
/// transaction to any adversarial node is blamed with probability 1.
///
/// If no adversarial node ever observed the broadcast the estimate is
/// empty (the adversary learned nothing).
pub fn first_spy(view: &AdversaryView) -> Estimate {
    let mut scores = BTreeMap::new();
    if let Some(first) = view.first_observation() {
        scores.insert(first.relayed_by, 1.0);
    }
    Estimate::from_scores(scores)
}

/// A first-spy variant that spreads suspicion over every honest node that
/// was the *first relayer* seen by some adversarial observer, weighted by
/// how early that observation happened. Less brittle than pure first-spy on
/// protocols that randomise the initial relays.
pub fn weighted_first_relayers(view: &AdversaryView) -> Estimate {
    let mut scores: BTreeMap<NodeId, f64> = BTreeMap::new();
    let Some(first) = view.first_observation() else {
        return Estimate::from_scores(scores);
    };
    let earliest = first.at.max(1);
    for observation in &view.observations {
        // Earlier observations carry exponentially more weight.
        let delay = observation.at.saturating_sub(earliest) as f64 / earliest as f64;
        let weight = (-delay).exp();
        *scores.entry(observation.relayed_by).or_insert(0.0) += weight;
    }
    Estimate::from_scores(scores)
}

/// The Jordan-centre / rumour-centrality style estimator: every honest node
/// is scored by how well its BFS distances to the adversary's observers
/// match the observed arrival order, blaming nodes "in the centre" of the
/// observations.
///
/// Score: for candidate `c`, `score(c) = 1 / (1 + max_o dist(c, o) · w_o)`
/// where `o` ranges over observers, `dist` is the hop distance and `w_o`
/// down-weights later observations. The true source of a symmetric flood
/// minimises the maximum weighted distance (it is the Jordan centre of the
/// observation set), which is why this estimator defeats plain flooding but
/// is mostly blind against adaptive diffusion, whose infection ball is
/// centred on the virtual source instead.
pub fn jordan_center(graph: &Graph, view: &AdversaryView, candidates: &[NodeId]) -> Estimate {
    let mut scores: BTreeMap<NodeId, f64> = BTreeMap::new();
    if view.observations.is_empty() || candidates.is_empty() {
        return Estimate::from_scores(scores);
    }

    // Precompute BFS distances from every observer (cheaper than from every
    // candidate when observers are the smaller set).
    let earliest = view
        .first_observation()
        .expect("observations checked non-empty")
        .at
        .max(1);
    let mut observer_distances: Vec<(Vec<Option<usize>>, f64)> = Vec::new();
    for observation in &view.observations {
        let distances = graph.bfs_distances(observation.observer);
        let delay = observation.at.saturating_sub(earliest) as f64 / earliest as f64;
        let weight = (-delay).exp();
        observer_distances.push((distances, weight));
    }

    for &candidate in candidates {
        let mut worst_distance = 0.0f64;
        let mut reachable = true;
        for (distances, weight) in &observer_distances {
            match distances[candidate.index()] {
                Some(d) => worst_distance = worst_distance.max(d as f64 * weight),
                None => {
                    reachable = false;
                    break;
                }
            }
        }
        if reachable {
            scores.insert(candidate, 1.0 / (1.0 + worst_distance));
        }
    }

    // Sharpen the distribution: square the scores so that the centre stands
    // out (rumour centrality is strongly peaked for symmetric spreads).
    let sharpened: BTreeMap<NodeId, f64> = scores
        .into_iter()
        .map(|(node, score)| (node, score * score))
        .collect();
    Estimate::from_scores(sharpened)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{AdversarySet, Observation};
    use fnp_netsim::topology;

    fn view(observations: Vec<Observation>) -> AdversaryView {
        AdversaryView { observations }
    }

    fn obs(observer: usize, relayed_by: usize, at: u64) -> Observation {
        Observation {
            observer: NodeId::new(observer),
            relayed_by: NodeId::new(relayed_by),
            at,
            kind: "flood",
        }
    }

    #[test]
    fn empty_view_yields_empty_estimate() {
        let estimate = first_spy(&view(vec![]));
        assert_eq!(estimate.best_guess, None);
        assert_eq!(estimate.anonymity_set_size(), 0);
        assert_eq!(estimate.entropy_bits(), 0.0);
        assert!(!estimate.convicts(NodeId::new(0)));
        assert_eq!(estimate.probability_of(NodeId::new(0)), 0.0);
    }

    #[test]
    fn first_spy_blames_the_earliest_relayer() {
        let estimate = first_spy(&view(vec![obs(5, 1, 30), obs(6, 2, 10), obs(7, 3, 20)]));
        assert_eq!(estimate.best_guess, Some(NodeId::new(2)));
        assert_eq!(estimate.probability_of(NodeId::new(2)), 1.0);
        assert!(estimate.convicts(NodeId::new(2)));
        assert_eq!(estimate.anonymity_set_size(), 1);
        assert_eq!(estimate.entropy_bits(), 0.0);
    }

    #[test]
    fn weighted_first_relayers_spreads_mass() {
        let estimate =
            weighted_first_relayers(&view(vec![obs(5, 1, 100), obs(6, 2, 100), obs(7, 1, 200)]));
        // Nodes 1 and 2 both relayed early; node 1 also relayed late.
        assert!(estimate.probability_of(NodeId::new(1)) > estimate.probability_of(NodeId::new(2)));
        assert!(estimate.anonymity_set_size() >= 2);
        let total: f64 = estimate.posterior.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jordan_center_recovers_the_centre_of_a_star() {
        // Star graph: node 0 is the hub. Observers sit on three leaves and
        // all heard the message relayed by the hub at the same time — the
        // hub is the unambiguous Jordan centre.
        let graph = topology::star(6).unwrap();
        let candidates: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let v = view(vec![obs(1, 0, 10), obs(2, 0, 10), obs(3, 0, 10)]);
        let estimate = jordan_center(&graph, &v, &candidates);
        assert_eq!(estimate.best_guess, Some(NodeId::new(0)));
    }

    #[test]
    fn jordan_center_on_a_line_prefers_the_midpoint() {
        // Line 0-1-2-3-4 with observers at both ends: the midpoint (2) is
        // the centre.
        let graph = topology::line(5).unwrap();
        let candidates: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let v = view(vec![obs(0, 1, 10), obs(4, 3, 10)]);
        let estimate = jordan_center(&graph, &v, &candidates);
        assert_eq!(estimate.best_guess, Some(NodeId::new(2)));
    }

    #[test]
    fn jordan_center_with_no_candidates_is_empty() {
        let graph = topology::line(3).unwrap();
        let estimate = jordan_center(&graph, &view(vec![obs(0, 1, 10)]), &[]);
        assert_eq!(estimate.best_guess, None);
    }

    #[test]
    fn unreachable_candidates_are_excluded() {
        // Disconnected graph: candidate 3 cannot be the source of anything
        // the observer at node 0 saw.
        let mut graph = Graph::new(4);
        graph.add_edge(NodeId::new(0), NodeId::new(1));
        graph.add_edge(NodeId::new(2), NodeId::new(3));
        let candidates: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let estimate = jordan_center(&graph, &view(vec![obs(0, 1, 10)]), &candidates);
        assert_eq!(estimate.probability_of(NodeId::new(3)), 0.0);
        assert!(estimate.probability_of(NodeId::new(1)) > 0.0);
    }

    #[test]
    fn posterior_is_normalised() {
        let graph = topology::ring(8).unwrap();
        let candidates: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let v = view(vec![obs(1, 2, 10), obs(5, 4, 20)]);
        let estimate = jordan_center(&graph, &v, &candidates);
        let total: f64 = estimate.posterior.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(estimate.entropy_bits() > 0.0);
        assert!(estimate.anonymity_set_size() >= 1);
    }

    #[test]
    fn view_extraction_plus_estimation_pipeline() {
        // End-to-end: flood a graph, extract the adversary view and check the
        // first-spy guess is a neighbour of an adversarial node.
        use fnp_gossip_stub::run_small_flood;
        let (graph, metrics, origin) = run_small_flood();
        let adversaries = AdversarySet::random_fraction(
            graph.node_count(),
            0.3,
            &[origin],
            &mut rand::rngs::StdRng::seed_from_u64(1),
        );
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        let estimate = first_spy(&view);
        if let Some(guess) = estimate.best_guess {
            assert!(guess.index() < graph.node_count());
        }
    }

    /// A tiny local flooding implementation so this crate's tests do not
    /// depend on `fnp-gossip` (which would create a dependency cycle risk
    /// for no benefit — the estimators only need *a* recorded run).
    mod fnp_gossip_stub {
        use fnp_netsim::{
            topology, Context, Graph, Metrics, NodeId, Payload, ProtocolNode, SimConfig, Simulator,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        #[derive(Clone, Debug)]
        pub struct Tx;
        impl Payload for Tx {
            fn kind(&self) -> &'static str {
                "flood"
            }
        }

        #[derive(Default)]
        pub struct Node {
            seen: bool,
        }
        impl ProtocolNode for Node {
            type Message = Tx;
            fn on_message(&mut self, from: NodeId, msg: Tx, ctx: &mut Context<'_, Tx>) {
                if !std::mem::replace(&mut self.seen, true) {
                    ctx.mark_delivered();
                    ctx.send_to_neighbors_except(msg, &[from]);
                }
            }
        }

        pub fn run_small_flood() -> (Graph, Metrics, NodeId) {
            let mut rng = StdRng::seed_from_u64(7);
            let graph = topology::random_regular(60, 4, &mut rng).unwrap();
            let origin = NodeId::new(0);
            let nodes = (0..60).map(|_| Node::default()).collect();
            let mut sim = Simulator::new(
                graph.clone(),
                nodes,
                SimConfig {
                    record_receipts: true,
                    ..SimConfig::default()
                },
            );
            sim.trigger(origin, |node, ctx| {
                node.seen = true;
                ctx.mark_delivered();
                ctx.send_to_neighbors_except(Tx, &[]);
            });
            sim.run();
            let (_, metrics) = sim.into_parts();
            (graph, metrics, origin)
        }
    }

    use rand::SeedableRng;
}
