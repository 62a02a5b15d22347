//! Adversarial observers: which nodes collude and what they see.
//!
//! The attacker the paper defends against (§I, §IV-A) is honest-but-curious
//! and controls a fraction of the network's nodes — "a larger number of
//! nodes, as they can be deployed by renting botnets" — which faithfully
//! run the protocol but log everything they receive. This module selects
//! the colluding set and looks up, in the first-receipt table the simulator
//! fills at delivery for every node alike ([`Metrics::receipts`]), the
//! *observations* those nodes could actually make: the time each
//! adversarial node first received the transaction and from whom. The set
//! is chosen after the run, so one run can be scored against many sets and
//! the simulator never learns who the attacker is.

use fnp_netsim::{Metrics, NodeId, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// The set of adversary-controlled (colluding, honest-but-curious) nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarySet {
    nodes: BTreeSet<NodeId>,
    network_size: usize,
}

impl AdversarySet {
    /// Selects a uniformly random fraction `fraction` of the `n` nodes as
    /// colluding observers (the botnet model). `protected` nodes — typically
    /// the originator whose privacy is being measured — are never selected.
    pub fn random_fraction<R: Rng + ?Sized>(
        n: usize,
        fraction: f64,
        protected: &[NodeId],
        rng: &mut R,
    ) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let mut candidates: Vec<NodeId> = (0..n)
            .map(NodeId::new)
            .filter(|node| !protected.contains(node))
            .collect();
        candidates.shuffle(rng);
        let count = ((n as f64) * fraction).round() as usize;
        let count = count.min(candidates.len());
        Self {
            nodes: candidates.into_iter().take(count).collect(),
            network_size: n,
        }
    }

    /// Builds an adversary set from an explicit list of nodes.
    pub fn from_nodes(n: usize, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Self {
            nodes: nodes.into_iter().collect(),
            network_size: n,
        }
    }

    /// Number of colluding nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the adversary controls no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total network size the set was drawn from.
    pub fn network_size(&self) -> usize {
        self.network_size
    }

    /// Fraction of the network the adversary controls.
    pub fn fraction(&self) -> f64 {
        if self.network_size == 0 {
            return 0.0;
        }
        self.nodes.len() as f64 / self.network_size as f64
    }

    /// True if `node` is adversarial.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Iterator over the colluding nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// The honest nodes (complement of the adversary set).
    pub fn honest_nodes(&self) -> Vec<NodeId> {
        (0..self.network_size)
            .map(NodeId::new)
            .filter(|node| !self.nodes.contains(node))
            .collect()
    }
}

/// One observation made by an adversarial node: the first time it received
/// the broadcast and the honest neighbour that delivered it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observation {
    /// The adversarial node that made the observation.
    pub observer: NodeId,
    /// The node that relayed the transaction to the observer.
    pub relayed_by: NodeId,
    /// Simulated time of the first receipt.
    pub at: SimTime,
    /// Message kind of the first receipt (e.g. `"flood"`, `"dandelion-stem"`).
    pub kind: &'static str,
}

/// Everything the colluding nodes learned from one broadcast.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdversaryView {
    /// First-receipt observations, one per adversarial node that was reached.
    pub observations: Vec<Observation>,
}

impl AdversaryView {
    /// Extracts the adversary's view from a simulator run.
    ///
    /// Only messages *received by* adversarial nodes are visible; the first
    /// receipt per observer is kept (later duplicates add no information for
    /// the first-spy and centrality estimators). Observations are in
    /// [`NodeId`] order.
    ///
    /// # Panics
    ///
    /// Panics if the run recorded no receipts: an empty view would read as
    /// perfect privacy.
    pub fn from_metrics(metrics: &Metrics, adversaries: &AdversarySet) -> Self {
        let receipts = metrics
            .receipts()
            .expect("the run was not recorded: set SimConfig::record_receipts");
        let observations = adversaries
            .nodes()
            .filter_map(|observer| {
                let receipt = receipts.get(observer.index()).copied().flatten()?;
                Some(Observation {
                    observer,
                    relayed_by: receipt.from,
                    at: receipt.at,
                    kind: metrics.kinds().name(receipt.kind),
                })
            })
            .collect();
        Self { observations }
    }

    /// The earliest observation (the "first spy"), if any adversarial node
    /// was reached at all.
    pub fn first_observation(&self) -> Option<&Observation> {
        self.observations
            .iter()
            .min_by_key(|obs| (obs.at, obs.observer))
    }

    /// Number of adversarial nodes that observed the broadcast.
    pub fn observer_count(&self) -> usize {
        self.observations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_fraction_selects_expected_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let set = AdversarySet::random_fraction(100, 0.2, &[], &mut rng);
        assert_eq!(set.len(), 20);
        assert_eq!(set.network_size(), 100);
        assert!((set.fraction() - 0.2).abs() < 1e-12);
        assert!(!set.is_empty());
    }

    #[test]
    fn protected_nodes_are_never_selected() {
        let mut rng = StdRng::seed_from_u64(2);
        let protected = [NodeId::new(0), NodeId::new(1)];
        for _ in 0..20 {
            let set = AdversarySet::random_fraction(10, 0.8, &protected, &mut rng);
            assert!(!set.contains(NodeId::new(0)));
            assert!(!set.contains(NodeId::new(1)));
            assert!(set.len() <= 8);
        }
    }

    #[test]
    fn fraction_is_clamped() {
        let mut rng = StdRng::seed_from_u64(3);
        let all = AdversarySet::random_fraction(10, 2.0, &[], &mut rng);
        assert_eq!(all.len(), 10);
        let none = AdversarySet::random_fraction(10, -0.5, &[], &mut rng);
        assert!(none.is_empty());
        assert_eq!(none.fraction(), 0.0);
    }

    #[test]
    fn honest_nodes_complement_the_set() {
        let set = AdversarySet::from_nodes(5, [NodeId::new(1), NodeId::new(3)]);
        assert_eq!(
            set.honest_nodes(),
            vec![NodeId::new(0), NodeId::new(2), NodeId::new(4)]
        );
        assert_eq!(set.nodes().count(), 2);
    }

    #[test]
    fn empty_network_edge_case() {
        let set = AdversarySet::from_nodes(0, []);
        assert_eq!(set.fraction(), 0.0);
        assert!(set.honest_nodes().is_empty());
    }

    #[test]
    fn view_keeps_only_first_receipt_per_observer() {
        let mut metrics = Metrics::new(4);
        metrics.record_receipts();
        for (at, from, to) in [(10, 0, 2), (15, 1, 2), (12, 0, 3), (9, 0, 1)] {
            metrics.note_receipt(NodeId::new(to), NodeId::new(from), at, "flood");
        }
        let adversaries = AdversarySet::from_nodes(4, [NodeId::new(2), NodeId::new(3)]);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        assert_eq!(view.observer_count(), 2);
        let first = view.first_observation().unwrap();
        assert_eq!(first.observer, NodeId::new(2));
        assert_eq!(first.at, 10);
        assert_eq!(first.relayed_by, NodeId::new(0));
    }

    #[test]
    fn view_of_unreached_adversary_is_empty() {
        // A recorded run in which only node 1 ever received anything.
        let mut metrics = Metrics::new(3);
        metrics.record_receipts();
        metrics.note_receipt(NodeId::new(1), NodeId::new(0), 5, "flood");
        let adversaries = AdversarySet::from_nodes(3, [NodeId::new(2)]);
        let view = AdversaryView::from_metrics(&metrics, &adversaries);
        assert_eq!(view.observer_count(), 0);
        assert!(view.first_observation().is_none());
    }

    #[test]
    #[should_panic(expected = "run was not recorded: set SimConfig::record_receipts")]
    fn view_of_an_unrecorded_run_panics() {
        let metrics = Metrics::new(3);
        let adversaries = AdversarySet::from_nodes(3, [NodeId::new(2)]);
        let _ = AdversaryView::from_metrics(&metrics, &adversaries);
    }
}
