//! Group formation over the whole network and the manager-based membership
//! protocol sketch.
//!
//! Two concerns from §IV-C of the paper:
//!
//! * **Partitioning the network into DC-net groups.** The simulator needs a
//!   way to assign every node to a group of size between `k` and `2k − 1`
//!   before a broadcast starts. [`form_groups`] produces such a partition
//!   by a random shuffle.
//! * **Manager-based membership (Reiter).** The paper points to Reiter's
//!   secure group membership protocol, which tolerates up to one third of
//!   malicious members, as a first solution for group creation. We model
//!   the membership-agreement step: a change (join/leave) proposed by the
//!   manager is accepted only if more than two thirds of the current
//!   members acknowledge it.

use crate::membership::{Group, GroupError};
use fnp_netsim::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// Errors raised during group formation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormationError {
    /// The network has fewer than `k` nodes — no group can reach the floor.
    NetworkTooSmall {
        /// Number of available nodes.
        nodes: usize,
        /// Required minimum (`k`).
        k: usize,
    },
    /// Propagated group error.
    Group(GroupError),
}

impl fmt::Display for FormationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormationError::NetworkTooSmall { nodes, k } => {
                write!(
                    f,
                    "cannot form groups of at least {k} nodes from only {nodes} nodes"
                )
            }
            FormationError::Group(inner) => write!(f, "{inner}"),
        }
    }
}

impl std::error::Error for FormationError {}

impl From<GroupError> for FormationError {
    fn from(value: GroupError) -> Self {
        FormationError::Group(value)
    }
}

/// Partitions `nodes` into disjoint groups of size between `k` and `2k − 1`.
///
/// The assignment is a random shuffle followed by greedy chunking; the last
/// chunk absorbs the remainder so that no group falls below `k`.
///
/// # Errors
///
/// Fails if fewer than `k` nodes are available or `k < 2`.
pub fn form_groups<R: Rng + ?Sized>(
    nodes: &[NodeId],
    k: usize,
    rng: &mut R,
) -> Result<Vec<Group>, FormationError> {
    if k < 2 {
        return Err(FormationError::Group(GroupError::InvalidPrivacyParameter {
            k,
        }));
    }
    if nodes.len() < k {
        return Err(FormationError::NetworkTooSmall {
            nodes: nodes.len(),
            k,
        });
    }
    let mut shuffled: Vec<NodeId> = nodes.to_vec();
    shuffled.shuffle(rng);

    let mut groups = Vec::new();
    let mut index = 0;
    while index < shuffled.len() {
        let remaining = shuffled.len() - index;
        // Take k nodes unless the leftover after that would be a stub of
        // fewer than k nodes, in which case absorb it (still ≤ 2k − 1).
        let take = if remaining < 2 * k { remaining } else { k };
        let members = shuffled[index..index + take].to_vec();
        groups.push(Group::new(k, members)?);
        index += take;
    }
    Ok(groups)
}

/// Outcome of a Reiter-style membership vote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipDecision {
    /// More than two thirds of the current members acknowledged the change.
    Accepted,
    /// The acknowledgement quorum was not reached.
    Rejected {
        /// Number of acknowledgements received.
        acknowledgements: usize,
        /// Quorum that was required (strictly more than ⌊2n/3⌋).
        required: usize,
    },
}

/// A manager-based membership coordinator in the style of Reiter's secure
/// group membership protocol: the manager proposes a change and the current
/// members vote; the change is applied only with a > 2/3 quorum, which
/// tolerates up to one third of malicious (non-acknowledging) members.
#[derive(Clone, Debug)]
pub struct ManagedGroup {
    group: Group,
    manager: NodeId,
}

impl ManagedGroup {
    /// Wraps `group` with `manager` as its membership coordinator.
    ///
    /// # Errors
    ///
    /// Fails if the manager is not a member of the group.
    pub fn new(group: Group, manager: NodeId) -> Result<Self, GroupError> {
        if !group.contains(manager) {
            return Err(GroupError::NotAMember { node: manager });
        }
        Ok(Self { group, manager })
    }

    /// The coordinated group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The manager node.
    pub fn manager(&self) -> NodeId {
        self.manager
    }

    /// Quorum required to accept a change: strictly more than two thirds of
    /// the current membership.
    pub fn required_quorum(&self) -> usize {
        (2 * self.group.len()) / 3 + 1
    }

    /// Proposes admitting `candidate`; `acknowledging` is the set of current
    /// members that voted for the change.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError`] if the join itself is invalid (duplicate
    /// member or full group) once the quorum is reached.
    pub fn propose_join(
        &mut self,
        candidate: NodeId,
        acknowledging: &[NodeId],
    ) -> Result<MembershipDecision, GroupError> {
        let votes = self.count_votes(acknowledging);
        let required = self.required_quorum();
        if votes < required {
            return Ok(MembershipDecision::Rejected {
                acknowledgements: votes,
                required,
            });
        }
        self.group.join(candidate)?;
        Ok(MembershipDecision::Accepted)
    }

    /// Proposes removing `member`; same quorum rule as
    /// [`ManagedGroup::propose_join`]. Removing the manager itself is
    /// allowed and transfers the manager role to the smallest remaining
    /// member.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError`] if the member does not exist once the
    /// quorum is reached.
    pub fn propose_leave(
        &mut self,
        member: NodeId,
        acknowledging: &[NodeId],
    ) -> Result<MembershipDecision, GroupError> {
        let votes = self.count_votes(acknowledging);
        let required = self.required_quorum();
        if votes < required {
            return Ok(MembershipDecision::Rejected {
                acknowledgements: votes,
                required,
            });
        }
        self.group.leave(member)?;
        if member == self.manager {
            if let Some(successor) = self.group.members().next() {
                self.manager = successor;
            }
        }
        Ok(MembershipDecision::Accepted)
    }

    fn count_votes(&self, acknowledging: &[NodeId]) -> usize {
        acknowledging
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .filter(|node| self.group.contains(**node))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_nodes(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn form_groups_respects_size_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n, k) in [(10, 3), (100, 5), (17, 4), (1000, 10)] {
            let groups = form_groups(&all_nodes(n), k, &mut rng).unwrap();
            let total: usize = groups.iter().map(|g| g.len()).sum();
            assert_eq!(total, n);
            for group in &groups {
                assert!(group.len() >= k, "{n}/{k}: group of {}", group.len());
                assert!(group.len() < 2 * k, "{n}/{k}: group of {}", group.len());
                assert!(group.provides_privacy());
            }
        }
    }

    #[test]
    fn form_groups_rejects_tiny_networks_and_bad_k() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            form_groups(&all_nodes(3), 5, &mut rng),
            Err(FormationError::NetworkTooSmall { nodes: 3, k: 5 })
        ));
        assert!(form_groups(&all_nodes(3), 1, &mut rng).is_err());
    }

    #[test]
    fn groups_partition_the_node_set() {
        let mut rng = StdRng::seed_from_u64(3);
        let nodes = all_nodes(53);
        let groups = form_groups(&nodes, 5, &mut rng).unwrap();
        let mut seen = BTreeSet::new();
        for group in &groups {
            for member in group.members() {
                assert!(seen.insert(member), "{member} appears twice");
            }
        }
        assert_eq!(seen.len(), 53);
    }

    #[test]
    fn managed_group_requires_manager_membership() {
        let group = Group::new(3, all_nodes(5)).unwrap();
        assert!(ManagedGroup::new(group.clone(), NodeId::new(9)).is_err());
        let managed = ManagedGroup::new(group, NodeId::new(0)).unwrap();
        assert_eq!(managed.manager(), NodeId::new(0));
        assert_eq!(managed.required_quorum(), 4); // 2*5/3 + 1
    }

    #[test]
    fn join_needs_a_two_thirds_quorum() {
        // k = 4 keeps the 5-member group below its ceiling so the join can
        // actually be applied once the quorum is reached.
        let group = Group::new(4, all_nodes(5)).unwrap();
        let mut managed = ManagedGroup::new(group, NodeId::new(0)).unwrap();
        // Three acknowledgements out of five: below the quorum of four.
        let decision = managed.propose_join(NodeId::new(7), &all_nodes(3)).unwrap();
        assert_eq!(
            decision,
            MembershipDecision::Rejected {
                acknowledgements: 3,
                required: 4
            }
        );
        assert!(!managed.group().contains(NodeId::new(7)));
        // Four acknowledgements: accepted.
        let decision = managed.propose_join(NodeId::new(7), &all_nodes(4)).unwrap();
        assert_eq!(decision, MembershipDecision::Accepted);
        assert!(managed.group().contains(NodeId::new(7)));
    }

    #[test]
    fn duplicate_and_non_member_votes_do_not_count() {
        let group = Group::new(3, all_nodes(5)).unwrap();
        let mut managed = ManagedGroup::new(group, NodeId::new(0)).unwrap();
        let votes = vec![
            NodeId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(77), // not a member
        ];
        let decision = managed.propose_join(NodeId::new(9), &votes).unwrap();
        assert_eq!(
            decision,
            MembershipDecision::Rejected {
                acknowledgements: 2,
                required: 4
            }
        );
    }

    #[test]
    fn leaving_manager_transfers_the_role() {
        let group = Group::new(2, all_nodes(4)).unwrap();
        let mut managed = ManagedGroup::new(group, NodeId::new(0)).unwrap();
        let decision = managed
            .propose_leave(NodeId::new(0), &all_nodes(4))
            .unwrap();
        assert_eq!(decision, MembershipDecision::Accepted);
        assert_ne!(managed.manager(), NodeId::new(0));
        assert!(managed.group().contains(managed.manager()));
    }

    #[test]
    fn quorum_reached_but_invalid_join_errors() {
        let group = Group::new(2, all_nodes(3)).unwrap(); // max size 3 reached
        let mut managed = ManagedGroup::new(group, NodeId::new(0)).unwrap();
        let result = managed.propose_join(NodeId::new(9), &all_nodes(3));
        assert!(matches!(result, Err(GroupError::GroupFull { .. })));
    }

    #[test]
    fn formation_error_display() {
        assert!(FormationError::NetworkTooSmall { nodes: 1, k: 3 }
            .to_string()
            .contains("3"));
        assert!(
            FormationError::from(GroupError::InvalidPrivacyParameter { k: 1 })
                .to_string()
                .contains("k = 1")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random formation always partitions the network into groups whose
        /// sizes satisfy k ≤ |G| ≤ 2k − 1.
        #[test]
        fn prop_formation_respects_invariants(
            n in 4usize..200,
            k in 2usize..8,
            seed in any::<u64>(),
        ) {
            prop_assume!(n >= k);
            let mut rng = StdRng::seed_from_u64(seed);
            let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            let groups = form_groups(&nodes, k, &mut rng).unwrap();
            let total: usize = groups.iter().map(|g| g.len()).sum();
            prop_assert_eq!(total, n);
            for group in groups {
                prop_assert!(group.len() >= k);
                prop_assert!(group.len() < 2 * k);
            }
        }
    }
}
