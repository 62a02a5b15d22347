//! Derivation of a DC-net group's key material.
//!
//! Setting up one flexible broadcast derives a pairwise pad key — a DH
//! modular exponentiation followed by SHA-256/HKDF expansion — for every
//! pair of members in every group, `n/k` groups per trial. One pad key
//! costs about 1.6 µs where SHA-256 runs on the x86 SHA extensions and
//! 5.6 µs on the portable compression (`crypto.dh.pad_key_us`;
//! `docs/ARCHITECTURE.md` § "Group-key derivation"). [`group_memberships`]
//! is that derivation for one group, and three properties of it are relied
//! upon elsewhere:
//!
//! * **Symmetry** — [`pairwise_pad_key`] is symmetric in its endpoints, so
//!   each unordered pair is derived once and mirrored to both members:
//!   `k·(k−1)/2` exponentiations instead of the naive `k·(k−1)`.
//! * **Sharing** — the member list and identity table are the same for all
//!   `k` members, so the `k` memberships hold them behind one `Rc` each.
//! * **Purity** — the material is a function of `(key_seed, members)` and
//!   nothing else: it consumes no randomness and keeps no state, so trials
//!   cannot influence each other through it.
//!
//! Nothing is memoised. Every experiment derives both the key seed and the
//! group composition from the trial seed, so no two trials ever ask for the
//! same material (measured: 27 960 lookups, 0 hits over the seven
//! experiments that run the flexible protocol).

use crate::harness::node_key_pair;
use crate::node::GroupMembership;
use fnp_crypto::dh::{pairwise_pad_key, KeyPair, PublicKey};
use fnp_crypto::identity::Identity;
use fnp_dcnet::keyed::KeyedParticipant;
use fnp_groups::Group;
use fnp_netsim::NodeId;
use std::rc::Rc;

/// Builds the [`GroupMembership`] handed to each member of `group`, in
/// ascending member order, with every pad key derived under `key_seed`.
///
/// See the [module documentation](self) for what the derivation guarantees.
///
/// # Panics
///
/// If `group` has fewer than two members — a DC-net needs a peer to share a
/// pad with. Groups from [`form_groups`](fnp_groups::form_groups) have at
/// least `k ≥ 2`.
#[must_use]
pub fn group_memberships(group: &Group, key_seed: u64) -> Vec<(NodeId, GroupMembership)> {
    let members: Rc<[NodeId]> = group.member_vec().into();
    let identities: Rc<[Identity]> = members
        .iter()
        .map(|node| Identity::from_node_index(node.index()))
        .collect();
    let key_pairs: Vec<KeyPair> = members
        .iter()
        .map(|node| node_key_pair(*node, key_seed))
        .collect();
    let public_keys: Vec<PublicKey> = key_pairs.iter().map(KeyPair::public_key).collect();

    // `pad_keys[i]` holds `(peer, key)` for every peer of member `i`.
    let k = members.len();
    let mut pad_keys: Vec<Vec<(usize, [u8; 32])>> = (0..k)
        .map(|_| Vec::with_capacity(k.saturating_sub(1)))
        .collect();
    for i in 0..k {
        for j in (i + 1)..k {
            let key = pairwise_pad_key(&key_pairs[i], &public_keys[j]);
            debug_assert_eq!(
                key,
                pairwise_pad_key(&key_pairs[j], &public_keys[i]),
                "pairwise pad keys must be symmetric"
            );
            pad_keys[i].push((j, key));
            pad_keys[j].push((i, key));
        }
    }

    pad_keys
        .into_iter()
        .enumerate()
        .map(|(own_index, keys)| {
            let participant = KeyedParticipant::from_pad_keys(own_index, k, keys)
                .map(Rc::new)
                .expect("a group has at least two members and every pair was derived");
            (
                members[own_index],
                GroupMembership {
                    members: Rc::clone(&members),
                    own_index,
                    identities: Rc::clone(&identities),
                    participant,
                },
            )
        })
        .collect()
}

/// Compatibility shell: the name the frozen `benchmark/src/api.rs` imports.
///
/// Holds a key seed and forwards to [`group_memberships`]; it caches
/// nothing. New code calls the function. To be retired with the next
/// benchmark issue (ROADMAP item 1d).
#[derive(Debug)]
pub struct GroupKeyCache {
    key_seed: u64,
}

impl GroupKeyCache {
    /// A shell deriving under `key_seed`.
    #[must_use]
    pub fn new(key_seed: u64) -> Self {
        Self { key_seed }
    }

    /// [`group_memberships`] of `group` under this shell's key seed.
    #[must_use]
    pub fn memberships(&mut self, group: &Group) -> Vec<(NodeId, GroupMembership)> {
        group_memberships(group, self.key_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_groups::form_groups;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_groups(n: usize, k: usize, seed: u64) -> Vec<Group> {
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        form_groups(&nodes, k, &mut rng).unwrap()
    }

    /// One member's phase-1 contribution; pads are deterministic, so equal
    /// contributions mean equal pad material.
    fn contribution(membership: &GroupMembership, round: u64) -> Vec<u8> {
        membership
            .participant
            .contribution(round, 64, Some(b"probe"))
            .unwrap()
    }

    #[test]
    fn derivation_is_a_pure_function_of_seed_and_members() {
        let groups = sample_groups(40, 5, 3);
        // The same groups re-formed from scratch, derived in reverse order
        // and through the compatibility shell: neither call history nor
        // entry point may show in the material.
        let mut again = sample_groups(40, 5, 3);
        again.reverse();
        let mut shell = GroupKeyCache::new(11);
        let mut second: Vec<_> = again.iter().map(|g| shell.memberships(g)).collect();
        second.reverse();

        for (group, second) in groups.iter().zip(second) {
            let first = group_memberships(group, 11);
            assert_eq!(first.len(), group.len());
            for ((node, a), (other, b)) in first.iter().zip(&second) {
                assert_eq!(node, other);
                assert_eq!(a.members[a.own_index], *node);
                assert_eq!(a.members, b.members);
                assert_eq!(a.own_index, b.own_index);
                assert_eq!(a.identities, b.identities);
                for round in [0u64, 9] {
                    assert_eq!(contribution(a, round), contribution(b, round));
                }
            }
        }
    }

    #[test]
    fn members_and_identities_are_shared_not_copied() {
        let groups = sample_groups(10, 5, 1);
        let memberships = group_memberships(&groups[0], 2);
        let first = &memberships[0].1;
        for (_, membership) in &memberships[1..] {
            assert!(Rc::ptr_eq(&first.members, &membership.members));
            assert!(Rc::ptr_eq(&first.identities, &membership.identities));
        }
    }

    #[test]
    fn different_seeds_derive_different_material() {
        let groups = sample_groups(10, 5, 1);
        let first = group_memberships(&groups[0], 1);
        let second = group_memberships(&groups[0], 2);
        assert_ne!(
            contribution(&first[0].1, 0),
            contribution(&second[0].1, 0),
            "key seed must flow into the pad material"
        );
    }
}
