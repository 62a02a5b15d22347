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
//!   each unordered pair is derived once, into a triangle buffer both
//!   members read their key from: `k·(k−1)/2` exponentiations instead of
//!   the naive `k·(k−1)`.
//! * **Sharing** — the member list is the same for all `k` members, so the
//!   `k` memberships hold one roster behind one `Rc`, together with the
//!   configuration and the members' keyed participants. The identity table
//!   the virtual-source election reads lives in that roster too, built the
//!   first time a member elects: only a group that carries a transaction
//!   ever needs it. A member's own pad keys sit in the roster beside its
//!   peers'; what the member keeps of its own is its index.
//! * **Purity** — the material is a function of `(key_seed, members)` and
//!   nothing else: it consumes no randomness and keeps no state, so trials
//!   cannot influence each other through it.
//!
//! Nothing is memoised. Every experiment derives both the key seed and the
//! group composition from the trial seed, so no two trials ever ask for the
//! same material (measured: 27 960 lookups, 0 hits over the seven
//! experiments that run the flexible protocol).

use crate::config::FlexConfig;
use crate::harness::node_key_pair;
use crate::node::{GroupMembership, GroupRoster};
use fnp_crypto::dh::{pairwise_pad_key, KeyPair};
use fnp_dcnet::keyed::KeyedParticipant;
use fnp_groups::Group;
use fnp_netsim::NodeId;
use std::rc::Rc;

/// Working buffers of one set-up, reused from group to group: the members'
/// key pairs and the triangle of pairwise pad keys.
#[derive(Debug, Default)]
pub(crate) struct KeyScratch {
    key_pairs: Vec<KeyPair>,
    /// The pad key of members `i < j` at `j·(j−1)/2 + i`: row `j` holds
    /// member `j`'s keys with every lower member.
    triangle: Vec<[u8; 32]>,
}

/// Builds the [`GroupMembership`] handed to each member of `group`, in
/// ascending member order, with every pad key derived under `key_seed`.
/// The memberships carry the default [`FlexConfig`]; a node built from one
/// under another configuration copies the roster once
/// ([`FlexNode::new`](crate::FlexNode::new)).
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
    let mut memberships = Vec::with_capacity(group.len());
    let place = |node, membership| memberships.push((node, membership));
    let config = Rc::new(FlexConfig::default());
    derive_group(group, key_seed, &config, &mut KeyScratch::default(), place);
    memberships
}

/// The one derivation behind [`group_memberships`] and the harness's
/// set-up: derives `group`'s pad keys under `key_seed` in one pass over
/// `scratch`, builds the group's roster under `config`, and hands each
/// member's membership to `place`, in ascending member order.
///
/// # Panics
///
/// As [`group_memberships`].
pub(crate) fn derive_group(
    group: &Group,
    key_seed: u64,
    config: &Rc<FlexConfig>,
    scratch: &mut KeyScratch,
    mut place: impl FnMut(NodeId, GroupMembership),
) {
    let members: Box<[NodeId]> = group.members().collect();
    let KeyScratch {
        key_pairs,
        triangle,
    } = scratch;
    key_pairs.clear();
    key_pairs.extend(members.iter().map(|&node| node_key_pair(node, key_seed)));
    triangle.clear();
    for (j, high) in key_pairs.iter().enumerate() {
        let public = high.public_key();
        for low in &key_pairs[..j] {
            let key = pairwise_pad_key(low, &public);
            debug_assert_eq!(
                key,
                pairwise_pad_key(high, &low.public_key()),
                "pairwise pad keys must be symmetric"
            );
            triangle.push(key);
        }
    }

    let k = members.len();
    let participants = (0..k)
        .map(|own_index| {
            let pad_keys = (0..k).filter(|&peer| peer != own_index).map(|peer| {
                let (low, high) = (own_index.min(peer), own_index.max(peer));
                (peer, triangle[high * (high - 1) / 2 + low])
            });
            let participant = KeyedParticipant::from_pad_keys(own_index, k, pad_keys)
                .expect("a group has at least two members and every pair was derived");
            Rc::new(participant)
        })
        .collect();
    let roster = Rc::new(GroupRoster::new(Rc::clone(config), members, participants));
    for (own_index, &node) in roster.members().iter().enumerate() {
        place(node, GroupMembership::new(Rc::clone(&roster), own_index));
    }
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
    use fnp_crypto::dh::PublicKey;
    use fnp_crypto::identity::elect_virtual_source_index;
    use fnp_crypto::sha256::Sha256;
    use fnp_groups::form_groups;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_groups(n: usize, k: usize, seed: u64) -> Vec<Group> {
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        form_groups(&nodes, k, &mut rng).unwrap()
    }

    /// One phase-1 contribution; pads are deterministic, so equal
    /// contributions mean equal pad material.
    fn contribution(participant: &KeyedParticipant, round: u64) -> Vec<u8> {
        participant.contribution(round, 64, Some(b"probe")).unwrap()
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
                assert_eq!(a.members()[a.own_index], *node);
                assert_eq!(a.members(), b.members());
                assert_eq!(a.own_index, b.own_index);
                assert_eq!(a.identities(), b.identities());
                for round in [0u64, 9] {
                    assert_eq!(
                        contribution(a.participant(), round),
                        contribution(b.participant(), round)
                    );
                }
            }
        }
    }

    /// The one-pass derivation against the unmirrored reference: every
    /// member deriving each of its pad keys itself through
    /// [`KeyedParticipant::new`], and the identities [`Group`] builds. The
    /// sizes cover a pair, odd and even groups, one full batch of eight
    /// peers (k = 9) and two batches (k = 17).
    #[test]
    fn one_pass_derivation_matches_the_unmirrored_reference() {
        const SEED: u64 = 23;
        for k in [2, 3, 5, 9, 17] {
            let group = Group::new(k, (0..k).map(|i| NodeId::new(7 * i + 3))).unwrap();
            let reference_keys: Vec<KeyPair> = group
                .members()
                .map(|node| node_key_pair(node, SEED))
                .collect();
            let public_keys: Vec<PublicKey> =
                reference_keys.iter().map(KeyPair::public_key).collect();
            let identities = group.member_identities();
            let digest = Sha256::digest(format!("tx of a {k}-member group").as_bytes());
            let elected = elect_virtual_source_index(&identities, &digest);

            let memberships = group_memberships(&group, SEED);
            assert_eq!(memberships.len(), k);
            for (index, (node, membership)) in memberships.iter().enumerate() {
                assert_eq!(membership.own_index, index);
                assert_eq!(*node, membership.members()[index]);
                let reference =
                    KeyedParticipant::new(index, &reference_keys[index], &public_keys).unwrap();
                for round in [0u64, 9] {
                    assert_eq!(
                        contribution(membership.participant(), round),
                        contribution(&reference, round),
                        "k = {k}, member {index}, round {round}"
                    );
                }
                assert_eq!(membership.identities(), identities, "k = {k}");
                assert_eq!(
                    elect_virtual_source_index(membership.identities(), &digest),
                    elected,
                    "k = {k}, member {index}"
                );
            }
        }
    }

    #[test]
    fn members_and_identities_are_shared_not_copied() {
        let groups = sample_groups(10, 5, 1);
        let memberships = group_memberships(&groups[0], 2);
        let first = &memberships[0].1;
        for (_, membership) in &memberships[1..] {
            assert!(std::ptr::eq(first.members(), membership.members()));
        }
        // The first election builds the table, once, for the whole group.
        let built = memberships[2].1.identities();
        for (_, membership) in &memberships {
            assert!(std::ptr::eq(built, membership.identities()));
        }
        // A clone — a steady session's per-transaction instance — shares
        // it as well.
        assert!(std::ptr::eq(built, first.clone().identities()));
    }

    #[test]
    fn different_seeds_derive_different_material() {
        let groups = sample_groups(10, 5, 1);
        let first = group_memberships(&groups[0], 1);
        let second = group_memberships(&groups[0], 2);
        assert_ne!(
            contribution(first[0].1.participant(), 0),
            contribution(second[0].1.participant(), 0),
            "key seed must flow into the pad material"
        );
    }
}
