//! Per-worker cache of derived DC-net group key material.
//!
//! Setting up one flexible broadcast derives a pairwise pad key — a DH
//! modular exponentiation followed by SHA-256/HKDF expansion — for every
//! ordered pair of members in every group. At `n/k` groups per trial and
//! `k·(k−1)` derivations per group that is the dominant setup cost, and it
//! is pure recomputation: key material depends only on the key seed and the
//! group composition, never on the trial's RNG stream. A [`GroupKeyCache`]
//! memoises the derived material keyed by the sorted member list, so
//! repeated trials over the same groups (same seed, e.g. the same overlay
//! re-broadcast under different adversary placements) skip the modular
//! exponentiations entirely.
//!
//! Two further properties are exploited:
//!
//! * **Symmetry** — [`pairwise_pad_key`] is symmetric in its endpoints, so
//!   even a cold-cache derivation does `k·(k−1)/2` exponentiations instead
//!   of the naive `k·(k−1)` (each pair is derived once and mirrored).
//! * **RNG-freeness** — because derivation consumes no randomness, building
//!   participants from cached keys is *byte-identical* to deriving them
//!   fresh; the arena-reuse determinism suite asserts this end to end.
//!
//! The cache lives in the per-worker [`TrialArena`](fnp_netsim::TrialArena)
//! extension slot (see [`crate::harness::run_flexible_broadcast_in`]); it is
//! invalidated wholesale when the key seed changes and capped at
//! [`MAX_CACHED_GROUPS`] entries so a sweep over huge overlays cannot
//! accumulate unbounded key material.

use crate::harness::node_key_pair;
use crate::node::GroupMembership;
use fnp_crypto::dh::{pairwise_pad_key, KeyPair, PublicKey};
use fnp_crypto::identity::Identity;
use fnp_dcnet::keyed::KeyedParticipant;
use fnp_groups::Group;
use fnp_netsim::NodeId;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Upper bound on distinct group compositions kept per cache.
///
/// Paper-scale overlays (n = 1000, k = 5) form 200 groups per trial, so the
/// bound is far above any hit-rate-relevant working set; it exists so a
/// million-node sweep (hundreds of thousands of groups, none of them ever
/// revisited) cannot pin gigabytes of key material in a worker arena. Once
/// full, further compositions are derived fresh and not inserted — still
/// with the symmetric half-cost derivation.
pub const MAX_CACHED_GROUPS: usize = 8192;

/// Everything derivable for one group composition: the shared member and
/// identity tables, and each member's pairwise pad keys.
#[derive(Debug)]
struct CachedGroup {
    members: Rc<[NodeId]>,
    identities: Rc<[Identity]>,
    /// `pad_keys[i]` holds `(peer, key)` for every peer of member `i`,
    /// sorted ascending by peer.
    pad_keys: Vec<Vec<(usize, [u8; 32])>>,
}

impl CachedGroup {
    /// Derives the material for `members` from scratch (one exponentiation
    /// per unordered pair, mirrored to both endpoints).
    fn derive(members: &[NodeId], key_seed: u64) -> Self {
        let key_pairs: Vec<KeyPair> = members
            .iter()
            .map(|node| node_key_pair(*node, key_seed))
            .collect();
        let public_keys: Vec<PublicKey> = key_pairs.iter().map(KeyPair::public_key).collect();
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
        Self {
            members: members.into(),
            identities: members
                .iter()
                .map(|node| Identity::from_node_index(node.index()))
                .collect(),
            pad_keys,
        }
    }

    /// Builds the per-member [`GroupMembership`]s from this material.
    fn memberships(&self) -> Vec<(NodeId, GroupMembership)> {
        let size = self.members.len();
        self.members
            .iter()
            .enumerate()
            .map(|(own_index, node)| {
                let participant = KeyedParticipant::from_pad_keys(
                    own_index,
                    size,
                    self.pad_keys[own_index].iter().copied(),
                )
                .map(Rc::new)
                .expect("cached groups always have at least two members");
                (
                    *node,
                    GroupMembership {
                        members: Rc::clone(&self.members),
                        own_index,
                        identities: Rc::clone(&self.identities),
                        participant,
                    },
                )
            })
            .collect()
    }
}

/// Memoised DC-net key material for one key seed, keyed by group
/// composition. See the [module documentation](self) for the rationale.
#[derive(Debug)]
pub struct GroupKeyCache {
    key_seed: u64,
    groups: BTreeMap<Vec<NodeId>, CachedGroup>,
    limit: usize,
}

impl GroupKeyCache {
    /// Creates an empty cache for `key_seed`.
    #[must_use]
    pub fn new(key_seed: u64) -> Self {
        Self {
            key_seed,
            groups: BTreeMap::new(),
            limit: MAX_CACHED_GROUPS,
        }
    }

    /// Like [`GroupKeyCache::new`] but with a custom entry cap (tests).
    #[cfg(test)]
    fn with_limit(key_seed: u64, limit: usize) -> Self {
        Self {
            key_seed,
            groups: BTreeMap::new(),
            limit,
        }
    }

    /// The key seed this cache's material was derived under. A harness must
    /// discard the cache when its seed differs.
    #[must_use]
    pub fn key_seed(&self) -> u64 {
        self.key_seed
    }

    /// Number of group compositions currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the cache holds no group material yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Builds the [`GroupMembership`] handed to each member of `group`,
    /// deriving (and caching) the key material on first sight of this
    /// composition and reusing it afterwards.
    ///
    /// The result is byte-identical to an uncached derivation: the pad keys
    /// are pure functions of `(key_seed, members)`.
    #[must_use]
    pub fn memberships(&mut self, group: &Group) -> Vec<(NodeId, GroupMembership)> {
        let members = group.member_vec();
        if let Some(cached) = self.groups.get(&members) {
            return cached.memberships();
        }
        let derived = CachedGroup::derive(&members, self.key_seed);
        if self.groups.len() < self.limit {
            let memberships = derived.memberships();
            self.groups.insert(members, derived);
            memberships
        } else {
            derived.memberships()
        }
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
    fn cached_material_is_identical_to_fresh_derivation() {
        let groups = sample_groups(40, 5, 3);
        let mut cache = GroupKeyCache::new(11);
        let cold: Vec<_> = groups.iter().map(|g| cache.memberships(g)).collect();
        let warm: Vec<_> = groups.iter().map(|g| cache.memberships(g)).collect();
        let mut fresh_cache = GroupKeyCache::new(11);
        let fresh: Vec<_> = groups.iter().map(|g| fresh_cache.memberships(g)).collect();

        assert_eq!(cache.len(), groups.len());
        for ((cold, warm), fresh) in cold
            .into_iter()
            .flatten()
            .zip(warm.into_iter().flatten())
            .zip(fresh.into_iter().flatten())
        {
            assert_eq!(cold.0, warm.0);
            assert_eq!(cold.1.members, warm.1.members);
            assert_eq!(cold.1.own_index, warm.1.own_index);
            assert_eq!(cold.1.identities, warm.1.identities);
            for round in [0u64, 9] {
                let reference = contribution(&fresh.1, round);
                assert_eq!(contribution(&cold.1, round), reference);
                assert_eq!(contribution(&warm.1, round), reference);
            }
        }
    }

    #[test]
    fn members_and_identities_are_shared_not_copied() {
        let groups = sample_groups(10, 5, 1);
        let mut cache = GroupKeyCache::new(2);
        let memberships = cache.memberships(&groups[0]);
        let first = &memberships[0].1;
        for (_, membership) in &memberships[1..] {
            assert!(Rc::ptr_eq(&first.members, &membership.members));
            assert!(Rc::ptr_eq(&first.identities, &membership.identities));
        }
    }

    #[test]
    fn entry_cap_bounds_the_cache_without_changing_results() {
        let groups = sample_groups(40, 4, 7);
        assert!(groups.len() > 2);
        let mut capped = GroupKeyCache::with_limit(5, 2);
        let mut unlimited = GroupKeyCache::new(5);
        for group in &groups {
            let a = capped.memberships(group);
            let b = unlimited.memberships(group);
            for ((_, a), (_, b)) in a.into_iter().zip(b) {
                assert_eq!(contribution(&a, 1), contribution(&b, 1));
            }
        }
        assert_eq!(capped.len(), 2, "cap must bound the cache");
        assert_eq!(unlimited.len(), groups.len());
        assert!(!capped.is_empty());
        assert_eq!(capped.key_seed(), 5);
    }

    #[test]
    fn different_seeds_derive_different_material() {
        let groups = sample_groups(10, 5, 1);
        let mut a = GroupKeyCache::new(1);
        let mut b = GroupKeyCache::new(2);
        let first = a.memberships(&groups[0]);
        let second = b.memberships(&groups[0]);
        assert_ne!(
            contribution(&first[0].1, 0),
            contribution(&second[0].1, 0),
            "key seed must flow into the pad material"
        );
    }
}
