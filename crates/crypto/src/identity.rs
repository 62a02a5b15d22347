//! Node identities and the hash-distance metric used for the verifiable,
//! message-free virtual-source election.
//!
//! The paper's phase 1 → phase 2 transition rule is:
//!
//! > the node whose hashed identity, e.g., public key, is closest to the
//! > hash of the message creates the initial virtual source token
//!
//! This module defines [`Identity`] (a node's public identity string plus
//! its SHA-256 fingerprint) and [`hash_distance`], the XOR metric comparing
//! a fingerprint to a message digest. [`elect_virtual_source`] applies the
//! rule over a whole group; every group member computes the same winner from
//! public information only, which is what makes the transition verifiable
//! without extra messages.
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::identity::{elect_virtual_source, Identity};
//! use fnp_crypto::sha256::Sha256;
//!
//! let group: Vec<Identity> = (0..5).map(Identity::from_node_index).collect();
//! let message_digest = Sha256::digest(b"tx: alice pays bob 3");
//! let winner = elect_virtual_source(&group, &message_digest).unwrap();
//! // Every honest member recomputes the same winner.
//! assert_eq!(winner, elect_virtual_source(&group, &message_digest).unwrap());
//! ```

use crate::sha256::{Sha256, DIGEST_LEN};
use std::fmt;

/// A node identity: an opaque public identifier together with its SHA-256
/// fingerprint.
///
/// In a deployment the identifier would be the node's long-term public key;
/// in the simulator it is derived from the node index, which keeps
/// experiments deterministic while exercising exactly the same election
/// logic.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Identity {
    /// The public identifier bytes (e.g. an encoded public key).
    id: Vec<u8>,
    /// SHA-256 fingerprint of `id`.
    fingerprint: [u8; DIGEST_LEN],
}

impl fmt::Debug for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Identity({}…)",
            crate::hex::encode(&self.fingerprint[..4])
        )
    }
}

impl Identity {
    /// Creates an identity from raw public identifier bytes.
    pub fn new(id: impl Into<Vec<u8>>) -> Self {
        let id = id.into();
        let fingerprint = Sha256::digest_chunks([b"fnp/identity/v1".as_slice(), &id]);
        Self { id, fingerprint }
    }

    /// Creates an identity deterministically from a simulator node index.
    pub fn from_node_index(index: usize) -> Self {
        Self::new(format!("fnp-node-{index}").into_bytes())
    }

    /// Returns the raw identifier bytes.
    pub fn id(&self) -> &[u8] {
        &self.id
    }

    /// Returns the SHA-256 fingerprint of the identifier.
    pub fn fingerprint(&self) -> &[u8; DIGEST_LEN] {
        &self.fingerprint
    }
}

/// The 256-bit XOR distance between a fingerprint and a message digest,
/// compared lexicographically (big-endian), i.e. a Kademlia-style metric.
///
/// Returned as a fixed array so distances of different identities for the
/// same message can be compared with the ordinary `Ord` on arrays.
pub fn hash_distance(
    fingerprint: &[u8; DIGEST_LEN],
    digest: &[u8; DIGEST_LEN],
) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for i in 0..DIGEST_LEN {
        out[i] = fingerprint[i] ^ digest[i];
    }
    out
}

/// Elects the initial virtual source for a message: the group member whose
/// identity fingerprint has minimal [`hash_distance`] to the message digest.
///
/// Ties (which require a fingerprint collision) are broken towards the
/// lexicographically smaller identity so that the election stays
/// deterministic. Returns `None` for an empty group.
///
/// Every group member evaluates this function over the same public inputs,
/// so the transition is verifiable and requires no additional messages —
/// the property the paper demands of the phase 1 → phase 2 hand-off.
pub fn elect_virtual_source<'a>(
    group: impl IntoIterator<Item = &'a Identity>,
    message_digest: &[u8; DIGEST_LEN],
) -> Option<&'a Identity> {
    group.into_iter().min_by(|a, b| {
        hash_distance(a.fingerprint(), message_digest)
            .cmp(&hash_distance(b.fingerprint(), message_digest))
            .then_with(|| a.cmp(b))
    })
}

/// Elects the virtual source by index into a slice of identities.
///
/// Convenience wrapper used by the protocol state machines, which track
/// group members by position.
pub fn elect_virtual_source_index(
    group: &[Identity],
    message_digest: &[u8; DIGEST_LEN],
) -> Option<usize> {
    let winner = elect_virtual_source(group.iter(), message_digest)?;
    group.iter().position(|candidate| candidate == winner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_fingerprint_is_stable() {
        let a = Identity::from_node_index(3);
        let b = Identity::from_node_index(3);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn distinct_nodes_have_distinct_fingerprints() {
        let ids: Vec<Identity> = (0..100).map(Identity::from_node_index).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i].fingerprint(), ids[j].fingerprint());
            }
        }
    }

    #[test]
    fn hash_distance_is_zero_iff_equal() {
        let a = Identity::from_node_index(1);
        let zero = hash_distance(a.fingerprint(), a.fingerprint());
        assert_eq!(zero, [0u8; DIGEST_LEN]);

        let b = Identity::from_node_index(2);
        assert_ne!(
            hash_distance(a.fingerprint(), b.fingerprint()),
            [0u8; DIGEST_LEN]
        );
    }

    #[test]
    fn hash_distance_is_symmetric() {
        let a = Identity::from_node_index(1);
        let b = Identity::from_node_index(2);
        assert_eq!(
            hash_distance(a.fingerprint(), b.fingerprint()),
            hash_distance(b.fingerprint(), a.fingerprint())
        );
    }

    #[test]
    fn election_is_deterministic_and_unanimous() {
        let group: Vec<Identity> = (0..10).map(Identity::from_node_index).collect();
        let digest = Sha256::digest(b"some transaction");
        let first = elect_virtual_source_index(&group, &digest).unwrap();
        // Any permutation of the group elects the same identity.
        let mut shuffled = group.clone();
        shuffled.rotate_left(3);
        let winner_identity = &group[first];
        let winner_in_shuffled = elect_virtual_source(shuffled.iter(), &digest).unwrap();
        assert_eq!(winner_identity, winner_in_shuffled);
    }

    #[test]
    fn election_depends_on_message() {
        let group: Vec<Identity> = (0..50).map(Identity::from_node_index).collect();
        let winners: std::collections::HashSet<usize> = (0..50)
            .map(|i| {
                let digest = Sha256::digest(format!("tx-{i}").as_bytes());
                elect_virtual_source_index(&group, &digest).unwrap()
            })
            .collect();
        // Different messages must elect several different members — with 50
        // messages over 50 members the probability of fewer than 5 distinct
        // winners is negligible.
        assert!(winners.len() >= 5, "winners: {winners:?}");
    }

    #[test]
    fn election_of_empty_group_is_none() {
        let digest = Sha256::digest(b"tx");
        assert!(elect_virtual_source(std::iter::empty(), &digest).is_none());
        assert!(elect_virtual_source_index(&[], &digest).is_none());
    }

    #[test]
    fn election_of_singleton_group_returns_it() {
        let group = vec![Identity::from_node_index(7)];
        let digest = Sha256::digest(b"tx");
        assert_eq!(elect_virtual_source_index(&group, &digest), Some(0));
    }

    #[test]
    fn election_winner_is_independent_of_sender() {
        // The rule uses only the message and the group — nothing about who
        // originated the message — which is the paper's privacy argument for
        // the transition. We model "different senders" as the same group and
        // message observed by different members: all compute the same winner.
        let group: Vec<Identity> = (0..8).map(Identity::from_node_index).collect();
        let digest = Sha256::digest(b"tx from whoever");
        let per_member: Vec<usize> = (0..group.len())
            .map(|_| elect_virtual_source_index(&group, &digest).unwrap())
            .collect();
        assert!(per_member.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn debug_output_is_short_fingerprint() {
        let id = Identity::from_node_index(0);
        let dbg = format!("{id:?}");
        assert!(dbg.starts_with("Identity("));
        assert!(dbg.len() < 24);
    }
}
