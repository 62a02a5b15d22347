//! Pad-based DC-net rounds over pre-established pairwise keys.
//!
//! The explicit construction of Fig. 4 ships fresh random shares in every
//! round, costing three full exchanges. Once the group members share
//! pairwise secrets — which the paper assumes anyway ("all nodes need to
//! share pairwise encrypted channels") — the classical Chaum construction
//! needs only **one** transmission per member per round: member *i*
//! publishes
//!
//! ```text
//! c_i = m_i ⊕ ⊕_{j ≠ i} PRG(key_{ij}, round)
//! ```
//!
//! and the XOR of all contributions cancels every pad (each `PRG(key_{ij})`
//! appears exactly twice) leaving `⊕_i m_i`. This module implements that
//! variant; the flexible broadcast protocol uses it for its phase 1 because
//! it reduces the per-round cost from `3·k·(k−1)` messages to `k·(k−1)`
//! (full mesh) while preserving the same anonymity set. Experiment E4
//! contrasts the two variants.
//!
//! A contribution needs the XOR of a member's `k − 1` pads, never a single
//! pad, and those pads share round and block counter and differ only in
//! key. [`KeyedParticipant`] therefore keeps its pairwise keys word-sliced
//! in batches of eight peers ([`PeerKeys`]) and
//! [`KeyedParticipant::contribute_in_place`] is "encode the slot, one kernel
//! call per batch": the peers are the SIMD lanes of one ChaCha20 pass
//! (consecutive blocks fill the lanes a short batch leaves free) and the
//! lanes are folded before anything is stored. On an AVX-512F build a pass
//! has sixteen lanes, so a batch of eight peers carries two consecutive
//! blocks per pass; the batch is still eight peers.

use crate::scratch::RoundScratch;
use crate::slot::{self, SlotOutcome};
use fnp_crypto::chacha20::PeerKeys;
use fnp_crypto::dh::{pairwise_pad_key, KeyPair, PublicKey};
use fnp_crypto::prg::xor_into;
use std::fmt;

/// Errors produced by the keyed DC-net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyedDcError {
    /// The group is too small for a meaningful round.
    GroupTooSmall {
        /// Number of members in the offending group.
        size: usize,
    },
    /// A member index is out of range.
    MemberOutOfRange {
        /// Offending index.
        index: usize,
        /// Group size.
        size: usize,
    },
    /// The payload does not fit in the slot.
    PayloadTooLarge(slot::PayloadTooLargeError),
    /// A contribution had the wrong length.
    WrongSlotLength {
        /// Received length.
        received: usize,
        /// Expected length.
        expected: usize,
    },
    /// A round was given a payload list whose length is not the group size.
    WrongPayloadCount {
        /// Number of payloads given.
        received: usize,
        /// Group size.
        expected: usize,
    },
    /// Not every member has contributed yet.
    MissingContributions {
        /// Number of contributions received so far.
        received: usize,
        /// Number of contributions required.
        expected: usize,
    },
}

impl fmt::Display for KeyedDcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyedDcError::GroupTooSmall { size } => {
                write!(
                    f,
                    "keyed dc-net group of size {size} is too small (need at least 2)"
                )
            }
            KeyedDcError::MemberOutOfRange { index, size } => {
                write!(f, "member index {index} outside group of size {size}")
            }
            KeyedDcError::PayloadTooLarge(inner) => write!(f, "{inner}"),
            KeyedDcError::WrongSlotLength { received, expected } => {
                write!(
                    f,
                    "contribution of {received} bytes, expected {expected} bytes"
                )
            }
            KeyedDcError::WrongPayloadCount { received, expected } => {
                write!(
                    f,
                    "{received} payloads given for a group of {expected} members"
                )
            }
            KeyedDcError::MissingContributions { received, expected } => {
                write!(f, "only {received} of {expected} contributions received")
            }
        }
    }
}

impl std::error::Error for KeyedDcError {}

impl From<slot::PayloadTooLargeError> for KeyedDcError {
    fn from(e: slot::PayloadTooLargeError) -> Self {
        KeyedDcError::PayloadTooLarge(e)
    }
}

/// One member of a keyed DC-net group.
///
/// Holds this member's index and the pairwise secret it shares with every
/// other member, word-sliced eight peers to a batch ([`PeerKeys`]). A pad is
/// derived from its key and the round number alone — there is no per-stream
/// position to advance, so producing a contribution takes `&self` and the
/// same participant can serve any round in any order.
///
/// Cloning copies the pairwise pad keys (a clone serves the same group
/// position). Because contributing only reads them, callers that need the
/// same participant in many places — the steady-state sessions run one
/// DC-net engine per in-flight transaction — share it behind an `Rc`
/// instead.
#[derive(Clone)]
pub struct KeyedParticipant {
    index: usize,
    size: usize,
    /// The other members in index order, eight to a batch: peer `p` is the
    /// `p`-th of them, or the `(p − 1)`-th past this member's own index.
    batches: Vec<PeerKeys>,
}

impl fmt::Debug for KeyedParticipant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedParticipant")
            .field("index", &self.index)
            .field("size", &self.size)
            .field("pads", &format_args!("<{} pairwise pads>", self.size - 1))
            .finish()
    }
}

impl KeyedParticipant {
    /// Creates participant `index` of a group whose members' public keys are
    /// `member_keys` (indexed by member), using `own_keys` as this member's
    /// key pair.
    ///
    /// # Errors
    ///
    /// Fails if the group has fewer than two members or `index` is out of
    /// range.
    pub fn new(
        index: usize,
        own_keys: &KeyPair,
        member_keys: &[PublicKey],
    ) -> Result<Self, KeyedDcError> {
        Self::from_pad_keys(
            index,
            member_keys.len(),
            member_keys
                .iter()
                .enumerate()
                .filter(|(peer, _)| *peer != index)
                .map(|(peer, public)| (peer, pairwise_pad_key(own_keys, public))),
        )
    }

    /// Creates participant `index` of a `size`-member group from pre-derived
    /// pairwise pad keys: one `(peer_index, key)` entry per *other* member,
    /// where `key` is what [`pairwise_pad_key`] derives for that pair.
    ///
    /// This is the path for harnesses that derive each pair's key once and
    /// hand it to both endpoints — it does no modular exponentiation and is
    /// behaviourally identical to [`KeyedParticipant::new`] given matching
    /// keys (the pads, and hence every contribution, are byte-identical).
    ///
    /// # Errors
    ///
    /// Fails if the group has fewer than two members, `index` is out of
    /// range, a peer index is out of range or refers to `index` itself, or
    /// the entries do not cover exactly the other `size − 1` members.
    pub fn from_pad_keys(
        index: usize,
        size: usize,
        pad_keys: impl IntoIterator<Item = (usize, [u8; 32])>,
    ) -> Result<Self, KeyedDcError> {
        if size < 2 {
            return Err(KeyedDcError::GroupTooSmall { size });
        }
        if index >= size {
            return Err(KeyedDcError::MemberOutOfRange { index, size });
        }
        let mut batches = vec![PeerKeys::default(); (size - 1).div_ceil(PeerKeys::LANES)];
        let mut received = 0;
        for (peer, key) in pad_keys {
            if peer >= size || peer == index {
                return Err(KeyedDcError::MemberOutOfRange { index: peer, size });
            }
            let slot = peer - usize::from(peer > index);
            let fresh = batches[slot / PeerKeys::LANES].set(slot % PeerKeys::LANES, &key);
            received += usize::from(fresh);
        }
        if received != size - 1 {
            return Err(KeyedDcError::MissingContributions {
                received,
                expected: size - 1,
            });
        }
        Ok(Self {
            index,
            size,
            batches,
        })
    }

    /// This member's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Group size.
    pub fn group_size(&self) -> usize {
        self.size
    }

    /// Produces this member's contribution for `round`.
    ///
    /// `payload` is the message to transmit (`None` to stay silent); the
    /// contribution is the framed slot XORed with the pads shared with every
    /// other member.
    ///
    /// # Errors
    ///
    /// Fails if the payload does not fit into `slot_len`.
    pub fn contribution(
        &self,
        round: u64,
        slot_len: usize,
        payload: Option<&[u8]>,
    ) -> Result<Vec<u8>, KeyedDcError> {
        let mut contribution = Vec::with_capacity(slot_len);
        self.contribute_into(round, slot_len, payload, &mut contribution)?;
        Ok(contribution)
    }

    /// Writes this member's contribution for `round` into `out`, resized
    /// to `slot_len` bytes.
    ///
    /// `Vec` form of [`KeyedParticipant::contribute_in_place`], and what a
    /// caller pooling its own buffers calls (`KeyedDcGroup`): once `out`
    /// carries `slot_len` bytes of capacity the call performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Fails if the payload does not fit into `slot_len`; `out` is left
    /// cleared in that case.
    pub fn contribute_into(
        &self,
        round: u64,
        slot_len: usize,
        payload: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<(), KeyedDcError> {
        out.resize(slot_len, 0);
        self.contribute_in_place(round, payload, out)
            .inspect_err(|_| out.clear())
    }

    /// Writes this member's contribution for `round` over the whole of
    /// `slot`, whatever it held: the framed payload (or zeros), then one
    /// [`PeerKeys::xor_round_pads_into`] call per batch of eight peers,
    /// which XORs in the sum of that batch's pads, folded across the peers
    /// before it is stored, so no pad is ever materialised. The DC-net
    /// contribute hot path; a round engine builds its shared contribution
    /// in place with it, without a buffer to copy from.
    ///
    /// # Errors
    ///
    /// Fails if the payload does not fit into the slot; `slot` is left as
    /// it was in that case.
    pub fn contribute_in_place(
        &self,
        round: u64,
        payload: Option<&[u8]>,
        slot: &mut [u8],
    ) -> Result<(), KeyedDcError> {
        match payload {
            Some(payload) => slot::encode_in_place(payload, slot)?,
            None => slot.fill(0),
        }
        for batch in &self.batches {
            batch.xor_round_pads_into(round, slot);
        }
        Ok(())
    }
}

/// Combines the contributions of all group members into the round outcome.
///
/// # Errors
///
/// Fails if fewer than two contributions are provided or they disagree in
/// length.
pub fn combine_contributions(contributions: &[Vec<u8>]) -> Result<SlotOutcome, KeyedDcError> {
    let mut combined = Vec::new();
    combine_contributions_into(contributions.iter().map(Vec::as_slice), &mut combined)
}

/// Combines borrowed contribution slices into the round outcome, using
/// `combined` as the XOR accumulator (cleared first, capacity reused).
///
/// Allocation-free core of [`combine_contributions`]: a caller that keeps
/// its contributions and the accumulator across rounds clones and
/// allocates nothing to combine a round (the recovered message itself is
/// the one exception, and only on message rounds).
///
/// # Errors
///
/// Fails if fewer than two contributions are provided or they disagree in
/// length.
pub fn combine_contributions_into<'a, I>(
    contributions: I,
    combined: &mut Vec<u8>,
) -> Result<SlotOutcome, KeyedDcError>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut iter = contributions.into_iter();
    let Some(first) = iter.next() else {
        return Err(KeyedDcError::MissingContributions {
            received: 0,
            expected: 2,
        });
    };
    let slot_len = first.len();
    combined.clear();
    combined.extend_from_slice(first);
    let mut received = 1usize;
    for contribution in iter {
        if contribution.len() != slot_len {
            return Err(KeyedDcError::WrongSlotLength {
                received: contribution.len(),
                expected: slot_len,
            });
        }
        xor_into(combined, contribution);
        received += 1;
    }
    if received < 2 {
        return Err(KeyedDcError::MissingContributions {
            received,
            expected: 2,
        });
    }
    Ok(slot::decode(combined))
}

/// A whole keyed DC-net group: key pairs, participants and round driving.
///
/// This is the convenience entry point used by examples, tests and the
/// in-memory experiments; the simulator-integrated protocol in `fnp-core`
/// runs one [`RoundEngine`](crate::round::RoundEngine) per member instead.
pub struct KeyedDcGroup {
    participants: Vec<KeyedParticipant>,
    slot_len: usize,
    /// Pool feeding `round_slots` and the combine accumulator, so that
    /// steady-state rounds run without heap allocation.
    scratch: RoundScratch,
    /// One pooled contribution buffer per member, kept across rounds.
    round_slots: Vec<Vec<u8>>,
}

impl fmt::Debug for KeyedDcGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedDcGroup")
            .field("size", &self.participants.len())
            .field("slot_len", &self.slot_len)
            .finish()
    }
}

/// Report of one keyed DC-net round, mirroring
/// [`crate::explicit::ExplicitRoundReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyedRoundReport {
    /// The outcome of the round (identical for every member).
    pub outcome: SlotOutcome,
    /// Point-to-point messages exchanged (full-mesh contribution exchange).
    pub messages_sent: u64,
    /// Bytes carried by those messages.
    pub bytes_sent: u64,
    /// Slot size used.
    pub slot_len: usize,
}

impl KeyedDcGroup {
    /// Creates a group of `size` members with freshly generated key pairs.
    ///
    /// # Errors
    ///
    /// Fails if `size < 2`.
    pub fn new<R: rand::Rng + ?Sized>(
        size: usize,
        slot_len: usize,
        rng: &mut R,
    ) -> Result<Self, KeyedDcError> {
        if size < 2 {
            return Err(KeyedDcError::GroupTooSmall { size });
        }
        let key_pairs: Vec<KeyPair> = (0..size).map(|_| KeyPair::generate(rng)).collect();
        let public_keys: Vec<PublicKey> = key_pairs.iter().map(|kp| kp.public_key()).collect();
        let participants = key_pairs
            .iter()
            .enumerate()
            .map(|(index, own)| KeyedParticipant::new(index, own, &public_keys))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            participants,
            slot_len,
            scratch: RoundScratch::new(),
            round_slots: Vec::new(),
        })
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.participants.len()
    }

    /// Slot length used by this group.
    pub fn slot_len(&self) -> usize {
        self.slot_len
    }

    /// Runs one round in memory. `payloads[i]` is member `i`'s message
    /// (`None` to stay silent).
    ///
    /// Message accounting assumes the full-mesh exchange the paper's setting
    /// implies: every member sends its contribution to every other member,
    /// i.e. `k·(k−1)` messages of `slot_len` bytes.
    ///
    /// Contribution buffers and the combine accumulator are pooled inside
    /// the group, so after the first round this path performs no heap
    /// allocation on silence and collision rounds (message rounds allocate
    /// exactly the recovered payload).
    ///
    /// # Errors
    ///
    /// Fails if the payload list length does not match the group size or a
    /// payload is too large.
    pub fn run_round(
        &mut self,
        round: u64,
        payloads: &[Option<Vec<u8>>],
    ) -> Result<KeyedRoundReport, KeyedDcError> {
        if payloads.len() != self.participants.len() {
            return Err(KeyedDcError::WrongPayloadCount {
                received: payloads.len(),
                expected: self.participants.len(),
            });
        }
        let slot_len = self.slot_len;
        while self.round_slots.len() < self.participants.len() {
            self.round_slots.push(self.scratch.checkout());
        }
        for ((participant, payload), slot_buf) in self
            .participants
            .iter()
            .zip(payloads.iter())
            .zip(self.round_slots.iter_mut())
        {
            participant.contribute_into(round, slot_len, payload.as_deref(), slot_buf)?;
        }
        let mut combined = self.scratch.checkout();
        let outcome =
            combine_contributions_into(self.round_slots.iter().map(Vec::as_slice), &mut combined);
        self.scratch.recycle(combined);
        let outcome = outcome?;
        let k = self.participants.len() as u64;
        Ok(KeyedRoundReport {
            outcome,
            messages_sent: k * (k - 1),
            bytes_sent: k * (k - 1) * slot_len as u64,
            slot_len,
        })
    }
}

/// Point-to-point messages per keyed round for a group of size `k` under
/// full-mesh contribution exchange.
pub fn expected_message_count(k: usize) -> u64 {
    if k < 2 {
        return 0;
    }
    (k as u64) * (k as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_crypto::prg::PadGenerator;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Member `index`'s pad keys in a `size`-member group, expanded from
    /// `seed`.
    fn random_pad_keys(index: usize, size: usize, seed: u64) -> Vec<(usize, [u8; 32])> {
        let mut r = rng(seed);
        (0..size)
            .filter(|&peer| peer != index)
            .map(|peer| {
                let mut key = [0u8; 32];
                rand::RngCore::fill_bytes(&mut r, &mut key);
                (peer, key)
            })
            .collect()
    }

    /// The contribution composed pad by pad: the framed slot XORed with
    /// [`PadGenerator::pad`] of every peer, one whole pad at a time.
    fn contribution_pad_by_pad(
        pad_keys: &[(usize, [u8; 32])],
        round: u64,
        slot_len: usize,
        payload: Option<&[u8]>,
    ) -> Vec<u8> {
        let mut expected = match payload {
            Some(payload) => slot::encode(payload, slot_len).unwrap(),
            None => slot::silence(slot_len),
        };
        for (_, key) in pad_keys {
            xor_into(&mut expected, &PadGenerator::new(*key).pad(round, slot_len));
        }
        expected
    }

    #[test]
    fn contributions_match_pad_by_pad_at_every_lane_tail() {
        // Last batches of 1, 2, 3, 4, 5, 7 and 8 peers, alone and behind
        // full batches; slots of no, one, several and a partial last block.
        for peers in [1usize, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33] {
            let (index, size) = (peers / 2, peers + 1);
            let pad_keys = random_pad_keys(index, size, 40 + peers as u64);
            let member =
                KeyedParticipant::from_pad_keys(index, size, pad_keys.iter().copied()).unwrap();
            let mut got = Vec::new();
            for slot_len in [0usize, 1, 63, 64, 300, 512, 513, 1100] {
                let payload = (slot_len >= 64).then_some(b"tx".as_slice());
                member
                    .contribute_into(7, slot_len, payload, &mut got)
                    .unwrap();
                assert_eq!(
                    got,
                    contribution_pad_by_pad(&pad_keys, 7, slot_len, payload),
                    "{peers} peers, slot of {slot_len} B"
                );
            }
        }
    }

    #[test]
    fn silent_round_is_silence() {
        let mut group = KeyedDcGroup::new(5, 64, &mut rng(1)).unwrap();
        let report = group.run_round(0, &vec![None; 5]).unwrap();
        assert_eq!(report.outcome, SlotOutcome::Silence);
        assert_eq!(report.messages_sent, 20);
    }

    #[test]
    fn single_sender_recovered() {
        let mut group = KeyedDcGroup::new(4, 128, &mut rng(2)).unwrap();
        let mut payloads = vec![None; 4];
        payloads[2] = Some(b"anonymous transaction".to_vec());
        let report = group.run_round(7, &payloads).unwrap();
        assert_eq!(
            report.outcome,
            SlotOutcome::Message(b"anonymous transaction".to_vec())
        );
        assert_eq!(report.messages_sent, expected_message_count(4));
        assert_eq!(report.bytes_sent, 12 * 128);
    }

    #[test]
    fn two_senders_collide() {
        let mut group = KeyedDcGroup::new(4, 64, &mut rng(3)).unwrap();
        let payloads = vec![Some(b"a".to_vec()), Some(b"b".to_vec()), None, None];
        let report = group.run_round(0, &payloads).unwrap();
        assert_eq!(report.outcome, SlotOutcome::Collision);
    }

    #[test]
    fn rounds_are_independent() {
        // The same group can run many rounds; pads differ per round so a
        // message sent in round 5 does not corrupt round 6.
        let mut group = KeyedDcGroup::new(3, 64, &mut rng(4)).unwrap();
        let mut payloads = vec![None; 3];
        payloads[0] = Some(b"round five".to_vec());
        assert_eq!(
            group.run_round(5, &payloads).unwrap().outcome,
            SlotOutcome::Message(b"round five".to_vec())
        );
        assert_eq!(
            group.run_round(6, &vec![None; 3]).unwrap().outcome,
            SlotOutcome::Silence
        );
    }

    #[test]
    fn group_too_small_rejected() {
        assert!(matches!(
            KeyedDcGroup::new(1, 64, &mut rng(5)),
            Err(KeyedDcError::GroupTooSmall { size: 1 })
        ));
    }

    #[test]
    fn payload_length_mismatch_rejected() {
        let mut group = KeyedDcGroup::new(3, 64, &mut rng(6)).unwrap();
        for (payloads, message) in [
            (2, "2 payloads given for a group of 3 members"),
            (4, "4 payloads given for a group of 3 members"),
        ] {
            let error = group.run_round(0, &vec![None; payloads]).unwrap_err();
            assert_eq!(
                error,
                KeyedDcError::WrongPayloadCount {
                    received: payloads,
                    expected: 3
                }
            );
            assert_eq!(error.to_string(), message);
        }
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut group = KeyedDcGroup::new(3, 32, &mut rng(7)).unwrap();
        let payloads = vec![Some(vec![0u8; 100]), None, None];
        assert!(matches!(
            group.run_round(0, &payloads),
            Err(KeyedDcError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn combine_requires_consistent_lengths() {
        let err = combine_contributions(&[vec![0u8; 8], vec![0u8; 9]]).unwrap_err();
        assert!(matches!(err, KeyedDcError::WrongSlotLength { .. }));
        let err = combine_contributions(&[vec![0u8; 8]]).unwrap_err();
        assert!(matches!(err, KeyedDcError::MissingContributions { .. }));
    }

    #[test]
    fn contributions_hide_the_sender() {
        // No single contribution decodes as the message: each is masked by
        // pads unknown to an outside observer.
        let group = KeyedDcGroup::new(5, 64, &mut rng(8)).unwrap();
        let message = b"hidden".to_vec();
        let mut payloads = vec![None; 5];
        payloads[1] = Some(message.clone());
        // Reach into the round manually to inspect contributions.
        let contributions: Vec<Vec<u8>> = group
            .participants
            .iter()
            .zip(payloads.iter())
            .map(|(p, m)| p.contribution(3, 64, m.as_deref()).unwrap())
            .collect();
        for contribution in &contributions {
            assert_ne!(
                slot::decode(contribution),
                SlotOutcome::Message(message.clone())
            );
        }
        assert_eq!(
            combine_contributions(&contributions).unwrap(),
            SlotOutcome::Message(message)
        );
    }

    #[test]
    fn contribute_into_matches_contribution_across_slot_lengths() {
        // One pooled buffer reused while the slot size grows and shrinks
        // must reproduce the allocating path byte for byte.
        let group = KeyedDcGroup::new(3, 64, &mut rng(12)).unwrap();
        let participant = &group.participants[0];
        let mut buf = Vec::new();
        for (round, slot_len) in [(0u64, 64usize), (1, 512), (2, 64), (3, 16)] {
            participant
                .contribute_into(round, slot_len, Some(b"msg"), &mut buf)
                .unwrap();
            assert_eq!(
                buf,
                participant
                    .contribution(round, slot_len, Some(b"msg"))
                    .unwrap(),
                "slot_len {slot_len}"
            );
        }
    }

    #[test]
    fn contribute_into_clears_the_buffer_on_oversized_payload() {
        let group = KeyedDcGroup::new(3, 32, &mut rng(13)).unwrap();
        let mut buf = b"stale".to_vec();
        let err = group.participants[0]
            .contribute_into(0, 32, Some(&[0u8; 100]), &mut buf)
            .unwrap_err();
        assert!(matches!(err, KeyedDcError::PayloadTooLarge(_)));
        assert!(buf.is_empty());
    }

    #[test]
    fn combine_contributions_into_matches_combine_contributions() {
        let group = KeyedDcGroup::new(4, 64, &mut rng(14)).unwrap();
        let mut payloads = vec![None; 4];
        payloads[0] = Some(b"borrowed".to_vec());
        let contributions: Vec<Vec<u8>> = group
            .participants
            .iter()
            .zip(payloads.iter())
            .map(|(p, m)| p.contribution(9, 64, m.as_deref()).unwrap())
            .collect();
        let mut accumulator = b"dirty accumulator".to_vec();
        assert_eq!(
            combine_contributions_into(contributions.iter().map(Vec::as_slice), &mut accumulator)
                .unwrap(),
            combine_contributions(&contributions).unwrap()
        );
        assert_eq!(
            combine_contributions_into(std::iter::empty(), &mut accumulator).unwrap_err(),
            KeyedDcError::MissingContributions {
                received: 0,
                expected: 2
            }
        );
    }

    #[test]
    fn keyed_is_cheaper_than_explicit() {
        for k in 2..=16 {
            assert!(
                expected_message_count(k) < crate::explicit::expected_message_count(k).max(1)
                    || k < 2
            );
            assert_eq!(
                crate::explicit::expected_message_count(k),
                3 * expected_message_count(k)
            );
        }
    }

    #[test]
    fn from_pad_keys_matches_fresh_derivation() {
        let mut r = rng(9);
        let key_pairs: Vec<KeyPair> = (0..4).map(|_| KeyPair::generate(&mut r)).collect();
        let publics: Vec<PublicKey> = key_pairs.iter().map(KeyPair::public_key).collect();
        let derived: Vec<(usize, [u8; 32])> = publics
            .iter()
            .enumerate()
            .filter(|(peer, _)| *peer != 1)
            .map(|(peer, public)| (peer, pairwise_pad_key(&key_pairs[1], public)))
            .collect();

        let fresh = KeyedParticipant::new(1, &key_pairs[1], &publics).unwrap();
        let cached = KeyedParticipant::from_pad_keys(1, 4, derived).unwrap();
        assert_eq!(cached.index(), 1);
        assert_eq!(cached.group_size(), 4);
        for round in [0, 7, u64::MAX] {
            assert_eq!(
                fresh.contribution(round, 64, Some(b"tx")).unwrap(),
                cached.contribution(round, 64, Some(b"tx")).unwrap(),
                "round {round} contributions diverge"
            );
        }
    }

    #[test]
    fn from_pad_keys_validates_the_peer_set() {
        let key = [7u8; 32];
        assert!(matches!(
            KeyedParticipant::from_pad_keys(0, 1, []),
            Err(KeyedDcError::GroupTooSmall { size: 1 })
        ));
        assert!(matches!(
            KeyedParticipant::from_pad_keys(3, 3, [(0, key), (1, key)]),
            Err(KeyedDcError::MemberOutOfRange { index: 3, size: 3 })
        ));
        // A peer index outside the group, or referring to the member itself.
        assert!(matches!(
            KeyedParticipant::from_pad_keys(0, 3, [(1, key), (5, key)]),
            Err(KeyedDcError::MemberOutOfRange { index: 5, size: 3 })
        ));
        assert!(matches!(
            KeyedParticipant::from_pad_keys(0, 3, [(0, key), (1, key)]),
            Err(KeyedDcError::MemberOutOfRange { index: 0, size: 3 })
        ));
        // Too few (and, via duplicates, effectively missing) peers.
        assert!(matches!(
            KeyedParticipant::from_pad_keys(0, 4, [(1, key)]),
            Err(KeyedDcError::MissingContributions {
                received: 1,
                expected: 3
            })
        ));
        assert!(matches!(
            KeyedParticipant::from_pad_keys(1, 3, [(2, key), (2, key)]),
            Err(KeyedDcError::MissingContributions {
                received: 1,
                expected: 2
            })
        ));
        // A repeated peer whose set is otherwise complete keeps the last key.
        let repeated = [(0, key), (2, [8u8; 32]), (2, [9u8; 32])];
        assert_eq!(
            KeyedParticipant::from_pad_keys(1, 3, repeated)
                .unwrap()
                .contribution(4, 64, None)
                .unwrap(),
            contribution_pad_by_pad(&[(0, key), (2, [9u8; 32])], 4, 64, None)
        );
    }

    #[test]
    fn error_display_strings() {
        for error in [
            KeyedDcError::GroupTooSmall { size: 0 },
            KeyedDcError::MemberOutOfRange { index: 4, size: 2 },
            KeyedDcError::WrongSlotLength {
                received: 1,
                expected: 2,
            },
            KeyedDcError::WrongPayloadCount {
                received: 7,
                expected: 5,
            },
            KeyedDcError::MissingContributions {
                received: 1,
                expected: 3,
            },
        ] {
            assert!(!error.to_string().is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_single_sender_any_round(
            size in 2usize..8,
            sender in 0usize..8,
            round in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..48),
            seed in any::<u64>(),
        ) {
            let sender = sender % size;
            let mut group = KeyedDcGroup::new(size, 64, &mut rng(seed)).unwrap();
            let mut payloads = vec![None; size];
            payloads[sender] = Some(payload.clone());
            let report = group.run_round(round, &payloads).unwrap();
            prop_assert_eq!(report.outcome, SlotOutcome::Message(payload));
        }

        /// The batched multi-key path is byte-identical to the pad-by-pad
        /// composition for any group size, position, slot length and round,
        /// whatever order the keys arrive in.
        #[test]
        fn prop_contribute_into_matches_pad_by_pad(
            peers in 1usize..=40,
            index in any::<usize>(),
            slot_len in 0usize..=1100,
            round in any::<u64>(),
            seed in any::<u64>(),
        ) {
            let size = peers + 1;
            let index = index % size;
            let mut pad_keys = random_pad_keys(index, size, seed);
            let member =
                KeyedParticipant::from_pad_keys(index, size, pad_keys.iter().rev().copied())
                    .unwrap();
            let payload = (slot_len >= 16).then_some(b"payload".as_slice());
            let mut got = b"stale".to_vec();
            member.contribute_into(round, slot_len, payload, &mut got).unwrap();
            pad_keys.rotate_left(peers / 3);
            prop_assert_eq!(got, contribution_pad_by_pad(&pad_keys, round, slot_len, payload));
        }
    }
}
