//! The explicit share-splitting DC-net round of the paper's Fig. 4.
//!
//! Every group member executes the same nine steps:
//!
//! 1. split its message (or the all-zero slot) into one random share per
//!    *other* member, XORing to the message;
//! 2. send share `r_i` to member `g_i`;
//! 3. collect the shares `s_i` the others sent;
//! 4. compute `S = ⊕ s_i`;
//! 5. send `S ⊕ s_i` back to `g_i`;
//! 6. collect those accumulations as `t_i`;
//! 7. compute `T = ⊕ t_i`;
//! 8. send `T ⊕ t_i` to `g_i` (a mutual exchange of the accumulated totals
//!    that lets members audit the round after the fact);
//! 9. recover the round result as `m = T ⊕ S`.
//!
//! If nobody sent, `T ⊕ S` is the all-zero slot; if exactly one member sent,
//! every *other* member recovers that member's framed message (the sender
//! recovers zero and already knows its own message); if several members
//! sent, the CRC of the framed slot fails and the round is reported as a
//! collision (see [`crate::slot`]).
//!
//! Each member transmits `3·(k−1)` point-to-point messages for a group of
//! size `k`, i.e. `3·k·(k−1)` messages per round in total — the O(k²) cost
//! the paper discusses in §V-A and that experiment E4 measures.

use crate::slot::{self, SlotOutcome};
use fnp_crypto::prg::{xor, xor_into};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced while driving an explicit DC-net round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplicitRoundError {
    /// The group is too small for a meaningful round.
    GroupTooSmall {
        /// Number of members in the offending group.
        size: usize,
    },
    /// The member index is outside the group.
    MemberOutOfRange {
        /// Offending index.
        index: usize,
        /// Group size.
        size: usize,
    },
    /// The payload does not fit into the configured slot.
    PayloadTooLarge(slot::PayloadTooLargeError),
    /// A message arrived from an unexpected member or out of phase.
    UnexpectedMessage {
        /// Sender of the unexpected message.
        from: usize,
        /// Phase the participant was in.
        phase: Phase,
    },
    /// A received blob has the wrong length for this round's slot size.
    WrongSlotLength {
        /// Received length.
        received: usize,
        /// Expected slot length.
        expected: usize,
    },
}

impl fmt::Display for ExplicitRoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplicitRoundError::GroupTooSmall { size } => {
                write!(
                    f,
                    "dc-net group of size {size} is too small (need at least 2)"
                )
            }
            ExplicitRoundError::MemberOutOfRange { index, size } => {
                write!(f, "member index {index} outside group of size {size}")
            }
            ExplicitRoundError::PayloadTooLarge(inner) => write!(f, "{inner}"),
            ExplicitRoundError::UnexpectedMessage { from, phase } => {
                write!(
                    f,
                    "unexpected message from member {from} in phase {phase:?}"
                )
            }
            ExplicitRoundError::WrongSlotLength { received, expected } => {
                write!(
                    f,
                    "received blob of {received} bytes, expected slot of {expected} bytes"
                )
            }
        }
    }
}

impl std::error::Error for ExplicitRoundError {}

impl From<slot::PayloadTooLargeError> for ExplicitRoundError {
    fn from(e: slot::PayloadTooLargeError) -> Self {
        ExplicitRoundError::PayloadTooLarge(e)
    }
}

/// Protocol phase of an [`ExplicitParticipant`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for the shares of step 3.
    Sharing,
    /// Waiting for the accumulations of step 6.
    Accumulating,
    /// Waiting for the final exchange of step 8 (the outcome is already
    /// computable in this phase).
    Finalizing,
    /// All messages of the round have been processed.
    Done,
}

/// One group member's state machine for a single explicit DC-net round.
#[derive(Debug, Clone)]
pub struct ExplicitParticipant {
    index: usize,
    size: usize,
    slot_len: usize,
    phase: Phase,
    sent_payload: bool,
    own_slot: Vec<u8>,
    /// Shares generated in step 1, indexed by recipient.
    outgoing_shares: BTreeMap<usize, Vec<u8>>,
    /// Shares received in step 3, indexed by sender.
    received_shares: BTreeMap<usize, Vec<u8>>,
    s_value: Option<Vec<u8>>,
    /// Accumulations received in step 6, indexed by sender.
    received_accumulations: BTreeMap<usize, Vec<u8>>,
    t_value: Option<Vec<u8>>,
    /// Final exchange values received in step 8, indexed by sender.
    received_finals: BTreeMap<usize, Vec<u8>>,
}

impl ExplicitParticipant {
    /// Creates the participant with index `index` in a group of `size`
    /// members, optionally carrying `payload` this round.
    ///
    /// # Errors
    ///
    /// Fails if the group has fewer than two members, the index is out of
    /// range, or the payload does not fit into `slot_len`.
    pub fn new<R: Rng + ?Sized>(
        index: usize,
        size: usize,
        slot_len: usize,
        payload: Option<&[u8]>,
        rng: &mut R,
    ) -> Result<Self, ExplicitRoundError> {
        if size < 2 {
            return Err(ExplicitRoundError::GroupTooSmall { size });
        }
        if index >= size {
            return Err(ExplicitRoundError::MemberOutOfRange { index, size });
        }
        let own_slot = match payload {
            Some(payload) => slot::encode(payload, slot_len)?,
            None => slot::silence(slot_len),
        };
        // Step 1: one share per *other* member, XORing to the slot, as
        // `fnp_crypto::prg::random_shares` splits it: the first `size − 2`
        // shares are uniform, the last is the accumulator.
        let mut accumulator = own_slot.clone();
        let mut shares: Vec<Vec<u8>> = Vec::with_capacity(size - 1);
        for _ in 0..size - 2 {
            let mut share = vec![0u8; own_slot.len()];
            rng.fill(share.as_mut_slice());
            xor_into(&mut accumulator, &share);
            shares.push(share);
        }
        shares.push(accumulator);
        let outgoing_shares: BTreeMap<usize, Vec<u8>> = (0..size)
            .filter(|&peer| peer != index)
            .zip(shares)
            .collect();
        Ok(Self {
            index,
            size,
            slot_len,
            phase: Phase::Sharing,
            sent_payload: payload.is_some(),
            own_slot,
            outgoing_shares,
            received_shares: BTreeMap::new(),
            s_value: None,
            received_accumulations: BTreeMap::new(),
            t_value: None,
            received_finals: BTreeMap::new(),
        })
    }

    /// This member's index within the group.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Group size.
    pub fn group_size(&self) -> usize {
        self.size
    }

    /// Current protocol phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Step 2: the shares to send, one per other member.
    pub fn share_messages(&self) -> Vec<(usize, Vec<u8>)> {
        self.outgoing_shares
            .iter()
            .map(|(&peer, share)| (peer, share.clone()))
            .collect()
    }

    fn check_peer(&self, from: usize) -> Result<(), ExplicitRoundError> {
        if from >= self.size || from == self.index {
            return Err(ExplicitRoundError::MemberOutOfRange {
                index: from,
                size: self.size,
            });
        }
        Ok(())
    }

    fn check_len(&self, blob: &[u8]) -> Result<(), ExplicitRoundError> {
        if blob.len() != self.slot_len {
            return Err(ExplicitRoundError::WrongSlotLength {
                received: blob.len(),
                expected: self.slot_len,
            });
        }
        Ok(())
    }

    /// Step 3: absorbs the share another member sent to us.
    pub fn receive_share(&mut self, from: usize, share: Vec<u8>) -> Result<(), ExplicitRoundError> {
        self.check_peer(from)?;
        self.check_len(&share)?;
        if self.phase != Phase::Sharing || self.received_shares.contains_key(&from) {
            return Err(ExplicitRoundError::UnexpectedMessage {
                from,
                phase: self.phase,
            });
        }
        self.received_shares.insert(from, share);
        if self.received_shares.len() == self.size - 1 {
            // Step 4.
            let mut s = vec![0u8; self.slot_len];
            for share in self.received_shares.values() {
                xor_into(&mut s, share);
            }
            self.s_value = Some(s);
            self.phase = Phase::Accumulating;
        }
        Ok(())
    }

    /// Step 5: the accumulation messages `S ⊕ s_i`, available once all
    /// shares have arrived.
    pub fn accumulation_messages(&self) -> Option<Vec<(usize, Vec<u8>)>> {
        let s = self.s_value.as_ref()?;
        Some(
            self.received_shares
                .iter()
                .map(|(&peer, share)| (peer, xor(s, share)))
                .collect(),
        )
    }

    /// Step 6: absorbs an accumulation from another member.
    pub fn receive_accumulation(
        &mut self,
        from: usize,
        accumulation: Vec<u8>,
    ) -> Result<(), ExplicitRoundError> {
        self.check_peer(from)?;
        self.check_len(&accumulation)?;
        if self.phase != Phase::Accumulating || self.received_accumulations.contains_key(&from) {
            return Err(ExplicitRoundError::UnexpectedMessage {
                from,
                phase: self.phase,
            });
        }
        self.received_accumulations.insert(from, accumulation);
        if self.received_accumulations.len() == self.size - 1 {
            // Step 7.
            let mut t = vec![0u8; self.slot_len];
            for accumulation in self.received_accumulations.values() {
                xor_into(&mut t, accumulation);
            }
            self.t_value = Some(t);
            self.phase = Phase::Finalizing;
        }
        Ok(())
    }

    /// Absorbs a final-exchange value (step 8 at the receiving side).
    pub fn receive_final(&mut self, from: usize, value: Vec<u8>) -> Result<(), ExplicitRoundError> {
        self.check_peer(from)?;
        self.check_len(&value)?;
        if self.phase != Phase::Finalizing || self.received_finals.contains_key(&from) {
            return Err(ExplicitRoundError::UnexpectedMessage {
                from,
                phase: self.phase,
            });
        }
        self.received_finals.insert(from, value);
        if self.received_finals.len() == self.size - 1 {
            self.phase = Phase::Done;
        }
        Ok(())
    }

    /// Step 9: the round outcome `decode(T ⊕ S)`, available from the moment
    /// all accumulations have been received (phase `Finalizing` or `Done`).
    ///
    /// A member that transmitted this round recovers its own payload (for it,
    /// `T ⊕ S` cancels to zero, so it reports its own message instead, as the
    /// paper prescribes).
    pub fn outcome(&self) -> Option<SlotOutcome> {
        let s = self.s_value.as_ref()?;
        let t = self.t_value.as_ref()?;
        let recovered = xor(t, s);
        if self.sent_payload {
            // The sender's own view cancels its message out; it already knows
            // what it sent.
            return Some(slot::decode(&self.own_slot));
        }
        Some(slot::decode(&recovered))
    }
}

/// Aggregate report of one in-memory explicit DC-net round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplicitRoundReport {
    /// Outcome observed by each member, indexed by member.
    pub outcomes: Vec<SlotOutcome>,
    /// Total point-to-point messages exchanged.
    pub messages_sent: u64,
    /// Total bytes carried by those messages.
    pub bytes_sent: u64,
    /// Slot size used for the round.
    pub slot_len: usize,
}

/// Runs a complete explicit DC-net round in memory.
///
/// `payloads[i]` is the payload member `i` wants to transmit this round
/// (`None` for silent members). Returns the outcome as seen by every member
/// together with the exact message and byte counts of the round, which is
/// what experiment E4 reports.
///
/// # Errors
///
/// Fails if the group is smaller than two members or a payload exceeds the
/// slot capacity.
pub fn run_explicit_round<R: Rng + ?Sized>(
    payloads: &[Option<Vec<u8>>],
    slot_len: usize,
    rng: &mut R,
) -> Result<ExplicitRoundReport, ExplicitRoundError> {
    let size = payloads.len();
    let mut members: Vec<ExplicitParticipant> = Vec::with_capacity(size);
    for (index, payload) in payloads.iter().enumerate() {
        members.push(ExplicitParticipant::new(
            index,
            size,
            slot_len,
            payload.as_deref(),
            rng,
        )?);
    }

    let mut messages_sent = 0u64;
    let mut bytes_sent = 0u64;

    // One flat delivery list reused for all three exchanges; the recipients
    // keep the messages they are sent.
    let mut deliveries: Vec<(usize, usize, Vec<u8>)> =
        Vec::with_capacity(size.saturating_sub(1) * size);

    // Step 2 → 3.
    for member in &members {
        for (to, share) in member.share_messages() {
            deliveries.push((member.index, to, share));
        }
    }
    for (sender, recipient, share) in deliveries.drain(..) {
        messages_sent += 1;
        bytes_sent += share.len() as u64;
        members[recipient].receive_share(sender, share)?;
    }

    // Step 5 → 6.
    for member in &members {
        let accumulations = member
            .accumulation_messages()
            .expect("all shares delivered");
        for (to, accumulation) in accumulations {
            deliveries.push((member.index, to, accumulation));
        }
    }
    for (sender, recipient, accumulation) in deliveries.drain(..) {
        messages_sent += 1;
        bytes_sent += accumulation.len() as u64;
        members[recipient].receive_accumulation(sender, accumulation)?;
    }

    // Step 8.
    for member in &members {
        let t = member
            .t_value
            .as_ref()
            .expect("all accumulations delivered");
        for (&recipient, accumulation) in &member.received_accumulations {
            deliveries.push((member.index, recipient, xor(t, accumulation)));
        }
    }
    for (sender, recipient, value) in deliveries.drain(..) {
        messages_sent += 1;
        bytes_sent += value.len() as u64;
        members[recipient].receive_final(sender, value)?;
    }

    let outcomes = members
        .iter()
        .map(|m| m.outcome().expect("round completed"))
        .collect();
    Ok(ExplicitRoundReport {
        outcomes,
        messages_sent,
        bytes_sent,
        slot_len,
    })
}

/// The number of point-to-point messages an explicit round of group size
/// `k` costs: every member sends three batches of `k − 1` messages.
pub fn expected_message_count(k: usize) -> u64 {
    if k < 2 {
        return 0;
    }
    3 * (k as u64) * (k as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn silent_round_yields_silence_for_everyone() {
        let payloads = vec![None; 5];
        let report = run_explicit_round(&payloads, 64, &mut rng(1)).unwrap();
        assert!(report.outcomes.iter().all(|o| *o == SlotOutcome::Silence));
        assert_eq!(report.messages_sent, expected_message_count(5));
    }

    #[test]
    fn single_sender_is_recovered_by_all() {
        let message = b"pay 3 tokens to dave".to_vec();
        let mut payloads = vec![None; 6];
        payloads[2] = Some(message.clone());
        let report = run_explicit_round(&payloads, 128, &mut rng(2)).unwrap();
        for outcome in &report.outcomes {
            assert_eq!(*outcome, SlotOutcome::Message(message.clone()));
        }
        assert_eq!(report.messages_sent, expected_message_count(6));
        assert_eq!(report.bytes_sent, expected_message_count(6) * 128);
    }

    #[test]
    fn two_senders_collide() {
        let mut payloads = vec![None; 5];
        payloads[0] = Some(b"first".to_vec());
        payloads[3] = Some(b"second".to_vec());
        let report = run_explicit_round(&payloads, 64, &mut rng(3)).unwrap();
        // All silent members detect the collision; the two senders each see
        // their own message (they cannot tell yet that it was destroyed —
        // they learn that from the absence of propagation / a repeat round).
        for (index, outcome) in report.outcomes.iter().enumerate() {
            match index {
                0 => assert_eq!(*outcome, SlotOutcome::Message(b"first".to_vec())),
                3 => assert_eq!(*outcome, SlotOutcome::Message(b"second".to_vec())),
                _ => assert_eq!(*outcome, SlotOutcome::Collision),
            }
        }
    }

    #[test]
    fn minimum_group_of_two_works() {
        let payloads = vec![Some(b"hi".to_vec()), None];
        let report = run_explicit_round(&payloads, 32, &mut rng(4)).unwrap();
        assert_eq!(report.outcomes[1], SlotOutcome::Message(b"hi".to_vec()));
        assert_eq!(report.messages_sent, expected_message_count(2));
    }

    #[test]
    fn group_of_one_is_rejected() {
        let result = run_explicit_round(&[Some(b"hi".to_vec())], 32, &mut rng(5));
        assert!(matches!(
            result,
            Err(ExplicitRoundError::GroupTooSmall { size: 1 })
        ));
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let payloads = vec![Some(vec![0u8; 100]), None, None];
        let result = run_explicit_round(&payloads, 64, &mut rng(6));
        assert!(matches!(
            result,
            Err(ExplicitRoundError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn message_count_grows_quadratically() {
        // The k² shape of §V-A / experiment E4.
        let mut previous = 0;
        for k in 2..=12 {
            let payloads = vec![None; k];
            let report = run_explicit_round(&payloads, 32, &mut rng(7)).unwrap();
            assert_eq!(report.messages_sent, expected_message_count(k));
            assert!(report.messages_sent > previous);
            previous = report.messages_sent;
        }
        assert_eq!(expected_message_count(10), 270);
        assert_eq!(expected_message_count(1), 0);
    }

    #[test]
    fn participant_rejects_out_of_phase_messages() {
        let mut rng = rng(8);
        let mut p = ExplicitParticipant::new(0, 3, 32, None, &mut rng).unwrap();
        // Accumulation before shares are complete is out of phase.
        let err = p.receive_accumulation(1, vec![0u8; 32]).unwrap_err();
        assert!(matches!(err, ExplicitRoundError::UnexpectedMessage { .. }));
        // Duplicate share.
        p.receive_share(1, vec![0u8; 32]).unwrap();
        let err = p.receive_share(1, vec![0u8; 32]).unwrap_err();
        assert!(matches!(err, ExplicitRoundError::UnexpectedMessage { .. }));
        // Wrong slot length.
        let err = p.receive_share(2, vec![0u8; 31]).unwrap_err();
        assert!(matches!(err, ExplicitRoundError::WrongSlotLength { .. }));
        // Self and out-of-range senders.
        assert!(p.receive_share(0, vec![0u8; 32]).is_err());
        assert!(p.receive_share(9, vec![0u8; 32]).is_err());
    }

    #[test]
    fn phases_progress_in_order() {
        let mut rng = rng(9);
        let mut p = ExplicitParticipant::new(0, 2, 32, None, &mut rng).unwrap();
        assert_eq!(p.phase(), Phase::Sharing);
        assert!(p.accumulation_messages().is_none());
        assert!(p.outcome().is_none());

        p.receive_share(1, vec![0u8; 32]).unwrap();
        assert_eq!(p.phase(), Phase::Accumulating);
        assert!(p.accumulation_messages().is_some());

        p.receive_accumulation(1, vec![0u8; 32]).unwrap();
        assert_eq!(p.phase(), Phase::Finalizing);
        assert!(p.outcome().is_some());

        p.receive_final(1, vec![0u8; 32]).unwrap();
        assert_eq!(p.phase(), Phase::Done);
    }

    #[test]
    fn sender_flag_and_reveals_are_exposed() {
        let mut rng = rng(10);
        let p = ExplicitParticipant::new(1, 4, 64, Some(b"msg"), &mut rng).unwrap();
        assert!(p.sent_payload);
        assert_eq!(p.group_size(), 4);
        assert_eq!(p.index(), 1);
        // One share per other member, and together they reveal the slot.
        let shares = p.share_messages();
        assert_eq!(
            shares.iter().map(|(peer, _)| *peer).collect::<Vec<_>>(),
            [0, 2, 3]
        );
        let mut slot_bytes = vec![0u8; 64];
        for (_, share) in &shares {
            xor_into(&mut slot_bytes, share);
        }
        assert_eq!(
            slot::decode(&slot_bytes),
            SlotOutcome::Message(b"msg".to_vec())
        );
    }

    #[test]
    fn error_display_strings() {
        let errors: Vec<ExplicitRoundError> = vec![
            ExplicitRoundError::GroupTooSmall { size: 1 },
            ExplicitRoundError::MemberOutOfRange { index: 9, size: 3 },
            ExplicitRoundError::UnexpectedMessage {
                from: 2,
                phase: Phase::Sharing,
            },
            ExplicitRoundError::WrongSlotLength {
                received: 3,
                expected: 64,
            },
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// For any group size and any single sender, every silent member
        /// recovers exactly the transmitted payload.
        #[test]
        fn prop_single_sender_always_recovered(
            size in 2usize..9,
            sender in 0usize..9,
            payload in proptest::collection::vec(any::<u8>(), 0..50),
            seed in any::<u64>(),
        ) {
            let sender = sender % size;
            let mut payloads = vec![None; size];
            payloads[sender] = Some(payload.clone());
            let report = run_explicit_round(&payloads, 64, &mut rng(seed)).unwrap();
            for (index, outcome) in report.outcomes.iter().enumerate() {
                if index != sender {
                    prop_assert_eq!(outcome, &SlotOutcome::Message(payload.clone()));
                }
            }
        }

        /// Collisions never decode as a clean message at silent members.
        #[test]
        fn prop_multiple_senders_never_leak_a_clean_message(
            size in 3usize..8,
            seed in any::<u64>(),
            payload_a in proptest::collection::vec(any::<u8>(), 1..40),
            payload_b in proptest::collection::vec(any::<u8>(), 1..40),
        ) {
            prop_assume!(payload_a != payload_b);
            let mut payloads = vec![None; size];
            payloads[0] = Some(payload_a);
            payloads[1] = Some(payload_b);
            let report = run_explicit_round(&payloads, 64, &mut rng(seed)).unwrap();
            for outcome in report.outcomes.iter().skip(2) {
                prop_assert_eq!(outcome, &SlotOutcome::Collision);
            }
        }
    }
}
