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
//! [`run_explicit_round`] computes these steps for the whole group at once.
//! Step 8 is counted but not built: no outcome reads the audit exchange.
//!
//! If nobody sent, `T ⊕ S` is the all-zero slot; if exactly one member sent,
//! every *other* member recovers that member's framed message (the sender
//! recovers zero and already knows its own message); if two or more members
//! sent, the check trailer of the framed slot fails and the round is
//! reported as a collision (see [`crate::slot`]).
//!
//! Each member transmits `3·(k−1)` point-to-point messages for a group of
//! size `k`, i.e. `3·k·(k−1)` messages per round in total — the O(k²) cost
//! the paper discusses in §V-A and that experiment E4 measures.

use crate::slot::{self, SlotOutcome};
use fnp_crypto::prg::{combine_shares, random_shares, xor};
use rand::Rng;
use std::fmt;

/// Errors produced by an explicit DC-net round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplicitRoundError {
    /// The group is too small for a meaningful round.
    GroupTooSmall {
        /// Number of members in the offending group.
        size: usize,
    },
    /// The payload does not fit into the configured slot.
    PayloadTooLarge(slot::PayloadTooLargeError),
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
            ExplicitRoundError::PayloadTooLarge(inner) => write!(f, "{inner}"),
        }
    }
}

impl std::error::Error for ExplicitRoundError {}

impl From<slot::PayloadTooLargeError> for ExplicitRoundError {
    fn from(e: slot::PayloadTooLargeError) -> Self {
        ExplicitRoundError::PayloadTooLarge(e)
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
/// what experiment E4 reports. Members draw their step-1 shares from `rng`
/// in index order.
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
    if size < 2 {
        return Err(ExplicitRoundError::GroupTooSmall { size });
    }
    let peers = |member: usize| (0..size).filter(move |&peer| peer != member);

    // Step 1: member i frames its slot and splits it into shares; `r[i][j]`
    // is the share it sends member j in step 2 (`r[i][i]` stays empty).
    let mut slots = Vec::with_capacity(size);
    let mut r: Vec<Vec<Vec<u8>>> = Vec::with_capacity(size);
    for (member, payload) in payloads.iter().enumerate() {
        let framed = match payload {
            Some(payload) => slot::encode(payload, slot_len)?,
            None => slot::silence(slot_len),
        };
        let mut shares = random_shares(rng, &framed, size - 1);
        shares.insert(member, Vec::new());
        r.push(shares);
        slots.push(framed);
    }

    // Steps 3–4: member j combines the shares it received into S_j.
    let s: Vec<Vec<u8>> = (0..size)
        .map(|j| combine_shares(peers(j).map(|i| r[i][j].as_slice())))
        .collect();

    // Steps 5–7: member j returns S_j ⊕ r_ij to each sender i, and member i
    // combines the accumulations it gets back into T_i.
    let t: Vec<Vec<u8>> = (0..size)
        .map(|i| {
            let accumulations: Vec<Vec<u8>> = peers(i).map(|j| xor(&s[j], &r[i][j])).collect();
            combine_shares(accumulations.iter().map(Vec::as_slice))
        })
        .collect();

    // Step 9: T_i ⊕ S_i is the XOR of every slot but member i's own, so a
    // sender reports the payload it sent instead.
    let outcomes = (0..size)
        .map(|i| match payloads[i] {
            Some(_) => slot::decode(&slots[i]),
            None => slot::decode(&xor(&t[i], &s[i])),
        })
        .collect();

    // Steps 2, 5 and 8 each send one slot-sized message per ordered pair.
    let messages_sent = expected_message_count(size);
    Ok(ExplicitRoundReport {
        outcomes,
        messages_sent,
        bytes_sent: messages_sent * slot_len as u64,
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
    use fnp_crypto::prg::xor_into;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
        assert!(matches!(
            run_explicit_round(&[], 32, &mut rng(5)),
            Err(ExplicitRoundError::GroupTooSmall { size: 0 })
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
    fn error_display_strings() {
        let errors: Vec<ExplicitRoundError> = vec![
            ExplicitRoundError::GroupTooSmall { size: 1 },
            slot::PayloadTooLargeError {
                payload_len: 100,
                capacity: 56,
            }
            .into(),
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
    }

    /// Payload `i` of the known-answer and property tests.
    fn tx(member: usize) -> Vec<u8> {
        format!("tx from {member}").into_bytes()
    }

    /// Runs one round of `k` members in which exactly `senders` transmit,
    /// returning its report and the next `u64` of the caller's rng.
    fn known_answer(
        k: usize,
        slot_len: usize,
        seed: u64,
        senders: &[usize],
    ) -> (ExplicitRoundReport, u64) {
        let payloads: Vec<Option<Vec<u8>>> = (0..k)
            .map(|member| senders.contains(&member).then(|| tx(member)))
            .collect();
        let mut rng = rng(seed);
        let report = run_explicit_round(&payloads, slot_len, &mut rng).unwrap();
        (report, rng.next_u64())
    }

    // The known answers below were recorded from the per-member state
    // machines this round replaced; the rng position pins that step 1
    // draws exactly the shares they drew, in the same order.

    #[test]
    fn known_answer_single_sender_k5() {
        let (report, next) = known_answer(5, 64, 1, &[2]);
        assert_eq!(next, 0x7af2_1109_0919_588d);
        assert_eq!((report.messages_sent, report.bytes_sent), (60, 3_840));
        assert_eq!(report.outcomes, vec![SlotOutcome::Message(tx(2)); 5]);
    }

    #[test]
    fn known_answer_three_senders_k7() {
        let (report, next) = known_answer(7, 96, 2, &[0, 3, 6]);
        assert_eq!(next, 0x29e8_e172_5bf3_fa1a);
        assert_eq!((report.messages_sent, report.bytes_sent), (126, 12_096));
        // Each sender reads its own payload. The silent members read the
        // XOR of the three frames, which fails its check. A CRC-32 trailer,
        // being affine, would let it read as "tx from 5", which nobody sent.
        for (member, outcome) in report.outcomes.iter().enumerate() {
            match member {
                0 | 3 | 6 => assert_eq!(*outcome, SlotOutcome::Message(tx(member))),
                _ => assert_eq!(*outcome, SlotOutcome::Collision),
            }
        }
    }

    #[test]
    fn known_answer_silent_pair() {
        let (report, next) = known_answer(2, 32, 3, &[]);
        assert_eq!(next, 0x0d2b_eb91_b919_6929);
        assert_eq!((report.messages_sent, report.bytes_sent), (6, 192));
        assert_eq!(report.outcomes, vec![SlotOutcome::Silence; 2]);
    }

    #[test]
    fn known_answer_last_member_sends_k12() {
        let (report, next) = known_answer(12, 300, 4, &[11]);
        assert_eq!(next, 0xf69f_9bc3_5423_d57f);
        assert_eq!((report.messages_sent, report.bytes_sent), (396, 118_800));
        assert_eq!(report.outcomes, vec![SlotOutcome::Message(tx(11)); 12]);
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

        /// For any set of senders, silent members decode the XOR of every
        /// framed slot and senders their own payload, at 3·k·(k−1)
        /// slot-sized messages.
        #[test]
        fn prop_any_set_of_senders_decodes_the_xor_of_all_slots(
            size in 2usize..9,
            mask in any::<u16>(),
            seed in any::<u64>(),
        ) {
            let slot_len = 48;
            let payloads: Vec<Option<Vec<u8>>> = (0..size)
                .map(|member| (mask >> member & 1 == 1).then(|| tx(member)))
                .collect();
            let report = run_explicit_round(&payloads, slot_len, &mut rng(seed)).unwrap();

            let mut all = slot::silence(slot_len);
            for payload in payloads.iter().flatten() {
                xor_into(&mut all, &slot::encode(payload, slot_len).unwrap());
            }
            let senders: Vec<usize> = (0..size).filter(|&m| payloads[m].is_some()).collect();
            let silent = slot::decode(&all);
            match senders.as_slice() {
                [] => prop_assert_eq!(&silent, &SlotOutcome::Silence),
                [sender] => prop_assert_eq!(&silent, &SlotOutcome::Message(tx(*sender))),
                _ => prop_assert_eq!(&silent, &SlotOutcome::Collision),
            }
            for (member, outcome) in report.outcomes.iter().enumerate() {
                match &payloads[member] {
                    Some(payload) => prop_assert_eq!(outcome, &SlotOutcome::Message(payload.clone())),
                    None => prop_assert_eq!(outcome, &silent),
                }
            }
            prop_assert_eq!(report.messages_sent, 3 * (size * (size - 1)) as u64);
            prop_assert_eq!(report.bytes_sent, report.messages_sent * slot_len as u64);
        }
    }
}
