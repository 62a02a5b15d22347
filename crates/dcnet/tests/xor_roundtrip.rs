//! The defining DC-net property: the pairwise pads cancel under XOR, so
//! combining every member's contribution recovers exactly the reserved
//! slot's message — and nothing else. Exercised for random group sizes and
//! payloads over both the keyed and the explicit variant.

use fnp_dcnet::{combine_contributions, run_explicit_round, KeyedDcGroup, SlotOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SLOT_LEN: usize = 64;
/// Slot framing (length prefix + check trailer) claims part of the slot.
const MAX_PAYLOAD: usize = 48;

fn payloads_with_one_sender(k: usize, sender: usize, payload: &[u8]) -> Vec<Option<Vec<u8>>> {
    let mut payloads = vec![None; k];
    payloads[sender] = Some(payload.to_vec());
    payloads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Keyed variant: one reserved slot, arbitrary payload, arbitrary group
    /// size — the combine recovers the message bit-for-bit at every round.
    #[test]
    fn keyed_single_sender_roundtrip(
        k in 2usize..12,
        sender_pick in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..MAX_PAYLOAD),
        seed in any::<u64>(),
    ) {
        let sender = (sender_pick % k as u64) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut group = KeyedDcGroup::new(k, SLOT_LEN, &mut rng).unwrap();
        for round in 1..=3u64 {
            let report = group
                .run_round(round, &payloads_with_one_sender(k, sender, &payload))
                .unwrap();
            prop_assert_eq!(&report.outcome, &SlotOutcome::Message(payload.clone()));
            prop_assert_eq!(report.messages_sent, (k * (k - 1)) as u64);
        }
    }

    /// With no sender the pads cancel to silence; the combine must not
    /// hallucinate a message out of pad material.
    #[test]
    fn keyed_all_silent_recovers_nothing(
        k in 2usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut group = KeyedDcGroup::new(k, SLOT_LEN, &mut rng).unwrap();
        let report = group.run_round(7, &vec![None; k]).unwrap();
        prop_assert_eq!(report.outcome, SlotOutcome::Silence);
    }

    /// Two simultaneous senders garble each other: the round must surface a
    /// collision, not silently deliver either message.
    #[test]
    fn keyed_two_senders_collide(
        k in 3usize..12,
        payload_a in proptest::collection::vec(any::<u8>(), 1..MAX_PAYLOAD),
        payload_b in proptest::collection::vec(any::<u8>(), 1..MAX_PAYLOAD),
        seed in any::<u64>(),
    ) {
        prop_assume!(payload_a != payload_b);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut group = KeyedDcGroup::new(k, SLOT_LEN, &mut rng).unwrap();
        let mut payloads = vec![None; k];
        payloads[0] = Some(payload_a);
        payloads[k - 1] = Some(payload_b);
        let report = group.run_round(1, &payloads).unwrap();
        prop_assert_eq!(report.outcome, SlotOutcome::Collision);
    }

    /// Explicit variant: the three-step share/accumulate/broadcast exchange
    /// agrees unanimously on the reserved slot's message at every member.
    #[test]
    fn explicit_single_sender_roundtrip(
        k in 2usize..10,
        sender_pick in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..MAX_PAYLOAD),
        seed in any::<u64>(),
    ) {
        let sender = (sender_pick % k as u64) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let report = run_explicit_round(
            &payloads_with_one_sender(k, sender, &payload),
            SLOT_LEN,
            &mut rng,
        )
        .unwrap();
        prop_assert_eq!(report.outcomes.len(), k);
        for outcome in &report.outcomes {
            prop_assert_eq!(outcome, &SlotOutcome::Message(payload.clone()));
        }
    }
}

/// The cancellation argument itself, stated directly on contributions: the
/// XOR of all k keyed contributions equals the XOR of the k framed slots,
/// because every pairwise pad appears exactly twice.
#[test]
fn pads_cancel_pairwise_in_the_contribution_xor() {
    let mut rng = StdRng::seed_from_u64(0xD0C5);
    for k in [2usize, 3, 5, 9] {
        let mut group = KeyedDcGroup::new(k, SLOT_LEN, &mut rng).unwrap();
        // Everyone silent: contributions are pure pad material, and the
        // combine must collapse to all-zero (the framed silence slot).
        let report = group.run_round(1, &vec![None; k]).unwrap();
        assert_eq!(report.outcome, SlotOutcome::Silence, "k={k}");
    }
}

/// Sweeping every sender index at a fixed seed guards the reservation
/// bookkeeping: recovery must not depend on *which* member holds the slot.
#[test]
fn recovery_is_sender_position_independent() {
    let payload = b"position independent".to_vec();
    for k in [2usize, 4, 7] {
        let mut rng = StdRng::seed_from_u64(99);
        let mut group = KeyedDcGroup::new(k, SLOT_LEN, &mut rng).unwrap();
        for sender in 0..k {
            let report = group
                .run_round(
                    sender as u64 + 1,
                    &payloads_with_one_sender(k, sender, &payload),
                )
                .unwrap();
            assert_eq!(
                report.outcome,
                SlotOutcome::Message(payload.clone()),
                "k={k} sender={sender}"
            );
        }
    }
}

/// `combine_contributions` is order-invariant: XOR is commutative, so any
/// permutation of the member contributions recovers the same slot. Stated on
/// synthetic shares built with the same `slot::encode` framing the group
/// uses.
#[test]
fn combine_is_order_invariant() {
    use rand::Rng;

    let payload = b"order invariant".to_vec();
    let framed = fnp_dcnet::slot::encode(&payload, SLOT_LEN).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    // Split the framed slot into 6 shares whose XOR is the slot, mirroring
    // the explicit variant's share step.
    let mut shares: Vec<Vec<u8>> = (0..5)
        .map(|_| {
            let mut share = vec![0u8; SLOT_LEN];
            rng.fill(share.as_mut_slice());
            share
        })
        .collect();
    let mut last = framed;
    for share in &shares {
        fnp_crypto::xor_into(&mut last, share);
    }
    shares.push(last);

    let forward = combine_contributions(&shares).unwrap();
    let mut reversed = shares.clone();
    reversed.reverse();
    let backward = combine_contributions(&reversed).unwrap();
    assert_eq!(forward, backward);
    assert_eq!(forward, SlotOutcome::Message(payload));
}
