//! The phase-1 round engine's contract, one case at a time on a
//! three-member group: a round resolves at its last contribution whatever
//! the order, each [`ReceiveError`] refuses what it names and changes
//! nothing, and a member's own contribution is rewritten in place once no
//! peer holds it. `round_model.rs` checks the engine against the code it
//! replaced on random schedules.

use fnp_crypto::dh::{KeyPair, PublicKey};
use fnp_dcnet::keyed::KeyedParticipant;
use fnp_dcnet::slot::{self, SlotOutcome};
use fnp_dcnet::{ReceiveError, RoundEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::sync::Arc;

const SLOT: usize = 64;

/// The engines of a three-member group, and an rng.
fn group() -> (Vec<RoundEngine>, StdRng) {
    let mut rng = StdRng::seed_from_u64(5);
    let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
    let publics: Vec<PublicKey> = keys.iter().map(KeyPair::public_key).collect();
    let engines = keys
        .iter()
        .enumerate()
        .map(|(index, own)| {
            let participant = KeyedParticipant::new(index, own, &publics).unwrap();
            RoundEngine::new(Rc::new(participant), SLOT)
        })
        .collect();
    (engines, rng)
}

#[test]
fn a_round_resolves_at_its_last_contribution_whatever_the_order() {
    let (mut engines, mut rng) = group();
    engines[2].queue(b"tx".to_vec()).unwrap();
    // Member 0 hears both peers before it starts round 0 itself.
    let (from_1, none) = engines[1].start_round(&mut rng);
    assert_eq!(none, None);
    let (from_2, _) = engines[2].start_round(&mut rng);
    assert_eq!(engines[0].receive(1, 0, from_1, &mut rng), Ok(None));
    assert_eq!(engines[0].receive(2, 0, from_2, &mut rng), Ok(None));
    let (_, outcome) = engines[0].start_round(&mut rng);
    assert_eq!(outcome, Some(SlotOutcome::Message(b"tx".to_vec())));
    assert_eq!(engines[0].rounds_started(), 1);
}

#[test]
fn a_contribution_from_outside_the_group_is_refused() {
    let (mut engines, mut rng) = group();
    let (contribution, _) = engines[1].start_round(&mut rng);
    for member in [0, 3, usize::MAX] {
        let refused = engines[0].receive(member, 0, Arc::clone(&contribution), &mut rng);
        assert_eq!(refused, Err(ReceiveError::NonMember), "member {member}");
    }
}

#[test]
fn a_second_contribution_to_one_round_is_refused_and_the_first_stands() {
    let (mut engines, mut rng) = group();
    engines[1].queue(b"first".to_vec()).unwrap();
    let (first, _) = engines[1].start_round(&mut rng);
    let forged: Arc<[u8]> = vec![7; SLOT].into();
    assert_eq!(engines[0].receive(1, 0, first, &mut rng), Ok(None));
    assert_eq!(
        engines[0].receive(1, 0, forged, &mut rng),
        Err(ReceiveError::Duplicate)
    );
    let (from_2, _) = engines[2].start_round(&mut rng);
    assert_eq!(engines[0].receive(2, 0, from_2, &mut rng), Ok(None));
    let (_, outcome) = engines[0].start_round(&mut rng);
    assert_eq!(outcome, Some(SlotOutcome::Message(b"first".to_vec())));
}

#[test]
fn a_contribution_of_the_wrong_length_is_refused() {
    let (mut engines, mut rng) = group();
    for len in [0, SLOT - 1, SLOT + 1] {
        assert_eq!(
            engines[0].receive(1, 0, vec![0; len].into(), &mut rng),
            Err(ReceiveError::WrongLength {
                received: len,
                expected: SLOT
            })
        );
    }
}

#[test]
fn a_contribution_to_a_resolved_round_is_refused() {
    let (mut engines, mut rng) = group();
    let (from_1, _) = engines[1].start_round(&mut rng);
    let (from_2, _) = engines[2].start_round(&mut rng);
    engines[0].start_round(&mut rng);
    engines[0]
        .receive(1, 0, Arc::clone(&from_1), &mut rng)
        .unwrap();
    assert_eq!(
        engines[0].receive(2, 0, from_2, &mut rng),
        Ok(Some(SlotOutcome::Silence))
    );
    assert_eq!(
        engines[0].receive(1, 0, from_1, &mut rng),
        Err(ReceiveError::Stale)
    );
}

#[test]
fn an_oversized_payload_is_not_queued() {
    let (mut engines, _) = group();
    let error = engines[0].queue(vec![0; SLOT]).unwrap_err();
    assert_eq!(error.capacity, slot::capacity(SLOT));
    assert_eq!(engines[0].pending(), None);
}

#[test]
fn the_own_contribution_is_rewritten_in_place_once_no_peer_holds_it() {
    let (mut engines, mut rng) = group();
    let mut round = |engines: &mut Vec<RoundEngine>| {
        let contributions: Vec<Arc<[u8]>> = engines
            .iter_mut()
            .map(|engine| engine.start_round(&mut rng).0)
            .collect();
        for (to, engine) in engines.iter_mut().enumerate() {
            for (from, contribution) in contributions.iter().enumerate() {
                if from != to {
                    let _ = engine.receive(
                        from,
                        engine.rounds_started() - 1,
                        Arc::clone(contribution),
                        &mut rng,
                    );
                }
            }
        }
        Arc::as_ptr(&contributions[0])
    };
    let first = round(&mut engines);
    assert_eq!(round(&mut engines), first, "no peer kept a copy");
}

#[test]
fn error_display_strings() {
    for error in [
        ReceiveError::NonMember,
        ReceiveError::Duplicate,
        ReceiveError::WrongLength {
            received: 1,
            expected: 2,
        },
        ReceiveError::Stale,
    ] {
        assert!(!error.to_string().is_empty());
    }
}
