//! The phase-1 round engine's contract, one case at a time on a
//! three-member group: a round resolves at its last contribution whatever
//! the order, each [`ReceiveError`] refuses what it names and changes
//! nothing, and a member's own contribution is rewritten in place once no
//! peer holds it. `round_model.rs` checks the engine against the code it
//! replaced on random schedules. One five-member case shows what the engine
//! cannot do: tell a disruptor from an honest collision.

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
    group_of(3, 5)
}

/// The engines of a `k`-member group, and an rng seeded with `seed`.
fn group_of(k: usize, seed: u64) -> (Vec<RoundEngine>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<KeyPair> = (0..k).map(|_| KeyPair::generate(&mut rng)).collect();
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

/// Runs `rounds` full rounds: every member starts each round, then every
/// contribution reaches every peer, member `garbler`'s (if any) XORed with
/// a fixed pattern on the way out. Returns each member's outcome per round.
fn run_rounds(
    engines: &mut [RoundEngine],
    rng: &mut StdRng,
    rounds: u64,
    garbler: Option<usize>,
) -> Vec<Vec<SlotOutcome>> {
    let mut outcomes = vec![Vec::new(); engines.len()];
    for round in 0..rounds {
        let sent: Vec<Arc<[u8]>> = engines
            .iter_mut()
            .map(|engine| {
                let (contribution, outcome) = engine.start_round(rng);
                assert_eq!(outcome, None, "no peer has contributed yet");
                contribution
            })
            .enumerate()
            .map(|(from, contribution)| match garbler {
                Some(garbler) if garbler == from => {
                    contribution.iter().map(|byte| byte ^ 0xA5).collect()
                }
                _ => contribution,
            })
            .collect();
        for (to, engine) in engines.iter_mut().enumerate() {
            for (from, contribution) in sent.iter().enumerate().filter(|(from, _)| *from != to) {
                let outcome = engine
                    .receive(from, round, Arc::clone(contribution), rng)
                    .unwrap();
                if let Some(outcome) = outcome {
                    outcomes[to].push(outcome);
                }
            }
        }
    }
    outcomes
}

#[test]
fn a_garbling_member_reads_as_a_collision_every_round_and_no_engine_names_it() {
    const K: usize = 5;
    const ROUNDS: u64 = 4;
    const SEED: u64 = 29;
    let payload = b"member 1 pays".to_vec();

    // Member 3 XORs a fixed pattern into everything it sends: every engine
    // but its own sees a garbled slot in every round, and member 1's payload
    // never goes out.
    let (mut engines, mut rng) = group_of(K, SEED);
    engines[1].queue(payload.clone()).unwrap();
    let garbled = run_rounds(&mut engines, &mut rng, ROUNDS, Some(3));
    for (member, seen) in garbled.iter().enumerate().filter(|(m, _)| *m != 3) {
        assert_eq!(seen.len() as u64, ROUNDS, "member {member}");
        assert!(
            seen.iter()
                .all(|outcome| *outcome == SlotOutcome::Collision),
            "member {member}: {seen:?}"
        );
    }
    assert_eq!(engines[1].pending(), Some(payload.as_slice()));

    // Round 0 of two honest senders resolves to the very same outcome.
    let (mut engines, mut rng) = group_of(K, SEED);
    engines[1].queue(payload.clone()).unwrap();
    engines[2].queue(b"member 2 pays".to_vec()).unwrap();
    let honest = run_rounds(&mut engines, &mut rng, 1, None);
    for seen in &honest {
        assert_eq!(seen[0], garbled[0][0]);
    }

    // Without the garbler the same schedule delivers within the rounds.
    let (mut engines, mut rng) = group_of(K, SEED);
    engines[1].queue(payload.clone()).unwrap();
    let clean = run_rounds(&mut engines, &mut rng, ROUNDS, None);
    for seen in &clean {
        assert!(seen.contains(&SlotOutcome::Message(payload.clone())));
    }
    assert_eq!(engines[1].pending(), None);
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
