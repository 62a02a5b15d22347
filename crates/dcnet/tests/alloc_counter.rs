//! Proves the keyed DC-net round paths are allocation-free in steady state.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's heap requests. For [`KeyedDcGroup`], after
//! a short warm-up that provisions the pooled contribution buffers, further
//! silent rounds must not touch the heap at all. For a group of
//! [`RoundEngine`]s run in lockstep, as the flexible protocol's members run
//! them, round 0 requests the `k` contributions and nothing else, and every
//! later silent round rewrites them in place and resolves without a
//! buffer. This pins "zero heap allocations per round in the steady-state
//! contribute path" as a test rather than a one-off measurement.

use fnp_crypto::dh::{KeyPair, PublicKey};
use fnp_dcnet::keyed::{KeyedDcGroup, KeyedParticipant};
use fnp_dcnet::slot::SlotOutcome;
use fnp_dcnet::RoundEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[test]
fn steady_state_keyed_rounds_do_not_allocate() {
    // Peers per member: a batch of eight with an empty lane (k = 8), a
    // full batch (9), a full batch and a one-peer tail (10), four batches
    // (32; fewer rounds, for the unoptimised test build's sake).
    for (k, rounds) in [(8usize, 100u64), (9, 100), (10, 100), (32, 10)] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut group = KeyedDcGroup::new(k, 512, &mut rng).expect("k ≥ 2");
        let payloads: Vec<Option<Vec<u8>>> = vec![None; k];

        // Warm up: the first rounds provision the pooled contribution
        // buffers and the combine accumulator.
        for round in 0..3 {
            group.run_round(round, &payloads).expect("warm-up round");
        }

        let allocated = counting_alloc::measure(|| {
            for round in 3..3 + rounds {
                let report = group
                    .run_round(round, &payloads)
                    .expect("steady-state round");
                assert_eq!(report.outcome, SlotOutcome::Silence);
            }
        })
        .calls;
        assert_eq!(
            allocated, 0,
            "steady-state contribute/combine path touched the heap {allocated} times \
             in {rounds} rounds at k = {k}"
        );
    }
}

/// Runs one round of `engines` in lockstep: every member starts it, then
/// every contribution reaches every peer. `sent` and `outcomes` are the
/// caller's, sized beforehand, so that the round's own requests are all
/// that is counted; the copies in `sent` are dropped before it returns.
fn lockstep_round(
    engines: &mut [RoundEngine],
    rng: &mut StdRng,
    sent: &mut Vec<Arc<[u8]>>,
    outcomes: &mut Vec<SlotOutcome>,
) {
    let round = engines[0].rounds_started();
    for engine in engines.iter_mut() {
        let (contribution, outcome) = engine.start_round(rng);
        assert_eq!(outcome, None, "no peer has contributed yet");
        sent.push(contribution);
    }
    for (to, engine) in engines.iter_mut().enumerate() {
        for (from, contribution) in sent.iter().enumerate().filter(|(from, _)| *from != to) {
            let outcome = engine
                .receive(from, round, Arc::clone(contribution), rng)
                .expect("an honest contribution");
            outcomes.extend(outcome);
        }
    }
    sent.clear();
}

#[test]
fn lockstep_round_engines_request_their_contributions_once() {
    const K: usize = 5;
    const SLOT: usize = 300;
    const ROUNDS: usize = 100;
    let mut rng = StdRng::seed_from_u64(11);
    let keys: Vec<KeyPair> = (0..K).map(|_| KeyPair::generate(&mut rng)).collect();
    let publics: Vec<PublicKey> = keys.iter().map(KeyPair::public_key).collect();
    let mut engines: Vec<RoundEngine> = keys
        .iter()
        .enumerate()
        .map(|(index, own)| {
            let participant = KeyedParticipant::new(index, own, &publics).expect("a member");
            RoundEngine::new(Rc::new(participant), SLOT)
        })
        .collect();
    let mut sent = Vec::with_capacity(K);
    let mut outcomes = Vec::with_capacity(K * (ROUNDS + 1));

    // One `Arc<[u8]>` per member: the slot behind two counters.
    let contribution = (2 * size_of::<usize>() + SLOT).next_multiple_of(align_of::<usize>());
    let first = counting_alloc::measure(|| {
        lockstep_round(&mut engines, &mut rng, &mut sent, &mut outcomes);
    });
    assert_eq!(
        (first.calls, first.requested),
        (K as u64, (K * contribution) as u64),
        "round 0: requests and bytes, against {K} contributions of {contribution} B"
    );

    let later = counting_alloc::measure(|| {
        for _ in 0..ROUNDS {
            lockstep_round(&mut engines, &mut rng, &mut sent, &mut outcomes);
        }
    });
    assert_eq!(
        later.calls, 0,
        "{ROUNDS} silent rounds made {} requests ({} B)",
        later.calls, later.requested
    );
    assert_eq!(outcomes.len(), K * (ROUNDS + 1));
    assert!(outcomes
        .iter()
        .all(|outcome| *outcome == SlotOutcome::Silence));
}
