//! Model-based property test for the phase-1 round engine.
//!
//! [`RoundEngine`] replaced the DC-net state the flexible protocol's node
//! kept for itself: contributions in a `BTreeMap` of rounds to a
//! `BTreeMap` of members, resolved rounds in a `BTreeSet`, the injection
//! and back-off logic inline. That code is kept here, as directly as it
//! was written, as the reference model. Both are driven through the same
//! random schedule — round starts interleaved with every peer's arrival for
//! every round, an arrival often ahead of the round's start as a steady
//! instance sees it — with identically seeded rngs, and must agree after
//! every step on the contribution sent, the resolved `(round, outcome)`,
//! the pending payload, the back-off flag and the rng's state: the last
//! proves the collision back-off coin is drawn exactly where it was.

use fnp_dcnet::keyed::{combine_contributions_into, KeyedParticipant};
use fnp_dcnet::slot::SlotOutcome;
use fnp_dcnet::RoundEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

const SLOT_LEN: usize = 64;

/// The reference: the node's phase-1 state and handlers as they were,
/// less the messages, counters, timer and round budget around them.
struct Reference {
    participant: Rc<KeyedParticipant>,
    pending_payload: Option<Vec<u8>>,
    backoff: bool,
    next_round: u64,
    received: BTreeMap<u64, BTreeMap<usize, Vec<u8>>>,
    resolved: BTreeSet<u64>,
    injected_in: Option<u64>,
}

impl Reference {
    fn new(participant: Rc<KeyedParticipant>) -> Self {
        Self {
            participant,
            pending_payload: None,
            backoff: false,
            next_round: 0,
            received: BTreeMap::new(),
            resolved: BTreeSet::new(),
            injected_in: None,
        }
    }

    fn run_dc_round(&mut self, rng: &mut StdRng) -> (Vec<u8>, Option<(u64, SlotOutcome)>) {
        let round = self.next_round;
        self.next_round += 1;

        let inject = match (&self.pending_payload, self.backoff) {
            (Some(_), false) => true,
            (Some(_), true) => {
                self.backoff = false;
                false
            }
            (None, _) => false,
        };
        let payload = if inject {
            self.injected_in = Some(round);
            self.pending_payload.clone()
        } else {
            None
        };
        let mut contribution = Vec::new();
        self.participant
            .contribute_into(round, SLOT_LEN, payload.as_deref(), &mut contribution)
            .unwrap();
        let own_index = self.participant.index();
        self.received
            .entry(round)
            .or_default()
            .insert(own_index, contribution.clone());
        (contribution, self.try_resolve_round(round, rng))
    }

    fn on_dc_contribution(
        &mut self,
        round: u64,
        member_index: usize,
        data: Vec<u8>,
        rng: &mut StdRng,
    ) -> Option<(u64, SlotOutcome)> {
        if member_index >= self.participant.group_size() || data.len() != SLOT_LEN {
            return None;
        }
        self.received
            .entry(round)
            .or_default()
            .insert(member_index, data);
        self.try_resolve_round(round, rng)
    }

    fn try_resolve_round(&mut self, round: u64, rng: &mut StdRng) -> Option<(u64, SlotOutcome)> {
        if self.resolved.contains(&round) {
            return None;
        }
        match self.received.get(&round) {
            Some(contributions) if contributions.len() >= self.participant.group_size() => {}
            _ => return None,
        }
        let contributions = self.received.remove(&round).unwrap();
        let mut combined = Vec::new();
        let outcome =
            combine_contributions_into(contributions.values().map(Vec::as_slice), &mut combined)
                .unwrap_or(SlotOutcome::Collision);
        self.resolved.insert(round);

        match &outcome {
            SlotOutcome::Silence => {}
            SlotOutcome::Collision => {
                if self.injected_in == Some(round) && rng.gen_bool(0.5) {
                    self.backoff = true;
                }
                self.injected_in = None;
            }
            SlotOutcome::Message(message) => {
                if self.injected_in == Some(round) {
                    if self.pending_payload.as_deref() == Some(message.as_slice()) {
                        self.pending_payload = None;
                    }
                    self.injected_in = None;
                }
            }
        }
        Some((round, outcome))
    }
}

/// One step of a schedule.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The member under test starts its next round.
    Start,
    /// Peer `member`'s contribution to `round` arrives.
    Arrive { member: usize, round: u64 },
    /// The member under test queues its payload.
    Queue,
}

/// Which paths one schedule took.
#[derive(Default)]
struct Paths {
    collisions: usize,
    backoffs: usize,
    messages: usize,
    early_arrivals: usize,
}

/// Participants of a `k`-member group on random pairwise keys.
fn participants(k: usize, rng: &mut StdRng) -> Vec<Rc<KeyedParticipant>> {
    let mut pair_keys = BTreeMap::new();
    for i in 0..k {
        for j in i + 1..k {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            pair_keys.insert((i, j), key);
        }
    }
    (0..k)
        .map(|i| {
            let pads = (0..k)
                .filter(|&j| j != i)
                .map(|j| (j, pair_keys[&(i.min(j), i.max(j))]));
            Rc::new(KeyedParticipant::from_pad_keys(i, k, pads).unwrap())
        })
        .collect()
}

/// Drives the engine and the reference through one schedule drawn from
/// `seed`: a `k`-member group, `injectors` of its members (the one under
/// test among them, or not) with a payload to send.
fn run_schedule(k: usize, injectors: usize, seed: u64) -> Result<Paths, TestCaseError> {
    let mut plan = StdRng::seed_from_u64(seed);
    let group = participants(k, &mut plan);
    let own = plan.gen_range(0..k);
    let rounds = plan.gen_range(1..=6u64);
    let mut members: Vec<usize> = (0..k).collect();
    members.shuffle(&mut plan);
    let injecting = &members[..injectors];

    let mut steps = vec![Step::Start; rounds as usize];
    for member in (0..k).filter(|&member| member != own) {
        steps.extend((0..rounds).map(|round| Step::Arrive { member, round }));
    }
    if injecting.contains(&own) {
        steps.push(Step::Queue);
    }
    steps.shuffle(&mut plan);
    // A peer injector sends its payload in each round with probability ½.
    let peer_payload = |member: usize, round: u64| {
        let coin = seed ^ ((member as u64) << 32) ^ round;
        (injecting.contains(&member) && StdRng::seed_from_u64(coin).gen_bool(0.5))
            .then(|| format!("from {member}").into_bytes())
    };

    let mut engine = RoundEngine::new(Rc::clone(&group[own]), SLOT_LEN);
    let mut reference = Reference::new(Rc::clone(&group[own]));
    let (mut engine_rng, mut reference_rng) =
        (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
    let mut paths = Paths::default();
    for (at, step) in steps.into_iter().enumerate() {
        let round = engine.rounds_started();
        let (resolved, expected) = match step {
            Step::Start => {
                let (sent, outcome) = engine.start_round(&mut engine_rng);
                let (expected_sent, expected) = reference.run_dc_round(&mut reference_rng);
                prop_assert!(sent[..] == expected_sent[..], "step {at}: contribution");
                (outcome.map(|outcome| (round, outcome)), expected)
            }
            Step::Arrive { member, round } => {
                paths.early_arrivals += usize::from(round >= engine.rounds_started());
                let payload = peer_payload(member, round);
                let data = group[member]
                    .contribution(round, SLOT_LEN, payload.as_deref())
                    .unwrap();
                let expected =
                    reference.on_dc_contribution(round, member, data.clone(), &mut reference_rng);
                let received = engine.receive(member, round, Arc::from(data), &mut engine_rng);
                let received = received.map_err(|error| {
                    TestCaseError::fail(format!("step {at}: honest contribution refused: {error}"))
                })?;
                (received.map(|outcome| (round, outcome)), expected)
            }
            Step::Queue => {
                let payload = b"own payload".to_vec();
                reference.pending_payload = Some(payload.clone());
                engine.queue(payload).unwrap();
                (None, None)
            }
        };
        prop_assert!(
            resolved == expected,
            "step {at}: resolved {resolved:?}, reference {expected:?}"
        );
        let pending = (engine.pending(), reference.pending_payload.as_deref());
        prop_assert!(pending.0 == pending.1, "step {at}: pending {pending:?}");
        let backoff = (engine.backing_off(), reference.backoff);
        prop_assert!(backoff.0 == backoff.1, "step {at}: back-off {backoff:?}");
        prop_assert_eq!(engine.rounds_started(), reference.next_round);
        prop_assert!(engine_rng == reference_rng, "step {at}: the rngs diverged");

        match resolved {
            Some((_, SlotOutcome::Collision)) => paths.collisions += 1,
            Some((_, SlotOutcome::Message(_))) => paths.messages += 1,
            _ => {}
        }
        paths.backoffs += usize::from(engine.backing_off());
    }
    // Every round started and every peer contributed to it: all resolved.
    prop_assert!(reference.received.is_empty());
    prop_assert_eq!(reference.resolved.len() as u64, rounds);
    Ok(paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn round_engine_agrees_with_the_reference_model(
        k in 2usize..=9,
        injectors in 0usize..=2,
        seed in any::<u64>(),
    ) {
        run_schedule(k, injectors, seed)?;
    }
}

/// The schedules reach every path the comparison is about.
#[test]
fn schedules_reach_collisions_back_offs_messages_and_early_arrivals() {
    let mut total = Paths::default();
    for seed in 0..200 {
        let paths = run_schedule(2 + (seed % 8) as usize, 2, seed)
            .unwrap_or_else(|failure| panic!("seed {seed}: {failure:?}"));
        total.collisions += paths.collisions;
        total.backoffs += paths.backoffs;
        total.messages += paths.messages;
        total.early_arrivals += paths.early_arrivals;
    }
    assert!(total.collisions > 0, "no collision");
    assert!(total.backoffs > 0, "no back-off");
    assert!(total.messages > 0, "no message");
    assert!(total.early_arrivals > 0, "no arrival ahead of its round");
}
