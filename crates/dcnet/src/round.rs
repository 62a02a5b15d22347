//! One member's phase-1 round engine: the keyed DC-net rounds of the
//! flexible broadcast (§IV-B).
//!
//! Starting a round writes the member's [`keyed`](crate::keyed)
//! contribution, its pending payload injected or silence, straight into
//! one `Arc<[u8]>`, shared by the sender's slot and the copies it sends:
//! the last round's, rewritten in place once no peer holds it, else one
//! fresh allocation. The peers' contributions arrive over the wire,
//! possibly before this member starts the round. Once all `k` are in they
//! are decoded into a [`SlotOutcome`] as they are, never combined into a
//! buffer ([`slot::decode_parts`]): an all-zero fold, told a word at a
//! time, is silence, and a message's payload is folded straight into the
//! outcome. A collision on a round the member
//! injected into backs its payload off for one round with probability ½;
//! its own payload as the message clears it. [`RoundEngine`] never arms a
//! timer: the caller paces the rounds and decides how many to run. Between
//! rounds a member holds its contribution and a row of `k` slots per round
//! in flight, all rows in one allocation. [`ReceiveError`] names what no
//! honest peer sends; a complete round always resolves.

use crate::keyed::KeyedParticipant;
use crate::slot::{self, PayloadTooLargeError, SlotOutcome};
use rand::Rng;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Why [`RoundEngine::receive`] refused a contribution, changing nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReceiveError {
    /// The index is outside the group, or this member's own.
    NonMember,
    /// The member already contributed to this round.
    Duplicate,
    /// The contribution is not one slot long.
    WrongLength {
        /// Received length.
        received: usize,
        /// The group's slot length.
        expected: usize,
    },
    /// The round has already resolved.
    Stale,
}

impl fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReceiveError::NonMember => write!(f, "contribution from outside the group"),
            ReceiveError::Duplicate => write!(f, "second contribution to one round"),
            ReceiveError::WrongLength { received, expected } => {
                write!(f, "contribution of {received} bytes, slot of {expected}")
            }
            ReceiveError::Stale => write!(f, "contribution to a resolved round"),
        }
    }
}

impl std::error::Error for ReceiveError {}

/// Member `m`'s slot in a row: the row's round and, once it is in, `m`'s
/// contribution to it.
type Slot = (u64, Option<Arc<[u8]>>);

/// One group member's keyed DC-net rounds; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct RoundEngine {
    participant: Rc<KeyedParticipant>,
    slot_len: usize,
    /// Payload waiting to be injected into a round.
    pending: Option<Vec<u8>>,
    /// Whether the pending payload skips the next round.
    backoff: bool,
    /// Rounds started so far, which is also the number of the next one.
    started: u64,
    /// The round the pending payload was last injected into, until a
    /// round resolves as a collision or as that round's message.
    injected_in: Option<u64>,
    /// Every round below this one has resolved.
    resolved_below: u64,
    /// One row of `k` slots per round in flight, every slot of a row
    /// carrying the row's round. A row whose round is below
    /// `resolved_below` is free for reuse; a row at or above it with every
    /// slot empty marks a round that resolved before an earlier one, until
    /// `resolved_below` passes it.
    rows: Vec<Slot>,
    /// This member's contribution to the last round it resolved, rewritten
    /// in place by the next round if no peer still holds it.
    spare: Option<Arc<[u8]>>,
}

impl RoundEngine {
    /// The engine of `participant`'s group position, on slots of
    /// `slot_len` bytes, with room for one round in flight.
    pub fn new(participant: Rc<KeyedParticipant>, slot_len: usize) -> Self {
        let k = participant.group_size();
        Self {
            participant,
            slot_len,
            pending: None,
            backoff: false,
            started: 0,
            injected_in: None,
            resolved_below: 0,
            rows: Vec::with_capacity(k),
            spare: None,
        }
    }

    /// Queues `payload` for the next eligible round, replacing any pending.
    ///
    /// # Errors
    ///
    /// Fails, queueing nothing, if the payload does not fit the slot.
    pub fn queue(&mut self, payload: Vec<u8>) -> Result<(), PayloadTooLargeError> {
        slot::check_fit(payload.len(), self.slot_len)?;
        self.pending = Some(payload);
        Ok(())
    }

    /// The payload waiting to go out, if any.
    pub fn pending(&self) -> Option<&[u8]> {
        self.pending.as_deref()
    }

    /// Whether the pending payload skips the next round.
    pub fn backing_off(&self) -> bool {
        self.backoff
    }

    /// Rounds started so far; the next round started has this number.
    pub fn rounds_started(&self) -> u64 {
        self.started
    }

    /// Starts the next round: returns this member's contribution, to be
    /// sent to every peer, and the round's outcome if every peer's
    /// contribution was already in. The pending payload is injected unless
    /// it is backing off, which skips this one round.
    pub fn start_round<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> (Arc<[u8]>, Option<SlotOutcome>) {
        let round = self.started;
        self.started += 1;
        let inject = self.pending.is_some() && !std::mem::take(&mut self.backoff);
        if inject {
            self.injected_in = Some(round);
        }
        let fresh = || std::iter::repeat_n(0, self.slot_len).collect();
        let mut contribution = self.spare.take().unwrap_or_else(fresh);
        if Arc::get_mut(&mut contribution).is_none() {
            contribution = fresh();
        }
        let bytes = Arc::get_mut(&mut contribution).expect("the spare is unshared or fresh");
        let payload = self.pending.as_deref().filter(|_| inject);
        self.participant
            .contribute_in_place(round, payload, bytes)
            .expect("queue admits only payloads that fit the slot");
        let own = self.participant.index();
        let outcome = self.store(round, own, Arc::clone(&contribution), rng);
        (contribution, outcome.expect("no round is started twice"))
    }

    /// Stores peer `member`'s contribution `data` to `round` — a round this
    /// member may not have started yet — and returns the round's outcome
    /// if it completed it.
    ///
    /// # Errors
    ///
    /// A [`ReceiveError`] if `member` is not a peer in the group, `data` is
    /// not one slot long, `round` has already resolved, or `member` has
    /// already contributed to it.
    pub fn receive<R: Rng + ?Sized>(
        &mut self,
        member: usize,
        round: u64,
        data: Arc<[u8]>,
        rng: &mut R,
    ) -> Result<Option<SlotOutcome>, ReceiveError> {
        let (received, expected) = (data.len(), self.slot_len);
        if member >= self.participant.group_size() || member == self.participant.index() {
            Err(ReceiveError::NonMember)
        } else if received != expected {
            Err(ReceiveError::WrongLength { received, expected })
        } else if round < self.resolved_below || self.row_of(round).is_some_and(is_empty) {
            Err(ReceiveError::Stale)
        } else {
            self.store(round, member, data, rng)
        }
    }

    /// The slots of `round`'s row, if it has one; `round` is at or above
    /// `resolved_below`, so no free row matches it.
    fn row_of(&self, round: u64) -> Option<&[Slot]> {
        let k = self.participant.group_size();
        self.rows.chunks_exact(k).find(|row| row[0].0 == round)
    }

    /// The index of `round`'s row, taking a free one or growing the rows
    /// by one if it has none.
    fn row_index(&mut self, round: u64) -> usize {
        let k = self.participant.group_size();
        if let Some(at) = self.rows.chunks_exact(k).position(|row| row[0].0 == round) {
            return at;
        }
        let resolved_below = self.resolved_below;
        let at = match self
            .rows
            .chunks_exact(k)
            .position(|row| row[0].0 < resolved_below)
        {
            Some(at) => at,
            None => {
                self.rows.reserve_exact(k);
                self.rows.extend(std::iter::repeat_n((round, None), k));
                self.rows.len() / k - 1
            }
        };
        for (row_round, _) in &mut self.rows[at * k..][..k] {
            *row_round = round;
        }
        at
    }

    /// Puts `data` in `member`'s slot of `round` and resolves the round if
    /// that completed it, emptying its row.
    fn store<R: Rng + ?Sized>(
        &mut self,
        round: u64,
        member: usize,
        data: Arc<[u8]>,
        rng: &mut R,
    ) -> Result<Option<SlotOutcome>, ReceiveError> {
        let k = self.participant.group_size();
        let at = self.row_index(round);
        let row = &mut self.rows[at * k..][..k];
        if row[member].1.is_some() {
            return Err(ReceiveError::Duplicate);
        }
        row[member].1 = Some(data);
        if row.iter().any(|(_, data)| data.is_none()) {
            return Ok(None);
        }

        let outcome = slot::decode_parts(
            row.iter()
                .map(|(_, data)| data.as_deref().expect("a complete round fills every slot")),
        );
        self.spare = row[self.participant.index()].1.take();
        for (_, data) in row.iter_mut() {
            *data = None;
        }
        while self.row_of(self.resolved_below).is_some_and(is_empty) {
            self.resolved_below += 1;
        }

        let ours = self.injected_in == Some(round);
        match &outcome {
            SlotOutcome::Collision => {
                // Ours collided: skip the next round with probability ½.
                self.backoff |= ours && rng.gen_bool(0.5);
                self.injected_in = None;
            }
            SlotOutcome::Message(message) if ours => {
                self.pending.take_if(|pending| pending == message);
                self.injected_in = None;
            }
            SlotOutcome::Silence | SlotOutcome::Message(_) => {}
        }
        Ok(Some(outcome))
    }
}

/// Whether every slot of `row` is empty: its round has resolved.
fn is_empty(row: &[Slot]) -> bool {
    row.iter().all(|(_, data)| data.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::combine_contributions;
    use fnp_crypto::prg::xor_into;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    const SLOT_LEN: usize = 61;

    /// The engine as it is specified, on owned buffers: every round's
    /// contributions in a map, resolved rounds in a set, each complete
    /// round combined by the allocating [`combine_contributions`].
    struct Reference {
        participant: Rc<KeyedParticipant>,
        pending: Option<Vec<u8>>,
        backoff: bool,
        started: u64,
        injected_in: Option<u64>,
        received: BTreeMap<u64, BTreeMap<usize, Vec<u8>>>,
        resolved: BTreeSet<u64>,
    }

    impl Reference {
        fn new(participant: Rc<KeyedParticipant>) -> Self {
            Self {
                participant,
                pending: None,
                backoff: false,
                started: 0,
                injected_in: None,
                received: BTreeMap::new(),
                resolved: BTreeSet::new(),
            }
        }

        fn start_round(&mut self, rng: &mut StdRng) -> (Vec<u8>, Option<SlotOutcome>) {
            let round = self.started;
            self.started += 1;
            let inject = self.pending.is_some() && !std::mem::take(&mut self.backoff);
            if inject {
                self.injected_in = Some(round);
            }
            let payload = self.pending.as_deref().filter(|_| inject);
            let contribution = self
                .participant
                .contribution(round, SLOT_LEN, payload)
                .unwrap();
            let own = self.participant.index();
            let outcome = self.store(round, own, contribution.clone(), rng).unwrap();
            (contribution, outcome)
        }

        fn receive(
            &mut self,
            member: usize,
            round: u64,
            data: Vec<u8>,
            rng: &mut StdRng,
        ) -> Result<Option<SlotOutcome>, ReceiveError> {
            if member >= self.participant.group_size() || member == self.participant.index() {
                Err(ReceiveError::NonMember)
            } else if data.len() != SLOT_LEN {
                Err(ReceiveError::WrongLength {
                    received: data.len(),
                    expected: SLOT_LEN,
                })
            } else if self.resolved.contains(&round) {
                Err(ReceiveError::Stale)
            } else {
                self.store(round, member, data, rng)
            }
        }

        fn store(
            &mut self,
            round: u64,
            member: usize,
            data: Vec<u8>,
            rng: &mut StdRng,
        ) -> Result<Option<SlotOutcome>, ReceiveError> {
            let slots = self.received.entry(round).or_default();
            if slots.contains_key(&member) {
                return Err(ReceiveError::Duplicate);
            }
            slots.insert(member, data);
            if slots.len() < self.participant.group_size() {
                return Ok(None);
            }
            let contributions: Vec<Vec<u8>> = self
                .received
                .remove(&round)
                .unwrap()
                .into_values()
                .collect();
            let outcome = combine_contributions(&contributions).unwrap();
            self.resolved.insert(round);
            let ours = self.injected_in == Some(round);
            match &outcome {
                SlotOutcome::Collision => {
                    if ours && rng.gen_bool(0.5) {
                        self.backoff = true;
                    }
                    self.injected_in = None;
                }
                SlotOutcome::Message(message) if ours => {
                    if self.pending.as_ref() == Some(message) {
                        self.pending = None;
                    }
                    self.injected_in = None;
                }
                _ => {}
            }
            Ok(Some(outcome))
        }
    }

    /// One step of a schedule, for the member under test.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// It queues its payload.
        Queue,
        /// It starts its next round.
        Start,
        /// Peer `member`'s contribution to `round` arrives; `forged`
        /// changes its bytes, `inject` carries the peer's payload.
        Arrive {
            member: usize,
            round: u64,
            inject: bool,
            forged: bool,
        },
    }

    fn arrive(member: usize, round: u64) -> Step {
        Step::Arrive {
            member,
            round,
            inject: false,
            forged: false,
        }
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

    /// The steps: an early arrival and its duplicate (both before round 0
    /// starts), a collision of the member's payload with peer `p`'s in
    /// round 0, a stale copy of round 0, round 2 resolving before round 1
    /// with stale copies of both, then silent rounds until the payload is
    /// delivered, and a stale copy of round 0 once it is far below.
    fn schedule(own: usize, k: usize) -> Vec<Step> {
        let peers: Vec<usize> = (0..k).filter(|&m| m != own).collect();
        let p = peers[0];
        let mut steps = vec![
            Step::Arrive {
                member: p,
                round: 0,
                inject: true,
                forged: false,
            },
            Step::Arrive {
                member: p,
                round: 0,
                inject: false,
                forged: true,
            },
            Step::Queue,
            Step::Start,
        ];
        steps.extend(peers[1..].iter().map(|&q| arrive(q, 0)));
        steps.extend([arrive(p, 0), Step::Start, Step::Start]);
        steps.extend(peers.iter().map(|&q| arrive(q, 2)));
        steps.push(arrive(p, 2));
        steps.extend(peers.iter().map(|&q| arrive(q, 1)));
        steps.push(arrive(p, 1));
        for round in 3..9 {
            steps.push(Step::Start);
            steps.extend(peers.iter().map(|&q| arrive(q, round)));
        }
        steps.push(arrive(p, 0));
        steps
    }

    /// What one schedule went through.
    #[derive(Default)]
    struct Seen {
        errors: BTreeSet<String>,
        collisions: usize,
        backoffs: usize,
        messages: usize,
        out_of_order: usize,
    }

    /// Drives the engine and the reference through [`schedule`] for a
    /// `k`-member group drawn from `seed`, asserting after every step that
    /// they sent, resolved and refused the same and drew the same coins.
    fn run(k: usize, seed: u64) -> Seen {
        let mut plan = StdRng::seed_from_u64(seed);
        let group = participants(k, &mut plan);
        let own = plan.gen_range(0..k);
        let mut engine = RoundEngine::new(Rc::clone(&group[own]), SLOT_LEN);
        let mut reference = Reference::new(Rc::clone(&group[own]));
        let (mut engine_rng, mut reference_rng) =
            (StdRng::seed_from_u64(!seed), StdRng::seed_from_u64(!seed));
        let mut seen = Seen::default();
        let mut last_resolved = None;
        for (at, step) in schedule(own, k).into_iter().enumerate() {
            let (got, expected, round) = match step {
                Step::Queue => {
                    engine.queue(b"own payload".to_vec()).unwrap();
                    reference.pending = Some(b"own payload".to_vec());
                    continue;
                }
                Step::Start => {
                    let round = engine.rounds_started();
                    let (sent, got) = engine.start_round(&mut engine_rng);
                    let (expected_sent, expected) = reference.start_round(&mut reference_rng);
                    assert_eq!(sent[..], expected_sent[..], "k {k} step {at}: contribution");
                    (Ok(got), Ok(expected), round)
                }
                Step::Arrive {
                    member,
                    round,
                    inject,
                    forged,
                } => {
                    let payload: &[u8] = if forged { b"forged" } else { b"peer payload" };
                    let data = group[member]
                        .contribution(round, SLOT_LEN, (inject || forged).then_some(payload))
                        .unwrap();
                    let got = engine.receive(member, round, data[..].into(), &mut engine_rng);
                    let expected = reference.receive(member, round, data, &mut reference_rng);
                    (got, expected, round)
                }
            };
            assert_eq!(got, expected, "k {k} step {at} ({step:?})");
            assert_eq!(
                engine.pending(),
                reference.pending.as_deref(),
                "k {k} step {at}"
            );
            assert_eq!(engine.backing_off(), reference.backoff, "k {k} step {at}");
            assert!(
                engine_rng == reference_rng,
                "k {k} step {at}: the rngs diverged"
            );
            match got {
                Err(error) => {
                    seen.errors.insert(format!("{error:?}"));
                }
                Ok(Some(outcome)) => {
                    seen.out_of_order +=
                        usize::from(last_resolved.is_some_and(|last| round < last));
                    last_resolved = Some(round);
                    match outcome {
                        SlotOutcome::Collision => seen.collisions += 1,
                        SlotOutcome::Message(_) => seen.messages += 1,
                        SlotOutcome::Silence => {}
                    }
                }
                Ok(None) => {}
            }
            seen.backoffs += usize::from(engine.backing_off());
        }
        assert!(reference.received.is_empty(), "k {k}: every round resolved");
        assert_eq!(engine.pending(), None, "k {k}: the payload went out");
        seen
    }

    #[test]
    fn the_engine_agrees_with_the_allocating_reference() {
        for k in [2, 5, 9] {
            let mut backoffs = 0;
            for seed in 0..4 {
                let seen = run(k, seed);
                let errors: Vec<&str> = seen.errors.iter().map(String::as_str).collect();
                assert_eq!(errors, ["Duplicate", "Stale"], "k {k} seed {seed}");
                assert!(seen.collisions > 0, "k {k} seed {seed}: no collision");
                assert!(seen.messages > 0, "k {k} seed {seed}: nothing delivered");
                assert!(seen.out_of_order > 0, "k {k} seed {seed}: all in order");
                backoffs += seen.backoffs;
            }
            assert!(backoffs > 0, "k {k}: no back-off");
        }
    }

    #[test]
    fn decoding_the_parts_agrees_with_decoding_their_xor() {
        let mut rng = StdRng::seed_from_u64(3);
        let xor_of = |parts: &[Vec<u8>]| {
            let mut combined = vec![0; parts[0].len()];
            for part in parts {
                xor_into(&mut combined, part);
            }
            combined
        };
        for slot_len in [8, 13, 64, 300, 301] {
            for k in [1, 2, 5, 9] {
                // k − 1 random parts and one that cancels them: silence.
                let mut parts: Vec<Vec<u8>> = (1..k)
                    .map(|_| {
                        let mut part = vec![0; slot_len];
                        rng.fill_bytes(&mut part);
                        part
                    })
                    .collect();
                let mut last = vec![0; slot_len];
                for part in &parts {
                    xor_into(&mut last, part);
                }
                parts.push(last);
                let decoded =
                    |parts: &[Vec<u8>]| slot::decode_parts(parts.iter().map(Vec::as_slice));
                assert_eq!(
                    decoded(&parts),
                    SlotOutcome::Silence,
                    "slot {slot_len}, k {k}"
                );
                // One non-zero byte anywhere, the tail words included.
                for at in 0..slot_len {
                    let byte = 1 << (at % 8);
                    parts[k - 1][at] ^= byte;
                    let combined = xor_of(&parts);
                    assert!(combined.iter().any(|&b| b != 0));
                    let outcome = decoded(&parts);
                    assert_eq!(
                        outcome,
                        slot::decode(&combined),
                        "slot {slot_len}, k {k}, byte {at}"
                    );
                    assert_ne!(
                        outcome,
                        SlotOutcome::Silence,
                        "slot {slot_len}, k {k}, byte {at}"
                    );
                    parts[k - 1][at] ^= byte;
                }
                // A frame split into k parts decodes to its payload.
                let payload = &b"split frame"[..slot::capacity(slot_len).min(11)];
                let frame = slot::encode(payload, slot_len).unwrap();
                let last = parts.len() - 1;
                xor_into(&mut parts[last], &frame);
                assert_eq!(decoded(&parts), SlotOutcome::Message(payload.to_vec()));
                xor_into(&mut parts[last], &frame);
            }
        }
    }
}
