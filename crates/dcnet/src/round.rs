//! One member's phase-1 round engine: the keyed DC-net rounds of the
//! flexible broadcast (§IV-B).
//!
//! Starting a round builds the member's [`keyed`](crate::keyed)
//! contribution, its pending payload injected or silence; the peers'
//! contributions arrive over the wire, possibly before this member starts
//! the round. Once all `k` are in, their XOR decodes to a [`SlotOutcome`].
//! A collision on a round the member injected into backs its payload off
//! for one round with probability ½; its own payload as the message clears
//! it. [`RoundEngine`] never arms a timer: the caller paces the rounds and
//! decides how many to run. A contribution is one `Arc<[u8]>`, shared by
//! the sender's slot and the copies it sends, and rewritten in place for
//! the next round once no peer holds it. [`ReceiveError`] names what no
//! honest peer sends; a complete round always resolves.

use crate::keyed::KeyedParticipant;
use crate::slot::{self, PayloadTooLargeError, SlotOutcome};
use fnp_crypto::prg::xor_into;
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

/// One round's contributions, one slot per member.
type Slots = Box<[Option<Arc<[u8]>>]>;

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
    resolved: Vec<u64>,
    /// Rounds in flight; an entry with every slot empty is free for reuse.
    in_flight: Vec<(u64, Slots)>,
    /// This member's contribution to the last round it resolved, rewritten
    /// in place by the next round if no peer still holds it.
    spare: Option<Arc<[u8]>>,
    /// Builds each contribution and accumulates each round's XOR.
    scratch: Vec<u8>,
}

impl RoundEngine {
    /// The engine of `participant`'s group position, on slots of
    /// `slot_len` bytes.
    pub fn new(participant: Rc<KeyedParticipant>, slot_len: usize) -> Self {
        Self {
            participant,
            slot_len,
            pending: None,
            backoff: false,
            started: 0,
            injected_in: None,
            resolved: Vec::new(),
            in_flight: Vec::new(),
            spare: None,
            scratch: Vec::new(),
        }
    }

    /// Queues `payload` for the next eligible round, replacing any pending.
    ///
    /// # Errors
    ///
    /// Fails, queueing nothing, if the payload does not fit the slot.
    pub fn queue(&mut self, payload: Vec<u8>) -> Result<(), PayloadTooLargeError> {
        // Framing the payload is the check that it fits.
        slot::encode_into(&payload, self.slot_len, &mut self.scratch)?;
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
        let payload = self.pending.as_deref().filter(|_| inject);
        self.participant
            .contribute_into(round, self.slot_len, payload, &mut self.scratch)
            .expect("queue admits only payloads that fit the slot");
        let mut contribution = self.spare.take().unwrap_or_else(|| self.scratch[..].into());
        match Arc::get_mut(&mut contribution) {
            Some(bytes) => bytes.copy_from_slice(&self.scratch),
            None => contribution = self.scratch[..].into(),
        }
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
        } else if self.resolved.contains(&round) {
            Err(ReceiveError::Stale)
        } else {
            self.store(round, member, data, rng)
        }
    }

    /// Puts `data` in `member`'s slot of `round` and resolves the round if
    /// that completed it, freeing its entry.
    fn store<R: Rng + ?Sized>(
        &mut self,
        round: u64,
        member: usize,
        data: Arc<[u8]>,
        rng: &mut R,
    ) -> Result<Option<SlotOutcome>, ReceiveError> {
        let live = |(at, slots): &(u64, Slots)| *at == round && slots.iter().any(Option::is_some);
        let free = |(_, slots): &(u64, Slots)| slots.iter().all(Option::is_none);
        let at = match self.in_flight.iter().position(live) {
            Some(at) => at,
            None => self.in_flight.iter().position(free).unwrap_or_else(|| {
                let k = self.participant.group_size();
                self.in_flight.push((round, vec![None; k].into()));
                self.in_flight.len() - 1
            }),
        };
        let (at_round, slots) = &mut self.in_flight[at];
        if slots[member].is_some() {
            return Err(ReceiveError::Duplicate);
        }
        *at_round = round;
        slots[member] = Some(data);
        if slots.iter().any(Option::is_none) {
            return Ok(None);
        }

        self.scratch.clear();
        self.scratch.resize(self.slot_len, 0);
        for (index, contribution) in slots.iter_mut().map(Option::take).enumerate() {
            let contribution = contribution.expect("a complete round fills every slot");
            xor_into(&mut self.scratch, &contribution);
            if index == self.participant.index() {
                self.spare = Some(contribution);
            }
        }
        self.resolved.push(round);
        let outcome = slot::decode(&self.scratch);
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
