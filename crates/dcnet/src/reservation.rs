//! The length-reservation optimisation of §V-A.
//!
//! A DC-net group must run rounds periodically even when nobody has a
//! transaction to send, otherwise the *timing* of rounds leaks who had
//! something to say. Running every idle round at full transaction size is
//! wasteful, so the paper proposes:
//!
//! > the base message size could be restricted to an integer representing
//! > the length of the next message, e.g. 32 bit. If the shared integer is
//! > not zero, a follow up round uses the resulting number as a one time
//! > message size. To protect the length distribution from collisions, the
//! > integer needs to be protected by CRC bits or similar mechanisms.
//!
//! This module implements that two-step schedule: a tiny *reservation*
//! round carrying a checksummed 32-bit length announcement, followed —
//! only when the announcement was non-zero and collision-free — by a
//! *payload* round sized exactly for the announced message. It also
//! provides the cost model experiment E9 reports (bytes per idle round with
//! and without the optimisation).

use crate::slot::{self, SlotOutcome};
use std::fmt;

/// Slot size of a reservation round: 4 length bytes + framing overhead.
pub const RESERVATION_SLOT_LEN: usize = 4 + slot::SLOT_OVERHEAD;

/// Outcome of a reservation round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReservationOutcome {
    /// Nobody announced a message; no payload round follows.
    Idle,
    /// Exactly one member announced a message of this many bytes; a payload
    /// round of the corresponding slot size follows.
    Reserved {
        /// Announced payload length in bytes.
        payload_len: u32,
    },
    /// Several members announced simultaneously (or the slot was garbled);
    /// senders must back off and re-announce in a later round.
    Collision,
}

impl fmt::Display for ReservationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReservationOutcome::Idle => write!(f, "idle"),
            ReservationOutcome::Reserved { payload_len } => {
                write!(f, "reserved({payload_len} bytes)")
            }
            ReservationOutcome::Collision => write!(f, "collision"),
        }
    }
}

/// Encodes a member's announcement for the reservation round.
///
/// `payload_len = None` (nothing to send) produces the silent slot; an
/// announcement of zero bytes is rejected at the type level by using the
/// actual intended length — callers with an empty message should simply not
/// reserve.
pub fn encode_announcement(payload_len: Option<u32>) -> Option<Vec<u8>> {
    payload_len.map(|len| len.to_le_bytes().to_vec())
}

/// Interprets the outcome of a reservation round.
pub fn interpret_reservation(outcome: &SlotOutcome) -> ReservationOutcome {
    match outcome {
        SlotOutcome::Silence => ReservationOutcome::Idle,
        SlotOutcome::Collision => ReservationOutcome::Collision,
        SlotOutcome::Message(bytes) => {
            if bytes.len() != 4 {
                return ReservationOutcome::Collision;
            }
            let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            if len == 0 {
                // A zero-length reservation carries no information; treat it
                // as idle rather than scheduling an empty payload round.
                ReservationOutcome::Idle
            } else {
                ReservationOutcome::Reserved { payload_len: len }
            }
        }
    }
}

/// The slot size of the payload round that follows a successful reservation.
pub fn payload_slot_len(reserved: u32) -> usize {
    reserved as usize + slot::SLOT_OVERHEAD
}

/// Cost model for the reservation schedule, reported by experiment E9.
///
/// All figures count the bytes transmitted by a keyed (single-contribution)
/// DC-net round over a full mesh of `k` members: `k·(k−1)` messages of the
/// round's slot size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservationCostModel {
    /// Group size.
    pub group_size: usize,
    /// Slot size (bytes) that a fixed-size scheme would use every round.
    pub fixed_slot_len: usize,
}

impl ReservationCostModel {
    /// Creates a cost model for a group of `group_size` members whose
    /// transactions need at most `fixed_slot_len` bytes per slot.
    pub fn new(group_size: usize, fixed_slot_len: usize) -> Self {
        Self {
            group_size,
            fixed_slot_len,
        }
    }

    fn mesh_messages(&self) -> u64 {
        let k = self.group_size as u64;
        if k < 2 {
            0
        } else {
            k * (k - 1)
        }
    }

    /// Bytes per idle round *without* the optimisation: a full-size slot is
    /// exchanged even though nobody sends.
    pub fn idle_round_bytes_without_reservation(&self) -> u64 {
        self.mesh_messages() * self.fixed_slot_len as u64
    }

    /// Bytes per idle round *with* the optimisation: only the 12-byte
    /// reservation slot is exchanged.
    pub fn idle_round_bytes_with_reservation(&self) -> u64 {
        self.mesh_messages() * RESERVATION_SLOT_LEN as u64
    }

    /// Bytes for a round that actually carries a payload of `payload_len`
    /// bytes under the optimisation (reservation round + exactly-sized
    /// payload round).
    pub fn busy_round_bytes_with_reservation(&self, payload_len: u32) -> u64 {
        self.idle_round_bytes_with_reservation()
            + self.mesh_messages() * payload_slot_len(payload_len) as u64
    }

    /// Bytes for a round carrying a payload without the optimisation (one
    /// fixed-size round).
    pub fn busy_round_bytes_without_reservation(&self) -> u64 {
        self.mesh_messages() * self.fixed_slot_len as u64
    }

    /// The factor by which idle traffic shrinks with the optimisation.
    pub fn idle_savings_factor(&self) -> f64 {
        let with = self.idle_round_bytes_with_reservation();
        if with == 0 {
            return 1.0;
        }
        self.idle_round_bytes_without_reservation() as f64 / with as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::KeyedDcGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reservation_slot_is_twelve_bytes() {
        assert_eq!(RESERVATION_SLOT_LEN, 12);
    }

    #[test]
    fn idle_reservation_round() {
        let outcome = SlotOutcome::Silence;
        assert_eq!(interpret_reservation(&outcome), ReservationOutcome::Idle);
    }

    #[test]
    fn reserved_round_reports_length() {
        let announcement = encode_announcement(Some(300)).unwrap();
        let outcome = SlotOutcome::Message(announcement);
        assert_eq!(
            interpret_reservation(&outcome),
            ReservationOutcome::Reserved { payload_len: 300 }
        );
        assert_eq!(payload_slot_len(300), 308);
    }

    #[test]
    fn zero_length_reservation_is_idle() {
        let outcome = SlotOutcome::Message(0u32.to_le_bytes().to_vec());
        assert_eq!(interpret_reservation(&outcome), ReservationOutcome::Idle);
    }

    #[test]
    fn malformed_announcement_is_collision() {
        let outcome = SlotOutcome::Message(vec![1, 2, 3]);
        assert_eq!(
            interpret_reservation(&outcome),
            ReservationOutcome::Collision
        );
        assert_eq!(
            interpret_reservation(&SlotOutcome::Collision),
            ReservationOutcome::Collision
        );
    }

    #[test]
    fn no_announcement_encodes_to_none() {
        assert_eq!(encode_announcement(None), None);
        assert_eq!(
            encode_announcement(Some(7)).unwrap(),
            7u32.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn end_to_end_reservation_then_payload() {
        // Run the two-step schedule over a real keyed DC-net group.
        let mut rng = StdRng::seed_from_u64(1);
        let mut reservation_group = KeyedDcGroup::new(5, RESERVATION_SLOT_LEN, &mut rng).unwrap();

        let message = b"a 37-byte transaction for the ledger!".to_vec();
        assert_eq!(message.len(), 37);

        // Reservation round: member 3 announces 37 bytes.
        let mut announcements = vec![None; 5];
        announcements[3] = encode_announcement(Some(u32::try_from(message.len()).unwrap()));
        let reservation = reservation_group.run_round(0, &announcements).unwrap();
        let reserved = interpret_reservation(&reservation.outcome);
        assert_eq!(reserved, ReservationOutcome::Reserved { payload_len: 37 });

        // Payload round sized to the announcement.
        let ReservationOutcome::Reserved { payload_len } = reserved else {
            unreachable!()
        };
        let mut payload_group =
            KeyedDcGroup::new(5, payload_slot_len(payload_len), &mut rng).unwrap();
        let mut payloads = vec![None; 5];
        payloads[3] = Some(message.clone());
        let payload_round = payload_group.run_round(1, &payloads).unwrap();
        assert_eq!(payload_round.outcome, SlotOutcome::Message(message));
    }

    #[test]
    fn reservation_collision_detected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut group = KeyedDcGroup::new(4, RESERVATION_SLOT_LEN, &mut rng).unwrap();
        let announcements = vec![
            encode_announcement(Some(100)),
            encode_announcement(Some(200)),
            None,
            None,
        ];
        let report = group.run_round(0, &announcements).unwrap();
        assert_eq!(
            interpret_reservation(&report.outcome),
            ReservationOutcome::Collision
        );
    }

    #[test]
    fn cost_model_savings() {
        let model = ReservationCostModel::new(8, 512);
        assert_eq!(model.idle_round_bytes_without_reservation(), 56 * 512);
        assert_eq!(model.idle_round_bytes_with_reservation(), 56 * 12);
        assert!((model.idle_savings_factor() - 512.0 / 12.0).abs() < 1e-9);
        // A busy round pays the reservation overhead but still beats the
        // fixed scheme when the payload is much smaller than the fixed slot.
        assert!(
            model.busy_round_bytes_with_reservation(100)
                < model.busy_round_bytes_without_reservation()
        );
    }

    #[test]
    fn cost_model_degenerate_group() {
        let model = ReservationCostModel::new(1, 512);
        assert_eq!(model.idle_round_bytes_without_reservation(), 0);
        assert_eq!(model.idle_savings_factor(), 1.0);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(ReservationOutcome::Idle.to_string(), "idle");
        assert_eq!(
            ReservationOutcome::Reserved { payload_len: 5 }.to_string(),
            "reserved(5 bytes)"
        );
        assert_eq!(ReservationOutcome::Collision.to_string(), "collision");
    }
}
