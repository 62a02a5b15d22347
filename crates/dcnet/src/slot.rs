//! Slot framing for DC-net rounds.
//!
//! A DC-net round transports one fixed-size *slot*. The paper (Fig. 4)
//! requires the slot content to "carry CRC bits or a similar protection" so
//! that a collision — two members transmitting in the same round — is
//! detected rather than silently accepted as a garbled message. This module
//! frames variable-length payloads into fixed-size slots:
//!
//! ```text
//! | length: u32 LE | payload … | zero padding … | crc32(length‖payload‖padding) |
//! ```
//!
//! Concretely a slot of size `S` holds `4 + payload + padding + 4` bytes,
//! so `S` is at least [`SLOT_OVERHEAD`]; the CRC covers everything before
//! it, so any bit flip — or the XOR of two valid frames — fails
//! verification with probability ≈ 1 − 2⁻³².

use fnp_crypto::crc32::crc32;
use std::fmt;

/// Length prefix (4 bytes) plus CRC trailer (4 bytes).
pub const SLOT_OVERHEAD: usize = 8;

/// Outcome of decoding a recovered DC-net slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SlotOutcome {
    /// Nobody transmitted in this round (the slot is all zeros).
    Silence,
    /// Exactly one member transmitted this payload.
    Message(Vec<u8>),
    /// The slot is garbled: either several members transmitted in the same
    /// round (a collision) or a member injected garbage.
    Collision,
}

impl fmt::Display for SlotOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotOutcome::Silence => write!(f, "silence"),
            SlotOutcome::Message(m) => write!(f, "message({} bytes)", m.len()),
            SlotOutcome::Collision => write!(f, "collision"),
        }
    }
}

/// Error returned when a payload cannot be framed into the requested slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadTooLargeError {
    /// Length of the payload that was offered.
    pub payload_len: usize,
    /// Maximum payload the slot can carry.
    pub capacity: usize,
}

impl fmt::Display for PayloadTooLargeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload of {} bytes exceeds slot capacity of {} bytes",
            self.payload_len, self.capacity
        )
    }
}

impl std::error::Error for PayloadTooLargeError {}

/// Returns the maximum payload length a slot of `slot_len` bytes can carry.
pub fn capacity(slot_len: usize) -> usize {
    slot_len.saturating_sub(SLOT_OVERHEAD)
}

/// Frames `payload` into a slot of exactly `slot_len` bytes.
///
/// # Errors
///
/// Returns [`PayloadTooLargeError`] if the payload does not fit, which
/// includes any slot shorter than [`SLOT_OVERHEAD`].
pub fn encode(payload: &[u8], slot_len: usize) -> Result<Vec<u8>, PayloadTooLargeError> {
    let mut slot = Vec::with_capacity(slot_len);
    encode_into(payload, slot_len, &mut slot)?;
    Ok(slot)
}

/// Frames `payload` into `out`, producing exactly `slot_len` bytes.
///
/// In-place form of [`encode`]: `out` is cleared first and reused, so the
/// call performs no heap allocation once `out` carries `slot_len` bytes of
/// capacity. This is what the DC-net contribute hot path builds slots with.
///
/// # Errors
///
/// Returns [`PayloadTooLargeError`] if the payload does not fit; `out` is
/// left cleared in that case.
pub fn encode_into(
    payload: &[u8],
    slot_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), PayloadTooLargeError> {
    let cap = capacity(slot_len);
    out.clear();
    if payload.len() > cap || slot_len < SLOT_OVERHEAD {
        return Err(PayloadTooLargeError {
            payload_len: payload.len(),
            capacity: cap,
        });
    }
    let declared = u32::try_from(payload.len()).expect("payload length fits the 4-byte prefix");
    out.reserve(slot_len);
    out.extend_from_slice(&declared.to_le_bytes());
    out.extend_from_slice(payload);
    out.resize(slot_len - 4, 0);
    let checksum = crc32(out);
    out.extend_from_slice(&checksum.to_le_bytes());
    debug_assert_eq!(out.len(), slot_len);
    Ok(())
}

/// Returns an all-zero slot representing "nothing to send".
///
/// The all-zero slot is exactly what the XOR of honest pads collapses to
/// when no member transmits, so silence needs no special casing.
pub fn silence(slot_len: usize) -> Vec<u8> {
    vec![0u8; slot_len]
}

/// Writes an all-zero slot into `out` (cleared first, capacity reused).
pub fn silence_into(slot_len: usize, out: &mut Vec<u8>) {
    out.clear();
    out.resize(slot_len, 0);
}

/// Decodes a recovered slot into a [`SlotOutcome`].
///
/// Slots shorter than the framing overhead are reported as collisions —
/// they cannot have been produced by [`encode`].
pub fn decode(slot: &[u8]) -> SlotOutcome {
    if slot.iter().all(|&b| b == 0) {
        return SlotOutcome::Silence;
    }
    if slot.len() < SLOT_OVERHEAD {
        return SlotOutcome::Collision;
    }
    let (body, trailer) = slot.split_at(slot.len() - 4);
    let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(body) != expected {
        return SlotOutcome::Collision;
    }
    let declared = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    if declared > body.len() - 4 {
        return SlotOutcome::Collision;
    }
    // Padding must be zero; non-zero padding means the frame was tampered
    // with in a way that happened to keep the CRC valid over a prefix.
    if body[4 + declared..].iter().any(|&b| b != 0) {
        return SlotOutcome::Collision;
    }
    SlotOutcome::Message(body[4..4 + declared].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_crypto::prg::xor;
    use proptest::prelude::*;

    #[test]
    fn round_trip_various_sizes() {
        for payload_len in [0usize, 1, 10, 100, 247] {
            let payload: Vec<u8> = (0..payload_len)
                .map(|i| u8::try_from(i % 256).unwrap())
                .collect();
            let slot = encode(&payload, 256).unwrap();
            assert_eq!(slot.len(), 256);
            assert_eq!(decode(&slot), SlotOutcome::Message(payload));
        }
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_the_buffer() {
        let mut buf = Vec::new();
        // Reuse the same buffer across growing and shrinking slot sizes.
        for (payload, slot_len) in [
            (b"first".as_slice(), 64usize),
            (b"a longer second payload".as_slice(), 256),
            (b"".as_slice(), 16),
        ] {
            encode_into(payload, slot_len, &mut buf).unwrap();
            assert_eq!(buf, encode(payload, slot_len).unwrap());
        }
        let ptr = buf.as_ptr();
        encode_into(b"again", 64, &mut buf).unwrap();
        assert_eq!(ptr, buf.as_ptr(), "capacity is reused, not reallocated");
    }

    #[test]
    fn encode_into_clears_the_buffer_on_error() {
        let mut buf = b"stale".to_vec();
        assert!(encode_into(&[0u8; 300], 64, &mut buf).is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn silence_into_matches_silence() {
        let mut buf = b"leftover bytes".to_vec();
        silence_into(64, &mut buf);
        assert_eq!(buf, silence(64));
        silence_into(8, &mut buf);
        assert_eq!(buf, silence(8));
    }

    #[test]
    fn oversized_payload_rejected() {
        let err = encode(&[0u8; 300], 256).unwrap_err();
        assert_eq!(err.capacity, 248);
        assert_eq!(err.payload_len, 300);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn capacity_accounts_for_overhead() {
        assert_eq!(capacity(256), 248);
        assert_eq!(capacity(8), 0);
        assert_eq!(capacity(4), 0);
    }

    #[test]
    fn zero_capacity_slot_can_still_signal() {
        // An 8-byte slot carries an empty payload — still distinguishable
        // from silence, which is what the reservation round exploits.
        let slot = encode(b"", 8).unwrap();
        assert_eq!(decode(&slot), SlotOutcome::Message(vec![]));
    }

    #[test]
    fn slots_shorter_than_the_overhead_refuse_every_payload() {
        for slot_len in 0..SLOT_OVERHEAD {
            assert_eq!(
                encode(b"", slot_len),
                Err(PayloadTooLargeError {
                    payload_len: 0,
                    capacity: 0
                }),
                "slot of {slot_len} B"
            );
        }
        let framed = encode(b"", SLOT_OVERHEAD).unwrap();
        assert_eq!(decode(&framed), SlotOutcome::Message(vec![]));
    }

    #[test]
    fn all_zero_slot_is_silence() {
        assert_eq!(decode(&silence(64)), SlotOutcome::Silence);
        assert_eq!(decode(&[]), SlotOutcome::Silence);
    }

    #[test]
    fn xor_of_two_frames_is_collision() {
        let a = encode(b"first message", 128).unwrap();
        let b = encode(b"second message!", 128).unwrap();
        assert_eq!(decode(&xor(&a, &b)), SlotOutcome::Collision);
    }

    #[test]
    fn bit_flip_is_collision() {
        let mut slot = encode(b"payload", 64).unwrap();
        slot[10] ^= 0x40;
        assert_eq!(decode(&slot), SlotOutcome::Collision);
    }

    #[test]
    fn truncated_slot_is_collision() {
        assert_eq!(decode(&[1, 2, 3]), SlotOutcome::Collision);
    }

    #[test]
    fn declared_length_beyond_body_is_collision() {
        // Hand-craft a frame with an absurd length prefix but valid CRC.
        let mut body = vec![0u8; 60];
        body[..4].copy_from_slice(&1000u32.to_le_bytes());
        let crc = crc32(&body);
        let mut slot = body;
        slot.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&slot), SlotOutcome::Collision);
    }

    #[test]
    fn nonzero_padding_is_collision() {
        let mut body = vec![0u8; 60];
        body[..4].copy_from_slice(&2u32.to_le_bytes());
        body[4] = b'h';
        body[5] = b'i';
        body[30] = 0xFF; // padding byte that should be zero
        let crc = crc32(&body);
        let mut slot = body;
        slot.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&slot), SlotOutcome::Collision);
    }

    #[test]
    fn outcome_display() {
        assert_eq!(SlotOutcome::Silence.to_string(), "silence");
        assert_eq!(
            SlotOutcome::Message(vec![1, 2]).to_string(),
            "message(2 bytes)"
        );
        assert_eq!(SlotOutcome::Collision.to_string(), "collision");
    }

    proptest! {
        #[test]
        fn prop_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..240)) {
            let slot = encode(&payload, 256).unwrap();
            prop_assert_eq!(decode(&slot), SlotOutcome::Message(payload));
        }

        #[test]
        fn prop_collisions_detected(
            a in proptest::collection::vec(any::<u8>(), 1..100),
            b in proptest::collection::vec(any::<u8>(), 1..100),
        ) {
            // Two *different* framed messages XORed together must never decode
            // as a clean message (they decode as Collision; identical inputs
            // XOR to silence, which we exclude).
            prop_assume!(a != b);
            let fa = encode(&a, 128).unwrap();
            let fb = encode(&b, 128).unwrap();
            let collided = xor(&fa, &fb);
            prop_assert_eq!(decode(&collided), SlotOutcome::Collision);
        }
    }
}
