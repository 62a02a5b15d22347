//! Slot framing for DC-net rounds.
//!
//! A DC-net round transports one fixed-size *slot*. The paper (Fig. 4)
//! requires the slot content to "carry CRC bits or a similar protection" so
//! that a collision — two members transmitting in the same round — is
//! detected rather than silently accepted as a garbled message. This module
//! frames variable-length payloads into fixed-size slots:
//!
//! ```text
//! | length: u32 LE | payload … | zero padding … | SHA-256(length‖payload‖padding)[..4] |
//! ```
//!
//! Concretely a slot of size `S` holds `4 + payload + padding + 4` bytes,
//! so `S` is at least [`SLOT_OVERHEAD`]; the check covers everything before
//! it. SHA-256 is not linear over XOR, so a bit flip, or the XOR of any two
//! or more valid frames (a collision of any number of senders), passes
//! verification with probability about 2⁻³². A CRC would not do: CRC-32 is
//! affine, so the XOR of an odd number of equal-length frames carries a
//! valid CRC, and three senders would read as a message none of them sent.

use fnp_crypto::prg::xor_into;
use fnp_crypto::sha256::Sha256;
use std::fmt;

/// Length prefix (4 bytes) plus check trailer (4 bytes).
pub const SLOT_OVERHEAD: usize = 8;

/// The trailer over a frame's `body` (length‖payload‖padding): the first
/// four bytes of its SHA-256 digest.
fn check(body: &[u8]) -> [u8; 4] {
    let digest = Sha256::digest(body);
    [digest[0], digest[1], digest[2], digest[3]]
}

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

/// Fails unless a payload of `payload_len` bytes fits a slot of `slot_len`
/// bytes, which no payload does if the slot is shorter than
/// [`SLOT_OVERHEAD`].
///
/// # Errors
///
/// Returns [`PayloadTooLargeError`] if the payload does not fit.
pub(crate) fn check_fit(payload_len: usize, slot_len: usize) -> Result<(), PayloadTooLargeError> {
    let cap = capacity(slot_len);
    if payload_len > cap || slot_len < SLOT_OVERHEAD {
        return Err(PayloadTooLargeError {
            payload_len,
            capacity: cap,
        });
    }
    Ok(())
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
/// `Vec` form of [`encode_in_place`]: `out` is resized and reused, so the
/// call performs no heap allocation once `out` carries `slot_len` bytes of
/// capacity.
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
    out.resize(slot_len, 0);
    encode_in_place(payload, out).inspect_err(|_| out.clear())
}

/// Frames `payload` into `slot`, the whole of it: every byte is written,
/// whatever it held before, so a DC-net contribution is framed where it
/// is sent from, with no buffer to copy out of.
///
/// # Errors
///
/// Returns [`PayloadTooLargeError`] if the payload does not fit; `slot` is
/// left as it was in that case.
pub fn encode_in_place(payload: &[u8], slot: &mut [u8]) -> Result<(), PayloadTooLargeError> {
    check_fit(payload.len(), slot.len())?;
    let declared = u32::try_from(payload.len()).expect("payload length fits the 4-byte prefix");
    let (body, trailer) = slot.split_at_mut(slot.len() - 4);
    let (prefix, rest) = body.split_at_mut(4);
    prefix.copy_from_slice(&declared.to_le_bytes());
    let (carried, padding) = rest.split_at_mut(payload.len());
    carried.copy_from_slice(payload);
    padding.fill(0);
    trailer.copy_from_slice(&check(body));
    Ok(())
}

/// Returns an all-zero slot representing "nothing to send".
///
/// The all-zero slot is exactly what the XOR of honest pads collapses to
/// when no member transmits, so silence needs no special casing.
pub fn silence(slot_len: usize) -> Vec<u8> {
    vec![0u8; slot_len]
}

/// Whether the XOR of `parts`, slots of one length, is all zeros, folded
/// a word at a time.
fn is_silent<'a, I>(parts: I) -> bool
where
    I: Iterator<Item = &'a [u8]> + Clone,
{
    const WORD: usize = size_of::<u64>();
    let len = parts.clone().next().map_or(0, <[u8]>::len);
    let words = len - len % WORD;
    let word = |part: &[u8], at: usize| {
        u64::from_ne_bytes(part[at..at + WORD].try_into().expect("one word"))
    };
    (0..words)
        .step_by(WORD)
        .all(|at| parts.clone().fold(0, |fold, part| fold ^ word(part, at)) == 0)
        && (words..len).all(|at| parts.clone().fold(0, |fold, part| fold ^ part[at]) == 0)
}

/// Decodes a recovered slot into a [`SlotOutcome`].
///
/// Slots shorter than the framing overhead are reported as collisions —
/// they cannot have been produced by [`encode`].
pub fn decode(slot: &[u8]) -> SlotOutcome {
    decode_parts([slot])
}

/// Decodes the XOR of `parts`, slots of one length, as [`decode`] decodes
/// one slot: a DC-net round's `k` contributions are decoded as they are,
/// never combined into a buffer. An all-zero fold, told a word at a time,
/// is silence; otherwise the frame is folded through a block on the stack
/// into its check, and a valid message's payload is folded straight into
/// the returned `Vec`. No parts decode to silence.
///
/// # Panics
///
/// If the parts differ in length.
pub fn decode_parts<'a, I>(parts: I) -> SlotOutcome
where
    I: IntoIterator<Item = &'a [u8]>,
    I::IntoIter: Clone,
{
    let parts = parts.into_iter();
    let len = parts.clone().next().map_or(0, <[u8]>::len);
    assert!(
        parts.clone().all(|part| part.len() == len),
        "the parts of one slot share its length"
    );
    if is_silent(parts.clone()) {
        return SlotOutcome::Silence;
    }
    if len < SLOT_OVERHEAD {
        return SlotOutcome::Collision;
    }
    // Writes the XOR of the parts' bytes `from..from + out.len()` to `out`.
    let fold = |from: usize, out: &mut [u8]| {
        out.fill(0);
        for part in parts.clone() {
            xor_into(out, &part[from..from + out.len()]);
        }
    };
    let body_len = len - 4;
    let (mut prefix, mut trailer) = ([0; 4], [0; 4]);
    fold(0, &mut prefix);
    fold(body_len, &mut trailer);
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared > body_len - 4 {
        return SlotOutcome::Collision;
    }
    // Padding must be zero; non-zero padding means the frame was tampered
    // with in a way that happened to keep the check valid.
    let padding = 4 + declared..body_len;
    let mut hasher = Sha256::new();
    const BLOCK: usize = 64;
    let mut block = [0; BLOCK];
    for from in (0..body_len).step_by(BLOCK) {
        let block = &mut block[..(body_len - from).min(BLOCK)];
        fold(from, block);
        hasher.update(block);
        let (start, end) = (padding.start.max(from), padding.end.min(from + block.len()));
        if start < end && block[start - from..end - from].iter().any(|&b| b != 0) {
            return SlotOutcome::Collision;
        }
    }
    if trailer != hasher.finalize()[..4] {
        return SlotOutcome::Collision;
    }
    let mut message = vec![0; declared];
    fold(4, &mut message);
    SlotOutcome::Message(message)
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
    fn xor_of_three_frames_is_collision() {
        // Equal lengths, so the length prefixes XOR to a valid one: only
        // the check trailer can tell.
        let frames = [b"tx from 0", b"tx from 3", b"tx from 6"].map(|m| encode(m, 96).unwrap());
        let collided = xor(&xor(&frames[0], &frames[1]), &frames[2]);
        assert_eq!(decode(&collided), SlotOutcome::Collision);
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
        // Hand-craft a frame with an absurd length prefix but a valid check.
        let mut body = vec![0u8; 60];
        body[..4].copy_from_slice(&1000u32.to_le_bytes());
        let trailer = check(&body);
        let mut slot = body;
        slot.extend_from_slice(&trailer);
        assert_eq!(decode(&slot), SlotOutcome::Collision);
    }

    #[test]
    fn nonzero_padding_is_collision() {
        let mut body = vec![0u8; 60];
        body[..4].copy_from_slice(&2u32.to_le_bytes());
        body[4] = b'h';
        body[5] = b'i';
        body[30] = 0xFF; // padding byte that should be zero
        let trailer = check(&body);
        let mut slot = body;
        slot.extend_from_slice(&trailer);
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
