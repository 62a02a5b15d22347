//! # fnp-crypto — cryptographic substrate for the flexible privacy broadcast
//!
//! This crate implements, from scratch and without external cryptographic
//! dependencies, every primitive required by the reproduction of
//! *"A Flexible Network Approach to Privacy of Blockchain Transactions"*
//! (Mödinger, Kopp, Kargl, Hauck — ICDCS 2018):
//!
//! * [`sha256`] — the hash used to fingerprint node identities and
//!   transactions, to perform the verifiable virtual-source election at
//!   the phase 1 → phase 2 transition, and to check DC-net slots for
//!   collisions (Fig. 4).
//! * [`hmac`] / [`hkdf`] — key derivation for the pairwise DC-net channels.
//! * [`chacha20`] — the stream cipher realising pairwise encrypted channels
//!   and the pseudorandom pads of the dining-cryptographers rounds.
//! * [`dh`] — finite-field Diffie–Hellman key agreement establishing the
//!   pairwise secrets (simulation-strength parameters; see the module docs).
//! * [`identity`] — node identities, the XOR hash-distance metric and the
//!   deterministic virtual-source election.
//! * [`prg`] — XOR share splitting (Fig. 4 step 1) and deterministic
//!   pad schedules for the pad-based DC-net variant.
//! * [`hex`] — encoding helpers for fingerprints and test vectors.
//!
//! All primitives are validated against official test vectors (FIPS 180-4,
//! RFC 4231, RFC 5869, RFC 8439) in their unit tests.
//!
//! The crate is safe Rust except for two compile-time-selected kernels.
//! `unsafe_code` is denied crate-wide and allowed, each with a SAFETY
//! comment, at three sites only:
//!
//! * [`sha256`]'s compression calls the kernel on the x86 SHA extensions
//!   when the build targets them;
//! * [`PeerKeys`]' fold calls the 16-lane kernel when the build targets
//!   AVX-512F ([`chacha20`]);
//! * that kernel reads each folded `__m512i` block out as its 64 bytes.
//!
//! Calling a `#[target_feature]` function is what makes the two calls
//! `unsafe`; the `cfg` that compiles each call proves the features are
//! enabled for the whole build. The 16-lane kernel's tests call it once
//! more, directly, under the same `cfg`.
//!
//! # Quick example: establishing a DC-net pad between two nodes
//!
//! ```
//! use fnp_crypto::{dh::KeyPair, dh::pairwise_pad_key, prg::PadGenerator};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let alice = KeyPair::generate(&mut rng);
//! let bob = KeyPair::generate(&mut rng);
//!
//! // Both sides derive the same symmetric key and therefore the same pads.
//! let key_a = pairwise_pad_key(&alice, &bob.public_key());
//! let key_b = pairwise_pad_key(&bob, &alice.public_key());
//! assert_eq!(key_a, key_b);
//!
//! let round = 3;
//! let pad_a = PadGenerator::new(key_a).pad(round, 64);
//! let pad_b = PadGenerator::new(key_b).pad(round, 64);
//! assert_eq!(pad_a, pad_b);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Keystream generation and digest packing cast between integer widths on
// hot paths; every remaining cast site must either be provably lossless or
// carry an explicit allow with the reason.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::cast_sign_loss)]

pub mod chacha20;
pub mod dh;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod identity;
pub mod prg;
pub mod sha256;

pub use chacha20::{ChaCha20, PeerKeys};
pub use dh::{pairwise_pad_key, KeyPair, PublicKey};
pub use hkdf::{hkdf_sha256, Hkdf};
pub use hmac::{hmac_sha256, HmacSha256};
pub use identity::{elect_virtual_source, elect_virtual_source_index, hash_distance, Identity};
pub use prg::{combine_shares, random_shares, xor, xor_into, PadGenerator};
pub use sha256::Sha256;

#[cfg(test)]
mod tests {
    use super::*;

    /// A key with no repeated byte, for the `Debug` redaction tests.
    pub(crate) fn distinct_key() -> [u8; 32] {
        core::array::from_fn(|i| 0xC1 + u8::try_from(i).expect("below 32"))
    }

    /// Asserts that `printed` (a `Debug` rendering of something keyed with
    /// [`distinct_key`]) shows no run of key bytes: no two consecutive bytes
    /// as a decimal list or as hex, and no little-endian key word.
    pub(crate) fn assert_no_key_run(printed: &str) {
        for pair in distinct_key().windows(2) {
            let (a, b) = (pair[0], pair[1]);
            for run in [
                format!("{a}, {b}"),
                format!("{a},\n"),
                format!("{a:02x}{b:02x}"),
            ] {
                assert!(!printed.contains(&run), "{run:?} in {printed}");
            }
        }
        for word in distinct_key().chunks_exact(4) {
            let word = u32::from_le_bytes(word.try_into().expect("4-byte chunk"));
            for run in [format!("{word}"), format!("{word:x}")] {
                assert!(!printed.contains(&run), "{run:?} in {printed}");
            }
        }
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sha256>();
        assert_send_sync::<ChaCha20>();
        assert_send_sync::<PeerKeys>();
        assert_send_sync::<KeyPair>();
        assert_send_sync::<PublicKey>();
        assert_send_sync::<Identity>();
        assert_send_sync::<PadGenerator>();
        assert_send_sync::<Hkdf>();
        assert_send_sync::<HmacSha256>();
    }

    #[test]
    fn end_to_end_pad_cancellation() {
        // Three nodes, pairwise keys, one sender: the XOR of everything each
        // node transmits equals the sender's message — the core DC-net
        // property the higher layers rely on.
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(99);
        let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let message = b"pay 5 tokens to carol".to_vec();
        let slot = message.len();
        let round = 1;

        let mut transmissions = Vec::new();
        for i in 0..3 {
            let mut contribution = vec![0u8; slot];
            if i == 0 {
                contribution.copy_from_slice(&message);
            }
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let key = pairwise_pad_key(&keys[i], &keys[j].public_key());
                let pad = PadGenerator::new(key).pad(round, slot);
                xor_into(&mut contribution, &pad);
            }
            transmissions.push(contribution);
        }

        let recovered = combine_shares(transmissions.iter().map(|t| t.as_slice()));
        assert_eq!(recovered, message);
    }
}
