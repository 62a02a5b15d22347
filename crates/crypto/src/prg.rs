//! Keyed pseudorandom generators and pairwise pad schedules for DC-nets.
//!
//! A dining-cryptographers round of group size `k` needs, for every
//! unordered pair `{i, j}` of members, a pad `P_{ij}` known to exactly those
//! two members. Member `i` transmits `m_i ⊕ (⊕_j P_{ij})`; XORing all
//! transmissions cancels every pad (each appears exactly twice) and leaves
//! `⊕_i m_i`.
//!
//! [`PadGenerator`] produces those pads deterministically from a pairwise
//! key (see [`crate::dh::pairwise_pad_key`]) and a round number, so the two
//! endpoints never need to exchange pad material explicitly — matching the
//! paper's assumption of pre-established pairwise channels while avoiding
//! the O(k²) pad transmissions of the explicit construction in its Fig. 4.
//! The explicit share-splitting variant of Fig. 4 is implemented in the
//! `fnp-dcnet` crate on top of [`random_shares`].
//!
//! Pad generation is stateless — each round's pad is an independent
//! ChaCha20 stream keyed by `(pairwise key, round)` — so every operation
//! takes `&self` and a generator can be shared freely. [`PadGenerator`] is
//! the pad-by-pad definition: one key, one whole pad. The DC-net contribute
//! path never materialises a pad — it needs only the XOR of a member's
//! pads, which [`crate::chacha20::PeerKeys`] produces with the member's
//! peers as SIMD lanes, folded before anything is stored — and is tested
//! byte for byte against this type.
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::prg::PadGenerator;
//!
//! let key = [7u8; 32];
//! let alice = PadGenerator::new(key);
//! let bob = PadGenerator::new(key);
//! assert_eq!(alice.pad(0, 128), bob.pad(0, 128));
//! assert_ne!(alice.pad(0, 128), alice.pad(1, 128));
//! ```

use crate::chacha20::ChaCha20;
use core::fmt;
use rand::Rng;

/// Deterministic generator of per-round pads from a pairwise key.
#[derive(Clone)]
pub struct PadGenerator {
    key: [u8; 32],
}

impl fmt::Debug for PadGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PadGenerator")
            .field("key", &"<redacted>")
            .finish()
    }
}

impl PadGenerator {
    /// Creates a pad generator from a 256-bit pairwise key.
    pub fn new(key: [u8; 32]) -> Self {
        Self { key }
    }

    /// Returns the pad for `round`, of length `len` bytes.
    ///
    /// The pad is the ChaCha20 keystream under the pairwise key with the
    /// round number as nonce; both endpoints of the pair derive the
    /// identical bytes.
    pub fn pad(&self, round: u64, len: usize) -> Vec<u8> {
        ChaCha20::for_round(&self.key, round).keystream(len)
    }
}

/// XORs `src` into `dst` element-wise.
///
/// The loop runs over `u64` lanes with a scalar tail; byte order is
/// irrelevant to XOR, so native-endian lane loads preserve the byte-wise
/// semantics exactly (property-tested below).
///
/// # Panics
///
/// Panics if the two slices have different lengths; DC-net slots are always
/// fixed-size within a round, so a length mismatch is a protocol bug.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "xor_into requires equal-length slices ({} vs {})",
        dst.len(),
        src.len()
    );
    let mut dst_lanes = dst.chunks_exact_mut(8);
    let mut src_lanes = src.chunks_exact(8);
    for (d, s) in dst_lanes.by_ref().zip(src_lanes.by_ref()) {
        let lane = u64::from_ne_bytes(d.as_ref().try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&lane.to_ne_bytes());
    }
    for (d, s) in dst_lanes
        .into_remainder()
        .iter_mut()
        .zip(src_lanes.remainder())
    {
        *d ^= s;
    }
}

/// Returns the element-wise XOR of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = a.to_vec();
    xor_into(&mut out, b);
    out
}

/// Splits `message` into `count` random shares whose XOR equals the message.
///
/// This is step 1 of the paper's Fig. 4: "Generate r_1, …, r_k at random and
/// of length n, such that m = ⊕ r_i". The first `count - 1` shares are
/// sampled uniformly at random; the final share is the XOR of the message
/// with all previous shares.
///
/// # Panics
///
/// Panics if `count == 0`; a zero-way split has no meaning in the protocol.
pub fn random_shares<R: Rng + ?Sized>(rng: &mut R, message: &[u8], count: usize) -> Vec<Vec<u8>> {
    assert!(count > 0, "cannot split a message into zero shares");
    let mut shares = Vec::with_capacity(count);
    let mut accumulator = message.to_vec();
    for _ in 0..count - 1 {
        let mut share = vec![0u8; message.len()];
        rng.fill(share.as_mut_slice());
        xor_into(&mut accumulator, &share);
        shares.push(share);
    }
    shares.push(accumulator);
    shares
}

/// Recombines shares produced by [`random_shares`] (or any XOR sharing).
///
/// Returns an empty vector for an empty share list.
///
/// # Panics
///
/// Panics if the shares have inconsistent lengths.
pub fn combine_shares<'a>(shares: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut iter = shares.into_iter();
    let Some(first) = iter.next() else {
        return Vec::new();
    };
    let mut acc = first.to_vec();
    for share in iter {
        xor_into(&mut acc, share);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The plain byte-wise XOR the lane version must be equivalent to.
    fn xor_into_bytewise(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d ^= s;
        }
    }

    #[test]
    fn both_endpoints_derive_identical_pads() {
        let key = [0x11u8; 32];
        let a = PadGenerator::new(key);
        let b = PadGenerator::new(key);
        for round in 0..10u64 {
            assert_eq!(a.pad(round, 256), b.pad(round, 256));
        }
    }

    #[test]
    fn pad_generator_debug_prints_no_key_byte_run() {
        let generator = PadGenerator::new(crate::tests::distinct_key());
        crate::tests::assert_no_key_run(&format!("{generator:?}"));
    }

    #[test]
    fn pads_differ_across_rounds_and_keys() {
        let a = PadGenerator::new([1u8; 32]);
        let b = PadGenerator::new([2u8; 32]);
        assert_ne!(a.pad(0, 64), a.pad(1, 64));
        assert_ne!(a.pad(0, 64), b.pad(0, 64));
    }

    #[test]
    fn xor_round_trips() {
        let a = b"hello world".to_vec();
        let b = b"pad pad pad".to_vec();
        let c = xor(&a, &b);
        assert_eq!(xor(&c, &b), a);
        assert_eq!(xor(&c, &a), b);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_into_panics_on_length_mismatch() {
        let mut dst = vec![0u8; 4];
        xor_into(&mut dst, &[0u8; 5]);
    }

    #[test]
    fn shares_reconstruct_message() {
        let mut rng = StdRng::seed_from_u64(1);
        let message = b"a blockchain transaction".to_vec();
        for count in 1..=10 {
            let shares = random_shares(&mut rng, &message, count);
            assert_eq!(shares.len(), count);
            let refs: Vec<&[u8]> = shares.iter().map(|s| s.as_slice()).collect();
            assert_eq!(combine_shares(refs), message);
        }
    }

    #[test]
    fn single_share_is_the_message() {
        let mut rng = StdRng::seed_from_u64(2);
        let shares = random_shares(&mut rng, b"msg", 1);
        assert_eq!(shares, vec![b"msg".to_vec()]);
    }

    #[test]
    #[should_panic(expected = "zero shares")]
    fn zero_shares_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        random_shares(&mut rng, b"msg", 0);
    }

    #[test]
    fn combine_of_nothing_is_empty() {
        assert!(combine_shares(std::iter::empty::<&[u8]>()).is_empty());
    }

    #[test]
    fn individual_shares_look_independent_of_message() {
        // Every share except the combination of all of them is uniformly
        // random; sanity-check that no single share equals the message for a
        // non-trivial split (overwhelmingly likely).
        let mut rng = StdRng::seed_from_u64(4);
        let message = vec![0xAAu8; 64];
        let shares = random_shares(&mut rng, &message, 5);
        let equal_count = shares.iter().filter(|s| **s == message).count();
        assert_eq!(equal_count, 0);
    }

    proptest! {
        #[test]
        fn prop_shares_always_reconstruct(
            message in proptest::collection::vec(any::<u8>(), 0..256),
            count in 1usize..12,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shares = random_shares(&mut rng, &message, count);
            let refs: Vec<&[u8]> = shares.iter().map(|s| s.as_slice()).collect();
            prop_assert_eq!(combine_shares(refs), message);
        }

        #[test]
        fn prop_xor_is_involutive(
            a in proptest::collection::vec(any::<u8>(), 0..128),
            b_seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(b_seed);
            let mut b = vec![0u8; a.len()];
            Rng::fill(&mut rng, b.as_mut_slice());
            let c = xor(&a, &b);
            prop_assert_eq!(xor(&c, &b), a);
        }

        /// The u64-lane XOR is byte-for-byte equivalent to the byte-wise
        /// loop it replaced, across lengths that straddle lane boundaries.
        #[test]
        fn prop_lane_xor_matches_bytewise(
            a in proptest::collection::vec(any::<u8>(), 0..200),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = vec![0u8; a.len()];
            Rng::fill(&mut rng, b.as_mut_slice());
            let mut lanes = a.clone();
            xor_into(&mut lanes, &b);
            let mut bytes = a;
            xor_into_bytewise(&mut bytes, &b);
            prop_assert_eq!(lanes, bytes);
        }

        #[test]
        fn prop_pads_deterministic(key in any::<[u8; 32]>(), round in any::<u64>(), len in 0usize..512) {
            let g1 = PadGenerator::new(key);
            let g2 = PadGenerator::new(key);
            prop_assert_eq!(g1.pad(round, len), g2.pad(round, len));
        }
    }
}
