//! A from-scratch implementation of the SHA-256 cryptographic hash function
//! (FIPS 180-4).
//!
//! The flexible broadcast protocol uses SHA-256 in three places:
//!
//! * hashing node identities and messages for the verifiable, message-free
//!   virtual-source election at the phase 1 → phase 2 transition
//!   (`argmin_i dist(H(id_i), H(m))`),
//! * as the compression function behind [`crate::hmac`] and
//!   [`crate::hkdf`], which derive the pairwise DC-net pad keys, and
//! * as the collision check of a DC-net slot: `fnp_dcnet::slot` ends every
//!   frame with the first four bytes of its digest.
//!
//! The compression function has two kernels, chosen at compile time:
//!
//! * on `x86_64` builds whose target has the SHA extensions and SSE4.1
//!   (the repo's `target-cpu=native` on such a CPU), a kernel on the
//!   `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions;
//! * everywhere else, the portable rounds in plain Rust, which also serve
//!   as the test oracle for the first kernel.
//!
//! Calling the SHA-NI kernel is `unsafe`, because it is a
//! `#[target_feature]` function; the same `cfg` that compiles the
//! call proves the features are enabled for the whole build. The streaming
//! interface allocates nothing, and both kernels are validated against the
//! official FIPS/NIST test vectors in the unit tests below.
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     fnp_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of a SHA-256 input block in bytes.
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 prime numbers.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 prime numbers.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Feed data with [`Sha256::update`] and produce the digest with
/// [`Sha256::finalize`]. For one-shot hashing use [`Sha256::digest`].
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes processed so far.
    len: u64,
    /// Partially filled input block.
    buffer: [u8; BLOCK_LEN],
    /// Number of valid bytes in `buffer`.
    buffered: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            len: 0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// Convenience one-shot hash of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// Hashes the concatenation of the provided chunks.
    ///
    /// Equivalent to calling [`Sha256::update`] once per chunk; convenient
    /// for domain-separated hashing without intermediate allocation.
    pub fn digest_chunks<'a, I>(chunks: I) -> [u8; DIGEST_LEN]
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut hasher = Self::new();
        for chunk in chunks {
            hasher.update(chunk);
        }
        hasher.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially buffered block first.
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }

        // Compress full blocks directly from the input slice — borrowed, not
        // copied into a staging buffer (this inner loop carries all of HMAC
        // and HKDF key derivation).
        let mut blocks = input.chunks_exact(BLOCK_LEN);
        for block in blocks.by_ref() {
            self.compress(block.try_into().expect("exact 64-byte chunk"));
        }

        // Stash the remainder.
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finishes the hash computation and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);

        // Append the 0x80 terminator.
        let mut pad = [0u8; BLOCK_LEN * 2];
        pad[0] = 0x80;
        // Number of zero bytes so that buffered + 1 + zeros + 8 ≡ 0 (mod 64).
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            120 - self.buffered
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_padding(&pad[..pad_len + 8]);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Internal `update` used for the final padding: must not change `len`.
    fn update_padding(&mut self, data: &[u8]) {
        let mut input = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        let mut blocks = input.chunks_exact(BLOCK_LEN);
        for block in blocks.by_ref() {
            self.compress(block.try_into().expect("exact 64-byte chunk"));
        }
        debug_assert!(
            blocks.remainder().is_empty(),
            "padding must end on a block boundary"
        );
    }

    /// SHA-256 compression function over one 64-byte block.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "sha",
            target_feature = "sse4.1"
        ))]
        #[allow(unsafe_code)]
        // SAFETY: `sha_ni::compress` is unsafe to call only because it is a
        // `#[target_feature(enable = "sha,sse4.1")]` function. This call is
        // compiled only when the cfg above holds, that is when the whole
        // build targets a CPU with both features, so they are present.
        unsafe {
            sha_ni::compress(&mut self.state, block);
        }
        #[cfg(not(all(
            target_arch = "x86_64",
            target_feature = "sha",
            target_feature = "sse4.1"
        )))]
        compress_portable(&mut self.state, block);
    }
}

/// The portable compression function: every target without the x86 SHA
/// extensions runs it, and the SHA-NI kernel's tests use it as the oracle.
#[cfg(any(
    test,
    not(all(
        target_arch = "x86_64",
        target_feature = "sha",
        target_feature = "sse4.1"
    ))
))]
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The compression function on the x86 SHA extensions.
///
/// `sha256rnds2` runs two rounds on the working variables held as two
/// registers, (A, B, E, F) and (C, D, G, H), highest lane first;
/// `sha256msg1` / `sha256msg2` extend the message schedule four words at a
/// time. Words go in with `_mm_set_epi32` and come out with
/// `_mm_extract_epi32`, so no pointer is cast.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "sse4.1"
))]
mod sha_ni {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Packs four words into one register, `words[0]` in the lowest lane.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn lanes(words: [u32; 4]) -> __m128i {
        let [w0, w1, w2, w3] = words.map(u32::cast_signed);
        _mm_set_epi32(w3, w2, w1, w0)
    }

    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = lanes([f, e, b, a]);
        let mut cdgh = lanes([h, g, d, c]);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let word = |t: usize| {
            u32::from_be_bytes([
                block[4 * t],
                block[4 * t + 1],
                block[4 * t + 2],
                block[4 * t + 3],
            ])
        };
        // msg[q % 4] holds message words 4q..4q + 4; the slot is overwritten
        // once its words have been read for the last time.
        let mut msg: [__m128i; 4] =
            core::array::from_fn(|q| lanes(core::array::from_fn(|j| word(4 * q + j))));
        for q in 0..16 {
            if q >= 4 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
                let w16_15 = _mm_sha256msg1_epu32(msg[q % 4], msg[(q + 1) % 4]);
                let w7 = _mm_alignr_epi8(msg[(q + 3) % 4], msg[(q + 2) % 4], 4);
                msg[q % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(w16_15, w7), msg[(q + 3) % 4]);
            }
            let k = lanes([K[4 * q], K[4 * q + 1], K[4 * q + 2], K[4 * q + 3]]);
            let wk = _mm_add_epi32(msg[q % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(i32::cast_unsigned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// The SHA-NI kernel (reached through `Sha256::compress` on this build)
    /// against the portable compression, from the same (state, block).
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "sha",
        target_feature = "sse4.1"
    ))]
    mod sha_ni_matches_portable {
        use super::super::*;
        use proptest::prelude::*;

        fn assert_kernels_agree(state: [u32; 8], block: &[u8; BLOCK_LEN]) {
            let mut hasher = Sha256::new();
            hasher.state = state;
            hasher.compress(block);
            let mut portable = state;
            compress_portable(&mut portable, block);
            assert_eq!(
                hasher.state, portable,
                "state {state:08x?}, block {block:02x?}"
            );
        }

        #[test]
        fn on_constant_blocks() {
            for fill in [0x00u8, 0xff] {
                for state in [H0, [0; 8], [u32::MAX; 8]] {
                    assert_kernels_agree(state, &[fill; BLOCK_LEN]);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10_000))]

            #[test]
            fn on_random_state_and_block(state in any::<[u8; 32]>(), block in any::<[u8; 64]>()) {
                let state = core::array::from_fn(|i| {
                    u32::from_le_bytes([state[4 * i], state[4 * i + 1], state[4 * i + 2], state[4 * i + 3]])
                });
                assert_kernels_agree(state, &block);
            }
        }
    }

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&Sha256::digest(data))
    }

    #[test]
    fn empty_input_matches_fips_vector() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_matches_fips_vector() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message_matches_fips_vector() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_message_matches_fips_vector() {
        // One million repetitions of 'a'.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn fifty_six_byte_boundary() {
        // Exactly 56 bytes forces the length field into a second padding block.
        let data = vec![0x41u8; 56];
        let one_shot = Sha256::digest(&data);
        let mut streaming = Sha256::new();
        streaming.update(&data);
        assert_eq!(one_shot, streaming.finalize());
    }

    #[test]
    fn streaming_equals_one_shot_for_arbitrary_chunking() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expected = Sha256::digest(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 127, 500] {
            let mut hasher = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                hasher.update(chunk);
            }
            assert_eq!(hasher.finalize(), expected, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn digest_chunks_concatenates() {
        let expected = Sha256::digest(b"hello world");
        let actual =
            Sha256::digest_chunks([b"hello".as_slice(), b" ".as_slice(), b"world".as_slice()]);
        assert_eq!(expected, actual);
    }

    #[test]
    fn different_inputs_produce_different_digests() {
        assert_ne!(
            Sha256::digest(b"transaction-1"),
            Sha256::digest(b"transaction-2")
        );
    }

    #[test]
    fn clone_preserves_state() {
        let mut a = Sha256::new();
        a.update(b"partial ");
        let mut b = a.clone();
        a.update(b"message");
        b.update(b"message");
        assert_eq!(a.finalize(), b.finalize());
    }
}
