//! The ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! The DC-net phase of the flexible broadcast protocol requires each pair
//! of group members to share a *pad*: a pseudorandom byte string as long as
//! the message slot, known to both endpoints and nobody else. We realise
//! the pad as the keystream of ChaCha20 under the pairwise key derived via
//! [`crate::dh`] + [`crate::hkdf`], with the round number as nonce. The
//! same cipher doubles as the "pairwise encrypted channel" the paper assumes
//! between group members.
//!
//! # The word-sliced engines
//!
//! A keyed DC-net round expands `k·(k−1)` keystreams per group per round,
//! which makes block generation the hottest loop in the repository. The
//! 20-round permutation therefore runs over several independent working
//! states at once in a word-sliced layout — row `i` holds word `i` of every
//! lane, so every quarter-round step is an elementwise pass over a
//! `[u32; L]` row that LLVM lowers to single vector instructions on targets
//! that have them (and to `L` parallel scalar dependency chains elsewhere).
//! One quarter round and one double round, generic over `L`, serve both
//! engines; what differs is what a lane *is*. **A lane is a `(key,
//! counter)` pair:**
//!
//! * [`ChaCha20`] has one key, so its four lanes are four consecutive
//!   blocks: [`ChaCha20::keystream_into`] and
//!   [`ChaCha20::xor_keystream_into`] write four blocks per pass straight
//!   into caller-owned buffers. A 64-byte request has one block and stays
//!   scalar.
//! * [`PeerKeys`] holds the pairwise keys one DC-net member shares with up
//!   to eight peers. That member's pads for a round share nonce and counter
//!   and differ only in key, so its eight lanes are the **peers first**, and
//!   **consecutive blocks when peers run out** (four, two or one peers fill
//!   the eight lanes with two, four or eight blocks each). The member never
//!   needs a pad, only the XOR of all of them, so the engine **folds before
//!   it stores**: the lanes' blocks are XORed together as they leave the
//!   permutation and only the 64-byte sum is XORed into the slot — at every
//!   slot size, including the one-block slot the single-key engine cannot
//!   vectorise.
//!
//! On a build that targets AVX-512F, [`PeerKeys`] has a 16-lane pass on
//! `__m512i` rows (`mod avx512`, selected at compile time like the SHA-NI
//! kernel in [`crate::sha256`]) and runs it whenever the slot needs more
//! than one eight-lane pass. Lane `l` is peer `l % W` at block offset
//! `l / W`, where the fold width `W` is the highest occupied lane rounded
//! up to a power of two, so one pass yields `16 / W` folded blocks. The
//! lanes of absent peers are masked to zero, and each `W`-lane group is
//! XOR-folded in register while the rows are transposed into blocks. The
//! portable eight-lane pass stays the fallback on every other build, the
//! pass for one-pass slots, and the 16-lane pass's test oracle.
//!
//! The scalar single-block path is retained as the reference oracle and
//! the sub-block tail; equivalence property tests pin both engines against
//! it over arbitrary lengths, chunkings, lane occupancies and counters, and
//! a known-answer test pins [`PeerKeys`]' output to fixed digests, so both
//! of its passes give the same bytes on every host.
//!
//! # Keystream exhaustion
//!
//! RFC 8439 leaves the behaviour at 32-bit block-counter wraparound to the
//! application. Reusing counter values would repeat keystream — fatal for a
//! pad — so this implementation defines it: one `(key, nonce)` pair yields
//! at most [`MAX_KEYSTREAM_BLOCKS`] blocks ([`MAX_KEYSTREAM_LEN`] bytes,
//! 256 GiB); the block with counter `u32::MAX` is the last one, and any
//! request past it panics with a clear message. DC-net pads start every
//! round at counter 0 and span a few hundred bytes, so the limit is purely
//! a safety net against keystream reuse.
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::chacha20::ChaCha20;
//!
//! let key = [0x42u8; 32];
//! let nonce = [0u8; 12];
//! let mut cipher = ChaCha20::new(&key, &nonce, 0);
//! let mut data = *b"a transaction to hide";
//! cipher.apply_keystream(&mut data);
//! // Decrypt by re-applying the identical keystream.
//! let mut cipher = ChaCha20::new(&key, &nonce, 0);
//! cipher.apply_keystream(&mut data);
//! assert_eq!(&data, b"a transaction to hide");
//! ```

use crate::prg::xor_into;
use core::fmt;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Size of one keystream block in bytes.
pub const BLOCK_LEN: usize = 64;
/// Lanes of the single-key engine: four consecutive blocks of one key.
const LANES: usize = 4;
/// `LANES` as the block-counter width (kept as a separate literal so no
/// narrowing cast appears on the hot path).
const LANES_U32: u32 = 4;
/// Lanes of the multi-key engine ([`PeerKeys`]): the peers of one member.
const PEER_LANES: usize = 8;
/// Maximum number of keystream blocks one `(key, nonce)` pair may produce
/// (the 32-bit block counter must not wrap; see the module docs).
pub const MAX_KEYSTREAM_BLOCKS: u64 = 1 << 32;
/// Maximum keystream length in bytes for one `(key, nonce)` pair (256 GiB).
pub const MAX_KEYSTREAM_LEN: u64 = MAX_KEYSTREAM_BLOCKS * BLOCK_LEN as u64;

/// Panic message for keystream requests past the counter limit.
const EXHAUSTED: &str = "ChaCha20 keystream exhausted: one (key, nonce) pair yields at most \
     2^32 blocks (256 GiB); reusing counter values would repeat pad bytes";

/// ChaCha20 stream cipher state.
///
/// The cipher produces a keystream in 64-byte blocks; [`ChaCha20::apply_keystream`]
/// XORs it into a buffer, [`ChaCha20::keystream_into`] writes raw keystream
/// bytes into a caller-owned buffer (used directly as DC-net pads), and
/// [`ChaCha20::keystream`] is the allocating convenience form.
#[derive(Clone)]
pub struct ChaCha20 {
    /// Cipher state words: constants, key, counter, nonce.
    state: [u32; 16],
    /// Buffered keystream block not yet consumed.
    buffer: [u8; BLOCK_LEN],
    /// Offset of the next unconsumed byte in `buffer`; `BLOCK_LEN` means empty.
    buffer_pos: usize,
    /// Set once the block counter has produced its final (`u32::MAX`) block;
    /// any further block request panics instead of repeating keystream.
    exhausted: bool,
}

impl fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The state words are the key and the buffer is keystream.
        f.debug_struct("ChaCha20")
            .field("state", &"<redacted>")
            .field("counter", &self.state[12])
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The word-sliced ("vertical") working state of `L` lanes: row `i` holds
/// state word `i` of every lane (see the module docs for what a lane is).
type Rows<const L: usize> = [[u32; L]; 16];

/// Lane-wise wrapping add over one word row.
#[inline]
fn vadd<const L: usize>(x: [u32; L], y: [u32; L]) -> [u32; L] {
    let mut out = x;
    for (lane, &rhs) in out.iter_mut().zip(y.iter()) {
        *lane = lane.wrapping_add(rhs);
    }
    out
}

/// Lane-wise XOR over one word row.
#[inline]
fn vxor<const L: usize>(x: [u32; L], y: [u32; L]) -> [u32; L] {
    let mut out = x;
    for (lane, &rhs) in out.iter_mut().zip(y.iter()) {
        *lane ^= rhs;
    }
    out
}

/// Lane-wise left rotation by a constant over one word row.
#[inline]
fn vrot<const N: u32, const L: usize>(x: [u32; L]) -> [u32; L] {
    let mut out = x;
    for lane in out.iter_mut() {
        *lane = lane.rotate_left(N);
    }
    out
}

/// One quarter-round position applied to every lane.
#[inline]
fn quarter_round<const L: usize>(v: &mut Rows<L>, a: usize, b: usize, c: usize, d: usize) {
    v[a] = vadd(v[a], v[b]);
    v[d] = vrot::<16, L>(vxor(v[d], v[a]));
    v[c] = vadd(v[c], v[d]);
    v[b] = vrot::<12, L>(vxor(v[b], v[c]));
    v[a] = vadd(v[a], v[b]);
    v[d] = vrot::<8, L>(vxor(v[d], v[a]));
    v[c] = vadd(v[c], v[d]);
    v[b] = vrot::<7, L>(vxor(v[b], v[c]));
}

/// The 20-round permutation (ten column + diagonal double rounds) over
/// every lane, followed by the feed-forward add of the initial state.
///
/// Always inlined: as a call, the sixteen rows pass through memory on the
/// way in and out; inside the callers' block loops they stay in vector
/// registers from the permutation to the fold (a fifth off the cost of a
/// pad on the `dcnet_rounds` benchmark).
#[inline(always)]
fn keystream_rows<const L: usize>(init: &Rows<L>) -> Rows<L> {
    let mut v = *init;
    for _ in 0..10 {
        quarter_round(&mut v, 0, 4, 8, 12);
        quarter_round(&mut v, 1, 5, 9, 13);
        quarter_round(&mut v, 2, 6, 10, 14);
        quarter_round(&mut v, 3, 7, 11, 15);
        quarter_round(&mut v, 0, 5, 10, 15);
        quarter_round(&mut v, 1, 6, 11, 12);
        quarter_round(&mut v, 2, 7, 8, 13);
        quarter_round(&mut v, 3, 4, 9, 14);
    }
    core::array::from_fn(|word| vadd(v[word], init[word]))
}

/// Little-endian words of a key or nonce.
fn le_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    core::array::from_fn(|i| {
        u32::from_le_bytes(bytes[i * 4..][..4].try_into().expect("4-byte chunk"))
    })
}

/// The nonce binding a pad to DC-net round `round`: the round id occupies
/// the final eight nonce bytes.
fn round_nonce(round: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[4..].copy_from_slice(&round.to_le_bytes());
    nonce
}

impl ChaCha20 {
    /// Creates a cipher instance from a 256-bit key, 96-bit nonce and initial
    /// block counter.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&le_words::<8>(key));
        state[12] = counter;
        state[13..].copy_from_slice(&le_words::<3>(nonce));
        Self {
            state,
            buffer: [0u8; BLOCK_LEN],
            buffer_pos: BLOCK_LEN,
            exhausted: false,
        }
    }

    /// Convenience constructor: uses a 64-bit round/slot identifier as nonce.
    ///
    /// This is how DC-net pads bind to a round number without needing nonce
    /// bookkeeping: the round id occupies the final eight nonce bytes.
    pub fn for_round(key: &[u8; KEY_LEN], round: u64) -> Self {
        Self::new(key, &round_nonce(round), 0)
    }

    /// The ChaCha20 quarter round.
    #[inline]
    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] ^= state[a];
        state[d] = state[d].rotate_left(16);

        state[c] = state[c].wrapping_add(state[d]);
        state[b] ^= state[c];
        state[b] = state[b].rotate_left(12);

        state[a] = state[a].wrapping_add(state[b]);
        state[d] ^= state[a];
        state[d] = state[d].rotate_left(8);

        state[c] = state[c].wrapping_add(state[d]);
        state[b] ^= state[c];
        state[b] = state[b].rotate_left(7);
    }

    /// Runs the 20-round permutation over `init` and writes the resulting
    /// feed-forwarded 64-byte keystream block to `out`.
    ///
    /// This is the single-block reference path; the multi-block engine in
    /// [`ChaCha20::quad_blocks_into`] is property-tested against it.
    fn block_into(init: &[u32; 16], out: &mut [u8]) {
        debug_assert_eq!(out.len(), BLOCK_LEN);
        let mut working = *init;
        for _ in 0..10 {
            // Column rounds.
            Self::quarter_round(&mut working, 0, 4, 8, 12);
            Self::quarter_round(&mut working, 1, 5, 9, 13);
            Self::quarter_round(&mut working, 2, 6, 10, 14);
            Self::quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            Self::quarter_round(&mut working, 0, 5, 10, 15);
            Self::quarter_round(&mut working, 1, 6, 11, 12);
            Self::quarter_round(&mut working, 2, 7, 8, 13);
            Self::quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (i, &mixed) in working.iter().enumerate() {
            let word = mixed.wrapping_add(init[i]);
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Advances the block counter by `blocks`, recording exhaustion when it
    /// wraps (the wrapping block itself was legal; the *next* request panics).
    fn advance_counter(&mut self, blocks: u32) {
        let (next, wrapped) = self.state[12].overflowing_add(blocks);
        self.state[12] = next;
        self.exhausted |= wrapped;
    }

    /// Generates one block into `out` (len `BLOCK_LEN`) and advances the
    /// counter.
    fn one_block_into(&mut self, out: &mut [u8]) {
        assert!(!self.exhausted, "{EXHAUSTED}");
        Self::block_into(&self.state, out);
        self.advance_counter(1);
    }

    /// Generates four consecutive blocks into `out` (len `4 * BLOCK_LEN`)
    /// via the interleaved-lane engine, falling back to the single-block
    /// path when the counter is within four blocks of wrapping.
    fn quad_blocks_into(&mut self, out: &mut [u8]) {
        debug_assert_eq!(out.len(), LANES * BLOCK_LEN);
        let counter = self.state[12];
        if self.exhausted || counter.checked_add(LANES_U32 - 1).is_none() {
            for block in out.chunks_exact_mut(BLOCK_LEN) {
                self.one_block_into(block);
            }
            return;
        }
        // One lane per consecutive block: the lanes differ only in the
        // counter word.
        let mut init: Rows<LANES> = self.state.map(|word| [word; LANES]);
        for (offset, lane) in (0u32..).zip(init[12].iter_mut()) {
            *lane = counter + offset;
        }
        let rows = keystream_rows(&init);
        for (lane, block) in out.chunks_exact_mut(BLOCK_LEN).enumerate() {
            for (row, chunk) in rows.iter().zip(block.chunks_exact_mut(4)) {
                chunk.copy_from_slice(&row[lane].to_le_bytes());
            }
        }
        self.advance_counter(LANES_U32);
    }

    /// Produces the next 64-byte keystream block into the internal buffer
    /// and advances the counter.
    fn next_block(&mut self) {
        assert!(!self.exhausted, "{EXHAUSTED}");
        Self::block_into(&self.state, &mut self.buffer);
        self.advance_counter(1);
        self.buffer_pos = 0;
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts).
    ///
    /// # Panics
    ///
    /// Panics if the request would advance the block counter past
    /// [`MAX_KEYSTREAM_BLOCKS`] (see the module docs on exhaustion).
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        // Drain any partially consumed buffered block first.
        let buffered = (BLOCK_LEN - self.buffer_pos).min(data.len());
        let (head, rest) = data.split_at_mut(buffered);
        xor_into(
            head,
            &self.buffer[self.buffer_pos..self.buffer_pos + buffered],
        );
        self.buffer_pos += buffered;

        // Bulk: generate keystream four blocks at a time into a stack
        // buffer and XOR it in with u64 lanes.
        let mut keystream = [0u8; LANES * BLOCK_LEN];
        let mut quads = rest.chunks_exact_mut(LANES * BLOCK_LEN);
        for quad in quads.by_ref() {
            self.quad_blocks_into(&mut keystream);
            xor_into(quad, &keystream);
        }
        let tail = quads.into_remainder();
        let mut blocks = tail.chunks_exact_mut(BLOCK_LEN);
        for block in blocks.by_ref() {
            self.one_block_into(&mut keystream[..BLOCK_LEN]);
            xor_into(block, &keystream[..BLOCK_LEN]);
        }

        // Partial final block: stash the remainder for the next call.
        let last = blocks.into_remainder();
        if !last.is_empty() {
            self.next_block();
            xor_into(last, &self.buffer[..last.len()]);
            self.buffer_pos = last.len();
        }
    }

    /// Fills `out` with raw keystream bytes — the zero-allocation core of
    /// DC-net pad expansion (the pad shared by nodes *i* and *j* for a round
    /// is exactly this output under their pairwise key).
    ///
    /// # Panics
    ///
    /// Panics if the request would advance the block counter past
    /// [`MAX_KEYSTREAM_BLOCKS`] (see the module docs on exhaustion).
    pub fn keystream_into(&mut self, out: &mut [u8]) {
        let buffered = (BLOCK_LEN - self.buffer_pos).min(out.len());
        let (head, rest) = out.split_at_mut(buffered);
        head.copy_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + buffered]);
        self.buffer_pos += buffered;

        let mut quads = rest.chunks_exact_mut(LANES * BLOCK_LEN);
        for quad in quads.by_ref() {
            self.quad_blocks_into(quad);
        }
        let tail = quads.into_remainder();
        let mut blocks = tail.chunks_exact_mut(BLOCK_LEN);
        for block in blocks.by_ref() {
            self.one_block_into(block);
        }

        let last = blocks.into_remainder();
        if !last.is_empty() {
            self.next_block();
            last.copy_from_slice(&self.buffer[..last.len()]);
            self.buffer_pos = last.len();
        }
    }

    /// Writes `src XOR keystream` into `dst` — the fused form used by the
    /// DC-net contribute path (no intermediate pad buffer).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or if the request would
    /// advance the block counter past [`MAX_KEYSTREAM_BLOCKS`].
    pub fn xor_keystream_into(&mut self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "xor_keystream_into requires equal-length slices ({} vs {})",
            dst.len(),
            src.len()
        );
        dst.copy_from_slice(src);
        self.apply_keystream(dst);
    }

    /// Returns `len` raw keystream bytes in a fresh allocation.
    ///
    /// Hot paths use [`ChaCha20::keystream_into`] with a pooled buffer
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the request would advance the block counter past
    /// [`MAX_KEYSTREAM_BLOCKS`] (see the module docs on exhaustion).
    pub fn keystream(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.keystream_into(&mut out);
        out
    }
}

/// The pairwise keys one DC-net member shares with up to eight peers,
/// word-sliced for the multi-key engine: a member's pads for a round share
/// nonce and counter and differ only in key, so the peers are the lanes.
///
/// [`PeerKeys::xor_keystreams_into`] runs the permutation once per pass
/// over all lanes, XOR-folds the lanes' keystream blocks into one and XORs
/// that into the destination — the sum of the peers' pads, without any
/// single pad ever being stored. With four, two or one peers the idle
/// lanes carry the following blocks of the same keys instead, so a pass
/// yields two, four or eight folded blocks (twice as many in the 16-lane
/// pass of an AVX-512F build; see the module docs).
#[derive(Clone, Default)]
pub struct PeerKeys {
    /// `words[w][lane]` is key word `w` of the peer in `lane`.
    words: [[u32; PEER_LANES]; 8],
    /// Bit `lane` is set once `lane` holds a key.
    occupied: u8,
}

impl fmt::Debug for PeerKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerKeys")
            .field("words", &"<redacted>")
            .field("occupied", &format_args!("{:#010b}", self.occupied))
            .finish()
    }
}

impl PeerKeys {
    /// Number of peers one `PeerKeys` holds.
    pub const LANES: usize = PEER_LANES;

    /// Stores `key` in `lane`, replacing any key already there; returns
    /// whether the lane was empty before.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= PeerKeys::LANES`.
    pub fn set(&mut self, lane: usize, key: &[u8; KEY_LEN]) -> bool {
        for (row, word) in self.words.iter_mut().zip(le_words::<8>(key)) {
            row[lane] = word;
        }
        let fresh = self.occupied & (1 << lane) == 0;
        self.occupied |= 1 << lane;
        fresh
    }

    /// XORs into `dst` the keystream of every held key under `nonce` from
    /// block `counter` on: `dst ^= ⊕_lane ChaCha20(key_lane, nonce, counter)`.
    ///
    /// # Panics
    ///
    /// Panics if the request would advance the block counter past
    /// [`MAX_KEYSTREAM_BLOCKS`] (see the module docs on exhaustion).
    pub fn xor_keystreams_into(&self, nonce: &[u8; NONCE_LEN], counter: u32, dst: &mut [u8]) {
        // Fold width: the lanes up to the highest occupied one, rounded up
        // to a power of two; the other `LANES / width` lane groups carry
        // consecutive blocks.
        match u8::BITS - self.occupied.leading_zeros() {
            0 => {}
            1 => self.fold::<1>(nonce, counter, dst),
            2 => self.fold::<2>(nonce, counter, dst),
            3 | 4 => self.fold::<4>(nonce, counter, dst),
            _ => self.fold::<8>(nonce, counter, dst),
        }
    }

    /// The pads of DC-net round `round`, XORed into `dst`: what
    /// [`ChaCha20::for_round`] yields per key, summed over the held keys.
    pub fn xor_round_pads_into(&self, round: u64, dst: &mut [u8]) {
        self.xor_keystreams_into(&round_nonce(round), 0, dst);
    }

    /// [`PeerKeys::xor_keystreams_into`] at fold width `W`: the 16-lane
    /// AVX-512F pass when the build targets it and `dst` needs more than one
    /// 8-lane pass, the portable 8-lane pass otherwise.
    fn fold<const W: usize>(&self, nonce: &[u8; NONCE_LEN], counter: u32, dst: &mut [u8]) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        if dst.len() > PEER_LANES / W * BLOCK_LEN {
            #[allow(unsafe_code)]
            // SAFETY: `avx512::fold` is unsafe to call only because it is a
            // `#[target_feature(enable = "avx512f")]` function. This call is
            // compiled only when the cfg above holds, that is when the whole
            // build targets a CPU with AVX-512F, so the feature is present.
            unsafe {
                avx512::fold::<W>(self, nonce, counter, dst);
            }
            return;
        }
        self.fold_portable::<W>(nonce, counter, dst);
    }

    /// The portable 8-lane pass at fold width `W`: lane `l` is peer `l % W`
    /// at block offset `l / W`. Every build without AVX-512F runs it, and
    /// the 16-lane kernel's tests use it as the oracle.
    fn fold_portable<const W: usize>(&self, nonce: &[u8; NONCE_LEN], counter: u32, dst: &mut [u8]) {
        let mut init: Rows<PEER_LANES> = [[0; PEER_LANES]; 16];
        for (row, word) in init.iter_mut().zip(CONSTANTS) {
            *row = [word; PEER_LANES];
        }
        for (row, words) in init[4..12].iter_mut().zip(&self.words) {
            *row = core::array::from_fn(|lane| words[lane % W]);
        }
        for (offset, lanes) in (0u32..).zip(init[12].chunks_exact_mut(W)) {
            lanes.fill(counter.wrapping_add(offset));
        }
        for (row, word) in init[13..].iter_mut().zip(le_words::<3>(nonce)) {
            *row = [word; PEER_LANES];
        }
        // All-ones in the lanes whose peer exists; empty lanes fold as zero.
        let live: [u32; PEER_LANES] =
            core::array::from_fn(|lane| u32::from(self.occupied >> (lane % W) & 1).wrapping_neg());
        let blocks_per_pass = u32::try_from(PEER_LANES / W).expect("at most eight");

        let mut blocks_used = u64::from(counter);
        let mut folded = [0u8; PEER_LANES * BLOCK_LEN];
        for chunk in dst.chunks_mut(PEER_LANES / W * BLOCK_LEN) {
            // Lanes past the chunk's last block may wrap their counter:
            // their output is not used.
            blocks_used += chunk.len().div_ceil(BLOCK_LEN) as u64;
            assert!(blocks_used <= MAX_KEYSTREAM_BLOCKS, "{EXHAUSTED}");
            for (word, row) in keystream_rows(&init).iter().enumerate() {
                let mut row = *row;
                for (lane, on) in row.iter_mut().zip(live) {
                    *lane &= on;
                }
                for (block, peers) in row.chunks_exact(W).enumerate() {
                    let sum = peers.iter().fold(0, |sum, lane| sum ^ lane);
                    folded[block * BLOCK_LEN + word * 4..][..4].copy_from_slice(&sum.to_le_bytes());
                }
            }
            xor_into(chunk, &folded[..chunk.len()]);
            init[12] = init[12].map(|block| block.wrapping_add(blocks_per_pass));
        }
    }
}

/// The 16-lane [`PeerKeys`] pass on AVX-512F.
///
/// Row `i` of the working state is one `__m512i` holding word `i` of
/// sixteen lanes. Lane `l` is peer `l % W` at block offset `l / W`, so one
/// pass yields `16 / W` folded blocks. The feed-forward add zeroes the lanes
/// of absent peers, [`fold_transpose`] XORs each `W`-lane group together in
/// register while it turns the rows into blocks, and only the folded blocks
/// leave the registers.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use super::{
        le_words, PeerKeys, BLOCK_LEN, CONSTANTS, EXHAUSTED, MAX_KEYSTREAM_BLOCKS, NONCE_LEN,
    };
    use crate::prg::xor_into;
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_maskz_add_epi32, _mm512_rol_epi32, _mm512_set1_epi32,
        _mm512_set_epi32, _mm512_shuffle_i32x4, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512,
    };

    /// Lanes of one pass.
    const LANES: usize = 16;

    /// Sixteen vectors: the rows of the working state, or the blocks of a
    /// pass.
    type Vectors = [__m512i; 16];

    /// Packs sixteen words into one vector, `words[0]` in the lowest lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lanes(words: [u32; LANES]) -> __m512i {
        let [w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15] =
            words.map(u32::cast_signed);
        _mm512_set_epi32(
            w15, w14, w13, w12, w11, w10, w9, w8, w7, w6, w5, w4, w3, w2, w1, w0,
        )
    }

    /// The same word in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(word: u32) -> __m512i {
        _mm512_set1_epi32(word.cast_signed())
    }

    /// One quarter-round position applied to all sixteen lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn quarter_round(v: &mut Vectors, a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm512_add_epi32(v[a], v[b]);
        v[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(v[d], v[a]));
        v[c] = _mm512_add_epi32(v[c], v[d]);
        v[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(v[b], v[c]));
        v[a] = _mm512_add_epi32(v[a], v[b]);
        v[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(v[d], v[a]));
        v[c] = _mm512_add_epi32(v[c], v[d]);
        v[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(v[b], v[c]));
    }

    /// Interleaves `a` and `b` at stage `stage` of [`fold_transpose`]:
    /// 32-bit words, 64-bit pairs, then twice 128-bit quarters.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn interleave(stage: usize, a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        match stage {
            0 => (_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b)),
            1 => (_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b)),
            _ => (
                _mm512_shuffle_i32x4::<0b10_00_10_00>(a, b),
                _mm512_shuffle_i32x4::<0b11_01_11_01>(a, b),
            ),
        }
    }

    /// Turns the sixteen rows of a pass into its `16 / W` folded blocks:
    /// lane `i` of block `g` is word `i` of the XOR of lanes `g·W` to
    /// `g·W + W − 1`.
    ///
    /// It is a 16 × 16 transpose that folds as it goes. Each of four stages
    /// pairs the vectors that differ in one row bit (bit 0 first) and
    /// interleaves each pair, which moves that row bit into the lane index
    /// and moves lane bit 1, 0, 2 or 3 (in stage order) out of it: the bit
    /// now says which of the pair's two outputs a word is in. A lane bit
    /// below `log₂ W` is summed out by XORing the two outputs into one, so
    /// log₂ W of the stages fold; any other becomes the top bit of the
    /// vector index.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fold_transpose<const W: usize>(rows: Vectors) -> Vectors {
        const LANE_BIT: [u32; 4] = [1, 0, 2, 3];
        let mut v = rows;
        let mut len = 16;
        for (stage, lane_bit) in LANE_BIT.into_iter().enumerate() {
            let half = len / 2;
            let fold = lane_bit < W.trailing_zeros();
            let mut next = v;
            for pair in 0..half {
                let (lo, hi) = interleave(stage, v[2 * pair], v[2 * pair + 1]);
                if fold {
                    next[pair] = _mm512_xor_si512(lo, hi);
                } else {
                    next[pair] = lo;
                    next[pair + half] = hi;
                }
            }
            v = next;
            if fold {
                len = half;
            }
        }
        if W == 1 {
            // Nothing folded: lane bit 1 left before lane bit 0, so blocks
            // 1 and 2 of every four are swapped.
            for quad in v.chunks_exact_mut(4) {
                quad.swap(1, 2);
            }
        }
        v
    }

    /// [`PeerKeys::xor_keystreams_into`] at fold width `W`, sixteen lanes
    /// to a pass.
    #[target_feature(enable = "avx512f")]
    pub(super) fn fold<const W: usize>(
        keys: &PeerKeys,
        nonce: &[u8; NONCE_LEN],
        counter: u32,
        dst: &mut [u8],
    ) {
        let mut init: Vectors = [splat(0); 16];
        for (row, word) in init.iter_mut().zip(CONSTANTS) {
            *row = splat(word);
        }
        for (row, words) in init[4..12].iter_mut().zip(&keys.words) {
            let mut lane_words = [0; LANES];
            for (lane, word) in lane_words.iter_mut().enumerate() {
                *word = words[lane % W];
            }
            *row = lanes(lane_words);
        }
        let mut counters = [0; LANES];
        for (offset, lanes) in (0u32..).zip(counters.chunks_exact_mut(W)) {
            lanes.fill(counter.wrapping_add(offset));
        }
        init[12] = lanes(counters);
        for (row, word) in init[13..].iter_mut().zip(le_words::<3>(nonce)) {
            *row = splat(word);
        }
        // Bit `l` is set in the lanes whose peer exists.
        let live = (0..LANES)
            .filter(|lane| keys.occupied >> (lane % W) & 1 == 1)
            .fold(0u16, |mask, lane| mask | 1 << lane);
        let blocks_per_pass = LANES / W;
        let step = splat(u32::try_from(blocks_per_pass).expect("at most sixteen"));

        let mut blocks_used = u64::from(counter);
        for chunk in dst.chunks_mut(blocks_per_pass * BLOCK_LEN) {
            // Lanes past the chunk's last block may wrap their counter:
            // their output is not used.
            blocks_used += chunk.len().div_ceil(BLOCK_LEN) as u64;
            assert!(blocks_used <= MAX_KEYSTREAM_BLOCKS, "{EXHAUSTED}");
            let mut v = init;
            for _ in 0..10 {
                quarter_round(&mut v, 0, 4, 8, 12);
                quarter_round(&mut v, 1, 5, 9, 13);
                quarter_round(&mut v, 2, 6, 10, 14);
                quarter_round(&mut v, 3, 7, 11, 15);
                quarter_round(&mut v, 0, 5, 10, 15);
                quarter_round(&mut v, 1, 6, 11, 12);
                quarter_round(&mut v, 2, 7, 8, 13);
                quarter_round(&mut v, 3, 4, 9, 14);
            }
            for (row, start) in v.iter_mut().zip(&init) {
                // The feed-forward add leaves the lanes of absent peers zero.
                *row = _mm512_maskz_add_epi32(live, *row, *start);
            }
            let blocks = fold_transpose::<W>(v);
            for (out, block) in chunk.chunks_mut(BLOCK_LEN).zip(blocks) {
                #[allow(unsafe_code)]
                // SAFETY: `__m512i` and `[u8; 64]` are both 64 bytes of plain
                // integers, and every bit pattern is a valid value of either.
                // On x86-64 the bytes are each word's little-endian bytes, the
                // keystream's byte order.
                let block = unsafe { core::mem::transmute::<__m512i, [u8; BLOCK_LEN]>(block) };
                xor_into(out, &block[..out.len()]);
            }
            init[12] = _mm512_add_epi32(init[12], step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// The original byte-at-a-time buffered implementation, kept verbatim as
    /// the reference oracle for the multi-block engine.
    struct ReferenceChaCha20 {
        state: [u32; 16],
        buffer: [u8; BLOCK_LEN],
        buffer_pos: usize,
    }

    impl ReferenceChaCha20 {
        fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
            Self::like(&ChaCha20::new(key, nonce, counter))
        }

        fn like(fast: &ChaCha20) -> Self {
            Self {
                state: fast.state,
                buffer: [0u8; BLOCK_LEN],
                buffer_pos: BLOCK_LEN,
            }
        }

        fn next_block(&mut self) {
            let state = self.state;
            ChaCha20::block_into(&state, &mut self.buffer);
            self.state[12] = self.state[12].wrapping_add(1);
            self.buffer_pos = 0;
        }

        fn apply_keystream(&mut self, data: &mut [u8]) {
            for byte in data.iter_mut() {
                if self.buffer_pos == BLOCK_LEN {
                    self.next_block();
                }
                *byte ^= self.buffer[self.buffer_pos];
                self.buffer_pos += 1;
            }
        }

        fn keystream(&mut self, len: usize) -> Vec<u8> {
            let mut out = vec![0u8; len];
            self.apply_keystream(&mut out);
            out
        }
    }

    /// RFC 8439 §2.3.2 test vector: key 00..1f, nonce 00 00 00 09 00 00 00 4a
    /// 00 00 00 00, counter 1 — checked via the §2.4.2 encryption vector below,
    /// and the keystream-block vector here.
    #[test]
    fn rfc8439_block_function_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| u8::try_from(i).unwrap());
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        let ks = cipher.keystream(64);
        assert_eq!(
            hex::encode(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// RFC 8439 §2.4.2: encryption of the "sunscreen" plaintext.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| u8::try_from(i).unwrap());
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        cipher.apply_keystream(&mut data);
        assert_eq!(
            hex::encode(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let key = [0xabu8; 32];
        let nonce = [0x01u8; 12];
        let original: Vec<u8> = (0..500u32)
            .map(|i| u8::try_from(i % 251).unwrap())
            .collect();
        let mut data = original.clone();

        ChaCha20::new(&key, &nonce, 7).apply_keystream(&mut data);
        assert_ne!(data, original);
        ChaCha20::new(&key, &nonce, 7).apply_keystream(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn keystream_is_deterministic_across_chunking() {
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let mut a = ChaCha20::new(&key, &nonce, 0);
        let whole = a.keystream(300);

        let mut b = ChaCha20::new(&key, &nonce, 0);
        let mut pieces = Vec::new();
        for len in [1usize, 63, 64, 65, 107] {
            pieces.extend(b.keystream(len));
        }
        assert_eq!(whole, pieces);
    }

    #[test]
    fn keystream_into_matches_keystream() {
        let key = [4u8; 32];
        let nonce = [6u8; 12];
        for len in [0usize, 1, 63, 64, 65, 255, 256, 257, 300, 1024] {
            let expected = ChaCha20::new(&key, &nonce, 0).keystream(len);
            let mut buf = vec![0xEEu8; len];
            ChaCha20::new(&key, &nonce, 0).keystream_into(&mut buf);
            assert_eq!(buf, expected, "length {len}");
        }
    }

    #[test]
    fn xor_keystream_into_is_fused_copy_then_encrypt() {
        let key = [8u8; 32];
        let nonce = [2u8; 12];
        let src: Vec<u8> = (0u16..777)
            .map(|i| u8::try_from(i % 256).unwrap())
            .collect();
        let mut expected = src.clone();
        ChaCha20::new(&key, &nonce, 5).apply_keystream(&mut expected);
        let mut dst = vec![0u8; src.len()];
        ChaCha20::new(&key, &nonce, 5).xor_keystream_into(&mut dst, &src);
        assert_eq!(dst, expected);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn xor_keystream_into_panics_on_length_mismatch() {
        let mut cipher = ChaCha20::for_round(&[1u8; 32], 0);
        let mut dst = [0u8; 4];
        cipher.xor_keystream_into(&mut dst, &[0u8; 5]);
    }

    #[test]
    fn different_rounds_give_independent_pads() {
        let key = [5u8; 32];
        let pad_round_1 = ChaCha20::for_round(&key, 1).keystream(64);
        let pad_round_2 = ChaCha20::for_round(&key, 2).keystream(64);
        assert_ne!(pad_round_1, pad_round_2);
    }

    #[test]
    fn different_keys_give_independent_pads() {
        let pad_a = ChaCha20::for_round(&[1u8; 32], 1).keystream(64);
        let pad_b = ChaCha20::for_round(&[2u8; 32], 1).keystream(64);
        assert_ne!(pad_a, pad_b);
    }

    #[test]
    fn final_block_at_counter_max_is_still_produced() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        // The block with counter u32::MAX is the last legal one.
        let mut cipher = ChaCha20::new(&key, &nonce, u32::MAX);
        let ks = cipher.keystream(64);
        assert_eq!(ks.len(), 64);
        let mut reference = ReferenceChaCha20::new(&key, &nonce, u32::MAX);
        assert_eq!(ks, reference.keystream(64));
    }

    #[test]
    #[should_panic(expected = "keystream exhausted")]
    fn keystream_past_counter_wrap_panics() {
        let mut cipher = ChaCha20::new(&[0u8; 32], &[0u8; 12], u32::MAX);
        // 65 bytes need two blocks; the second would reuse counter 0.
        cipher.keystream(65);
    }

    #[test]
    #[should_panic(expected = "keystream exhausted")]
    fn keystream_into_past_counter_wrap_panics() {
        let mut cipher = ChaCha20::new(&[0u8; 32], &[0u8; 12], u32::MAX - 1);
        let mut buf = [0u8; 4 * BLOCK_LEN];
        cipher.keystream_into(&mut buf);
    }

    #[test]
    fn near_wrap_multi_block_falls_back_to_reference() {
        // Two blocks of headroom: the quad path must defer to the
        // single-block fallback and still match the oracle exactly.
        let key = [7u8; 32];
        let nonce = [1u8; 12];
        let counter = u32::MAX - 1;
        let mut fast = ChaCha20::new(&key, &nonce, counter);
        let mut buf = [0u8; 2 * BLOCK_LEN];
        fast.keystream_into(&mut buf);
        let mut reference = ReferenceChaCha20::new(&key, &nonce, counter);
        assert_eq!(buf.to_vec(), reference.keystream(2 * BLOCK_LEN));
    }

    /// `base ⊕ ⊕_lane keystream(key_lane)`, one single-key stream at a time.
    fn xor_streams_one_by_one(
        keys: &[(usize, [u8; 32])],
        nonce: &[u8; 12],
        counter: u32,
        base: &[u8],
    ) -> Vec<u8> {
        let mut expected = base.to_vec();
        for (_, key) in keys {
            ChaCha20::new(key, nonce, counter).apply_keystream(&mut expected);
        }
        expected
    }

    fn peer_keys(keys: &[(usize, [u8; 32])]) -> PeerKeys {
        let mut peers = PeerKeys::default();
        for (lane, key) in keys {
            peers.set(*lane, key);
        }
        peers
    }

    /// RFC 8439 §2.3.2 through the multi-key engine, in a lane other than
    /// 0, at every fold width: the other lanes' streams are XORed back out.
    #[test]
    fn rfc8439_block_function_vector_through_a_peer_lane() {
        let key: [u8; 32] = core::array::from_fn(|i| u8::try_from(i).unwrap());
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        for lane in [1usize, 2, 3, 5, 7] {
            let others: Vec<(usize, [u8; 32])> = (0..lane)
                .map(|other| (other, [u8::try_from(0xA0 + other).unwrap(); 32]))
                .collect();
            let mut peers = peer_keys(&others);
            assert!(peers.set(lane, &key));
            let mut block = [0u8; 64];
            peers.xor_keystreams_into(&nonce, 1, &mut block);
            let block = xor_streams_one_by_one(&others, &nonce, 1, &block);
            assert_eq!(
                hex::encode(&block),
                "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
                 d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
                "lane {lane}"
            );
        }
    }

    #[test]
    fn peer_keys_set_reports_fresh_lanes_and_replaces_keys() {
        let mut peers = PeerKeys::default();
        assert!(peers.set(3, &[1u8; 32]));
        assert!(!peers.set(3, &[2u8; 32]));
        let mut got = [0u8; 100];
        peers.xor_round_pads_into(9, &mut got);
        assert_eq!(
            got.to_vec(),
            ChaCha20::for_round(&[2u8; 32], 9).keystream(100)
        );
        // No key, no keystream.
        let mut untouched = [0x5Au8; 70];
        PeerKeys::default().xor_round_pads_into(9, &mut untouched);
        assert_eq!(untouched, [0x5Au8; 70]);
    }

    #[test]
    fn peer_keys_final_blocks_before_counter_wrap_are_still_produced() {
        // Two blocks of headroom at every fold width: lanes carrying later
        // blocks wrap their counter, and their output must not be used.
        let nonce = [1u8; 12];
        for peers in [1usize, 2, 3, 8] {
            let keys: Vec<(usize, [u8; 32])> = (0..peers)
                .map(|lane| (lane, [u8::try_from(lane + 1).unwrap(); 32]))
                .collect();
            let mut got = [0u8; 2 * BLOCK_LEN];
            peer_keys(&keys).xor_keystreams_into(&nonce, u32::MAX - 1, &mut got);
            let expected = xor_streams_one_by_one(&keys, &nonce, u32::MAX - 1, &[0u8; 128]);
            assert_eq!(got.to_vec(), expected, "{peers} peers");
        }
    }

    #[test]
    #[should_panic(expected = "keystream exhausted")]
    fn peer_keys_past_counter_wrap_panic() {
        let peers = peer_keys(&[(0, [0u8; 32]), (1, [1u8; 32]), (2, [2u8; 32])]);
        // 65 bytes need two blocks; the second would reuse counter 0.
        peers.xor_keystreams_into(&[0u8; 12], u32::MAX, &mut [0u8; 65]);
    }

    #[test]
    #[should_panic(expected = "keystream exhausted")]
    fn peer_keys_past_counter_wrap_panic_after_a_whole_pass() {
        // Four blocks at fold width 8 take more than one 8-lane pass, so an
        // AVX-512F build runs the 16-lane pass: its first two blocks are
        // the last legal ones, its next two would reuse counters 0 and 1.
        let keys: Vec<(usize, [u8; 32])> = (0..8)
            .map(|lane| (lane, [u8::try_from(lane).unwrap(); 32]))
            .collect();
        peer_keys(&keys).xor_keystreams_into(&[0u8; 12], u32::MAX - 1, &mut [0u8; 256]);
    }

    /// SHA-256 of the multi-key engine's output at each fold width (lanes
    /// left empty inside the width included), at slots of one pass and of
    /// several, and at a counter a few blocks below the wrap. The digests
    /// were taken from the portable 8-lane pass; the 16-lane AVX-512F pass
    /// must give the same bytes, so these pin both to one answer on every
    /// host.
    #[test]
    fn peer_keys_known_answer_digests() {
        let cases: [(&[usize], &str); 4] = [
            (
                &[0],
                "777d6ea00568b8346ca76a49180b8fe0eb69250c6c5b905018d64f55b65072e0",
            ),
            (
                &[0, 1],
                "5b926dce07e176b6bade63a6488fca1b583239f752bfea6eba4e415141c7438e",
            ),
            (
                &[0, 2, 3],
                "5ec94b7d3277bf6fe5044fdeb2f41253688b11ca208a9b64d15a1a7732b9a530",
            ),
            (
                &[0, 1, 2, 3, 5, 6],
                "513194df21775ecda173d74d704535ce6e266bc9c26b2c83d1a66206fa6aea9e",
            ),
        ];
        for (lanes, expected) in cases {
            let keys: Vec<(usize, [u8; 32])> = lanes
                .iter()
                .map(|&lane| {
                    let key =
                        core::array::from_fn(|i| u8::try_from((i * 7 + lane * 31) % 256).unwrap());
                    (lane, key)
                })
                .collect();
            let peers = peer_keys(&keys);
            let mut digest = crate::sha256::Sha256::new();
            for len in [64usize, 300, 512, 1100] {
                let base: Vec<u8> = (0..len).map(|i| u8::try_from(i % 251).unwrap()).collect();
                let mut out = base.clone();
                peers.xor_round_pads_into(0x0123_4567_89AB_CDEF, &mut out);
                digest.update(&out);
                let mut out = base;
                peers.xor_keystreams_into(&[0x5Cu8; 12], u32::MAX - 20, &mut out);
                digest.update(&out);
            }
            assert_eq!(hex::encode(&digest.finalize()), expected, "lanes {lanes:?}");
        }
    }

    #[test]
    fn chacha20_debug_prints_no_key_byte_run() {
        let mut cipher = ChaCha20::for_round(&crate::tests::distinct_key(), 7);
        cipher.keystream(10);
        crate::tests::assert_no_key_run(&format!("{cipher:?}"));
    }

    #[test]
    fn peer_keys_debug_prints_no_key_byte_run() {
        let mut peers = PeerKeys::default();
        peers.set(2, &crate::tests::distinct_key());
        crate::tests::assert_no_key_run(&format!("{peers:?}"));
    }

    proptest! {
        /// The multi-block engine is byte-identical to the single-block
        /// reference oracle over arbitrary lengths and chunk boundaries.
        #[test]
        fn prop_multi_block_matches_reference(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            counter in 0u32..1024,
            chunks in proptest::collection::vec(0usize..600, 1..5),
        ) {
            let mut reference = ReferenceChaCha20::new(&key, &nonce, counter);
            let mut fast = ChaCha20::new(&key, &nonce, counter);
            for len in chunks {
                let expected = reference.keystream(len);
                let mut got = vec![0u8; len];
                fast.keystream_into(&mut got);
                prop_assert_eq!(got, expected);
            }
        }

        /// `apply_keystream` (the XOR form) agrees with the reference too,
        /// at arbitrary split offsets within one stream.
        #[test]
        fn prop_apply_keystream_matches_reference(
            key in any::<[u8; 32]>(),
            round in any::<u64>(),
            len in 0usize..700,
            split in 0usize..700,
        ) {
            let split = split.min(len);
            let data: Vec<u8> = (0..len).map(|i| u8::try_from(i % 251).unwrap()).collect();
            let mut expected = data.clone();
            let mut reference = ReferenceChaCha20::like(&ChaCha20::for_round(&key, round));
            reference.apply_keystream(&mut expected);

            let mut got = data;
            let mut fast = ChaCha20::for_round(&key, round);
            let (a, b) = got.split_at_mut(split);
            fast.apply_keystream(a);
            fast.apply_keystream(b);
            prop_assert_eq!(got, expected);
        }

        /// The multi-key engine is byte-identical to the single-key streams
        /// XORed in one by one, for any set of occupied lanes, any length
        /// (whole passes, whole blocks, a partial last block) and counter,
        /// up to the last block before the counter wraps.
        #[test]
        fn prop_peer_keys_match_streams_one_by_one(
            lanes in any::<u8>(),
            seed in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            near_wrap in any::<bool>(),
            offset in 0u32..1024,
            len in 0usize..=1100,
        ) {
            // Near the wrap, `offset + 1` blocks are left before it.
            let (counter, len) = if near_wrap {
                (u32::MAX - offset, len.min((offset as usize + 1) * BLOCK_LEN))
            } else {
                (offset, len)
            };
            let keys: Vec<(usize, [u8; 32])> = (0..PeerKeys::LANES)
                .filter(|lane| lanes >> lane & 1 == 1)
                .map(|lane| (lane, seed.map(|byte| byte ^ u8::try_from(lane * 31).unwrap())))
                .collect();
            let base: Vec<u8> = (0..len).map(|i| u8::try_from(i % 251).unwrap()).collect();
            let mut got = base.clone();
            peer_keys(&keys).xor_keystreams_into(&nonce, counter, &mut got);
            prop_assert_eq!(got, xor_streams_one_by_one(&keys, &nonce, counter, &base));
        }
    }

    /// The 16-lane pass against the portable 8-lane pass at every fold
    /// width, including the one-pass lengths `fold` leaves to the latter.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    mod avx512_matches_portable {
        use super::super::*;
        use proptest::prelude::*;

        fn both_passes<const W: usize>(
            peers: &PeerKeys,
            nonce: &[u8; NONCE_LEN],
            counter: u32,
            base: &[u8],
        ) -> (Vec<u8>, Vec<u8>) {
            let mut portable = base.to_vec();
            peers.fold_portable::<W>(nonce, counter, &mut portable);
            let mut kernel = base.to_vec();
            #[allow(unsafe_code)]
            // SAFETY: this module is compiled only when the build targets
            // AVX-512F, the kernel's one target feature.
            unsafe {
                avx512::fold::<W>(peers, nonce, counter, &mut kernel);
            }
            (kernel, portable)
        }

        proptest! {
            #[test]
            fn prop_at_every_width_and_length(
                lanes in any::<u8>(),
                seed in any::<[u8; 32]>(),
                nonce in any::<[u8; 12]>(),
                counter in 0u32..1024,
                len in 0usize..=1100,
            ) {
                let mut peers = PeerKeys::default();
                for lane in (0..PeerKeys::LANES).filter(|lane| lanes >> lane & 1 == 1) {
                    peers.set(lane, &seed.map(|byte| byte ^ u8::try_from(lane).unwrap()));
                }
                let base: Vec<u8> = (0..len).map(|i| u8::try_from(i % 251).unwrap()).collect();
                // Each width reads only its own lanes, occupied or not.
                let (kernel, portable) = both_passes::<1>(&peers, &nonce, counter, &base);
                prop_assert_eq!(kernel, portable);
                let (kernel, portable) = both_passes::<2>(&peers, &nonce, counter, &base);
                prop_assert_eq!(kernel, portable);
                let (kernel, portable) = both_passes::<4>(&peers, &nonce, counter, &base);
                prop_assert_eq!(kernel, portable);
                let (kernel, portable) = both_passes::<8>(&peers, &nonce, counter, &base);
                prop_assert_eq!(kernel, portable);
            }
        }
    }
}
