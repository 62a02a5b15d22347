//! Dense u64-word bitsets for the simulator's hot membership lanes.
//!
//! BFS visited tracking and the flood coverage ("seen") lane are
//! membership tests over a dense node index space. A `Vec<bool>` answers
//! them one byte per element; a [`BitSet`] packs 64 elements per word, so
//! the whole lane of a 10⁶-node overlay is ~122 KiB — small enough to stay
//! cache-resident through an entire breadth-first sweep, where the
//! byte-per-flag layout thrashes. Population counts (`count_ones`) come
//! from the hardware popcount instead of a byte-wise scan.
//!
//! Trailing bits beyond [`BitSet::len`] are kept zero at all times, so the
//! derived `PartialEq` compares sets by contents regardless of how they
//! were grown or reset.

/// Log₂ of the bits per storage word.
const WORD_SHIFT: usize = 6;
/// Bits per storage word.
const WORD_BITS: usize = 1 << WORD_SHIFT;

/// A fixed-length set of bits, packed 64 per word.
///
/// Indices run in `0..len`. All mutators keep the invariant that bits at
/// and beyond `len` are zero, which makes equality, cloning and
/// [`BitSet::count_ones`] independent of the allocation history.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a set of `len` zero bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let mut set = Self::default();
        set.reset(len);
        set
    }

    /// Re-zeroes the set and resizes it to `len` bits, reusing the word
    /// allocation (the cheap path of an arena reset).
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Number of bits in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set covers no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index >> WORD_SHIFT] & (1u64 << (index & (WORD_BITS - 1))) != 0
    }

    /// Sets the bit at `index`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = &mut self.words[index >> WORD_SHIFT];
        let mask = 1u64 << (index & (WORD_BITS - 1));
        let previous = *word & mask != 0;
        *word |= mask;
        previous
    }

    /// Number of set bits, via per-word popcount.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed_and_counts() {
        let mut set = BitSet::new(130);
        assert_eq!(set.len(), 130);
        assert!(!set.is_empty());
        assert_eq!(set.count_ones(), 0);
        assert!(!set.set(0));
        assert!(!set.set(63));
        assert!(!set.set(64));
        assert!(!set.set(129));
        assert_eq!(set.count_ones(), 4);
        assert!(set.set(129), "second set reports the previous value");
        assert_eq!(set.count_ones(), 4);
    }

    #[test]
    fn get_and_clear_round_trip() {
        let mut set = BitSet::new(70);
        set.set(69);
        assert!(set.get(69));
        assert!(!set.get(68));
        set.reset(70);
        assert!(!set.get(69), "reset clears every bit");
    }

    #[test]
    fn reset_rezeros_and_equality_ignores_capacity() {
        let mut grown = BitSet::new(1000);
        for i in (0..1000).step_by(7) {
            grown.set(i);
        }
        grown.reset(65);
        assert_eq!(grown.count_ones(), 0);
        assert_eq!(grown, BitSet::new(65));
        grown.set(64);
        assert_eq!(grown.count_ones(), 1);
    }

    #[test]
    fn empty_set() {
        let set = BitSet::new(0);
        assert!(set.is_empty());
        assert_eq!(set.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let set = BitSet::new(64);
        let _ = set.get(64);
    }
}
