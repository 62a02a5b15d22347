//! Order statistics and the digest used by every workload.

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both are harness bugs.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads `compare` prints are the ones the acceptance rule is stated in.
/// A single sample is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    let at = |quarter: usize| {
        if n == 1 {
            return sorted[0];
        }
        // Rank quarter·(n+1)/4, 1-based, interpolated and clamped to the
        // sample range exactly as CPython does.
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// The tail of a timing sample: the highest percentile that still has at
/// least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `97.5` for 400 samples).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it: 10, or 0 when the sample is too small
    /// for a tail and `value` is merely the maximum.
    pub beyond: usize,
}

/// Picks the [`Tail`] of `values`. With fewer than eleven samples no
/// percentile has ten samples beyond it; the maximum is returned with
/// `beyond = 0` so the reader sees it is not a percentile estimate.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return Tail {
            percentile: 100.0,
            value: sorted[n - 1],
            beyond: 0,
        };
    }
    Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: sorted[n - TAIL_BEYOND - 1],
        beyond: TAIL_BEYOND,
    }
}

const TAIL_BEYOND: usize = 10;

/// Running FNV-1a 64-bit digest over a unit's model statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `bytes` eight at a time (one multiply per word, for digests
    /// taken inside a measured region); a shorter tail folds bytewise.
    pub fn words(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.0 ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes(chunks.remainder());
    }

    /// Folds one integer into the digest.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Folds one float into the digest, by bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}
