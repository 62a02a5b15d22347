//! Small statistics helpers shared by the experiment harness.
//!
//! Experiments repeat every simulated broadcast over many seeds and report
//! means, standard deviations and percentiles; this module provides those
//! aggregations without pulling in a statistics dependency.

use std::fmt;

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0.0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (0.0 for fewer than two observations).
    pub std_dev: f64,
    /// Smallest observation (0.0 for an empty sample).
    pub min: f64,
    /// Largest observation (0.0 for an empty sample).
    pub max: f64,
    /// Median (0.0 for an empty sample).
    pub median: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.2} sd={:.2} min={:.2} median={:.2} max={:.2} (n={})",
            self.mean, self.std_dev, self.min, self.median, self.max, self.count
        )
    }
}

/// Computes [`Summary`] statistics over `values`.
///
/// Never panics: values are ordered with [`f64::total_cmp`], under which
/// positive NaNs sort after `+∞` (and negative NaNs before `-∞`). An
/// upstream 0/0 therefore surfaces as a NaN `max`/high percentile in the
/// report — visible in the output row — instead of aborting the whole
/// experiment sweep.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            median: 0.0,
        };
    }
    let count = values.len();
    let mean = values.iter().sum::<f64>() / count as f64;
    let variance = if count > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64
    } else {
        0.0
    };
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        count,
        mean,
        std_dev: variance.sqrt(),
        min: sorted[0],
        max: sorted[count - 1],
        median: percentile_sorted(&sorted, 50.0),
    }
}

/// Returns the `p`-th percentile (0–100) of `values` using linear
/// interpolation between closest ranks. Returns 0.0 for an empty slice.
///
/// Values are ordered with [`f64::total_cmp`], so NaN input never panics;
/// positive NaNs rank above `+∞` (see [`summarize`] for the rationale).
/// Sorts a copy of `values` on every call: to read several percentiles of
/// one sample, sort it once and use [`percentile_sorted`].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of a sample already in ascending [`f64::total_cmp`]
/// order (`values.sort_unstable_by(f64::total_cmp)`), read without copying
/// or sorting it again. Returns 0.0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 100.0);
    if sorted.len() <= 1 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    // `p` is clamped into [0, 100], so `rank` lies in [0, len − 1]:
    // non-negative and always in range for usize.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lower = rank.floor() as usize;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let upper = rank.ceil() as usize;
    if lower == upper {
        sorted[lower]
    } else {
        let weight = rank - lower as f64;
        sorted[lower] * (1.0 - weight) + sorted[upper] * weight
    }
}

/// Shannon entropy (in bits) of a discrete probability distribution.
///
/// Probabilities are normalised first, so any non-negative weights are
/// accepted; zero weights contribute nothing. Returns 0.0 when the total
/// weight is zero.
///
/// Used by the privacy experiments: the entropy of the attacker's posterior
/// over originators is a standard anonymity measure — `log2(n)` bits means
/// perfect obfuscation over `n` candidates, 0 bits means full
/// deanonymisation.
pub fn entropy_bits(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    weights
        .iter()
        .filter(|w| **w > 0.0)
        .map(|w| {
            let p = w / total;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_sample() {
        let s = summarize(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_of_single_value() {
        let s = summarize(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample (n-1) standard deviation of this classic example is ~2.138.
        assert!((s.std_dev - 2.13809).abs() < 1e-4);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let values = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&values, 0.0), 10.0);
        assert_eq!(percentile(&values, 100.0), 40.0);
        assert!((percentile(&values, 50.0) - 25.0).abs() < 1e-12);
        assert!((percentile(&values, 25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&values, -10.0), 1.0);
        assert_eq!(percentile(&values, 200.0), 3.0);
    }

    #[test]
    fn one_sort_reads_the_same_percentiles_as_a_sort_per_call() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // A small pool, so samples repeat values; `-0.0` and `0.0` are
        // distinct under `total_cmp` (negative zero first).
        let pool = [-3.5, -0.0, 0.0, 0.25, 1.0, 7.0, 1e9, f64::INFINITY];
        let mut rng = StdRng::seed_from_u64(46);
        let mut samples = vec![vec![0.0, -0.0], vec![-0.0, 0.0, -0.0], vec![2.5]];
        samples.extend((0..200).map(|_| {
            let len = rng.gen_range(1..40);
            (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect()
        }));
        for values in samples {
            // The reference sorts stably: under `total_cmp` only
            // bit-identical values compare equal, so both sorts agree.
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
                let (each, once) = (percentile(&values, p), percentile_sorted(&sorted, p));
                assert_eq!(each.to_bits(), once.to_bits(), "p{p} of {values:?}");
            }
        }
        assert_eq!(percentile(&[0.0, -0.0], 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn nan_input_is_ordered_last_instead_of_panicking() {
        // Regression: these used to abort the whole sweep via `.expect`.
        let s = summarize(&[2.0, f64::NAN, 1.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert!(s.max.is_nan(), "positive NaN sorts after +inf");
        assert_eq!(s.median, 2.0);
        assert!(s.mean.is_nan());
        assert_eq!(percentile(&[f64::NAN, 5.0, 3.0], 0.0), 3.0);
        assert!(percentile(&[f64::NAN, 5.0, 3.0], 100.0).is_nan());
    }

    #[test]
    fn entropy_of_uniform_distribution() {
        let uniform = vec![0.25; 4];
        assert!((entropy_bits(&uniform) - 2.0).abs() < 1e-12);
        let uniform8 = vec![1.0; 8];
        assert!((entropy_bits(&uniform8) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_eq!(entropy_bits(&[1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_of_empty_or_zero_weights_is_zero() {
        assert_eq!(entropy_bits(&[]), 0.0);
        assert_eq!(entropy_bits(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn entropy_normalises_weights() {
        assert!((entropy_bits(&[2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_count() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert!(s.to_string().contains("n=3"));
    }
}
