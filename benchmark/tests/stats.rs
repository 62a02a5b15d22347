//! Median, quartile and tail-percentile selection.

use fnp_perf::stats::{median, quartiles, tail, Fnv};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: the exclusive
    // method extrapolates past a two-point sample.
    assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
    assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=400).map(f64::from).collect();
    let picked = tail(&samples);
    assert_eq!(picked.value, 390.0);
    assert_eq!(picked.beyond, 10);
    assert_eq!(picked.percentile, 97.5);
    assert_eq!(samples.iter().filter(|&&v| v > picked.value).count(), 10);

    // Sixteen units: ten beyond leaves the sixth-smallest, the 37.5th
    // percentile — stated, so nobody reads it as a p99.
    let sixteen: Vec<f64> = (1..=16).rev().map(f64::from).collect();
    let picked = tail(&sixteen);
    assert_eq!(
        (picked.value, picked.percentile, picked.beyond),
        (6.0, 37.5, 10)
    );

    // Eleven is the smallest sample with a tail at all.
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(tail(&eleven).value, 1.0);
    assert_eq!(tail(&eleven).beyond, 10);
}

#[test]
fn too_small_a_sample_reports_its_maximum_and_says_so() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let picked = tail(&ten);
    assert_eq!(
        (picked.value, picked.percentile, picked.beyond),
        (10.0, 100.0, 0)
    );
}

#[test]
fn word_digest_depends_on_every_byte() {
    let digest = |bytes: &[u8]| {
        let mut fnv = Fnv::default();
        fnv.words(bytes);
        fnv.finish()
    };
    let base = [7u8; 19];
    for index in 0..base.len() {
        let mut changed = base;
        changed[index] ^= 1;
        assert_ne!(digest(&base), digest(&changed), "byte {index}");
    }
}
