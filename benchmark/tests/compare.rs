//! `compare` verdicts on synthetic inputs.

use fnp_perf::api::Json;
use fnp_perf::compare::{compare, table, verdict, Verdict};
use fnp_perf::schema::{benchmark_json, Better};

/// Ten tight samples around `centre`.
fn tight(centre: f64) -> Vec<f64> {
    (0..10)
        .map(|i| centre * (1.0 + (f64::from(i) - 4.5) * 0.001))
        .collect()
}

#[test]
fn a_median_past_the_bound_is_worse_in_the_metrics_own_direction() {
    assert_eq!(
        verdict(&tight(100.0), &tight(115.0), Better::Lower, 0.10),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&tight(100.0), &tight(85.0), Better::Higher, 0.10),
        Verdict::Worse
    );
    // The same moves the other way round are gains.
    assert_eq!(
        verdict(&tight(100.0), &tight(85.0), Better::Lower, 0.10),
        Verdict::Better
    );
    assert_eq!(
        verdict(&tight(100.0), &tight(115.0), Better::Higher, 0.10),
        Verdict::Better
    );
}

#[test]
fn a_small_move_is_within_bound_and_better_needs_more_than_the_parents_iqr() {
    assert_eq!(
        verdict(&tight(100.0), &tight(104.0), Better::Lower, 0.10),
        Verdict::WithinBound
    );
    // A's inter-quartile distance is about 0.5 %: 0.2 % better is not
    // "better", 2 % is.
    assert_eq!(
        verdict(&tight(100.0), &tight(99.8), Better::Lower, 0.10),
        Verdict::WithinBound
    );
    assert_eq!(
        verdict(&tight(100.0), &tight(98.0), Better::Lower, 0.10),
        Verdict::Better
    );
}

#[test]
fn wide_interleaving_samples_are_unresolved_not_unchanged() {
    let noisy_a = [
        80.0, 120.0, 90.0, 115.0, 100.0, 85.0, 110.0, 95.0, 105.0, 125.0,
    ];
    let noisy_b = [
        82.0, 118.0, 93.0, 112.0, 101.0, 88.0, 108.0, 97.0, 103.0, 121.0,
    ];
    assert_eq!(
        verdict(&noisy_a, &noisy_b, Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // As wide, but every run of B beyond every run of A: resolved.
    let far_b: Vec<f64> = noisy_a.iter().map(|v| v * 2.0).collect();
    assert_eq!(
        verdict(&noisy_a, &far_b, Better::Lower, 0.10),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&noisy_a, &far_b, Better::Higher, 0.10),
        Verdict::Better
    );
}

fn set(unit_ms: &[f64], setup_s: f64) -> Json {
    let runs = unit_ms
        .iter()
        .map(|&ms| {
            let reading = |value: f64, unit: &str| {
                Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
            };
            Json::obj([
                ("workload", Json::from("node_wire")),
                (
                    "metrics",
                    Json::obj([
                        ("unit_ms_p50", reading(ms, "ms")),
                        ("setup_s", reading(setup_s, "s")),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("runs", Json::Arr(runs))])
}

#[test]
fn files_compare_row_by_row_under_the_committed_bounds() {
    let a = set(&tight(30.0), 0.04);
    let b = set(&tight(39.0), 0.04);
    let rows = compare(&a, &b, &benchmark_json()).unwrap();
    let verdicts: Vec<_> = rows
        .iter()
        .map(|row| (row.metric.as_str(), row.verdict))
        .collect();
    assert_eq!(
        verdicts,
        [
            ("setup_s", Verdict::WithinBound),
            ("unit_ms_p50", Verdict::Worse)
        ]
    );
    assert_eq!(rows[1].runs, (10, 10));
    assert!((rows[1].ratio - 1.3).abs() < 1e-9);
    let printed = table(&rows);
    assert!(
        printed.contains("| node_wire | unit_ms_p50 | ms |"),
        "{printed}"
    );
    assert!(
        printed.contains("1.3000 (of 30.000)"),
        "ratio with its base: {printed}"
    );
    assert!(printed.contains("| worse |"), "{printed}");
}

#[test]
fn a_metric_missing_on_one_side_is_an_error_not_a_pass() {
    let a = set(&tight(30.0), 0.04);
    let Json::Obj(mut b) = set(&tight(30.0), 0.04) else {
        unreachable!()
    };
    b[0].1 = Json::Arr(Vec::new());
    assert!(compare(&a, &Json::Obj(b), &benchmark_json()).is_err());
}
