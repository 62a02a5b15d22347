//! `fnp-perf compare <a.json> <b.json>`: did B get worse than A?
//!
//! One row per (workload, end-to-end metric), with both sides' medians and
//! quartiles, the ratio **and its base**, and a verdict against the bound
//! `BENCHMARK.json` fixes for the metric. A is the parent (the base of
//! every ratio), B the change.

use crate::api::Json;
use crate::schema::Better;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What the two samples say about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than A's inter-quartile
    /// distance. Not a claimed gain: that takes the README's pair rule.
    Better,
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound and the two sides' runs
    /// interleave, so the samples cannot tell.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit of both sides' values.
    pub unit: String,
    /// `(q1, median, q3)` of side A, the base.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of side B.
    pub b: (f64, f64, f64),
    /// Runs on each side.
    pub runs: (usize, usize),
    /// B's median over A's.
    pub ratio: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges sample `b` against sample `a` for a metric whose improvement
/// direction is `better` and which may worsen by `bound` of A's median.
///
/// # Panics
///
/// Panics if either sample is empty.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (a_q1, a_median, a_q3) = quartiles(a);
    let (b_q1, b_median, b_q3) = quartiles(b);
    // Positive = B is worse, as a share of A's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (b_median - a_median) / a_median.abs();
    let spread = ((a_q3 - a_q1) / a_median.abs()).max((b_q3 - b_q1) / b_median.abs());
    let (a_min, a_max) = min_max(a);
    let (b_min, b_max) = min_max(b);
    let interleave = a_min <= b_max && b_min <= a_max;
    if spread > bound && interleave {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if -worsening > (a_q3 - a_q1) / a_median.abs() && worsening < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// A JSON number of any flavour as `f64`.
#[must_use]
pub fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Int(v) => Some(*v as f64),
        Json::UInt(v) => Some(*v as f64),
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

/// `(workload, metric) → (unit, values)`.
type Samples = BTreeMap<(String, String), (String, Vec<f64>)>;

/// The [`Samples`] of a result file: either a set
/// (`{"runs": [run, …]}`, as `fnp-perf aa` writes) or one run (`out/<workload>.json`).
fn samples(file: &Json) -> Result<Samples, String> {
    let single = std::slice::from_ref(file);
    let runs = file.get("runs").and_then(Json::as_array).unwrap_or(single);
    let mut samples = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without \"workload\"")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("run of {workload} without \"metrics\""));
        };
        for (name, reading) in metrics {
            let value = reading.get("value").and_then(number);
            let value = value.ok_or_else(|| format!("{workload}.{name} has no numeric value"))?;
            let unit = reading.get("unit").and_then(Json::as_str).unwrap_or("");
            let entry = samples
                .entry((workload.to_string(), name.clone()))
                .or_default();
            entry.0 = unit.to_string();
            entry.1.push(value);
        }
    }
    Ok(samples)
}

/// Compares result file `b` against `a` under the `end_to_end` bounds of
/// `benchmark` (the parsed `BENCHMARK.json`). Metrics without a bound —
/// per-layer ones — are skipped; rows come in the file's workload and
/// metric order.
///
/// # Errors
///
/// Fails on a malformed file, or when a gated metric of A is missing in B.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<Vec<Row>, String> {
    let a = samples(a)?;
    let b = samples(b)?;
    let list = |key: &str| {
        benchmark
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))
    };
    let mut rows = Vec::new();
    for workload in list("workloads")? {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        for metric in list("end_to_end")? {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let key = (workload.to_string(), name.to_string());
            let Some((unit, a_values)) = a.get(&key) else {
                continue;
            };
            let (_, b_values) = b
                .get(&key)
                .ok_or_else(|| format!("{workload}.{name} is missing on side B"))?;
            let better = match metric.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: \"better\" is {other:?}")),
            };
            let bound = metric
                .get("bound")
                .and_then(number)
                .ok_or_else(|| format!("{name}: no bound"))?;
            let (a_stats, b_stats) = (quartiles(a_values), quartiles(b_values));
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                unit: unit.clone(),
                a: a_stats,
                b: b_stats,
                runs: (a_values.len(), b_values.len()),
                ratio: b_stats.1 / a_stats.1,
                bound,
                verdict: verdict(a_values, b_values, better, bound),
            });
        }
    }
    Ok(rows)
}

/// The rows as a Markdown table (what `AA.md` holds).
#[must_use]
pub fn table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | runs A/B | B÷A (base: A median) | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for row in rows {
        let side = |(q1, median, q3): (f64, f64, f64)| {
            format!("{} [{}, {}]", digits(median), digits(q1), digits(q3))
        };
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {}/{} | {:.4} (of {}) | {}% | {} |",
            row.workload,
            row.metric,
            row.unit,
            side(row.a),
            side(row.b),
            row.runs.0,
            row.runs.1,
            row.ratio,
            digits(row.a.1),
            row.bound * 100.0,
            row.verdict.as_str(),
        )
        .expect("writing to a String");
    }
    out
}

/// Five significant digits, without exponent notation for the magnitudes
/// the benchmark reports.
fn digits(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let decimals = (4 - value.abs().log10().floor() as i32).clamp(0, 9);
    format!("{value:.*}", decimals as usize)
}
