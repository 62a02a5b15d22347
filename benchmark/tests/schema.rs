//! The committed `BENCHMARK.json`, the schema table and what the binary
//! prints must name the same workloads and metrics; plus a one-unit smoke
//! run of every workload.

use fnp_perf::api::Json;
use fnp_perf::schema::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn committed() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn names(list: &Json) -> Vec<&str> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|item| item.get("name").and_then(Json::as_str).unwrap())
        .collect()
}

#[test]
fn committed_file_is_what_the_schema_prints() {
    assert_eq!(
        committed(),
        benchmark_json(),
        "regenerate with `fnp-perf schema > BENCHMARK.json`"
    );
}

#[test]
fn names_and_counts_meet_the_contract() {
    let file = committed();
    let workloads = names(file.get("workloads").unwrap());
    let end_to_end = names(file.get("end_to_end").unwrap());
    let per_layer = names(file.get("per_layer").unwrap());
    assert_eq!(workloads.len(), 5);
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert!(end_to_end.contains(&"setup_s"));
    let all: Vec<&str> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .copied()
        .collect();
    for name in &all {
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && name.as_bytes()[0].is_ascii_alphanumeric();
        assert!(well_formed, "{name:?}");
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used once"
    );
    // setup_s carries the largest bound, and no bound exceeds a quarter.
    let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound <= bound("setup_s") && m.bound <= 0.25));
    // Every layer metric is measured by at least one workload that exists.
    for metric in &PER_LAYER {
        assert!(
            metric.measured_on.iter().all(|w| workloads.contains(w)),
            "{}",
            metric.name
        );
    }
}

/// Runs one unit of `workload` through the binary and returns the parsed
/// result line.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_fnp-perf"))
        .args(["run", "--workload", workload, "--units", "1", "--seed", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run fnp-perf");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stderr}"
    );
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let report = if trace {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    };
    let report = Json::parse(&std::fs::read_to_string(out.join(report)).unwrap()).unwrap();
    let failed_share = report
        .get("failed_share")
        .and_then(fnp_perf::compare::number);
    assert_eq!(failed_share, Some(0.0));
    for key in ["git", "nproc", "cpu", "rustc"] {
        assert!(report.get("host").unwrap().get(key).is_some(), "host.{key}");
    }
    if trace {
        assert!(out.join(format!("trace-{workload}.json")).exists());
    }
    line
}

fn emitted(line: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, reading)| {
            assert!(
                fnp_perf::compare::number(reading.get("value").unwrap()).is_some(),
                "{name}"
            );
            (
                name.clone(),
                reading
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect()
}

/// One unit of every workload, untraced and traced: no check fails, and
/// the result lines carry exactly the schema's metrics, in order, with
/// their units — and nothing else.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "250 000-node floods need `cargo test --release`"
)]
fn every_workload_emits_exactly_the_named_metrics_and_passes_its_checks() {
    let end_to_end: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let per_layer: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    for workload in &WORKLOADS {
        let untraced = emitted(&smoke(workload.name, false));
        assert_eq!(untraced, end_to_end, "{}", workload.name);
        assert!(smoke_values_nonzero(workload.name), "{}", workload.name);
        let traced = emitted(&smoke(workload.name, true));
        assert_eq!(traced, per_layer, "{}", workload.name);
    }
}

/// End-to-end metrics are never 0 (a bound is a share of the median).
fn smoke_values_nonzero(workload: &str) -> bool {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-false"));
    let report = std::fs::read_to_string(out.join(format!("{workload}.json"))).unwrap();
    let report = Json::parse(&report).unwrap();
    let Some(Json::Obj(metrics)) = report.get("metrics") else {
        return false;
    };
    metrics
        .iter()
        .all(|(_, reading)| fnp_perf::compare::number(reading.get("value").unwrap()).unwrap() > 0.0)
}
