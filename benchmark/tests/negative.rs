//! Negative tests for the checks: a benchmark whose checks cannot fail
//! checks nothing. Each fault must turn a passing unit into a failing one
//! and reach the result line as `failed > 0`.

use fnp_perf::api::{Graph, Json, NodeId};
use fnp_perf::harness::{run_untraced, Layers, Meter, Model, Options, Traced, Unit, Workload};
use fnp_perf::trace::Recorder;
use fnp_perf::workloads::dcnet_rounds::DcnetRounds;
use fnp_perf::workloads::flood_large::FloodLarge;
use fnp_perf::workloads::node_wire::NodeWire;
use std::time::Instant;

fn unit_of<W: Workload>(workload: &mut W) -> Unit {
    workload.unit(7, 1, &mut Meter::default())
}

#[test]
fn a_corrupted_dcnet_contribution_fails_the_unit() {
    let mut workload = DcnetRounds::set_up(1, &mut Recorder::with_capacity(8));
    assert_eq!(unit_of(&mut workload).failure, None);
    workload.corrupt_contribution = true;
    let failure = unit_of(&mut workload)
        .failure
        .expect("a flipped bit must not decode");
    assert!(
        failure.contains("3 rounds"),
        "one corrupted round per batch: {failure}"
    );
}

#[test]
fn a_dropped_send_line_fails_the_unit() {
    let mut workload = NodeWire::set_up(1, &mut Recorder::with_capacity(8));
    assert_eq!(unit_of(&mut workload).failure, None);
    workload.drop_send = Some(100);
    let failure = unit_of(&mut workload)
        .failure
        .expect("a lost send must be noticed");
    assert!(failure.contains("sends emitted"), "{failure}");
}

fn rings(sizes: &[usize]) -> Graph {
    let mut graph = Graph::new(sizes.iter().sum());
    let mut first = 0;
    for &size in sizes {
        for offset in 0..size {
            graph.add_edge(
                NodeId::new(first + offset),
                NodeId::new(first + (offset + 1) % size),
            );
        }
        first += size;
    }
    graph
}

#[test]
fn a_flood_over_a_disconnected_overlay_fails_the_unit() {
    assert_eq!(unit_of(&mut FloodLarge::over(rings(&[64]))).failure, None);
    let failure = unit_of(&mut FloodLarge::over(rings(&[32, 32]))).failure;
    assert_eq!(failure.as_deref(), Some("coverage 32 of 64"));
}

/// A workload whose every other unit fails, to follow a failure from the
/// unit to the result line.
struct Flaky(u64);

impl Workload for Flaky {
    const NAME: &'static str = "node_wire"; // any name the schema knows
    const SPANS_PER_UNIT: usize = 1;

    fn set_up(_: u64, _: &mut Recorder) -> Self {
        Flaky(0)
    }

    fn unit(&mut self, _: u64, _: usize, meter: &mut Meter) -> Unit {
        self.0 += 1;
        meter.measure(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        Unit {
            ops: 1,
            failure: self
                .0
                .is_multiple_of(2)
                .then(|| "every other unit".to_string()),
            model: Model::default(),
            digest: 0,
        }
    }

    fn traced_unit(&mut self, _: u64, _: &mut Recorder) -> Unit {
        unreachable!()
    }

    fn layers(&mut self, _: u64, _: &Traced<'_>, _: &mut Layers) {
        unreachable!()
    }
}

#[test]
fn failed_units_raise_failed_share_in_the_result_line() {
    let report = run_untraced::<Flaky>(&Options {
        seed: 1,
        seconds: 0.0,
        units: Some(4),
        trace: false,
        out_dir: env!("CARGO_TARGET_TMPDIR").into(),
        process_start: Instant::now(),
    });
    assert!(!report.failures.is_empty());
    let line = Json::parse(&report.result_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    let failed = line.get("failed").and_then(Json::as_u64).unwrap();
    let attempted = line.get("attempted").and_then(Json::as_u64).unwrap();
    assert!(failed > 0 && failed < attempted, "{failed} of {attempted}");
    assert_eq!(failed as usize, report.failures.len());
}
