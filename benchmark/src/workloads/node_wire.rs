//! `node_wire` — 2 000 in-process `NodeRuntime`s behind the wire codec.
//!
//! The benchmark plays the FIFO router of `crates/node/tests/smoke.rs`:
//! `init` every node, `start` one, route every emitted `send` line into a
//! `deliver` line until quiescent, `shutdown` every node — everything
//! through `parse_event` → `NodeRuntime::handle` → emitted lines. The only
//! path with a real codec (reads beside writes) and the `StandaloneEnv`
//! driver instead of the simulator. In-process on purpose: N processes over
//! pipes on two cores would measure the scheduler. One op is one `deliver`
//! event handled (about 14 000 per unit).

use crate::api::{
    parse_event, send_line, standard_overlay_in, FloodMessage, Json, NodeId, NodeRuntime,
    TrialArena,
};
use crate::harness::{Layers, Meter, Model, Traced, Unit, Workload, UNIT_SPAN};
use crate::stats::{median, Fnv};
use crate::trace::{Recorder, Tap};
use crate::workloads::ns_per_iteration;
use std::collections::VecDeque;
use std::hint::black_box;

/// Nodes in the overlay (8-regular).
pub const NODES: usize = 2_000;

const PARSE: &str = "node.wire.parse";
const ROUTE: &str = "harness.route";
const HANDLE_INIT: &str = "node.runtime.handle.init";
const HANDLE_FIRST: &str = "node.runtime.handle.first";
const HANDLE_DUP: &str = "node.runtime.handle.dup";
const HANDLE_OTHER: &str = "node.runtime.handle.other";
/// Counter of `send` lines the nodes emitted.
const SENDS: &str = "node.wire.sends";

/// Set-up state: one pre-formatted `init` line per node.
#[derive(Debug)]
pub struct NodeWire {
    init_lines: Vec<String>,
    /// Fault injection for the negative test: the router loses the
    /// `send` line with this ordinal.
    pub drop_send: Option<u64>,
}

/// One unit in flight: the nodes, the router's queue and its tallies.
struct Broadcast<'a, 'r> {
    nodes: Vec<NodeRuntime>,
    /// Lines the node handling the current event emitted.
    emitted: Vec<String>,
    /// `(at, to, from, tx)` of messages in flight, FIFO.
    in_flight: VecDeque<(u64, usize, usize, u64)>,
    delivered_lines: Vec<u32>,
    drop_send: Option<u64>,
    sends: u64,
    delivers: u64,
    events: u64,
    bytes: u64,
    last_at: u64,
    errors: Vec<String>,
    tap: &'a mut Tap<'r>,
}

impl Broadcast<'_, '_> {
    /// Feeds `line` to `node` at time `at` and routes what it emits, which
    /// stays in `self.emitted` until the next call. `handle_span` names the
    /// handling's layer where the event type does; for a `deliver` it is
    /// decided by the outcome (first receipt or duplicate).
    fn feed(&mut self, node: usize, at: u64, line: &str, handle_span: Option<&'static str>) {
        self.emitted.clear();
        self.events += 1;
        self.bytes += line.len() as u64;
        let open = self.tap.begin(PARSE);
        let event = parse_event(line);
        self.tap.end_as(open, PARSE);
        let event = match event {
            Ok(event) => event,
            Err(error) => return self.errors.push(error.to_string()),
        };
        let open = self.tap.begin(HANDLE_OTHER);
        let handled = self.nodes[node].handle(event, &mut self.emitted);
        let outcome = if self.emitted.is_empty() {
            HANDLE_DUP
        } else {
            HANDLE_FIRST
        };
        self.tap.end_as(open, handle_span.unwrap_or(outcome));
        if let Err(error) = handled {
            self.errors.push(error.to_string());
        }

        let open = self.tap.begin(ROUTE);
        for line in &self.emitted {
            self.bytes += line.len() as u64;
            let parsed = Json::parse(line).ok();
            let field = |key| parsed.as_ref().and_then(|json| json.get(key));
            match field("type").and_then(Json::as_str) {
                Some("send") => {
                    let to = field("to").and_then(Json::as_u64);
                    let tx = field("message")
                        .and_then(|message| message.get("tx_id"))
                        .and_then(Json::as_u64);
                    let (Some(to), Some(tx)) = (to, tx) else {
                        self.errors.push(format!("malformed send line {line}"));
                        continue;
                    };
                    if self.drop_send != Some(self.sends) {
                        self.in_flight.push_back((at + 1, to as usize, node, tx));
                    }
                    self.sends += 1;
                }
                Some("delivered") => self.delivered_lines[node] += 1,
                Some("init_ok" | "done") => {}
                _ => self.errors.push(format!("unexpected line {line}")),
            }
        }
        self.tap.end_as(open, ROUTE);
    }
}

impl NodeWire {
    /// One broadcast from start to quiescence.
    fn broadcast(&self, unit_seed: u64, tap: &mut Tap<'_>) -> Unit {
        let mut run = Broadcast {
            nodes: (0..NODES).map(|_| NodeRuntime::new()).collect(),
            emitted: Vec::with_capacity(16),
            in_flight: VecDeque::new(),
            delivered_lines: vec![0; NODES],
            drop_send: self.drop_send,
            sends: 0,
            delivers: 0,
            events: 0,
            bytes: 0,
            last_at: 0,
            errors: Vec::new(),
            tap,
        };
        for (node, line) in self.init_lines.iter().enumerate() {
            run.feed(node, 0, line, Some(HANDLE_INIT));
        }
        let origin = (unit_seed % NODES as u64) as usize;
        let start = format!(r#"{{"type":"start","at":0,"tx_id":{}}}"#, unit_seed >> 16);
        run.feed(origin, 0, &start, Some(HANDLE_OTHER));
        let mut deliver = String::with_capacity(96);
        while let Some((at, to, from, tx)) = run.in_flight.pop_front() {
            use std::fmt::Write as _;
            let open = run.tap.begin(ROUTE);
            deliver.clear();
            write!(
                deliver,
                r#"{{"type":"deliver","at":{at},"from":{from},"message":{{"tx_id":{tx}}}}}"#
            )
            .expect("writing to a String");
            run.tap.end_as(open, ROUTE);
            run.delivers += 1;
            run.last_at = at;
            run.feed(to, at, &deliver, None);
        }
        let mut undelivered = 0;
        for node in 0..NODES {
            run.feed(
                node,
                run.last_at,
                r#"{"type":"shutdown"}"#,
                Some(HANDLE_OTHER),
            );
            let done = run.emitted.first().and_then(|line| Json::parse(line).ok());
            if done.as_ref().and_then(|json| json.get("delivered")) != Some(&Json::Bool(true)) {
                undelivered += 1;
            }
        }
        run.tap.add_count(SENDS, run.sends);

        let failure = if let Some(error) = run.errors.first() {
            Some(format!("{} wire errors, first: {error}", run.errors.len()))
        } else if run.delivered_lines.iter().any(|&lines| lines != 1) {
            let exact = run
                .delivered_lines
                .iter()
                .filter(|&&lines| lines == 1)
                .count();
            Some(format!(
                "{exact} of {NODES} nodes printed exactly one delivered line"
            ))
        } else if run.sends != run.delivers {
            Some(format!(
                "{} sends emitted, {} delivers injected",
                run.sends, run.delivers
            ))
        } else if undelivered > 0 {
            Some(format!("{undelivered} nodes shut down undelivered"))
        } else {
            None
        };
        let mut digest = Fnv::default();
        for value in [run.sends, run.delivers, run.events, run.bytes, run.last_at] {
            digest.u64(value);
        }
        Unit {
            ops: run.delivers,
            failure,
            model: Model {
                msgs: run.sends,
                bytes: run.bytes,
                events: run.events,
                p99_delivery_ms: 0.0,
            },
            digest: digest.finish(),
        }
    }
}

impl Workload for NodeWire {
    const NAME: &'static str = "node_wire";
    // parse + handle + two route spans per event, ≈18 000 events a unit.
    const SPANS_PER_UNIT: usize = 4 * 20_000;

    fn set_up(seed: u64, recorder: &mut Recorder) -> Self {
        let overlay = recorder.span("netsim.topology.build", || {
            standard_overlay_in(&mut TrialArena::new(), NODES, seed)
        });
        let init_lines = (0..NODES)
            .map(|node| {
                let neighbors: Vec<Json> = overlay
                    .neighbors(NodeId::new(node))
                    .iter()
                    .map(|neighbor| Json::from(neighbor.index()))
                    .collect();
                Json::obj([
                    ("type", Json::from("init")),
                    ("node", Json::from(node)),
                    ("node_count", Json::from(NODES)),
                    ("neighbors", Json::Arr(neighbors)),
                    ("seed", Json::from(seed >> 16)),
                ])
                .to_compact_string()
            })
            .collect();
        Self {
            init_lines,
            drop_send: None,
        }
    }

    fn unit(&mut self, unit_seed: u64, _threads: usize, meter: &mut Meter) -> Unit {
        meter.measure(|| self.broadcast(unit_seed, &mut Tap(None)))
    }

    fn traced_unit(&mut self, unit_seed: u64, recorder: &mut Recorder) -> Unit {
        let open = recorder.begin(UNIT_SPAN);
        let unit = self.broadcast(unit_seed, &mut Tap(Some(&mut *recorder)));
        recorder.end(open);
        unit
    }

    fn layers(&mut self, _seed: u64, traced: &Traced<'_>, out: &mut Layers) {
        let per_call = |layer| {
            traced.median_over_units(layer, |total| total.self_ns as f64 / total.calls as f64)
        };
        out.insert("node.wire.parse_ns_per_line", per_call(PARSE));
        out.insert("node.runtime.init_us", per_call(HANDLE_INIT) / 1e3);
        out.insert("node.runtime.handle_first_ns", per_call(HANDLE_FIRST));
        out.insert("node.runtime.handle_dup_ns", per_call(HANDLE_DUP));

        let mut handles: Vec<u64> = traced
            .recorder
            .spans()
            .iter()
            .filter(|span| span.name == HANDLE_FIRST || span.name == HANDLE_DUP)
            .map(|span| span.duration_ns())
            .collect();
        handles.sort_unstable();
        let p99 = handles[(handles.len() * 99).div_ceil(100) - 1];
        eprintln!(
            "node.runtime.handle_us_tail: p99 over {} handle calls",
            handles.len()
        );
        out.insert("node.runtime.handle_us_tail", p99 as f64 / 1e3);

        // Formatting happens inside `handle`, so it is timed on its own.
        let message = FloodMessage { tx_id: 42 };
        let format = ns_per_iteration(1_000_000, |iteration| {
            black_box(send_line(
                NodeId::new((iteration % NODES as u64) as usize),
                &message,
            ));
        });
        out.insert("node.wire.format_ns_per_line", format);
        let unit_ns = |unit: u32| traced.totals[&(UNIT_SPAN, unit)].total_ns as f64;
        let shares = |f: &dyn Fn(u32) -> f64| -> f64 {
            let shares: Vec<f64> = (0..traced.units.len() as u32)
                .map(|unit| f(unit) / unit_ns(unit))
                .collect();
            median(&shares)
        };
        out.insert(
            "node.wire.codec_share",
            shares(&|unit| {
                traced.totals[&(PARSE, unit)].self_ns as f64
                    + traced.recorder.count(SENDS, unit) as f64 * format
            }),
        );
        out.insert(
            "harness.router_share",
            shares(&|unit| traced.totals[&(ROUTE, unit)].self_ns as f64),
        );

        let line = r#"{"type":"deliver","at":12,"from":1234,"message":{"tx_id":281474976710655}}"#;
        let parse = ns_per_iteration(1_000_000, |_| {
            black_box(Json::parse(black_box(line))).expect("valid line");
        });
        out.insert("bench.json.parse_ns_per_byte", parse / line.len() as f64);
        let parsed = Json::parse(line).expect("valid line");
        let write = ns_per_iteration(1_000_000, |_| {
            black_box(black_box(&parsed).to_compact_string());
        });
        out.insert("bench.json.write_ns_per_byte", write / line.len() as f64);
    }
}
