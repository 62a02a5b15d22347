//! Names, units, directions and bounds of everything the benchmark reports.
//!
//! This table is the single source: `fnp-perf schema` prints it as the
//! repo's `BENCHMARK.json`, every workload emits exactly these names, and
//! `tests/schema.rs` checks that the committed file and the binary agree.

use crate::api::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// A workload and why it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on which layer does the work here.
    pub why: &'static str,
}

/// Whether a larger or a smaller reading is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric of the untraced run, gated by `bound`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer, from the traced run; never gated.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `crate.module.what`.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads whose traced run measures it (the layer does work there);
    /// every other workload's traced run reports 0 for it. Empty = all.
    pub measured_on: &'static [&'static str],
}

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "flood_large",
        why: "one untraced flood over 250000 nodes: event engine and SimDriver/Mailbox dispatch do all the work, crypto none",
    },
    WorkloadSpec {
        name: "paper_grid",
        why: "16 traced trials at the paper's n=1000 on 2 workers: per-trial construction, tracing, arena reuse and key derivation dominate",
    },
    WorkloadSpec {
        name: "steady_mix",
        why: "8 sessions of overlapping Poisson broadcasts plus mempool replay: the steady multiplexer, lane leasing and latency samples",
    },
    WorkloadSpec {
        name: "dcnet_rounds",
        why: "fused keyed DC-net rounds at k=8 and k=32, 512 B and 64 B slots: the pad pipeline does all the work, the simulator none",
    },
    WorkloadSpec {
        name: "node_wire",
        why: "2000 in-process NodeRuntimes driven through parse_event/handle/emitted lines: the only path with a real codec",
    },
];

use Better::{Higher, Lower};

/// The gated metrics, reported for every workload. All but the allocation
/// count sit at the 25 % the benchmark contract allows at most, not at the
/// 10–15 % the metrics were designed for: on the 2-core reference VM the
/// memory-bound workloads swing ±10–20 % with the host's other tenants for
/// tens of seconds at a time, which no 15 s run averages away, and the
/// resident set of the 2-worker grid depends on how the allocator's
/// thresholds drifted (`AA.md` has the measured spreads). `dcnet_rounds`,
/// which stays in cache, repeats within 5 %.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "unit_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B/op",
        better: Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
];

const FLOOD: &[&str] = &["flood_large"];
const GRID: &[&str] = &["paper_grid"];
const STEADY: &[&str] = &["steady_mix"];
const DCNET: &[&str] = &["dcnet_rounds"];
const NODE: &[&str] = &["node_wire"];
const OVERLAY: &[&str] = &["flood_large", "paper_grid", "steady_mix"];
const ALL: &[&str] = &[];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    measured_on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        measured_on,
    }
}

/// The per-layer metrics of the traced run.
pub const PER_LAYER: [PerLayer; 62] = [
    layer(
        "netsim.topology.build_ns_per_edge",
        "ns/edge",
        Lower,
        OVERLAY,
    ),
    layer("netsim.graph.diameter_ms", "ms", Lower, FLOOD),
    layer("netsim.sim.run_ns_per_event", "ns/event", Lower, FLOOD),
    layer("netsim.sim.alloc_bytes_per_event", "B/event", Lower, FLOOD),
    layer("netsim.sim.raw_ns_per_event", "ns/event", Lower, FLOOD),
    layer(
        "proto.driver.overhead_ns_per_event",
        "ns/event",
        Lower,
        FLOOD,
    ),
    layer(
        "proto.mailbox.push_drain_ns_per_effect",
        "ns/effect",
        Lower,
        FLOOD,
    ),
    layer("netsim.sim.timer_ns_per_event", "ns/event", Lower, FLOOD),
    layer("netsim.sim.new_in_us", "us", Lower, GRID),
    layer("netsim.sim.into_parts_us", "us", Lower, GRID),
    layer("netsim.metrics.trace_ns_per_event", "ns/event", Lower, GRID),
    layer("netsim.arena.reuse_gain", "ratio", Higher, GRID),
    layer("netsim.runner.speedup_2t", "ratio", Higher, GRID),
    layer(
        "netsim.runner.dispatch_us_per_trial",
        "us/trial",
        Lower,
        GRID,
    ),
    layer("proto.steady.ns_per_event", "ns/event", Lower, STEADY),
    layer("proto.steady.overhead_ratio", "ratio", Lower, STEADY),
    layer("proto.steady.alloc_bytes_per_tx", "B/tx", Lower, STEADY),
    layer("proto.steady.flood_ms", "ms", Lower, STEADY),
    layer("proto.steady.dandelion_ms", "ms", Lower, STEADY),
    layer("proto.steady.diffusion_ms", "ms", Lower, STEADY),
    layer("proto.steady.flexible_ms", "ms", Lower, STEADY),
    layer("netsim.lanes.acquire_release_ns", "ns", Lower, STEADY),
    layer(
        "blockchain.steady.replay_us_per_delivery",
        "us/delivery",
        Lower,
        STEADY,
    ),
    layer("blockchain.mempool.insert_ns", "ns", Lower, STEADY),
    layer("blockchain.mempool.select_ns", "ns", Lower, STEADY),
    layer("gossip.flood.trial_ms", "ms", Lower, GRID),
    layer("gossip.dandelion.trial_ms", "ms", Lower, GRID),
    layer("diffusion.protocol.trial_ms", "ms", Lower, GRID),
    layer("core.harness.flex_trial_ms", "ms", Lower, GRID),
    layer("adversary.observer.view_us", "us", Lower, GRID),
    layer("adversary.estimators.first_spy_us", "us", Lower, GRID),
    layer("groups.formation.form_groups_us", "us", Lower, GRID),
    layer("core.keycache.cold_us_per_group", "us/group", Lower, GRID),
    layer("core.keycache.warm_us_per_group", "us/group", Lower, GRID),
    layer("core.harness.prototypes_ms", "ms", Lower, STEADY),
    layer("crypto.dh.pad_key_us", "us", Lower, DCNET),
    layer("crypto.hkdf.derive_us", "us", Lower, DCNET),
    layer("crypto.sha256.ns_per_byte", "ns/B", Lower, DCNET),
    layer("crypto.chacha20.ns_per_byte_512", "ns/B", Lower, DCNET),
    layer("crypto.chacha20.ns_per_byte_64", "ns/B", Lower, DCNET),
    layer(
        "dcnet.keyed.contribute_ns_per_pad_k8",
        "ns/pad",
        Lower,
        DCNET,
    ),
    layer(
        "dcnet.keyed.contribute_ns_per_pad_k32",
        "ns/pad",
        Lower,
        DCNET,
    ),
    layer("dcnet.keyed.combine_ns_per_byte", "ns/B", Lower, DCNET),
    layer("dcnet.scratch.checkout_recycle_ns", "ns", Lower, DCNET),
    layer("dcnet.keyed.alloc_bytes_per_round", "B/round", Lower, DCNET),
    layer("dcnet.keyed.run_round_us", "us", Lower, DCNET),
    layer("node.wire.parse_ns_per_line", "ns/line", Lower, NODE),
    layer("node.wire.format_ns_per_line", "ns/line", Lower, NODE),
    layer("node.wire.codec_share", "share", Lower, NODE),
    layer("node.runtime.init_us", "us", Lower, NODE),
    layer("node.runtime.handle_first_ns", "ns", Lower, NODE),
    layer("node.runtime.handle_dup_ns", "ns", Lower, NODE),
    layer("node.runtime.handle_us_tail", "us", Lower, NODE),
    layer("bench.json.parse_ns_per_byte", "ns/B", Lower, NODE),
    layer("bench.json.write_ns_per_byte", "ns/B", Lower, NODE),
    layer("model.msgs_per_unit", "count", Lower, ALL),
    layer("model.bytes_per_unit", "B", Lower, ALL),
    layer("model.events_per_unit", "count", Lower, ALL),
    layer("model.p99_delivery_ms", "ms", Lower, STEADY),
    layer("harness.unit_ms_tail", "ms", Lower, ALL),
    layer("harness.trace_overhead_share", "share", Lower, ALL),
    layer("harness.router_share", "share", Lower, NODE),
];

impl PerLayer {
    /// Whether `workload`'s traced run measures this metric.
    #[must_use]
    pub fn measured_by(&self, workload: &str) -> bool {
        self.measured_on.is_empty() || self.measured_on.contains(&workload)
    }
}

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// The content of the repo's `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&item| Json::from(item)).collect());
    Json::obj([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", w.name), ("why", w.why)]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", m.name),
                            ("unit", m.unit),
                            ("better", m.better.as_str()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
