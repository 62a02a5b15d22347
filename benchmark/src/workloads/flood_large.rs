//! `flood_large` — one untraced flood broadcast over a 250 000-node overlay.
//!
//! The event engine (time wheel, fan-out, `SimDriver`/`Mailbox` dispatch,
//! metrics accounting) does all the work and crypto does none, so a change
//! to the pad pipeline must read "no change" here. One op is one simulated
//! message (1.75 M per unit).

use crate::alloc;
use crate::api::{
    derive_seed, run_flood_in, standard_overlay_in, Context, FloodMessage, FloodNode, Graph,
    Mailbox, Metrics, NodeId, ProtocolNode, SimConfig, SimDriver, Simulator, TrialArena,
};
use crate::harness::{Layers, Meter, Model, Traced, Unit, Workload, UNIT_SPAN};
use crate::stats::{median, Fnv};
use crate::trace::Recorder;
use crate::workloads::ns_per_iteration;
use std::hint::black_box;

/// Overlay size. Frozen: sizes change only with a new benchmark issue.
pub const NODES: usize = 250_000;

/// Set-up state: the overlay every unit floods a clone of, and the arena
/// whose pooled queue, lanes and node storage the units reuse.
#[derive(Debug)]
pub struct FloodLarge {
    arena: TrialArena,
    overlay: Graph,
}

impl FloodLarge {
    /// The workload over a given overlay (the negative test passes a
    /// disconnected one).
    #[must_use]
    pub fn over(overlay: Graph) -> Self {
        Self {
            arena: TrialArena::new(),
            overlay,
        }
    }

    fn inputs(&self, unit_seed: u64) -> Flood {
        Flood {
            graph: self.overlay.clone(),
            origin: NodeId::new((unit_seed % self.overlay.node_count() as u64) as usize),
            config: SimConfig {
                seed: unit_seed,
                ..SimConfig::default()
            },
        }
    }

    /// One decomposed flood of node type `N` on `unit_seed`'s inputs:
    /// `Simulator::run`'s nanoseconds per event, and the unit's digest.
    fn probe_flood<N>(
        &mut self,
        unit_seed: u64,
        recorder: &mut Recorder,
        make: impl Fn() -> N,
        start: impl FnOnce(&mut N, &mut Context<'_, FloodMessage>),
    ) -> (f64, u64)
    where
        N: ProtocolNode<Message = FloodMessage> + 'static,
    {
        let flood = self.inputs(unit_seed);
        let metrics = decomposed_flood(&mut self.arena, flood, recorder, make, start, |sim| {
            sim.run();
        });
        let run = recorder
            .spans()
            .iter()
            .rev()
            .find(|span| span.name == "netsim.sim.run");
        let nanos = run.expect("decomposed_flood records it").duration_ns() as f64;
        let unit = self.finish(metrics);
        (nanos / unit.model.events as f64, unit.digest)
    }

    /// Invariants of a flood over a connected overlay: everyone is reached,
    /// with at least `n − 1` and at most `2|E|` messages.
    fn finish(&mut self, metrics: Metrics) -> Unit {
        let nodes = self.overlay.node_count() as u64;
        let edges = self.overlay.edge_count() as u64;
        let failure = if metrics.delivered_count() as u64 != nodes {
            Some(format!("coverage {} of {nodes}", metrics.delivered_count()))
        } else if metrics.messages_sent < nodes - 1 || metrics.messages_sent > 2 * edges {
            Some(format!(
                "{} messages outside [{}, {}]",
                metrics.messages_sent,
                nodes - 1,
                2 * edges
            ))
        } else {
            None
        };
        let mut digest = Fnv::default();
        for value in [
            metrics.messages_sent,
            metrics.bytes_sent,
            metrics.events_processed,
            metrics.finished_at,
            metrics.delivered_count() as u64,
        ] {
            digest.u64(value);
        }
        let unit = Unit {
            ops: metrics.messages_sent,
            failure,
            model: Model {
                msgs: metrics.messages_sent,
                bytes: metrics.bytes_sent,
                events: metrics.events_processed,
                p99_delivery_ms: 0.0,
            },
            digest: digest.finish(),
        };
        self.arena.recycle_metrics(metrics);
        unit
    }
}

/// The inputs of one flood.
pub(crate) struct Flood {
    pub graph: Graph,
    pub origin: NodeId,
    pub config: SimConfig,
}

/// `run_flood_in` re-assembled from its public pieces, each in a span, for
/// any node type that floods: `make` builds a node, `start` originates the
/// broadcast on the origin and `run` drives the simulator to quiescence.
pub(crate) fn decomposed_flood<N>(
    arena: &mut TrialArena,
    flood: Flood,
    recorder: &mut Recorder,
    make: impl Fn() -> N,
    start: impl FnOnce(&mut N, &mut Context<'_, FloodMessage>),
    run: impl FnOnce(&mut Simulator<N>),
) -> Metrics
where
    N: ProtocolNode<Message = FloodMessage> + 'static,
{
    let Flood {
        graph,
        origin,
        config,
    } = flood;
    let nodes = recorder.span("proto.driver.new_nodes", || {
        let mut nodes: Vec<N> = arena.take_nodes();
        nodes.extend((0..graph.node_count()).map(|_| make()));
        nodes
    });
    let mut sim = recorder.span("netsim.sim.new_in", || {
        Simulator::new_in(arena, graph, nodes, config)
    });
    recorder.span("netsim.sim.trigger", || sim.trigger(origin, start));
    recorder.span("netsim.sim.run", || run(&mut sim));
    recorder.add_count(EVENTS, sim.metrics().events_processed);
    let (nodes, metrics) = recorder.span("netsim.sim.into_parts_in", || sim.into_parts_in(arena));
    recorder.span("netsim.arena.store_nodes", || arena.store_nodes(nodes));
    metrics
}

/// Originates the broadcast on a `SimDriver<FloodNode>`, as `run_flood_in`
/// does.
pub(crate) fn start_driver(driver: &mut SimDriver<FloodNode>, ctx: &mut Context<'_, FloodMessage>) {
    driver.drive(ctx, |node, view, out| {
        node.start_broadcast(TX_ID, view, out)
    });
}

pub(crate) const TX_ID: u64 = 1;
/// Counter of events `netsim.sim.run` processed.
const EVENTS: &str = "netsim.sim.events";

/// Flood-and-prune written straight against `ProtocolNode`: the same
/// events, sends and RNG draws as `SimDriver<FloodNode>`, without the
/// adapter hop or the `Mailbox`. Run minus raw is what the adapter costs.
#[derive(Debug, Default)]
struct RawFlood;

impl RawFlood {
    fn relay(ctx: &mut Context<'_, FloodMessage>, message: FloodMessage, excluded: Vec<NodeId>) {
        if ctx.set_seen() {
            return;
        }
        ctx.mark_delivered();
        ctx.broadcast_except(message, excluded);
    }
}

impl ProtocolNode for RawFlood {
    type Message = FloodMessage;

    fn on_message(
        &mut self,
        from: NodeId,
        message: FloodMessage,
        ctx: &mut Context<'_, FloodMessage>,
    ) {
        Self::relay(ctx, message, vec![from]);
    }
}

/// Timer-storm node: re-arms one timer per firing, so a run is wheel
/// push/pop plus dispatch with no payload and no fan-out.
#[derive(Debug, Default)]
struct TimerStorm;

const STORM_NODES: usize = 10_000;
const STORM_ROUNDS: u32 = 50;

impl TimerStorm {
    fn arm(ctx: &mut Context<'_, FloodMessage>) {
        let round = ctx.counter_lane();
        if round == STORM_ROUNDS {
            return;
        }
        ctx.set_counter_lane(round + 1);
        // 1–997 ms, spread over nodes and rounds without touching the RNG.
        let spread = (ctx.node_id().index() as u64 * 7919 + u64::from(round) * 104_729) % 997;
        ctx.set_timer((spread + 1) * 1_000, 0);
    }
}

impl ProtocolNode for TimerStorm {
    type Message = FloodMessage;

    fn on_init(&mut self, ctx: &mut Context<'_, FloodMessage>) {
        Self::arm(ctx);
    }

    fn on_message(&mut self, _: NodeId, _: FloodMessage, _: &mut Context<'_, FloodMessage>) {
        unreachable!("timer-storm nodes send nothing");
    }

    fn on_timer(&mut self, _: u64, ctx: &mut Context<'_, FloodMessage>) {
        Self::arm(ctx);
    }
}

/// Probe passes per figure; the median is reported.
const PROBE_PASSES: u64 = 5;

impl Workload for FloodLarge {
    const NAME: &'static str = "flood_large";
    const SPANS_PER_UNIT: usize = 16;

    fn set_up(seed: u64, recorder: &mut Recorder) -> Self {
        let mut arena = TrialArena::new();
        let overlay = recorder.span("netsim.topology.build", || {
            standard_overlay_in(&mut arena, NODES, seed)
        });
        recorder.span("netsim.graph.diameter", || {
            black_box(overlay.diameter_estimate_with_threads(1))
        });
        Self { arena, overlay }
    }

    fn unit(&mut self, unit_seed: u64, _threads: usize, meter: &mut Meter) -> Unit {
        let flood = self.inputs(unit_seed);
        let arena = &mut self.arena;
        let metrics =
            meter.measure(|| run_flood_in(arena, flood.graph, flood.origin, TX_ID, flood.config));
        self.finish(metrics)
    }

    fn traced_unit(&mut self, unit_seed: u64, recorder: &mut Recorder) -> Unit {
        let flood = self.inputs(unit_seed);
        let open = recorder.begin(UNIT_SPAN);
        let metrics = decomposed_flood(
            &mut self.arena,
            flood,
            recorder,
            || SimDriver::new(FloodNode::new()),
            start_driver,
            |sim| {
                sim.run();
            },
        );
        recorder.end(open);
        self.finish(metrics)
    }

    fn layers(&mut self, seed: u64, traced: &Traced<'_>, out: &mut Layers) {
        let edges = self.overlay.edge_count() as f64;
        out.insert(
            "netsim.topology.build_ns_per_edge",
            traced.setup("netsim.topology.build").total_ns as f64 / edges,
        );
        out.insert(
            "netsim.graph.diameter_ms",
            traced.setup("netsim.graph.diameter").total_ns as f64 / 1e6,
        );
        out.insert(
            "netsim.sim.run_ns_per_event",
            traced.ns_per_count("netsim.sim.run", EVENTS),
        );

        // The same floods through `SimDriver<FloodNode>` and through a bare
        // `ProtocolNode`, back to back: the host's slow phases last longer
        // than a pair, so the difference within a pair is free of them.
        let mut recorder = Recorder::with_capacity(256);
        let (mut raw, mut overhead) = (Vec::new(), Vec::new());
        for pass in 0..PROBE_PASSES {
            let unit_seed = derive_seed(seed, pass);
            let (driven_ns, driven_digest) = self.probe_flood(
                unit_seed,
                &mut recorder,
                || SimDriver::new(FloodNode::new()),
                start_driver,
            );
            let (raw_ns, raw_digest) =
                self.probe_flood(unit_seed, &mut recorder, RawFlood::default, |_, ctx| {
                    RawFlood::relay(ctx, FloodMessage { tx_id: TX_ID }, Vec::new())
                });
            if driven_digest != raw_digest {
                eprintln!("flood_large: the raw node no longer simulates what SimDriver<FloodNode> does; overhead_ns_per_event compares different floods");
            }
            raw.push(raw_ns);
            overhead.push(driven_ns - raw_ns);
        }
        out.insert("netsim.sim.raw_ns_per_event", median(&raw));
        out.insert("proto.driver.overhead_ns_per_event", median(&overhead));

        // Bytes requested inside `Simulator::run` alone: construction and
        // teardown are `new_in`'s and `into_parts_in`'s.
        let flood = self.inputs(derive_seed(seed, 0));
        let mut run_bytes = 0;
        let metrics = decomposed_flood(
            &mut self.arena,
            flood,
            &mut recorder,
            || SimDriver::new(FloodNode::new()),
            start_driver,
            |sim| {
                run_bytes = alloc::count(|| {
                    sim.run();
                })
                .1;
            },
        );
        out.insert(
            "netsim.sim.alloc_bytes_per_event",
            run_bytes as f64 / metrics.events_processed as f64,
        );
        self.arena.recycle_metrics(metrics);

        // One first receipt's worth of effects pushed and drained.
        let mut mailbox: Mailbox<FloodMessage> = Mailbox::new();
        let from = [NodeId::new(0)];
        let per_pair = ns_per_iteration(2_000_000, |iteration| {
            mailbox.deliver();
            mailbox.broadcast(FloodMessage { tx_id: iteration }, &from);
            for effect in mailbox.drain() {
                black_box(effect);
            }
        });
        out.insert("proto.mailbox.push_drain_ns_per_effect", per_pair / 2.0);

        let mut storm = Vec::new();
        for _ in 0..PROBE_PASSES {
            let graph = standard_overlay_in(&mut self.arena, STORM_NODES, seed);
            let nodes = (0..STORM_NODES).map(|_| TimerStorm).collect();
            let mut sim = Simulator::new_in(&mut self.arena, graph, nodes, SimConfig::default());
            let start = std::time::Instant::now();
            sim.run();
            let nanos = start.elapsed().as_nanos() as f64;
            let (_, metrics) = sim.into_parts_in(&mut self.arena);
            assert_eq!(
                metrics.events_processed,
                STORM_NODES as u64 * u64::from(STORM_ROUNDS)
            );
            storm.push(nanos / metrics.events_processed as f64);
            self.arena.recycle_metrics(metrics);
        }
        out.insert("netsim.sim.timer_ns_per_event", median(&storm));
    }
}
