//! The measurement loop shared by the five workloads.
//!
//! A run is a closed loop with one client: set-up, one untimed warm-up
//! unit, then units back to back until `--seconds` have passed — the whole
//! of it repeated a few times per run, each repeat with its share of the
//! seconds, so `setup_s` is a median too. Unit `i` draws its inputs from
//! `Workload::unit_seed(seed, i)`. End-to-end metrics come
//! from this untraced loop only; `--trace 1` runs a few reference units the
//! same way, then three *decomposed* units under a [`Recorder`] plus the
//! workload's probe legs, and reports the per-layer metrics.

use crate::alloc;
use crate::api::{derive_seed, Json};
use crate::host;
use crate::schema::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, tail, Tail};
use crate::trace::{by_layer, chrome_trace, LayerTotal, Recorder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Exact simulated quantities of one unit: model statistics, never gated.
/// A speed-only change must leave them identical.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Model {
    /// Simulated messages sent (wire lines for `node_wire`, member-to-member
    /// contributions for `dcnet_rounds`).
    pub msgs: u64,
    /// Simulated bytes sent.
    pub bytes: u64,
    /// Events the layer under test processed.
    pub events: u64,
    /// 99th-percentile simulated delivery latency (`steady_mix` only).
    pub p99_delivery_ms: f64,
}

/// What one unit did.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Operations completed, in the workload's own op.
    pub ops: u64,
    /// Why the unit's correctness check failed, if it did.
    pub failure: Option<String>,
    /// Model statistics (best effort in untraced units, exact in traced).
    pub model: Model,
    /// FNV-1a over the unit's model statistics, to diff two commits for
    /// "simulated results identical" without gating on it.
    pub digest: u64,
}

/// Times — and, for the allocation unit, counts the allocations of — the
/// measured region of a unit. Untimed preparation and checks stay outside.
#[derive(Debug, Default)]
pub struct Meter {
    counting: bool,
    elapsed: Duration,
    alloc_bytes: u64,
}

impl Meter {
    fn counting() -> Self {
        Self {
            counting: true,
            ..Self::default()
        }
    }

    /// Runs the measured region. A unit calls this exactly once.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.counting {
            let (result, bytes) = alloc::count(f);
            self.alloc_bytes = bytes;
            return result;
        }
        let start = Instant::now();
        let result = f();
        self.elapsed = start.elapsed();
        result
    }
}

/// Per-layer readings of a traced run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the traced run hands a workload to derive its layer metrics from.
#[derive(Debug)]
pub struct Traced<'a> {
    /// Spans summed by `(layer, unit)`; set-up spans carry unit
    /// [`SETUP_UNIT`].
    pub totals: &'a BTreeMap<(&'static str, u32), LayerTotal>,
    /// The recorder, for metrics that need individual spans.
    pub recorder: &'a Recorder,
    /// The decomposed units, in order; span unit `i` is `units[i]`.
    pub units: &'a [Unit],
    /// Median untraced unit time on one thread, in milliseconds.
    pub reference_ms: f64,
    /// Median untraced unit time on the workload's own thread count.
    pub threaded_ms: f64,
}

impl Traced<'_> {
    /// Median over the decomposed units of `f(layer total)`, skipping units
    /// in which the layer recorded nothing.
    #[must_use]
    pub fn median_over_units(&self, layer: &'static str, f: impl Fn(LayerTotal) -> f64) -> f64 {
        let samples: Vec<f64> = (0..self.units.len() as u32)
            .filter_map(|unit| self.totals.get(&(layer, unit)).map(|total| f(*total)))
            .collect();
        assert!(!samples.is_empty(), "no span named {layer} in any unit");
        median(&samples)
    }

    /// Median over the decomposed units of the layer's self time divided by
    /// the unit's counter `counter`, in nanoseconds per count.
    #[must_use]
    pub fn ns_per_count(&self, layer: &'static str, counter: &'static str) -> f64 {
        let samples: Vec<f64> = (0..self.units.len() as u32)
            .map(|unit| {
                let total = self.totals.get(&(layer, unit));
                let total = total.unwrap_or_else(|| panic!("no span named {layer} in unit {unit}"));
                total.self_ns as f64 / self.recorder.count(counter, unit) as f64
            })
            .collect();
        median(&samples)
    }

    /// The set-up phase's total for `layer`.
    #[must_use]
    pub fn setup(&self, layer: &'static str) -> LayerTotal {
        self.totals
            .get(&(layer, SETUP_UNIT))
            .copied()
            .unwrap_or_else(|| panic!("no set-up span named {layer}"))
    }
}

/// The unit number stamped on set-up spans.
pub const SETUP_UNIT: u32 = u32::MAX;

/// One of the five workloads.
pub trait Workload: Sized {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Threads the workload runs on as users run it.
    const THREADS: usize = 1;
    /// Spans to reserve per decomposed unit.
    const SPANS_PER_UNIT: usize;

    /// The set-up phase: everything units reuse, built from `seed`.
    fn set_up(seed: u64, recorder: &mut Recorder) -> Self;

    /// The seed of timed unit `index` of a run with `--seed seed`.
    fn unit_seed(seed: u64, index: u64) -> u64 {
        derive_seed(seed, index)
    }

    /// One unit as users run it, on `threads` threads.
    fn unit(&mut self, unit_seed: u64, threads: usize, meter: &mut Meter) -> Unit;

    /// The untimed warm-up unit; a workload may check more here than it can
    /// afford in every timed unit.
    fn warm_up(&mut self, unit_seed: u64, meter: &mut Meter) -> Unit {
        self.unit(unit_seed, Self::THREADS, meter)
    }

    /// The same unit re-assembled from the public pieces of the entry point,
    /// each call wrapped in a span.
    fn traced_unit(&mut self, unit_seed: u64, recorder: &mut Recorder) -> Unit;

    /// Runs the workload's probe legs and derives its layer metrics.
    fn layers(&mut self, seed: u64, traced: &Traced<'_>, out: &mut Layers);
}

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// How long to keep starting timed units.
    pub seconds: f64,
    /// Run exactly this many timed units instead.
    pub units: Option<usize>,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Directory for `<workload>.json` and `trace-<workload>.json`.
    pub out_dir: PathBuf,
    /// When `main` started, so `setup_s` counts from process start.
    pub process_start: Instant,
}

/// Unit seeds cycling through a fixed pool of `pool` seeds, `--seed`
/// choosing where the cycle starts — for the two workloads that have no
/// set-up state for the seed to shape and whose unit cost swings with the
/// unit's seed (one adaptive-diffusion trial is 50 000 to 550 000 messages,
/// a unit's time ±35 %). Independent seeds would make a run's median a draw
/// from that distribution; a pool no larger than the units a run completes
/// makes every run measure the same inputs, weighted by where it started.
#[must_use]
pub fn pooled_unit_seed(pool: u64, seed: u64, index: u64) -> u64 {
    derive_seed(POOL_SEED, seed.wrapping_add(index) % pool)
}

const POOL_SEED: u64 = 0x9001;

/// Unit seeds of the warm-up and the allocation-counting unit. Fixed, not
/// derived from `--seed`: seed-to-seed differences in a unit's inputs (an
/// adaptive diffusion trial is 50 000 to 550 000 messages) would drown
/// `alloc_bytes_per_op`'s 2 % bound and make `setup_s` a one-sample draw of
/// them, while a fixed unit compares two commits to the byte. The set-up
/// state they run on (overlay, key tables) still comes from `--seed`.
const WARM_UP_SEED: u64 = 0x3A93;
const ALLOC_SEED: u64 = 0xA110C;
/// Decomposed units per traced run.
const TRACED_UNITS: usize = 3;
/// Set-up repeats: at least three, then as many as fit the budget, so the
/// median of a 30 ms set-up rests on as many samples as it can afford. The
/// repeats are spread over the run, each followed by its share of the timed
/// units: the host slows down for seconds at a time, and repeats bunched
/// into the first half-second would all sit in one such phase or none.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

#[derive(Default)]
struct Counted {
    attempted: u64,
    failures: Vec<String>,
}

impl Counted {
    fn note(&mut self, what: impl std::fmt::Display, unit: &Unit) {
        self.attempted += 1;
        if let Some(why) = &unit.failure {
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// Result of a run: the last stdout line plus the output file's content.
#[derive(Debug)]
pub struct Report {
    /// The metrics the contract asks for, in schema order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Units attempted (warm-up and allocation units included).
    pub attempted: u64,
    /// Why each failed unit failed.
    pub failures: Vec<String>,
    /// Everything else worth keeping, for `out/<workload>.json`.
    pub detail: Json,
}

impl Report {
    /// The metrics as `name → {value, unit}`, the shape of the result line
    /// and of every report file.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        let readings = self.metrics.iter().map(|&(name, value, unit)| {
            let reading = Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]);
            (name, reading)
        });
        Json::obj(readings)
    }

    /// The one-line JSON object the driver reads.
    #[must_use]
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failures.len())),
            ("metrics", self.metrics_json()),
        ])
        .to_compact_string()
    }
}

/// What loops of timed units measured.
#[derive(Default)]
struct Timed {
    /// Wall-clock of each unit's measured region, in milliseconds.
    millis: Vec<f64>,
    /// Peak resident set during each unit, in MB.
    peak_rss_mb: Vec<f64>,
    ops: u64,
    first_digest: u64,
}

/// When a loop of timed units ends: after exactly `units`, or else once
/// `seconds` have passed (and one unit ran).
#[derive(Clone, Copy)]
struct Budget {
    seconds: f64,
    units: Option<usize>,
}

/// Runs timed units until `budget` is spent, appending to `timed`; unit
/// numbers, and so unit seeds, continue from the units already there.
fn timed_units<W: Workload>(
    workload: &mut W,
    seed: u64,
    threads: usize,
    budget: Budget,
    timed: &mut Timed,
    counted: &mut Counted,
) {
    let loop_start = Instant::now();
    let before = timed.millis.len();
    loop {
        let index = timed.millis.len();
        let finished = match budget.units {
            Some(exact) => index - before >= exact,
            None => index > before && loop_start.elapsed().as_secs_f64() >= budget.seconds,
        };
        if finished {
            return;
        }
        let mut meter = Meter::default();
        host::restart_peak_rss();
        let unit = workload.unit(W::unit_seed(seed, index as u64), threads, &mut meter);
        timed.peak_rss_mb.push(host::peak_rss_mb());
        counted.note(format_args!("unit {index}"), &unit);
        timed.millis.push(meter.elapsed.as_secs_f64() * 1e3);
        timed.ops += unit.ops;
        if index == 0 {
            timed.first_digest = unit.digest;
        }
    }
}

fn tail_json(tail: Tail, units: usize) -> Json {
    Json::obj([
        ("ms", Json::from(tail.value)),
        ("percentile", Json::from(tail.percentile)),
        ("beyond", Json::from(tail.beyond)),
        ("units", Json::from(units)),
    ])
}

fn hex(digest: u64) -> Json {
    Json::from(format!("{digest:016x}"))
}

fn base_detail<W: Workload>(options: &Options, counted: &Counted) -> Vec<(&'static str, Json)> {
    let spec = schema::workload(W::NAME).expect("workload is in the schema");
    vec![
        ("workload", Json::from(W::NAME)),
        ("why", Json::from(spec.why)),
        ("seed", Json::from(options.seed)),
        ("trace", Json::from(options.trace)),
        ("threads", Json::from(W::THREADS)),
        ("host", host::describe()),
        ("attempted", Json::from(counted.attempted)),
        ("failed", Json::from(counted.failures.len())),
        (
            "failed_share",
            Json::from(counted.failures.len() as f64 / counted.attempted as f64),
        ),
        (
            "failures",
            Json::Arr(
                counted
                    .failures
                    .iter()
                    .map(|why| Json::from(why.as_str()))
                    .collect(),
            ),
        ),
    ]
}

/// The end-to-end run: every metric of `END_TO_END`, tracing off.
pub fn run_untraced<W: Workload>(options: &Options) -> Report {
    let mut counted = Counted::default();
    let mut setups = Vec::new();
    let mut timed = Timed::default();
    let mut workload: Option<W> = None;
    let mut allocation = None;
    let mut repeats = MIN_SETUPS;
    while setups.len() < repeats {
        // Two set-ups never live at once: peak memory is one workload's.
        drop(workload.take());
        let start = if setups.is_empty() {
            options.process_start
        } else {
            Instant::now()
        };
        let mut built = W::set_up(options.seed, &mut Recorder::with_capacity(64));
        let warm = built.warm_up(WARM_UP_SEED, &mut Meter::default());
        let elapsed = start.elapsed();
        counted.note("warm-up", &warm);
        if setups.is_empty() {
            let affordable = SETUP_BUDGET.as_secs_f64() / elapsed.as_secs_f64();
            repeats = (affordable as usize).clamp(MIN_SETUPS, MAX_SETUPS);
        }
        setups.push(elapsed.as_secs_f64());

        // The allocation unit runs where the state is the same on every run
        // of a seed — a fresh set-up and one fixed warm-up unit — not on
        // pools grown by however many units the time box admitted.
        let done = setups.len();
        if done == repeats {
            let mut meter = Meter::counting();
            let unit = built.unit(ALLOC_SEED, 1, &mut meter);
            counted.note("allocation unit", &unit);
            allocation = Some((meter.alloc_bytes, unit));
        }

        // This repeat's share of the timed units.
        let budget = Budget {
            seconds: options.seconds / repeats as f64,
            units: options
                .units
                .map(|units| units * done / repeats - units * (done - 1) / repeats),
        };
        timed_units(
            &mut built,
            options.seed,
            W::THREADS,
            budget,
            &mut timed,
            &mut counted,
        );
        workload = Some(built);
    }
    let (alloc_bytes, counted_unit) = allocation.expect("at least three set-ups ran");
    let Timed {
        millis,
        peak_rss_mb,
        ops,
        first_digest,
    } = timed;

    let total_seconds: f64 = millis.iter().sum::<f64>() / 1e3;
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "unit_ms_p50" => median(&millis),
        "ops_per_s" => ops as f64 / total_seconds,
        "alloc_bytes_per_op" => alloc_bytes as f64 / counted_unit.ops as f64,
        // A mean: on two workers a unit's peak is one of two levels,
        // depending on how the big trials were shared, and a median of
        // those flips between them from run to run.
        "peak_rss_mb" => peak_rss_mb.iter().sum::<f64>() / peak_rss_mb.len() as f64,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|metric| (metric.name, value(metric.name), metric.unit))
        .collect();

    let mut detail = base_detail::<W>(options, &counted);
    detail.extend([
        ("units", Json::from(millis.len())),
        ("ops", Json::from(ops)),
        ("unit_ms_tail", tail_json(tail(&millis), millis.len())),
        (
            "unit_ms",
            Json::Arr(millis.iter().map(|&ms| Json::from(ms)).collect()),
        ),
        (
            "setup_s_samples",
            Json::Arr(setups.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("sim_digest", hex(first_digest)),
        ("alloc_unit_digest", hex(counted_unit.digest)),
    ]);
    Report {
        metrics,
        attempted: counted.attempted,
        failures: counted.failures,
        detail: Json::obj(detail),
    }
}

/// The traced run: every metric of `PER_LAYER`. Writes the Chrome trace to
/// `trace-<workload>.json` in the output directory.
///
/// # Errors
///
/// Fails if the trace file cannot be written.
pub fn run_traced<W: Workload>(options: &Options) -> std::io::Result<Report> {
    let mut counted = Counted::default();
    let mut recorder = Recorder::with_capacity(64 + TRACED_UNITS * W::SPANS_PER_UNIT);
    recorder.set_unit(SETUP_UNIT);
    let mut workload = W::set_up(options.seed, &mut recorder);
    let warm = workload.warm_up(WARM_UP_SEED, &mut Meter::default());
    counted.note("warm-up", &warm);

    // Untraced reference units, on one thread like the decomposed ones, so
    // the overhead figure below compares tracing and nothing else.
    let threaded = W::THREADS > 1;
    let share = if threaded { 4.0 } else { 2.0 };
    let budget = Budget {
        seconds: options.seconds / share,
        units: options.units,
    };
    let mut reference = Timed::default();
    timed_units(
        &mut workload,
        options.seed,
        1,
        budget,
        &mut reference,
        &mut counted,
    );
    let reference = reference.millis;
    let reference_ms = median(&reference);
    let threaded_ms = if threaded {
        let mut timed = Timed::default();
        timed_units(
            &mut workload,
            options.seed,
            W::THREADS,
            budget,
            &mut timed,
            &mut counted,
        );
        median(&timed.millis)
    } else {
        reference_ms
    };

    // Decomposed unit `i` runs right after an untraced unit on the same
    // inputs: the pair gives the tracing overhead free of seed-to-seed
    // differences and of drift over the run.
    let mut units = Vec::new();
    let mut paired_units = Vec::new();
    let mut overheads = Vec::new();
    let mut traced_millis = Vec::new();
    for index in 0..options
        .units
        .map_or(TRACED_UNITS, |units| units.min(TRACED_UNITS))
    {
        let unit_seed = W::unit_seed(options.seed, index as u64);
        let mut meter = Meter::default();
        let paired = workload.unit(unit_seed, 1, &mut meter);
        counted.note(format_args!("paired unit {index}"), &paired);
        paired_units.push(paired);

        recorder.set_unit(index as u32);
        let unit = workload.traced_unit(unit_seed, &mut recorder);
        let span = recorder
            .spans()
            .iter()
            .rev()
            .find(|span| span.name == UNIT_SPAN);
        let millis = span.expect("a traced unit records UNIT_SPAN").duration_ns() as f64 / 1e6;
        overheads.push(millis / (meter.elapsed.as_secs_f64() * 1e3) - 1.0);
        traced_millis.push(millis);
        counted.note(format_args!("traced unit {index}"), &unit);
        units.push(unit);
    }
    let decomposition_matches = units
        .iter()
        .zip(&paired_units)
        .all(|(traced, paired)| traced.digest == paired.digest);

    let totals = by_layer(recorder.spans());
    let mut layers = Layers::new();
    let traced = Traced {
        totals: &totals,
        recorder: &recorder,
        units: &units,
        reference_ms,
        threaded_ms,
    };
    workload.layers(options.seed, &traced, &mut layers);

    let accounted = traced.median_over_units(UNIT_SPAN, |total| {
        1.0 - total.self_ns as f64 / total.total_ns as f64
    });
    let reference_tail = tail(&reference);
    layers.insert("model.msgs_per_unit", units[0].model.msgs as f64);
    layers.insert("model.bytes_per_unit", units[0].model.bytes as f64);
    layers.insert("model.events_per_unit", units[0].model.events as f64);
    layers.insert("harness.unit_ms_tail", reference_tail.value);
    layers.insert("harness.trace_overhead_share", median(&overheads));

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|metric| {
            let value = match layers.remove(metric.name) {
                Some(value) => {
                    assert!(
                        metric.measured_by(W::NAME),
                        "{} is not {}'s",
                        metric.name,
                        W::NAME
                    );
                    value
                }
                None => {
                    assert!(!metric.measured_by(W::NAME), "{} not measured", metric.name);
                    0.0
                }
            };
            (metric.name, value, metric.unit)
        })
        .collect();
    assert!(layers.is_empty(), "metrics outside the schema: {layers:?}");

    std::fs::create_dir_all(&options.out_dir)?;
    std::fs::write(
        options.out_dir.join(format!("trace-{}.json", W::NAME)),
        chrome_trace(recorder.spans()).to_compact_string(),
    )?;

    let mut detail = base_detail::<W>(options, &counted);
    detail.extend([
        ("traced_units", Json::from(units.len())),
        ("reference_units", Json::from(reference.len())),
        ("reference_unit_ms_p50", Json::from(reference_ms)),
        ("traced_unit_ms_p50", Json::from(median(&traced_millis))),
        ("unit_ms_tail", tail_json(reference_tail, reference.len())),
        ("accounted_share", Json::from(accounted)),
        ("decomposition_matches", Json::from(decomposition_matches)),
        ("sim_digest", hex(units[0].digest)),
        (
            "measured_here",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .filter(|metric| metric.measured_by(W::NAME))
                    .map(|metric| Json::from(metric.name))
                    .collect(),
            ),
        ),
    ]);
    Ok(Report {
        metrics,
        attempted: counted.attempted,
        failures: counted.failures,
        detail: Json::obj(detail),
    })
}

/// Name of the span a decomposed unit opens around its measured region —
/// the same region [`Meter::measure`] times in an untraced unit.
pub const UNIT_SPAN: &str = "harness.unit";
