//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call into a layer in a span
//! `{name, start_ns, end_ns, parent, unit}`, keeps all of them in one
//! pre-sized `Vec`, and writes them once at exit in Chrome trace-event
//! format. A layer's *self time* is its span minus the interval its child
//! spans cover.

use crate::api::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `crate.module.what`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The unit this span belongs to.
    pub unit: u32,
}

impl Span {
    /// Wall-clock length of the span.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to [`Recorder::end`].
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Open(u32);

/// Collects spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    unit: u32,
    counts: BTreeMap<(&'static str, u32), u64>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording never
    /// reallocates inside a measured region.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            unit: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Sets the unit stamped on spans begun from now on.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied();
        self.stack.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit: self.unit,
        });
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Closes `open` under another name, for calls whose layer is only
    /// known from their result (a first receipt versus a duplicate).
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        self.end(open);
        self.spans[open.0 as usize].name = name;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let result = f();
        self.end(open);
        result
    }

    /// Adds `amount` to the current unit's counter `name`: the exact work a
    /// layer did, kept beside its spans so ratios use both.
    pub fn add_count(&mut self, name: &'static str, amount: u64) {
        *self.counts.entry((name, self.unit)).or_default() += amount;
    }

    /// Counter `name` of `unit` (0 if never counted).
    #[must_use]
    pub fn count(&self, name: &'static str, unit: u32) -> u64 {
        self.counts.get(&(name, unit)).copied().unwrap_or(0)
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A recorder that may be absent: lets one code path serve the untraced
/// unit (every call a no-op) and the decomposed one.
#[derive(Debug)]
pub struct Tap<'a>(pub Option<&'a mut Recorder>);

impl Tap<'_> {
    /// [`Recorder::begin`], if recording.
    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        self.0.as_mut().map(|recorder| recorder.begin(name))
    }

    /// [`Recorder::end_as`], if recording.
    pub fn end_as(&mut self, open: Option<Open>, name: &'static str) {
        if let (Some(recorder), Some(open)) = (self.0.as_mut(), open) {
            recorder.end_as(open, name);
        }
    }

    /// [`Recorder::add_count`], if recording.
    pub fn add_count(&mut self, name: &'static str, amount: u64) {
        if let Some(recorder) = self.0.as_mut() {
            recorder.add_count(name, amount);
        }
    }
}

/// Self time of every span, index-aligned with `spans`: the span's length
/// minus the union of its direct children's intervals (clipped to the
/// span), so adjacent and overlapping children are each counted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-unit totals of one layer, as [`by_layer`] returns them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time of the layer's spans in the unit.
    pub self_ns: u64,
    /// Summed span length (children included).
    pub total_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Sums spans by `(name, unit)`.
#[must_use]
pub fn by_layer(spans: &[Span]) -> BTreeMap<(&'static str, u32), LayerTotal> {
    let mut totals: BTreeMap<(&'static str, u32), LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let total = totals.entry((span.name, span.unit)).or_default();
        total.self_ns += self_ns;
        total.total_ns += span.duration_ns();
        total.calls += 1;
    }
    totals
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete event per span, one track per unit.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .map(|span| {
            Json::obj([
                ("name", Json::from(span.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(span.start_ns as f64 / 1e3)),
                ("dur", Json::from(span.duration_ns() as f64 / 1e3)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(span.unit)),
                (
                    "args",
                    Json::obj([("parent", span.parent.map_or(Json::Null, Json::from))]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}
