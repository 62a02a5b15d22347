//! Simulation metrics.
//!
//! Every experiment in the paper's evaluation ultimately reduces to a
//! handful of aggregates over one simulated broadcast: how many messages of
//! which kind were sent (§V-A), how many bytes, when each node first
//! received the transaction (latency / fairness, §II), and which node an
//! adversary would blame (privacy, §V-B). [`Metrics`] collects the first
//! three. For the fourth it keeps, when [`SimConfig::record_receipts`] asks
//! for it, one [`Receipt`] per node — who handed the node its first message,
//! when, of which kind — which is all the `fnp-adversary` node estimators
//! consume: n entries however many messages the run sent. The optional
//! [`TraceEntry`] log ([`SimConfig::record_trace`]) is the full transmission
//! trace on top of that table, for the benchmark's traced `paper_grid` leg,
//! the determinism tests, the receipt oracle and debugging.
//!
//! [`SimConfig::record_receipts`]: crate::SimConfig::record_receipts
//! [`SimConfig::record_trace`]: crate::SimConfig::record_trace
//!
//! # Interned kind accounting
//!
//! Per-send accounting is on the simulator's hottest path: every
//! transmission bumps a per-kind message and byte counter. Kinds are
//! `&'static str` labels, but a `BTreeMap<&'static str, u64>` lookup per
//! send costs string comparisons and pointer chasing. Instead, a
//! [`KindRegistry`] interns each label into a dense [`KindId`] on first
//! use (pointer-equality fast path — same literal, same `&'static str`),
//! and the counters live in plain `Vec<u64>`s indexed by id. The map-shaped
//! API ([`Metrics::messages_by_kind`] etc.) is preserved as views built on
//! demand, so report-generation code is unchanged while the per-send cost
//! drops to an array increment.

use crate::node::NodeId;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// One transmitted message, as seen by an omniscient observer.
///
/// The log of these is read by the determinism tests (`determinism.rs`,
/// `driver_tracing.rs`), by `receipt_oracle.rs` as the reference the
/// first-receipt table must match, by the benchmark's traced `paper_grid`
/// leg and when debugging. Colluding *nodes* need far less — see
/// [`Receipt`]. Either way the simulator records for every node alike and
/// the adversary picks its own afterwards, which keeps the protocols
/// oblivious to the attacker, mirroring the honest-but-curious model of
/// §IV-A.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Time the message was *received*.
    pub at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Message kind label (see [`crate::message::Payload::kind`]).
    pub kind: &'static str,
    /// Reported wire size of the message in bytes.
    pub bytes: usize,
}

/// The first message delivered to a node: all an honest-but-curious node
/// contributes to the first-spy and centrality estimators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Time the message was received.
    pub at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Message kind, as interned in [`Metrics::kinds`].
    pub kind: KindId,
}

/// A dense index identifying one interned message-kind label.
///
/// Ids are assigned in first-use order by a [`KindRegistry`] and are only
/// meaningful together with the registry that produced them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KindId(u32);

impl KindId {
    /// The position of this kind in its registry (and in any counter vector
    /// indexed by it).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns `&'static str` kind labels into dense [`KindId`]s.
///
/// An experiment uses a handful of distinct kinds (typically fewer than
/// ten), so the registry is a small vector scanned linearly with a
/// pointer-equality fast path: two uses of the same string literal share
/// the same `&'static str` address, making the common case a few pointer
/// compares instead of string comparisons or tree walks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindRegistry {
    names: Vec<&'static str>,
}

/// Converts a registry position into a [`KindId`], checking the narrowing.
/// A registry holds a handful of kinds, so the bound is unreachable in
/// practice; checking keeps the cast honest.
fn kind_id(index: usize) -> KindId {
    KindId(u32::try_from(index).expect("more than u32::MAX distinct message kinds"))
}

impl KindRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `name`, interning it on first use.
    pub fn intern(&mut self, name: &'static str) -> KindId {
        // Fast path: same literal ⇒ same address.
        for (index, &known) in self.names.iter().enumerate() {
            if std::ptr::eq(known, name) {
                return kind_id(index);
            }
        }
        // Slow path: distinct statics with equal contents still map to one id.
        for (index, &known) in self.names.iter().enumerate() {
            if known == name {
                return kind_id(index);
            }
        }
        let id = kind_id(self.names.len());
        self.names.push(name);
        id
    }

    /// Looks up an already-interned kind by content (no interning).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<KindId> {
        self.names
            .iter()
            .position(|&known| known == name)
            .map(kind_id)
    }

    /// The label of an interned id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not come from this registry.
    #[must_use]
    pub fn name(&self, id: KindId) -> &'static str {
        self.names[id.index()]
    }

    /// Number of interned kinds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no kind has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned labels in id order.
    #[must_use]
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }
}

/// Grows `values` to cover `id` and adds `amount` to its slot.
fn bump(values: &mut Vec<u64>, id: KindId, amount: u64) {
    if id.index() >= values.len() {
        values.resize(id.index() + 1, 0);
    }
    values[id.index()] += amount;
}

/// A registry plus one `u64` counter per interned name.
#[derive(Clone, Debug, Default)]
struct KindCounters {
    registry: KindRegistry,
    values: Vec<u64>,
}

impl KindCounters {
    fn reset(&mut self) {
        self.registry.names.clear();
        self.values.clear();
    }

    fn add(&mut self, name: &'static str, amount: u64) -> KindId {
        let id = self.registry.intern(name);
        bump(&mut self.values, id, amount);
        id
    }

    fn add_by_id(&mut self, id: KindId, amount: u64) {
        bump(&mut self.values, id, amount);
    }

    fn get(&self, name: &str) -> u64 {
        // A kind can be interned without ever being counted (a broadcast
        // whose targets were all excluded); treat the missing slot as 0
        // exactly like an unknown kind.
        self.registry
            .get(name)
            .and_then(|id| self.values.get(id.index()))
            .copied()
            .unwrap_or(0)
    }

    fn as_map(&self) -> BTreeMap<&'static str, u64> {
        self.registry
            .names()
            .iter()
            .zip(&self.values)
            .map(|(&name, &value)| (name, value))
            .collect()
    }
}

/// Aggregated counters for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total messages transmitted.
    pub messages_sent: u64,
    /// Total bytes transmitted (as reported by the payloads).
    pub bytes_sent: u64,
    /// Messages grouped by interned payload kind.
    messages_per_kind: KindCounters,
    /// Bytes grouped by interned payload kind (same registry/order as
    /// `messages_per_kind`).
    bytes_per_kind: Vec<u64>,
    /// Custom protocol counters recorded via `Context::record`.
    custom: KindCounters,
    /// For each node, the time it first marked the broadcast as delivered.
    pub delivered_at: Vec<Option<SimTime>>,
    /// Complete transmission trace (only populated when tracing is enabled).
    pub trace: Vec<TraceEntry>,
    /// First receipt per node; empty unless the run records receipts.
    receipts: Vec<Option<Receipt>>,
    /// Number of events processed by the simulator.
    pub events_processed: u64,
    /// Simulated time at which the run ended.
    pub finished_at: SimTime,
}

impl Metrics {
    /// Creates an empty metrics collection for a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            delivered_at: vec![None; n],
            ..Self::default()
        }
    }

    /// Resets the collection to the state of a fresh `Metrics::new(n)`,
    /// reusing the counter, delivery, trace and receipt allocations (the
    /// cheap path of a [`TrialArena`](crate::TrialArena) checkout).
    pub(crate) fn reset(&mut self, n: usize) {
        self.messages_sent = 0;
        self.bytes_sent = 0;
        self.messages_per_kind.reset();
        self.bytes_per_kind.clear();
        self.custom.reset();
        self.delivered_at.clear();
        self.delivered_at.resize(n, None);
        self.trace.clear();
        self.receipts.clear();
        self.events_processed = 0;
        self.finished_at = 0;
    }

    /// Records one transmission, returning the interned kind id.
    pub(crate) fn record_send(&mut self, kind: &'static str, bytes: usize) -> KindId {
        let id = self.intern_kind(kind);
        self.record_send_id(id, bytes);
        id
    }

    /// Records one transmission of an already-interned kind.
    pub(crate) fn record_send_id(&mut self, id: KindId, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        self.messages_per_kind.add_by_id(id, 1);
        bump(&mut self.bytes_per_kind, id, bytes as u64);
    }

    /// Interns `kind` without recording a send (used by the simulator to
    /// hoist interning out of fan-out loops).
    pub(crate) fn intern_kind(&mut self, kind: &'static str) -> KindId {
        self.messages_per_kind.registry.intern(kind)
    }

    /// Records the first delivery time of the broadcast at `node`.
    pub(crate) fn record_delivery(&mut self, node: NodeId, at: SimTime) {
        let slot = &mut self.delivered_at[node.index()];
        if slot.is_none() {
            *slot = Some(at);
        }
    }

    /// Starts the first-receipt table, one empty entry per node, as a
    /// [`Simulator`](crate::Simulator) whose run records receipts does.
    pub fn record_receipts(&mut self) {
        self.receipts.resize(self.delivered_at.len(), None);
    }

    /// Notes that `from` delivered a message of `kind` to `to` at time `at`;
    /// the first call per `to` wins.
    ///
    /// # Panics
    ///
    /// Panics unless [`Metrics::record_receipts`] was called first.
    pub fn note_receipt(&mut self, to: NodeId, from: NodeId, at: SimTime, kind: &'static str) {
        let slot = &mut self.receipts[to.index()];
        if slot.is_none() {
            let kind = self.messages_per_kind.registry.intern(kind);
            *slot = Some(Receipt { at, from, kind });
        }
    }

    /// The first receipt of every node, indexed by [`NodeId::index`] (`None`
    /// for a node no message reached) — or `None` if the run did not record
    /// receipts at all.
    pub fn receipts(&self) -> Option<&[Option<Receipt>]> {
        (!self.receipts.is_empty() || self.delivered_at.is_empty()).then_some(&self.receipts[..])
    }

    /// Increments a custom counter.
    pub(crate) fn record_counter(&mut self, name: &'static str, amount: u64) {
        self.custom.add(name, amount);
    }

    /// The registry of message kinds seen so far, in first-use order.
    pub fn kinds(&self) -> &KindRegistry {
        &self.messages_per_kind.registry
    }

    /// Messages grouped by payload kind (view, built on demand).
    ///
    /// Only kinds that were actually transmitted appear — a kind interned
    /// by a fully-excluded broadcast does not get a phantom zero entry.
    pub fn messages_by_kind(&self) -> BTreeMap<&'static str, u64> {
        self.messages_per_kind
            .registry
            .names()
            .iter()
            .zip(&self.messages_per_kind.values)
            .filter(|&(_, &count)| count > 0)
            .map(|(&name, &count)| (name, count))
            .collect()
    }

    /// Bytes grouped by payload kind (view, built on demand; same key set
    /// as [`Metrics::messages_by_kind`], including kinds whose payloads
    /// report zero bytes).
    pub fn bytes_by_kind(&self) -> BTreeMap<&'static str, u64> {
        self.messages_per_kind
            .registry
            .names()
            .iter()
            .zip(&self.messages_per_kind.values)
            .zip(&self.bytes_per_kind)
            .filter(|&((_, &count), _)| count > 0)
            .map(|((&name, _), &bytes)| (name, bytes))
            .collect()
    }

    /// Custom protocol counters recorded via `Context::record` (view, built
    /// on demand).
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.custom.as_map()
    }

    /// Number of nodes that have received the broadcast.
    pub fn delivered_count(&self) -> usize {
        self.delivered_at.iter().filter(|d| d.is_some()).count()
    }

    /// Fraction of nodes that have received the broadcast, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.delivered_at.is_empty() {
            return 0.0;
        }
        self.delivered_count() as f64 / self.delivered_at.len() as f64
    }

    /// The time by which `fraction` of all nodes had received the broadcast,
    /// or `None` if coverage never reached that fraction.
    ///
    /// `fraction` is clamped into `[0, 1]`. This is the latency metric used
    /// by experiment E10 (time to 50 % / 90 % / 100 % coverage).
    pub fn time_to_coverage(&self, fraction: f64) -> Option<SimTime> {
        let n = self.delivered_at.len();
        if n == 0 {
            return None;
        }
        let fraction = fraction.clamp(0.0, 1.0);
        // `fraction` was clamped into [0, 1] above, so the product lies in
        // [0, n]: non-negative and exactly representable in f64.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let needed = (fraction * n as f64).ceil() as usize;
        if needed == 0 {
            return Some(0);
        }
        let mut times: Vec<SimTime> = self.delivered_at.iter().flatten().copied().collect();
        if times.len() < needed {
            return None;
        }
        times.sort_unstable();
        Some(times[needed - 1])
    }

    /// Messages of one kind (0 if the kind never occurred).
    pub fn messages_of_kind(&self, kind: &str) -> u64 {
        self.messages_per_kind.get(kind)
    }

    /// Bytes of one kind (0 if the kind never occurred).
    pub fn bytes_of_kind(&self, kind: &str) -> u64 {
        self.messages_per_kind
            .registry
            .get(kind)
            .and_then(|id| self.bytes_per_kind.get(id.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Value of a custom counter (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.custom.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_metrics_are_empty() {
        let m = Metrics::new(5);
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.delivered_count(), 0);
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.time_to_coverage(0.5), None);
        assert_eq!(m.messages_of_kind("flood"), 0);
        assert_eq!(m.counter("whatever"), 0);
        assert!(m.messages_by_kind().is_empty());
        assert!(m.bytes_by_kind().is_empty());
        assert!(m.counters().is_empty());
        assert!(m.kinds().is_empty());
    }

    #[test]
    fn send_accounting_by_kind() {
        let mut m = Metrics::new(3);
        m.record_send("flood", 100);
        m.record_send("flood", 100);
        m.record_send("stem", 50);
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bytes_sent, 250);
        assert_eq!(m.messages_of_kind("flood"), 2);
        assert_eq!(m.messages_of_kind("stem"), 1);
        assert_eq!(m.bytes_by_kind()["flood"], 200);
        assert_eq!(m.bytes_of_kind("flood"), 200);
        assert_eq!(m.bytes_of_kind("stem"), 50);
        assert_eq!(m.bytes_of_kind("absent"), 0);
    }

    #[test]
    fn delivery_records_only_first_time() {
        let mut m = Metrics::new(2);
        m.record_delivery(NodeId::new(1), 10);
        m.record_delivery(NodeId::new(1), 20);
        assert_eq!(m.delivered_at[1], Some(10));
        assert_eq!(m.delivered_count(), 1);
        assert_eq!(m.coverage(), 0.5);
    }

    #[test]
    fn first_receipt_per_node_wins() {
        let mut m = Metrics::new(3);
        assert_eq!(m.receipts(), None);
        m.record_receipts();
        assert_eq!(m.receipts(), Some(&[None; 3][..]));
        m.note_receipt(NodeId::new(2), NodeId::new(0), 10, "flood");
        m.note_receipt(NodeId::new(2), NodeId::new(1), 15, "stem");
        let receipt = m.receipts().unwrap()[2].unwrap();
        assert_eq!((receipt.at, receipt.from), (10, NodeId::new(0)));
        assert_eq!(m.kinds().name(receipt.kind), "flood");
        assert_eq!(size_of::<Option<Receipt>>(), 24);
        // Noting a receipt sends nothing.
        assert!(m.messages_by_kind().is_empty());
        // An empty network has nothing to record, which is not "unrecorded".
        assert_eq!(Metrics::new(0).receipts(), Some(&[][..]));
    }

    #[test]
    fn time_to_coverage_thresholds() {
        let mut m = Metrics::new(4);
        m.record_delivery(NodeId::new(0), 5);
        m.record_delivery(NodeId::new(1), 10);
        m.record_delivery(NodeId::new(2), 20);
        // 3 of 4 delivered.
        assert_eq!(m.time_to_coverage(0.25), Some(5));
        assert_eq!(m.time_to_coverage(0.5), Some(10));
        assert_eq!(m.time_to_coverage(0.75), Some(20));
        assert_eq!(m.time_to_coverage(1.0), None);
        assert_eq!(m.time_to_coverage(0.0), Some(0));
        // Out-of-range fractions clamp.
        assert_eq!(m.time_to_coverage(2.0), None);
        assert_eq!(m.time_to_coverage(-1.0), Some(0));
    }

    #[test]
    fn custom_counters_accumulate() {
        let mut m = Metrics::new(1);
        m.record_counter("dc-collision", 1);
        m.record_counter("dc-collision", 2);
        assert_eq!(m.counter("dc-collision"), 3);
        assert_eq!(m.counters()["dc-collision"], 3);
    }

    #[test]
    fn coverage_of_empty_network_is_zero() {
        let m = Metrics::new(0);
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.time_to_coverage(0.5), None);
    }

    #[test]
    fn registry_assigns_dense_ids_in_first_use_order() {
        let mut reg = KindRegistry::new();
        let a = reg.intern("alpha");
        let b = reg.intern("beta");
        let a2 = reg.intern("alpha");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(a, a2);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.name(a), "alpha");
        assert_eq!(reg.name(b), "beta");
        assert_eq!(reg.get("beta"), Some(b));
        assert_eq!(reg.get("gamma"), None);
        assert_eq!(reg.names(), &["alpha", "beta"]);
    }

    #[test]
    fn registry_unifies_distinct_statics_with_equal_contents() {
        // Two statics with the same content but (potentially) different
        // addresses must intern to the same id — the slow path.
        static A: &str = "same";
        let runtime: &'static str = Box::leak("same".to_string().into_boxed_str());
        let mut reg = KindRegistry::new();
        let a = reg.intern(A);
        let b = reg.intern(runtime);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn map_views_match_pre_refactor_btreemap_semantics() {
        // The pre-refactor `Metrics` exposed public BTreeMap fields; the
        // views must produce the same sorted key order, the same sums, and
        // the same 0 fallback for unknown kinds.
        let mut m = Metrics::new(2);
        let mut reference_msgs: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut reference_bytes: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (kind, bytes) in [
            ("zeta", 10),
            ("alpha", 20),
            ("zeta", 30),
            ("mid", 5),
            ("alpha", 1),
        ] {
            m.record_send(kind, bytes);
            *reference_msgs.entry(kind).or_insert(0) += 1;
            *reference_bytes.entry(kind).or_insert(0) += bytes as u64;
        }
        assert_eq!(m.messages_by_kind(), reference_msgs);
        assert_eq!(m.bytes_by_kind(), reference_bytes);
        // Sorted iteration order, exactly like the old public field.
        let keys: Vec<&str> = m.messages_by_kind().keys().copied().collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
        // Unknown kinds fall back to 0 through every accessor.
        assert_eq!(m.messages_of_kind("nope"), 0);
        assert_eq!(m.bytes_of_kind("nope"), 0);
        assert_eq!(m.counter("nope"), 0);
        assert_eq!(m.messages_by_kind().get("nope"), None);
    }

    #[test]
    fn interned_but_unsent_kinds_stay_invisible() {
        // A broadcast whose targets are all excluded interns the kind
        // without recording a send. Every accessor must behave exactly as
        // if the kind were unknown: no panic, no phantom zero entries.
        let mut m = Metrics::new(2);
        m.intern_kind("ghost");
        assert_eq!(m.messages_of_kind("ghost"), 0);
        assert_eq!(m.bytes_of_kind("ghost"), 0);
        assert!(m.messages_by_kind().is_empty());
        assert!(m.bytes_by_kind().is_empty());
        // Recording a different kind afterwards (which resizes the counter
        // vectors past the ghost's index) must not resurrect it.
        m.record_send("real", 10);
        assert_eq!(m.messages_of_kind("ghost"), 0);
        assert_eq!(m.bytes_of_kind("ghost"), 0);
        assert_eq!(m.messages_by_kind().len(), 1);
        assert_eq!(m.bytes_by_kind().len(), 1);
        assert_eq!(m.messages_by_kind()["real"], 1);
        // The ghost becomes visible the moment it is genuinely sent.
        m.record_send("ghost", 5);
        assert_eq!(m.messages_of_kind("ghost"), 1);
        assert_eq!(m.bytes_by_kind()["ghost"], 5);
    }

    #[test]
    fn zero_byte_sends_still_appear_in_byte_views() {
        let mut m = Metrics::new(1);
        m.record_send("empty", 0);
        assert_eq!(m.messages_of_kind("empty"), 1);
        assert_eq!(m.bytes_by_kind()["empty"], 0);
        assert_eq!(m.bytes_of_kind("empty"), 0);
    }

    #[test]
    fn record_send_id_matches_record_send() {
        let mut by_name = Metrics::new(1);
        by_name.record_send("x", 7);
        by_name.record_send("x", 7);

        let mut by_id = Metrics::new(1);
        let id = by_id.intern_kind("x");
        by_id.record_send_id(id, 7);
        by_id.record_send_id(id, 7);

        assert_eq!(by_name.messages_by_kind(), by_id.messages_by_kind());
        assert_eq!(by_name.bytes_by_kind(), by_id.bytes_by_kind());
        assert_eq!(by_name.messages_sent, by_id.messages_sent);
        assert_eq!(by_name.bytes_sent, by_id.bytes_sent);
    }

    #[test]
    fn reset_matches_fresh_metrics() {
        let mut m = Metrics::new(3);
        m.record_send("flood", 100);
        m.record_counter("c", 2);
        m.record_delivery(NodeId::new(1), 10);
        m.trace.push(TraceEntry {
            at: 10,
            from: NodeId::new(0),
            to: NodeId::new(1),
            kind: "flood",
            bytes: 100,
        });
        m.record_receipts();
        m.note_receipt(NodeId::new(1), NodeId::new(0), 10, "flood");
        m.events_processed = 5;
        m.finished_at = 10;

        m.reset(2);
        let fresh = Metrics::new(2);
        assert_eq!(m.messages_sent, fresh.messages_sent);
        assert_eq!(m.bytes_sent, fresh.bytes_sent);
        assert_eq!(m.delivered_at, fresh.delivered_at);
        assert_eq!(m.trace, fresh.trace);
        assert_eq!(m.receipts(), None, "a reset run records nothing yet");
        assert_eq!(m.receipts(), fresh.receipts());
        assert_eq!(m.events_processed, fresh.events_processed);
        assert_eq!(m.finished_at, fresh.finished_at);
        assert!(m.messages_by_kind().is_empty());
        assert!(m.counters().is_empty());
        assert!(m.kinds().is_empty());
        // Interning after a reset assigns ids from zero again.
        let mut reset_ids = m;
        assert_eq!(reset_ids.intern_kind("new").index(), 0);
    }

    #[test]
    fn cloned_metrics_preserve_interned_state() {
        let mut m = Metrics::new(1);
        m.record_send("a", 1);
        m.record_counter("c", 4);
        let clone = m.clone();
        assert_eq!(clone.messages_by_kind(), m.messages_by_kind());
        assert_eq!(clone.counters(), m.counters());
    }
}
