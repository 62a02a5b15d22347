//! Allocation wall for the time wheel over many rotations: a run that
//! keeps thousands of deliveries in flight for twenty turns of the ring
//! requests the chunks for its peak in flight and little else.
//!
//! Each of [`TOKENS`] tokens hops from node to random neighbour under the
//! default latency model until the run's time cap, so exactly that many
//! deliveries are queued from the first send to the cap. The wheel's ring
//! rolls forward with its cursor: a delivery lands at most 64 buckets
//! ahead, inside the ring, so none of them passes through a heap. What the
//! run may request is therefore the chunks for the tokens, one partly
//! filled chunk per bucket a delivery can reach, the table of chunk
//! headers, and the two sort-key buffers and the gather buffer, each as
//! long as the fullest bucket. A wheel whose window stayed put until the
//! whole ring drained refilled its overflow heap with every delivery in
//! flight at each turn: 2 791 304 B here against a bound of 1 731 200 B,
//! where the rolling ring requests 1 025 800 B.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's requests. The arena is fresh and this
//! binary holds one test, so no other arena lends the wheel grown sort
//! keys. It passes in both profiles; CI runs it in release mode with the
//! other walls.

use fnp_netsim::{
    topology, Context, LatencyModel, NodeId, ProtocolNode, SimConfig, Simulator, TestPayload,
    TrialArena,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Deliveries in flight from the first send to the time cap.
const TOKENS: usize = 12_000;

/// Turns of the ring the run lasts: the ring spans four model bounds.
const ROTATIONS: u64 = 21;

/// Buckets after the cursor's that a delivery can land in: the model's
/// largest delay spans 64 bucket widths, the width rounded down.
const BUCKETS_REACHED: usize = 65;

/// The most events one bucket of the run holds. All tokens leave at time
/// zero, and the bucket after the latency floor catches the share
/// `1 − e^(−width / mean)` ≈ 28 % of them (3 227 here); later waves are
/// spread wider. 30 % leaves room for the draw.
const FULLEST_BUCKET: usize = TOKENS * 3 / 10;

/// Events per chunk of bucket storage.
const CHUNK: usize = 64;

/// Bytes of one queued delivery of a [`TestPayload`]: its time and
/// sequence number, the two node ids and the 24-byte payload. A larger
/// event fails the wall.
const EVENT_BYTES: usize = 48;

/// Bytes of one chunk's header in the wheel's chunk table: its event
/// buffer and its link.
const CHUNK_HEADER_BYTES: usize = 32;

/// Passes every token on to a random neighbour.
struct Relay;

impl ProtocolNode for Relay {
    type Message = TestPayload;

    fn on_message(&mut self, _: NodeId, message: TestPayload, ctx: &mut Context<'_, TestPayload>) {
        let to = ctx.random_neighbor_except(None).expect("a neighbour");
        ctx.send(to, message);
    }
}

#[test]
fn deliveries_in_flight_for_twenty_rotations_request_only_their_chunks() {
    let n = 3000;
    let graph = topology::random_regular(n, 8, &mut StdRng::seed_from_u64(4)).expect("overlay");
    let latency = LatencyModel::default();
    let config = SimConfig {
        max_time: ROTATIONS * 4 * latency.max_delay(),
        latency,
        ..SimConfig::default()
    };
    let mut arena = TrialArena::new();
    let nodes = (0..n).map(|_| Relay).collect();
    let mut sim = Simulator::new_in(&mut arena, graph, nodes, config);
    let token = TestPayload::new("token", 64);
    let heap = counting_alloc::measure(|| {
        for index in 0..TOKENS {
            sim.trigger(NodeId::new(index % n), |_, ctx| {
                let to = ctx.random_neighbor_except(None).expect("a neighbour");
                ctx.send(to, token.clone());
            });
        }
        sim.run();
    });
    let metrics = sim.metrics();
    assert!(
        metrics.finished_at >= (ROTATIONS - 1) * 4 * latency.max_delay(),
        "the run ended after {} µs",
        metrics.finished_at
    );
    assert!(
        metrics.events_processed >= 500 * TOKENS as u64,
        "{} events for {TOKENS} tokens",
        metrics.events_processed
    );
    let chunks = TOKENS.div_ceil(CHUNK) + BUCKETS_REACHED;
    let chunk_bytes = chunks * CHUNK * EVENT_BYTES;
    // Each buffer below grows by doubling: every request together is below
    // twice the last, which is below twice what it holds.
    let table_bytes = 4 * chunks * CHUNK_HEADER_BYTES;
    let key_bytes = 2 * 4 * FULLEST_BUCKET * size_of::<u64>();
    let gather_bytes = 4 * FULLEST_BUCKET * EVENT_BYTES;
    let bound = chunk_bytes + table_bytes + key_bytes + gather_bytes;
    assert!(
        heap.requested <= bound as u64,
        "{} B requested over {ROTATIONS} rotations, bound {bound} B (chunks {chunk_bytes}, \
         chunk table {table_bytes}, sort keys {key_bytes}, gather {gather_bytes})",
        heap.requested
    );
}
