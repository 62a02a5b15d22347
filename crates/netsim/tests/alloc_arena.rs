//! Allocation wall for the time wheel's sort keys across arenas: a
//! [`TrialRunner`] batch on fresh arenas grows none once an earlier batch
//! has.
//!
//! A runner builds each worker a fresh [`TrialArena`] per batch, and the
//! wheel orders every bucket it drains in two `u64` buffers as long as the
//! fullest bucket. A dropped arena leaves them in a process-wide pool for
//! the next arena, so the first batch of a process grows them and later
//! batches request exactly the same bytes as each other, fewer than the
//! first. Without the pool every batch would request what the first did.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's requests; the runner is sequential, so its
//! trials run on that thread. This binary holds one test, so no other
//! arena draws from the pool meanwhile. It passes in both profiles; CI runs
//! it in release mode with the other walls.

use fnp_netsim::{
    topology, Context, Graph, NodeId, ProtocolNode, SimConfig, Simulator, TestPayload, TrialArena,
    TrialRunner,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Floods its first message on to every other neighbour.
#[derive(Default)]
struct Flood {
    seen: bool,
}

impl ProtocolNode for Flood {
    type Message = TestPayload;

    fn on_message(
        &mut self,
        from: NodeId,
        message: TestPayload,
        ctx: &mut Context<'_, TestPayload>,
    ) {
        if !std::mem::replace(&mut self.seen, true) {
            ctx.mark_delivered();
            ctx.send_to_neighbors_except(message, &[from]);
        }
    }
}

/// One flood over `graph` on `arena`, returning its storage to the arena.
fn trial(arena: &mut TrialArena, graph: Graph) {
    let nodes = (0..graph.node_count()).map(|_| Flood::default()).collect();
    let mut sim = Simulator::new_in(arena, graph, nodes, SimConfig::default());
    sim.trigger(NodeId::new(0), |node, ctx| {
        node.seen = true;
        ctx.mark_delivered();
        ctx.send_to_neighbors_except(TestPayload::new("flood", 250), &[]);
    });
    assert_eq!(sim.run().coverage(), 1.0);
    let (_, metrics) = sim.into_parts_in(arena);
    arena.recycle_metrics(metrics);
}

#[test]
fn a_fresh_arena_draws_the_sort_keys_a_dropped_one_grew() {
    let graph = topology::random_regular(5000, 8, &mut StdRng::seed_from_u64(9)).expect("overlay");
    let runner = TrialRunner::sequential();
    let batch = || {
        counting_alloc::arm();
        runner.run_with_arena(2, |arena, _| trial(arena, graph.clone()));
        counting_alloc::disarm().requested
    };
    let batches = [batch(), batch(), batch()];
    assert_eq!(
        batches[1], batches[2],
        "later batches differ: {batches:?} B requested"
    );
    // A flood of this overlay drains buckets of over a thousand events, so
    // each of the two buffers grows past 8 KB.
    assert!(
        batches[0] >= batches[1] + 2 * (8 << 10),
        "the first batch grew no sort keys for the later ones: {batches:?} B requested"
    );
}
