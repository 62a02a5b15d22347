//! Allocation wall for the overlay generator: once a graph and a
//! [`RegularScratch`] have served one overlay, building another of the same
//! size requests no heap at all, and a large overlay leaves no large
//! buffers behind for the small ones after it.
//!
//! Every attempt of [`topology::random_regular_into`] ends in a
//! connectivity check, a one-lane breadth-first sweep over per-node masks
//! and frontier lists. The scratch holds those too, so the check reuses the
//! lanes the first build grew; building them afresh cost 15 256 B per
//! n = 1 000 overlay. The pooled buffers are clamped after each build, so
//! an n = 250 000 overlay (the `flood_large` size) does not pin its lanes
//! in the pool once an n = 1 000 one follows.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's requests. CI runs this wall in release
//! mode with the others.

use fnp_netsim::topology::{self, RegularScratch};
use fnp_netsim::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The paper's overlay: 8-regular.
const DEGREE: usize = 8;

fn build(graph: &mut Graph, scratch: &mut RegularScratch, n: usize, seed: u64) {
    topology::random_regular_into(graph, n, DEGREE, &mut StdRng::seed_from_u64(seed), scratch)
        .expect("overlay");
}

#[test]
fn a_warm_overlay_build_requests_no_heap() {
    const NODES: usize = 1_000;
    let mut graph = Graph::new(0);
    let mut scratch = RegularScratch::new();
    // Warm-up. Its second overlay needs a larger repair than the first and
    // makes one 256 B request for it; from then on none of these seeds
    // needs more than the pool holds.
    for seed in [1, 2] {
        build(&mut graph, &mut scratch, NODES, seed);
    }
    for seed in 3..=10 {
        counting_alloc::arm();
        build(&mut graph, &mut scratch, NODES, seed);
        let heap = counting_alloc::disarm();
        assert_eq!(
            heap.requested, 0,
            "seed {seed}: {} B in {} requests on a warm graph and scratch",
            heap.requested, heap.calls
        );
        assert!(graph.is_connected());
    }
}

#[test]
fn a_large_overlay_leaves_the_lanes_clamped() {
    let mut graph = Graph::new(0);
    let mut scratch = RegularScratch::new();
    build(&mut graph, &mut scratch, 250_000, 1);
    assert!(scratch.lane_capacity() >= 250_000);

    const NODES: usize = 1_000;
    build(&mut graph, &mut scratch, NODES, 2);
    // The generator's clamp: at most four times the stub count.
    let bound = 4 * NODES * DEGREE;
    assert!(
        scratch.lane_capacity() <= bound,
        "lanes hold {} nodes after an n = {NODES} build (bound {bound})",
        scratch.lane_capacity()
    );
    assert!(scratch.stub_capacity() <= bound);
}
