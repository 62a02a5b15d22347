//! Proves the keyed DC-net round path is allocation-free in steady state.
//!
//! The shared counting allocator (`tests/support/counting_alloc.rs`)
//! counts the measuring thread's heap requests; after a short warm-up that
//! provisions the pooled contribution buffers, further silent rounds must
//! not touch the heap at all. This pins "zero heap allocations per round
//! in the steady-state contribute path" as a test rather than a one-off
//! measurement.

use fnp_dcnet::keyed::KeyedDcGroup;
use fnp_dcnet::slot::SlotOutcome;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[test]
fn steady_state_keyed_rounds_do_not_allocate() {
    // Peers per member: a batch of eight with an empty lane (k = 8), a
    // full batch (9), a full batch and a one-peer tail (10), four batches
    // (32; fewer rounds, for the unoptimised test build's sake).
    for (k, rounds) in [(8usize, 100u64), (9, 100), (10, 100), (32, 10)] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut group = KeyedDcGroup::new(k, 512, &mut rng).expect("k ≥ 2");
        let payloads: Vec<Option<Vec<u8>>> = vec![None; k];

        // Warm up: the first rounds provision the pooled contribution
        // buffers and the combine accumulator.
        for round in 0..3 {
            group.run_round(round, &payloads).expect("warm-up round");
        }

        let allocated = counting_alloc::measure(|| {
            for round in 3..3 + rounds {
                let report = group
                    .run_round(round, &payloads)
                    .expect("steady-state round");
                assert_eq!(report.outcome, SlotOutcome::Silence);
            }
        })
        .calls;
        assert_eq!(
            allocated, 0,
            "steady-state contribute/combine path touched the heap {allocated} times \
             in {rounds} rounds at k = {k}"
        );
    }
}
