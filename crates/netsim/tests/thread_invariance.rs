//! Thread-count invariance of the intra-trial parallel paths.
//!
//! Two pieces of per-trial work run on scoped worker threads when a trial
//! is too large for trial-level parallelism: the per-span neighbour sort of
//! the CSR finalize, and the level-synchronous frontier expansion of the
//! double-sweep diameter estimator. Both claim byte-identical results at
//! any thread count — not merely equivalent ones — because every published
//! figure must be reproducible regardless of the machine it ran on. This
//! suite pins that claim at 1, 2 and 4 threads across four topology
//! families, including a star whose second BFS level is guaranteed to
//! exceed the parallel-frontier threshold.

use fnp_netsim::topology::{self, RegularScratch};
use fnp_netsim::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Node count for the generated families: large enough that the exact
/// small-n diameter path is bypassed and BFS frontiers clear the parallel
/// expansion threshold.
const N: usize = 12_000;

/// The four families the invariance claim is checked over. The star's BFS
/// from any leaf has a second level of `n - 2` nodes, so the parallel
/// frontier path is exercised deterministically, not just probably.
fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            "random-regular",
            topology::random_regular(N, 6, &mut rng).unwrap(),
        ),
        (
            "barabasi-albert",
            topology::barabasi_albert(N, 3, &mut rng).unwrap(),
        ),
        ("tree", topology::tree(N, 2).unwrap()),
        ("star", topology::star(6000).unwrap()),
    ]
}

/// Byte-level fingerprint of a graph: the `Debug` rendering covers the CSR
/// arrays themselves (offsets and targets), so two equal fingerprints mean
/// the same *layout*, not just the same edge set.
fn fingerprint(graph: &Graph) -> String {
    format!("{graph:?}")
}

#[test]
fn csr_assembly_is_identical_at_any_thread_count() {
    let mut baseline: Option<String> = None;
    for threads in THREAD_COUNTS {
        let mut graph = Graph::new(0);
        let mut rng = StdRng::seed_from_u64(0xA11);
        let mut scratch = RegularScratch::new();
        topology::random_regular_into_with_threads(
            &mut graph,
            N,
            6,
            &mut rng,
            &mut scratch,
            threads,
        )
        .unwrap();
        let print = fingerprint(&graph);
        match &baseline {
            None => baseline = Some(print),
            Some(expected) => assert_eq!(
                expected, &print,
                "CSR assembly diverged at {threads} threads"
            ),
        }
    }
}

#[test]
fn diameter_estimate_is_identical_at_any_thread_count() {
    for (name, graph) in families(0xD1A) {
        let expected = graph.diameter_estimate();
        assert!(
            expected.is_some(),
            "{name}: families must be connected for the estimate to exist"
        );
        for threads in THREAD_COUNTS {
            assert_eq!(
                graph.diameter_estimate_with_threads(threads),
                expected,
                "{name}: diameter estimate diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn bfs_distances_agree_with_the_threaded_sweep() {
    // The frontier split must not change which nodes are reached or at
    // what distance; cross-check the public sequential BFS against the
    // threaded estimator's building block via eccentricity figures on a
    // graph with a guaranteed super-threshold frontier.
    let graph = topology::star(6000).unwrap();
    let sequential = graph.diameter_estimate_with_threads(1);
    let threaded = graph.diameter_estimate_with_threads(4);
    assert_eq!(sequential, threaded);
    // A star's diameter is exactly 2 (leaf → hub → leaf); the double sweep
    // finds it, so the figure is also externally checkable.
    assert_eq!(sequential.map(|(d, _)| d), Some(2));
}
