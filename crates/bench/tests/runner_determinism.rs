//! Parallel trial execution must not change experiment results.
//!
//! The contract of `TrialRunner` (crates/netsim/src/runner.rs) is that a
//! run over any number of worker threads produces results **byte-identical**
//! to a forced single-threaded run: trials derive their seeds independently
//! and results are aggregated in plan order. These tests pin that contract
//! end-to-end through the experiment drivers — if a driver ever grows a
//! dependency on execution order (a shared RNG, an order-sensitive
//! accumulator), the row-level comparison here fails.
//!
//! Rows are compared through their `Debug` rendering, which for `f64`
//! prints the shortest round-trip representation — two renderings are equal
//! exactly when every field is bit-identical.

use fnp_bench::TrialRunner;

const THREAD_COUNTS: [usize; 2] = [2, 4];

fn assert_matches_sequential<R: std::fmt::Debug>(
    experiment: &str,
    run: impl Fn(&TrialRunner) -> R,
) {
    let sequential = format!("{:?}", run(&TrialRunner::sequential()));
    for threads in THREAD_COUNTS {
        let parallel = format!("{:?}", run(&TrialRunner::new(threads)));
        assert_eq!(
            parallel, sequential,
            "{experiment}: {threads}-thread run diverged from the sequential run"
        );
    }
}

#[test]
fn landscape_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("landscape", |runner| {
        fnp_bench::landscape_with(runner, 60, 4, &[0.2], 11)
    });
}

#[test]
fn flood_deanonymization_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("flood_deanonymization", |runner| {
        fnp_bench::flood_deanonymization_with(runner, &[80], &[0.1, 0.3], 4, 12)
    });
}

#[test]
fn dandelion_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("dandelion_privacy", |runner| {
        fnp_bench::dandelion_privacy_with(runner, 70, &[0.2], &[0.5, 0.9], 4, 13)
    });
}

#[test]
fn dcnet_cost_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("dcnet_cost", |runner| {
        fnp_bench::dcnet_cost_with(runner, &[3, 4, 6, 8, 12], 256, 14)
    });
}

#[test]
fn three_phase_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("three_phase_breakdown", |runner| {
        fnp_bench::three_phase_breakdown_with(runner, 60, &[3], &[2, 4], 3, 15)
    });
}

#[test]
fn message_overhead_is_identical_across_thread_counts() {
    assert_matches_sequential("message_overhead", |runner| {
        fnp_bench::message_overhead_with(runner, 60, 4, 16)
    });
}

#[test]
fn latency_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("latency", |runner| {
        fnp_bench::latency_with(runner, 60, 4, 17)
    });
}

#[test]
fn fee_fairness_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("fee_fairness", |runner| {
        fnp_bench::fee_fairness_with(runner, 60, 15, 3, 50, 18)
    });
}

#[test]
fn steady_state_rows_are_identical_across_thread_counts() {
    // The steady-state grid multiplexes K overlapping broadcasts per trial
    // (shared session bookkeeping, per-transaction lanes, a mempool
    // replay) — the row must still be a pure function of the cell.
    assert_matches_sequential("steady_state", |runner| {
        fnp_bench::steady_state_with(runner, 50, 10, 2, &[2.0], 2 * fnp_netsim::SECOND, 22)
    });
}

#[test]
fn group_overlap_rows_are_identical_across_thread_counts() {
    assert_matches_sequential("group_overlap", |runner| {
        fnp_bench::group_overlap_with(runner, &[3, 5, 8], &[1, 2])
    });
}

#[test]
fn json_reports_are_identical_across_thread_counts() {
    use fnp_bench::json::Json;
    let render = |runner: &TrialRunner| {
        Json::rows(&fnp_bench::landscape_with(runner, 60, 3, &[0.2], 20)).to_pretty_string()
    };
    let sequential = render(&TrialRunner::sequential());
    for threads in THREAD_COUNTS {
        assert_eq!(
            render(&TrialRunner::new(threads)),
            sequential,
            "JSON serialisation diverged at {threads} threads"
        );
    }
}
