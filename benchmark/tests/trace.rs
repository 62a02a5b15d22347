//! Span self-time subtraction.

use fnp_perf::trace::{by_layer, self_times, Recorder, Span};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        unit: 0,
    }
}

#[test]
fn nested_children_are_subtracted_from_their_own_parent_only() {
    let spans = [
        span("unit", 0, 100, None),
        span("run", 10, 90, Some(0)),
        span("dispatch", 20, 50, Some(1)),
    ];
    // unit: 100 − 80; run: 80 − 30; dispatch is a leaf.
    assert_eq!(self_times(&spans), [20, 50, 30]);
}

#[test]
fn adjacent_children_leave_only_the_gaps() {
    let spans = [
        span("unit", 0, 100, None),
        span("a", 0, 40, Some(0)),
        span("b", 40, 70, Some(0)),
        span("c", 80, 100, Some(0)),
    ];
    assert_eq!(self_times(&spans), [10, 40, 30, 20]);
}

#[test]
fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
    let spans = [
        span("unit", 10, 110, None),
        span("a", 20, 60, Some(0)),
        span("b", 50, 80, Some(0)),
        span("late", 100, 130, Some(0)),
    ];
    // Covered: [20, 80) and [100, 110) = 70 of 100.
    assert_eq!(self_times(&spans)[0], 30);
}

#[test]
fn recorder_nests_spans_and_sums_them_by_layer_and_unit() {
    let mut recorder = Recorder::with_capacity(8);
    for unit in 0..2 {
        recorder.set_unit(unit);
        let outer = recorder.begin("outer");
        recorder.span("inner", || std::hint::black_box(1 + 1));
        let renamed = recorder.begin("placeholder");
        recorder.end_as(renamed, "inner");
        recorder.end(outer);
        recorder.add_count("inner.calls", 2);
    }
    let spans = recorder.spans();
    assert_eq!(spans.len(), 6);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[4].parent, Some(3));
    assert_eq!(spans[3].parent, None);

    let totals = by_layer(spans);
    let inner = totals[&("inner", 1)];
    assert_eq!(inner.calls, 2);
    assert_eq!(inner.self_ns, inner.total_ns);
    let outer = totals[&("outer", 0)];
    assert_eq!(
        outer.self_ns,
        outer.total_ns - totals[&("inner", 0)].total_ns
    );
    assert_eq!(recorder.count("inner.calls", 1), 2);
    assert_eq!(recorder.count("never", 0), 0);
}
