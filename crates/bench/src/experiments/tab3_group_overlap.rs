//! Experiment E8 (§IV-C): origin-probability skew introduced by overlapping
//! DC-net groups under naive group selection, and its removal by the
//! smoothing policy (the paper's A/B/C example generalised).

use super::Experiment;
use crate::cli::{with_report, BinArgs};
use crate::json::{Json, ToJson};
use crate::TrialRunner;
use fnp_netsim::NodeId;

/// One row of the group-overlap experiment (E8).
#[derive(Clone, Debug)]
pub struct GroupOverlapRow {
    /// Size of the examined group.
    pub group_size: usize,
    /// Number of groups the most-shared member belongs to.
    pub overlap_degree: usize,
    /// Worst-case origin probability under naive selection.
    pub naive_worst_case: f64,
    /// Worst-case origin probability with smoothing.
    pub smoothed_worst_case: f64,
    /// Ideal uniform probability 1/|group|.
    pub ideal: f64,
}

impl ToJson for GroupOverlapRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("group_size", Json::from(self.group_size)),
            ("overlap_degree", self.overlap_degree.into()),
            ("naive_worst_case", self.naive_worst_case.into()),
            ("smoothed_worst_case", self.smoothed_worst_case.into()),
            ("ideal", self.ideal.into()),
        ])
    }
}

/// Runs experiment E8: origin-probability skew of overlapping groups with
/// and without smoothing. Each (size, overlap) cell is an independent,
/// purely combinatorial computation, parallelised across the grid.
pub fn group_overlap_with(
    runner: &TrialRunner,
    group_sizes: &[usize],
    overlap_degrees: &[usize],
) -> Vec<GroupOverlapRow> {
    use fnp_groups::{GroupSelectionPolicy, OverlappingGroups};
    let cells: Vec<(usize, usize)> = group_sizes
        .iter()
        .flat_map(|&size| overlap_degrees.iter().map(move |&overlap| (size, overlap)))
        .collect();
    runner.run(cells.len(), |index| {
        let (size, overlap) = cells[index];
        // Group 0 holds nodes 0..size. All members except node 0 also
        // belong to `overlap` further groups, reproducing (and
        // generalising) the paper's A/B/C example.
        let mut groups = OverlappingGroups::new();
        groups.insert_group(0, (0..size).map(NodeId::new));
        for extra in 0..overlap {
            let base = 100 * (extra + 1);
            groups.insert_group(
                extra + 1,
                (1..size)
                    .map(NodeId::new)
                    .chain(std::iter::once(NodeId::new(base))),
            );
        }
        GroupOverlapRow {
            group_size: size,
            overlap_degree: overlap,
            naive_worst_case: groups
                .worst_case_origin_probability(0, GroupSelectionPolicy::UniformPerNode),
            smoothed_worst_case: groups
                .worst_case_origin_probability(0, GroupSelectionPolicy::Smoothed),
            ideal: 1.0 / size as f64,
        }
    })
}

/// The `fnp-bench tab3_group_overlap` table entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "tab3_group_overlap",
    about: "E8: §IV-C overlapping-group skew",
    overrides: &[],
    run,
};

fn run(args: &BinArgs) {
    let runner = args.runner();
    let group_sizes = [3, 5, 8, 10];
    let overlap_degrees = [1, 2, 3, 4];
    println!("E8 / §IV-C — overlapping-group origin-probability skew\n");
    println!(
        "{:<12} {:<10} {:>14} {:>16} {:>10}",
        "group size", "overlaps", "naive worst", "smoothed worst", "ideal"
    );
    let params = Json::obj([
        ("group_sizes", Json::arr(group_sizes)),
        ("overlap_degrees", Json::arr(overlap_degrees)),
    ]);
    let rows = with_report(args, EXPERIMENT.name, params, || {
        group_overlap_with(&runner, &group_sizes, &overlap_degrees)
    });
    for row in &rows {
        println!(
            "{:<12} {:<10} {:>14.3} {:>16.3} {:>10.3}",
            row.group_size,
            row.overlap_degree,
            row.naive_worst_case,
            row.smoothed_worst_case,
            row.ideal
        );
    }
    println!("\nThe paper's example is the first row: worst-case 1/2 instead of 1/3.");
}
