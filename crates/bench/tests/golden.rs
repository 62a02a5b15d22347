//! Golden rows through the real binary.
//!
//! Every `EXPERIMENTS` entry runs as `fnp-bench <name>` at pinned reduced
//! sizes, and its stdout and `--json` report (minus the `wall_clock_ms`
//! line) must equal `tests/golden/<name>.{txt,json}`. The 13 paper
//! experiments' files were captured from the per-experiment binaries this
//! table replaced, so a diff here means a driver's rows, a table's layout
//! or a report's schema changed. A second run at `--threads 1` must differ
//! in the report's `"threads"` line only.
//!
//! To re-capture one file after a deliberate change, run `fnp-bench <name>`
//! with its `pinned_sizes` and `--threads 2 --json <file>`, redirect stdout
//! to `<name>.txt`, and store the report without its `wall_clock_ms` line
//! as `<name>.json`.

use fnp_bench::EXPERIMENTS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The 13 binaries `fnp-bench <name>` replaced.
const OLD_BIN_NAMES: [&str; 13] = [
    "fig1_landscape",
    "fig2_flood_deanon",
    "fig3_dandelion",
    "fig4_dcnet_cost",
    "fig5_three_phase",
    "fig6_steady_state",
    "tab1_message_overhead",
    "tab2_privacy_bounds",
    "tab3_group_overlap",
    "tab4_latency",
    "tab5_dissent_startup",
    "tab7_fairness",
    "abl1_vs_election",
];

fn fnp_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fnp-bench"))
        .args(args)
        .output()
        .expect("fnp-bench spawns")
}

/// The pinned size flags of one experiment: every override it honours,
/// shrunk until the run takes milliseconds.
fn pinned_sizes(name: &str, overrides: &[&str]) -> Vec<&'static str> {
    let mut flags = Vec::new();
    if overrides.contains(&"--n") {
        let n = if name == "large_n_flood" {
            "3000"
        } else {
            "60"
        };
        flags.extend(["--n", n]);
    }
    if overrides.contains(&"--runs") {
        flags.extend(["--runs", "2"]);
    }
    if overrides.contains(&"--rates") {
        flags.extend(["--rates", "2"]);
    }
    flags
}

/// Runs one experiment at its pinned sizes and returns stdout plus the
/// report without its `wall_clock_ms` line.
fn run_pinned(name: &str, overrides: &[&str], threads: &str) -> (String, String) {
    let report = std::env::temp_dir().join(format!(
        "fnp_bench_golden_{}_{name}_{threads}.json",
        std::process::id()
    ));
    let mut args = vec![name];
    args.extend(pinned_sizes(name, overrides));
    args.extend(["--threads", threads, "--json"]);
    args.push(report.to_str().expect("temp path is UTF-8"));
    let output = fnp_bench(&args);
    assert!(output.status.success(), "{name} failed: {output:?}");
    let json = std::fs::read_to_string(&report).expect("report was written");
    std::fs::remove_file(&report).expect("report is removable");
    let stable: String = json
        .lines()
        .filter(|line| !line.contains("\"wall_clock_ms\""))
        .map(|line| format!("{line}\n"))
        .collect();
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    (stdout, stable)
}

fn golden_path(name: &str, extension: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.{extension}"))
}

fn assert_golden(name: &str, extension: &str, actual: &str) {
    let path = golden_path(name, extension);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("{}: {error}", path.display()));
    assert_eq!(actual, expected, "{name}.{extension} diverged from golden");
}

#[test]
fn every_experiment_reproduces_its_golden_rows_at_any_thread_count() {
    for experiment in &EXPERIMENTS {
        let (stdout, report) = run_pinned(experiment.name, experiment.overrides, "2");
        assert_golden(experiment.name, "txt", &stdout);
        assert_golden(experiment.name, "json", &report);

        let (stdout_1, report_1) = run_pinned(experiment.name, experiment.overrides, "1");
        assert_eq!(stdout_1, stdout, "{}: stdout at 1 thread", experiment.name);
        let differing: Vec<(&str, &str)> = report_1
            .lines()
            .zip(report.lines())
            .filter(|(one, two)| one != two)
            .collect();
        assert_eq!(
            differing,
            [("  \"threads\": 1,", "  \"threads\": 2,")],
            "{}: report at 1 thread",
            experiment.name
        );
        assert_eq!(report_1.lines().count(), report.lines().count());
    }
}

#[test]
fn experiment_names_are_unique_and_cover_the_old_binaries() {
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    for old in OLD_BIN_NAMES {
        assert!(names.contains(&old), "{old} is missing from EXPERIMENTS");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
}

#[test]
fn usage_errors_exit_2_and_help_exits_0_with_the_same_table() {
    let help = fnp_bench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let table = String::from_utf8(help.stdout).expect("help is UTF-8");
    // docs/BENCHMARKING.md quotes the help text; keep the two in step.
    let docs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/BENCHMARKING.md");
    let docs = std::fs::read_to_string(docs).expect("docs/BENCHMARKING.md is readable");
    assert!(
        docs.contains(&table),
        "docs/BENCHMARKING.md no longer quotes `fnp-bench --help`:\n{table}"
    );

    for (args, message) in [
        (&[][..], "missing experiment name"),
        (&["fig9_nope"][..], "unknown experiment \"fig9_nope\""),
        (
            &["tab3_group_overlap", "--n", "7"][..],
            "tab3_group_overlap does not take --n; it takes no size override",
        ),
        (
            &["fig1_landscape", "--rates", "2.5"][..],
            "fig1_landscape does not take --rates; it takes only --n, --runs",
        ),
    ] {
        let output = fnp_bench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed rows");
        let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
        assert_eq!(stderr, format!("error: {message}\n\n{table}"), "{args:?}");
    }
}

/// The backticked names in `text` that sit outside parentheses.
fn top_level_code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut depth = 0usize;
    let mut open = None;
    for (index, c) in text.char_indices() {
        match (c, open) {
            ('`', Some(start)) => {
                if depth == 0 {
                    spans.push(&text[start..index]);
                }
                open = None;
            }
            ('`', None) => open = Some(index + 1),
            ('(', None) => depth += 1,
            (')', None) => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    spans
}

#[test]
fn architecture_crate_map_names_only_modules_that_exist() {
    // docs/ARCHITECTURE.md's crate map lists each crate's key modules; a
    // module deleted from `src/` must leave the map with it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let docs = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md"))
        .expect("docs/ARCHITECTURE.md is readable");
    let rows: Vec<&str> = docs
        .lines()
        .skip_while(|line| !line.starts_with("| Paper concept | Crate | Key modules |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .collect();
    assert!(!rows.is_empty(), "docs/ARCHITECTURE.md has no crate map");
    for row in rows {
        // The concept cell may hold a `|` (`k ≤ |G| ≤ 2k−1`); the last two
        // cells do not.
        let mut cells = row.trim_end_matches('|').rsplitn(3, '|');
        let modules = cells.next().expect("a key-modules cell");
        let krate = cells.next().expect("a crate cell").trim().trim_matches('`');
        if modules.contains("see below") {
            continue;
        }
        let dir = krate
            .strip_prefix("fnp-")
            .expect("crate names start with fnp-");
        let src = root.join("crates").join(dir).join("src");
        for module in top_level_code_spans(modules) {
            assert!(
                src.join(format!("{module}.rs")).is_file()
                    || src.join(module).join("mod.rs").is_file(),
                "the crate map names `{module}` for {krate}, which has no such module"
            );
        }
    }
}
