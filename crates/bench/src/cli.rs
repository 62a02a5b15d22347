//! The command line of the one `fnp-bench` binary:
//! `fnp-bench <experiment> [flags]` (no external argument-parsing
//! dependency — the build is offline).
//!
//! Two flags are universal:
//!
//! * `--json <path>` — additionally write the rows, parameters and
//!   wall-clock timing as pretty-printed JSON (see [`crate::json`]).
//! * `--threads <n>` — worker threads for the [`crate::TrialRunner`]
//!   (`0` or omitted = all cores; the `FNP_THREADS` environment variable
//!   is the session-wide default).
//!
//! Three are size overrides, each honoured only by the experiments whose
//! [`Experiment::overrides`] lists it:
//!
//! * `--n <nodes>` — the overlay size.
//! * `--runs <r>` — the per-cell repetition count.
//! * `--rates <r1,r2,…>` — the arrival rates (transactions per second) of
//!   a steady-state experiment; each rate must be a finite, strictly
//!   positive number.
//!
//! Unknown experiments, unknown flags and overrides the chosen experiment
//! does not honour abort with the `--help` text: a typo silently ignored is
//! an experiment silently misconfigured.

use crate::experiments::{Experiment, EXPERIMENTS};
use crate::json::{Json, ToJson};
use crate::TrialRunner;
use std::path::PathBuf;
use std::process::{exit, ExitCode};
use std::time::Instant;

/// Parsed flags of one `fnp-bench <experiment>` invocation.
#[derive(Clone, Debug, Default)]
pub struct BinArgs {
    /// Where to write the JSON report, if requested.
    pub json: Option<PathBuf>,
    /// Worker-thread count (`0` = automatic).
    pub threads: usize,
    /// Overlay-size override.
    pub n: Option<usize>,
    /// Repetition-count override.
    pub runs: Option<usize>,
    /// Arrival-rate override (transactions per second) for steady-state
    /// experiments.
    pub rates: Option<Vec<f64>>,
}

/// Why parsing the command line stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseError {
    /// `--help`/`-h` was given; print the help text and exit successfully.
    HelpRequested,
    /// The arguments are invalid; print the message plus the help text and
    /// exit with status 2.
    Invalid(String),
}

/// Runs the `fnp-bench` command line (`args` without the program name):
/// the named experiment on success, the help text on `--help` (status 0)
/// or on a usage error (status 2).
pub fn run(args: impl Iterator<Item = String>) -> ExitCode {
    match parse_command(args) {
        Ok((experiment, args)) => {
            (experiment.run)(&args);
            ExitCode::SUCCESS
        }
        Err(ParseError::HelpRequested) => {
            print!("{}", help());
            ExitCode::SUCCESS
        }
        Err(ParseError::Invalid(message)) => {
            eprint!("error: {message}\n\n{}", help());
            ExitCode::from(2)
        }
    }
}

/// Splits the command line into the experiment it names and that
/// experiment's flags.
fn parse_command(
    mut args: impl Iterator<Item = String>,
) -> Result<(&'static Experiment, BinArgs), ParseError> {
    let name = args
        .next()
        .ok_or_else(|| ParseError::Invalid("missing experiment name".to_string()))?;
    if name == "--help" || name == "-h" {
        return Err(ParseError::HelpRequested);
    }
    let experiment = EXPERIMENTS
        .iter()
        .find(|experiment| experiment.name == name)
        .ok_or_else(|| ParseError::Invalid(format!("unknown experiment {name:?}")))?;
    Ok((experiment, BinArgs::try_parse_from(experiment, args)?))
}

/// The universal flags and the size overrides, with their `--help` lines.
const FLAGS: [(&str, &str); 5] = [
    (
        "--json <path>",
        "also write rows + wall-clock timing as JSON",
    ),
    ("--threads <n>", "worker threads (0 = all cores)"),
    ("--n <nodes>", "overlay size override, must be positive"),
    ("--runs <r>", "repetitions override, must be positive"),
    (
        "--rates <r1,r2,…>",
        "arrival rates in tx/s, each finite and positive",
    ),
];

/// The `--help` text: the flags, then the [`EXPERIMENTS`] table with the
/// size overrides each entry honours.
fn help() -> String {
    let mut text = String::from("usage: fnp-bench <experiment>");
    for (flag, _) in FLAGS {
        text.push_str(&format!(" [{flag}]"));
    }
    text.push_str("\n\n");
    for (flag, about) in FLAGS {
        text.push_str(&format!("  {flag:<18} {about}\n"));
    }
    text.push_str(
        "\n--json and --threads apply to every experiment; --n, --runs and --rates only to the\n\
         experiments that list them:\n\n",
    );
    for experiment in &EXPERIMENTS {
        text.push_str(&format!(
            "  {:<22} {:<20} {}\n",
            experiment.name,
            experiment.overrides.join(" "),
            experiment.about
        ));
    }
    text
}

impl BinArgs {
    /// Parses the flags following `fnp-bench <experiment>`, rejecting any
    /// size override `experiment` does not honour.
    fn try_parse_from(
        experiment: &Experiment,
        mut args: impl Iterator<Item = String>,
    ) -> Result<Self, ParseError> {
        let mut parsed = Self::default();
        while let Some(flag) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| ParseError::Invalid(format!("{flag} requires a value")))
            };
            match flag.as_str() {
                "--n" | "--runs" | "--rates" if !experiment.overrides.contains(&flag.as_str()) => {
                    let honoured = match experiment.overrides {
                        [] => "no size override".to_string(),
                        overrides => format!("only {}", overrides.join(", ")),
                    };
                    return Err(ParseError::Invalid(format!(
                        "{} does not take {flag}; it takes {honoured}",
                        experiment.name
                    )));
                }
                "--json" => parsed.json = Some(PathBuf::from(value("--json")?)),
                "--threads" => parsed.threads = parse_number(&value("--threads")?, "--threads")?,
                "--n" => parsed.n = Some(parse_positive(&value("--n")?, "--n")?),
                "--runs" => parsed.runs = Some(parse_positive(&value("--runs")?, "--runs")?),
                "--rates" => parsed.rates = Some(parse_rates(&value("--rates")?)?),
                "--help" | "-h" => return Err(ParseError::HelpRequested),
                other => {
                    return Err(ParseError::Invalid(format!("unknown argument {other:?}")));
                }
            }
        }
        Ok(parsed)
    }

    /// The [`TrialRunner`] these arguments select.
    #[must_use]
    pub fn runner(&self) -> TrialRunner {
        TrialRunner::new(self.threads)
    }
}

fn parse_number(text: &str, flag: &str) -> Result<usize, ParseError> {
    text.parse().map_err(|_| {
        ParseError::Invalid(format!(
            "{flag} expects a non-negative integer, got {text:?}"
        ))
    })
}

/// Like [`parse_number`], but additionally rejects zero: `--n 0` or
/// `--runs 0` would silently produce an empty/degenerate experiment.
fn parse_positive(text: &str, flag: &str) -> Result<usize, ParseError> {
    match parse_number(text, flag)? {
        0 => Err(ParseError::Invalid(format!(
            "{flag} expects a positive integer, got 0"
        ))),
        value => Ok(value),
    }
}

/// Parses a comma-separated arrival-rate list, rejecting anything
/// [`fnp_netsim::validate_rate`] rejects (NaN, infinities, zero, negative)
/// — the same convention as `--n 0`: a degenerate rate silently accepted
/// is an experiment silently misconfigured.
fn parse_rates(text: &str) -> Result<Vec<f64>, ParseError> {
    let mut rates = Vec::new();
    for part in text.split(',') {
        let rate: f64 = part
            .trim()
            .parse()
            .map_err(|_| ParseError::Invalid(format!("--rates expects numbers, got {part:?}")))?;
        fnp_netsim::validate_rate(rate)
            .map_err(|error| ParseError::Invalid(format!("--rates: {error}")))?;
        rates.push(rate);
    }
    if rates.is_empty() {
        return Err(ParseError::Invalid(
            "--rates expects at least one rate".to_string(),
        ));
    }
    Ok(rates)
}

/// Runs `body` (the experiment driver) while timing it, and writes the JSON
/// report afterwards if `--json` was given.
///
/// Returns the rows so the caller can print its human-readable table. The
/// wall clock covers only the driver call, not table printing.
pub fn with_report<T: ToJson>(
    args: &BinArgs,
    experiment: &str,
    params: Json,
    body: impl FnOnce() -> Vec<T>,
) -> Vec<T> {
    let started = Instant::now();
    let rows = body();
    let elapsed = started.elapsed();
    if let Some(path) = &args.json {
        let threads = args.runner().threads();
        crate::json::write_report(
            path,
            experiment,
            threads,
            params,
            Json::rows(&rows),
            elapsed,
        )
        .unwrap_or_else(|error| {
            eprintln!("error: failed to write {}: {error}", path.display());
            exit(1);
        });
        eprintln!(
            "wrote {} ({threads} threads, {:.1} ms)",
            path.display(),
            elapsed.as_secs_f64() * 1e3
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the command line `fnp-bench <experiment> <args>`.
    fn try_parse_for(experiment: &str, args: &[&str]) -> Result<BinArgs, ParseError> {
        let line = std::iter::once(experiment).chain(args.iter().copied());
        parse_command(line.map(str::to_string)).map(|(_, parsed)| parsed)
    }

    /// Parses flags for fig6, the experiment that honours every override.
    fn try_parse(args: &[&str]) -> Result<BinArgs, ParseError> {
        try_parse_for("fig6_steady_state", args)
    }

    fn parse(args: &[&str]) -> BinArgs {
        try_parse(args).expect("arguments should parse")
    }

    fn rejection_for(experiment: &str, args: &[&str]) -> String {
        match try_parse_for(experiment, args) {
            Err(ParseError::Invalid(message)) => message,
            other => panic!("expected a rejection for {args:?}, got {other:?}"),
        }
    }

    fn rejection(args: &[&str]) -> String {
        rejection_for("fig6_steady_state", args)
    }

    #[test]
    fn empty_args_are_defaults() {
        let args = parse(&[]);
        assert_eq!(args.json, None);
        assert_eq!(args.threads, 0);
        assert_eq!(args.n, None);
        assert_eq!(args.runs, None);
        assert!(args.runner().threads() >= 1);
    }

    #[test]
    fn all_flags_parse() {
        let args = parse(&[
            "--json",
            "out.json",
            "--threads",
            "4",
            "--n",
            "200",
            "--runs",
            "3",
        ]);
        assert_eq!(args.json, Some(PathBuf::from("out.json")));
        assert_eq!(args.threads, 4);
        assert_eq!(args.runner().threads(), 4);
        assert_eq!((args.n, args.runs), (Some(200), Some(3)));
    }

    #[test]
    fn zero_n_and_zero_runs_are_rejected() {
        // Regression: `--n 0` / `--runs 0` used to be accepted and produced
        // empty or degenerate experiments.
        assert!(rejection(&["--n", "0"]).contains("--n expects a positive integer"));
        assert!(rejection(&["--runs", "0"]).contains("--runs expects a positive integer"));
        // `--threads 0` stays legal: it means "all cores".
        assert_eq!(parse(&["--threads", "0"]).threads, 0);
    }

    #[test]
    fn rates_parse_as_a_comma_separated_list() {
        let args = parse(&["--rates", "2,8.5, 100"]);
        assert_eq!(args.rates, Some(vec![2.0, 8.5, 100.0]));
        assert_eq!(parse(&[]).rates, None);
    }

    #[test]
    fn degenerate_rates_are_rejected() {
        // Matching the `--n 0` convention: zero, negative and non-finite
        // rates abort parsing instead of producing an empty experiment.
        assert!(rejection(&["--rates", "0"]).contains("strictly positive"));
        assert!(rejection(&["--rates", "2,-1"]).contains("strictly positive"));
        assert!(rejection(&["--rates", "NaN"]).contains("not a finite number"));
        assert!(rejection(&["--rates", "inf"]).contains("not a finite number"));
        assert!(rejection(&["--rates", "fast"]).contains("expects numbers"));
        assert!(rejection(&["--rates", ""]).contains("expects numbers"));
        assert!(rejection(&["--rates"]).contains("--rates requires a value"));
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(rejection(&["--n", "many"]).contains("non-negative integer"));
        assert!(rejection(&["--runs", "-3"]).contains("non-negative integer"));
        assert!(rejection(&["--threads", "x"]).contains("--threads"));
    }

    #[test]
    fn missing_values_and_unknown_flags_are_rejected() {
        assert!(rejection(&["--n"]).contains("--n requires a value"));
        assert!(rejection(&["--json"]).contains("--json requires a value"));
        assert!(rejection(&["--frobnicate"]).contains("unknown argument"));
    }

    #[test]
    fn overrides_an_experiment_does_not_honour_are_rejected() {
        // Regression: `tab3_group_overlap --n 7 --runs 3 --rates 2.5` used
        // to exit 0 with the same output as no flags at all.
        for flag in ["--n", "--runs", "--rates"] {
            for experiment in [
                "tab3_group_overlap",
                "fig4_dcnet_cost",
                "tab5_dissent_startup",
            ] {
                let message = rejection_for(experiment, &[flag, "3"]);
                assert_eq!(
                    message,
                    format!("{experiment} does not take {flag}; it takes no size override")
                );
            }
        }
        assert_eq!(
            rejection_for("fig1_landscape", &["--n", "60", "--rates", "2.5"]),
            "fig1_landscape does not take --rates; it takes only --n, --runs"
        );
        assert_eq!(
            rejection_for("large_n_flood", &["--runs", "2"]),
            "large_n_flood does not take --runs; it takes only --n"
        );
        // The flag that replaced nothing: `--large-n` is simply unknown.
        assert!(rejection_for("large_n_flood", &["--large-n", "9"]).contains("unknown argument"));
        // The universal flags and the honoured overrides still parse.
        let args = try_parse_for("tab3_group_overlap", &["--threads", "2", "--json", "x"]).unwrap();
        assert_eq!((args.threads, args.json), (2, Some(PathBuf::from("x"))));
        assert_eq!(
            try_parse_for("large_n_flood", &["--n", "9"]).unwrap().n,
            Some(9)
        );
    }

    #[test]
    fn missing_and_unknown_experiments_are_rejected() {
        let no_args: [String; 0] = [];
        assert_eq!(
            parse_command(no_args.into_iter()).err(),
            Some(ParseError::Invalid("missing experiment name".to_string()))
        );
        assert!(rejection_for("fig9_nope", &[]).contains("unknown experiment \"fig9_nope\""));
        // Old flag-first invocations name no experiment either.
        assert!(rejection_for("--n", &["60"]).contains("unknown experiment"));
    }

    #[test]
    fn help_lists_every_experiment_with_its_overrides() {
        let text = help();
        for experiment in &EXPERIMENTS {
            let line = text
                .lines()
                .find(|line| line.split_whitespace().next() == Some(experiment.name))
                .unwrap_or_else(|| panic!("{} missing from --help", experiment.name));
            for flag in ["--n", "--runs", "--rates"] {
                assert_eq!(
                    line.split_whitespace().any(|word| word == flag),
                    experiment.overrides.contains(&flag),
                    "{line}"
                );
            }
        }
        for (flag, _) in FLAGS {
            assert!(text.contains(flag), "{flag} missing from --help");
        }
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(matches!(
            try_parse(&["--help"]),
            Err(ParseError::HelpRequested)
        ));
        assert!(matches!(try_parse(&["-h"]), Err(ParseError::HelpRequested)));
        assert!(matches!(
            try_parse_for("--help", &[]),
            Err(ParseError::HelpRequested)
        ));
    }
}
