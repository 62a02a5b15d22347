//! `fnp-perf` — command-line front of the repo benchmark; `run.sh` builds
//! and calls it. See `README.md` in this directory.

use fnp_perf::api::Json;
use fnp_perf::compare::{compare, table, Verdict};
use fnp_perf::harness::{Options, Report};
use fnp_perf::schema::{self, WORKLOADS};
use fnp_perf::{host, workloads};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  fnp-perf run --workload <name> [--seed <n>] [--seconds <s> | --units <n>] [--trace <0|1>] [--out <dir>]
  fnp-perf compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
  fnp-perf aa [--sets <n>] [--runs <n>] [--seconds <s>] [--out <dir>] [--benchmark <BENCHMARK.json>]
  fnp-perf schema";

/// `--flag value` pairs and positional arguments of one invocation.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>, known: &[&str]) -> Result<Self, String> {
        let mut parsed = Self {
            flags: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) if known.contains(&flag) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    parsed.flags.insert(flag.to_string(), value);
                }
                Some(flag) => return Err(format!("unknown flag --{flag}")),
                None => parsed.positional.push(arg),
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(value) => value
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {value:?}")),
            None => Ok(default),
        }
    }

    fn path(&self, flag: &str, default: &str) -> PathBuf {
        PathBuf::from(self.flags.get(flag).map_or(default, String::as_str))
    }
}

const DEFAULT_OUT: &str = "benchmark/out";
const DEFAULT_BENCHMARK: &str = "BENCHMARK.json";

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The report as `out/<workload>.json` holds it: the detail plus the
/// metrics, shaped like one run of a set file so `compare` reads both.
fn file_json(report: &Report) -> Json {
    let Json::Obj(mut pairs) = report.detail.clone() else {
        unreachable!("the harness builds an object");
    };
    pairs.push(("metrics".to_string(), report.metrics_json()));
    Json::Obj(pairs)
}

fn run(args: Args, process_start: Instant) -> Result<ExitCode, String> {
    let name = args.flags.get("workload").ok_or("run needs --workload")?;
    let trace = match args.get::<u8>("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let options = Options {
        seed: args.get("seed", 1)?,
        seconds: args.get("seconds", schema::RUN_SECONDS as f64)?,
        units: args
            .flags
            .get("units")
            .map(|_| args.get("units", 0))
            .transpose()?,
        trace,
        out_dir: args.path("out", DEFAULT_OUT),
        process_start,
    };

    // One workload at a time: two would share the cores and both read wrong.
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;
    let lock_path = options.out_dir.join(".lock");
    let lock =
        std::fs::File::create(&lock_path).map_err(|e| format!("{}: {e}", lock_path.display()))?;
    lock.try_lock().map_err(|_| {
        format!(
            "another workload is running ({} is locked)",
            lock_path.display()
        )
    })?;

    let report = workloads::run(name, &options)
        .ok_or_else(|| format!("no workload named {name:?}"))?
        .map_err(|e| format!("writing the trace: {e}"))?;
    let suffix = if trace { ".traced" } else { "" };
    let path = options.out_dir.join(format!("{name}{suffix}.json"));
    std::fs::write(&path, file_json(&report).to_pretty_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "# {name}, seed {}, {}",
        options.seed,
        if trace { "traced" } else { "untraced" }
    );
    for &(metric, value, unit) in &report.metrics {
        println!("{metric:<44} {value:>18.6} {unit}");
    }
    let failed = report.failures.len() as f64 / report.attempted as f64;
    println!(
        "{:<44} {failed:>18.6} share ({} of {} units)",
        "failed_share",
        report.failures.len(),
        report.attempted
    );
    for failure in &report.failures {
        eprintln!("failed: {failure}");
    }
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let benchmark = read_json(&args.path("benchmark", DEFAULT_BENCHMARK))?;
    let rows = compare(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &benchmark,
    )?;
    print!("{}", table(&rows));
    let worse = rows
        .iter()
        .filter(|row| row.verdict == Verdict::Worse)
        .count();
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process of this same binary and returns the
/// run as a set-file entry.
fn child_run(workload: &str, seed: u64, seconds: f64, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let Json::Obj(mut run) = Json::parse(line).map_err(|e| format!("{workload}: {e}"))? else {
        return Err(format!("{workload}: last line is not an object"));
    };
    run.insert(0, ("workload".to_string(), Json::from(workload)));
    run.insert(1, ("seed".to_string(), Json::from(seed)));
    Ok(Json::Obj(run))
}

/// A/A: the same build measured as two (or more) interleaved sets; set 0 is
/// the base every other set is compared against.
fn aa(args: Args) -> Result<ExitCode, String> {
    let sets: usize = args.get("sets", 2)?;
    let runs: u64 = args.get("runs", 5)?;
    let seconds: f64 = args.get("seconds", schema::RUN_SECONDS as f64)?;
    if sets < 2 || runs == 0 {
        return Err("aa needs --sets ≥ 2 and --runs ≥ 1".to_string());
    }
    let out = args.path("out", DEFAULT_OUT);
    let benchmark = read_json(&args.path("benchmark", DEFAULT_BENCHMARK))?;
    let mut results: Vec<Vec<Json>> = vec![Vec::new(); sets];
    for run in 0..runs {
        // Alternate which set goes first, so drift over the session lands
        // on every set alike.
        let mut order: Vec<usize> = (0..sets).collect();
        order.rotate_left(run as usize % sets);
        for set in order {
            for workload in &WORKLOADS {
                eprintln!("aa: set {set}, run {run}, {}", workload.name);
                results[set].push(child_run(workload.name, run + 1, seconds, &out)?);
            }
        }
    }
    let host = host::describe();
    let files: Vec<Json> = results
        .into_iter()
        .map(|runs| Json::obj([("host", host.clone()), ("runs", Json::Arr(runs))]))
        .collect();
    for (set, file) in files.iter().enumerate() {
        let path = out.join(format!("aa-set{set}.json"));
        std::fs::write(&path, file.to_pretty_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let field = |key| {
        host.get(key)
            .map_or_else(|| "unknown".to_string(), Json::to_compact_string)
    };
    println!(
        "Host: nproc {}, cpu {}, {}, git {}.",
        field("nproc"),
        field("cpu"),
        field("rustc"),
        field("git")
    );
    println!("{sets} sets × {runs} runs (seeds 1..={runs}) × {seconds} s per workload, sets interleaved.\n");
    let mut clean = true;
    for (set, file) in files.iter().enumerate().skip(1) {
        let rows = compare(&files[0], file, &benchmark)?;
        println!("### set {set} against set 0\n\n{}", table(&rows));
        clean &= rows
            .iter()
            .all(|row| matches!(row.verdict, Verdict::Better | Verdict::WithinBound));
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut args = std::env::args().skip(1);
    let command = args.next();
    let result = match command.as_deref() {
        Some("run") => Args::parse(
            args,
            &["workload", "seed", "seconds", "units", "trace", "out"],
        )
        .and_then(|args| run(args, process_start)),
        Some("compare") => Args::parse(args, &["benchmark"]).and_then(compare_files),
        Some("aa") => {
            Args::parse(args, &["sets", "runs", "seconds", "out", "benchmark"]).and_then(aa)
        }
        Some("schema") => {
            print!("{}", schema::benchmark_json().to_pretty_string());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|error| {
        eprintln!("fnp-perf: {error}");
        ExitCode::from(2)
    })
}
