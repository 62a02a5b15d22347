//! `fnp-bench <experiment> [flags]`: regenerates the data behind one of the
//! paper's figures or tables. `fnp-bench --help` lists the experiments.

use std::process::ExitCode;

fn main() -> ExitCode {
    fnp_bench::cli::run(std::env::args().skip(1))
}
