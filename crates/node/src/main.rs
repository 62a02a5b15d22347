//! The `fnp-node` binary: read events line by line, print effect lines.
//!
//! See the crate docs ([`fnp_node`]) for the wire protocol. Framing rules:
//! one JSON object per line, output flushed after every input event (a
//! harness may block on our output before sending the next event), blank
//! lines ignored, EOF treated like `shutdown` without the `done`
//! acknowledgement. Malformed input is a fatal protocol error: the message
//! goes to stderr and the process exits with status 1, so a broken harness
//! fails loudly instead of deadlocking.

use fnp_node::runtime::Disposition;
use fnp_node::{wire, NodeRuntime};
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut output = stdout.lock();
    let mut runtime = NodeRuntime::new();
    let mut input = stdin.lock();
    // One buffer for every event line, one for every batch of output lines.
    let mut line = String::new();
    let mut lines = Vec::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => return ExitCode::SUCCESS,
            Ok(_) => {}
            Err(error) => {
                eprintln!("fnp-node: stdin read failed: {error}");
                return ExitCode::FAILURE;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let event = match wire::parse_event(&line) {
            Ok(event) => event,
            Err(error) => {
                eprintln!("fnp-node: {error}");
                return ExitCode::FAILURE;
            }
        };
        lines.clear();
        let disposition = match runtime.handle(event, &mut lines) {
            Ok(disposition) => disposition,
            Err(error) => {
                eprintln!("fnp-node: {error}");
                return ExitCode::FAILURE;
            }
        };
        for out_line in &lines {
            if writeln!(output, "{out_line}").is_err() {
                return ExitCode::FAILURE;
            }
        }
        if output.flush().is_err() {
            return ExitCode::FAILURE;
        }
        if disposition == Disposition::Exit {
            return ExitCode::SUCCESS;
        }
    }
}
