//! Where a result was measured: recorded in every output file, because a
//! wall-clock number only compares against one from the same host and build.

use crate::api::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    Some(text.trim().to_string()).filter(|line| !line.is_empty())
}

fn cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `git describe --always --dirty`, `nproc`, CPU model and `rustc -V`, each
/// `"unknown"` where the host does not say (a checkout without `.git`).
#[must_use]
pub fn describe() -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Json::obj([
        (
            "git",
            Json::from(
                command_line("git", &["describe", "--always", "--dirty"]).unwrap_or_else(unknown),
            ),
        ),
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::from(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
    ])
}

/// Restarts the kernel's peak-RSS watermark (`VmHWM`) from the current
/// resident set, so the next [`peak_rss_mb`] covers one unit. Where the
/// kernel refuses (`/proc/self/clear_refs` absent or read-only) the
/// watermark keeps covering the whole process; every unit then reads the
/// lifetime peak, on every run alike.
pub fn restart_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last
/// [`restart_peak_rss`] (`VmHWM`), in MB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line: the benchmark is
/// Linux-only and must not report a made-up footprint.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
