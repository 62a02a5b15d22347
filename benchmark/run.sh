#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T | --units N] [--trace 0|1]
#
# Builds fnp-perf in release mode, then runs each workload (or just W) in
# its own process, one after another, never concurrently. Every metric is
# printed by name with its unit; the last stdout line of each workload is
# its result as one JSON object; benchmark/out/ keeps the full reports.
# See benchmark/README.md.
set -euo pipefail

# Run from the repo root, so cargo inherits the repo's .cargo/config.toml
# (target-cpu=native) and a relative CARGO_TARGET_DIR means what the caller
# meant.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

build() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml "$@" >&2
}
# --locked first. The lock file names path crates only, so it goes stale
# only when a crate under crates/ gains or loses a dependency; such a change
# cannot edit this directory, and the benchmark must still measure it.
build --locked || {
    echo "run.sh: benchmark/Cargo.lock is stale; building without --locked" >&2
    build
}
perf="$CARGO_TARGET_DIR/release/fnp-perf"

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--workload" ]]; then
        workload="${args[i + 1]:-}"
    fi
done

if [[ -n "$workload" ]]; then
    exec "$perf" run "$@"
fi
for workload in flood_large paper_grid steady_mix dcnet_rounds node_wire; do
    "$perf" run --workload "$workload" "$@"
done
