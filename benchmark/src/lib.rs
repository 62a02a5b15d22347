//! # fnp-perf — the repo benchmark
//!
//! Five workloads, each run in its own process, measured from outside the
//! crates by timing calls into their public functions. `README.md` in this
//! directory holds the metric tables and explains why each workload exists;
//! `BENCHMARK.json` at the repo root fixes the names and regression bounds.
//!
//! Every repo symbol the benchmark names is imported through [`api`], so an
//! API change in the crates is a one-file change here.

#![warn(missing_docs)]

pub mod alloc;
pub mod api;
pub mod compare;
pub mod harness;
pub mod host;
pub mod schema;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Counts bytes requested while [`alloc::count`] runs; a relaxed flag load
/// per allocation otherwise.
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
