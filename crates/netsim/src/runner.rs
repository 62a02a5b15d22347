//! Parallel trial execution.
//!
//! Every experiment in the evaluation repeats one simulated broadcast over
//! many independent seeds and aggregates the per-run results. The runs are
//! embarrassingly parallel — each one owns its overlay, its simulator and
//! its RNG — so this module fans them out over [`std::thread::scope`]
//! worker threads while keeping the *aggregate* bit-for-bit identical to a
//! sequential execution:
//!
//! * results are returned **in plan order** (trial 0 first), regardless of
//!   which worker finished first, and
//! * each trial derives its own seed deterministically from the plan's base
//!   seed via [`derive_seed`], never from shared mutable RNG state.
//!
//! The experiment drivers in `fnp-bench` route every per-run loop through
//! [`TrialRunner::run`]; forcing `threads = 1` reproduces the sequential
//! path exactly, which the cross-crate determinism tests assert.
//!
//! # Examples
//!
//! ```
//! use fnp_netsim::runner::TrialRunner;
//!
//! let runner = TrialRunner::new(4);
//! let squares = runner.run(8, |trial| trial * trial);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use crate::arena::TrialArena;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count of
/// [`TrialRunner::auto`] (`0` or unset = use all available cores).
pub const THREADS_ENV: &str = "FNP_THREADS";

/// Derives the seed of one trial from a plan-wide base seed.
///
/// Uses the splitmix64 finalizer, so neighbouring trial indices map to
/// statistically independent seeds and the derivation is stable across
/// platforms and releases (experiment outputs depend on it).
#[must_use]
pub fn derive_seed(base_seed: u64, trial: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(trial.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A two-level trial grid: `cells` experiment cells × `runs` repetitions
/// per cell, flattened into one plan so that every worker stays busy even
/// when `runs` is smaller than the thread count.
///
/// Grid experiments used to parallelise only the `runs` *inside* one
/// (protocol × parameter) cell, leaving workers idle between cells; a
/// `GridPlan` hands the whole cell×run cross product to one
/// [`TrialRunner::run_grid`] call while the results still come back grouped
/// per cell, in cell order — byte-identical aggregation to the nested
/// loops it replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridPlan {
    /// Number of experiment cells.
    pub cells: usize,
    /// Repetitions per cell.
    pub runs: usize,
}

impl GridPlan {
    /// Creates a plan of `cells` cells with `runs` trials each.
    #[must_use]
    pub fn new(cells: usize, runs: usize) -> Self {
        Self { cells, runs }
    }

    /// Total number of trials in the flattened grid.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.cells * self.runs
    }

    /// Maps a flat trial index back to its `(cell, run)` coordinates.
    ///
    /// Trials are laid out cell-major: cell 0's runs first, then cell 1's,
    /// matching the nested `for cell { for run { … } }` order.
    #[must_use]
    pub fn coordinates(&self, trial: usize) -> (usize, usize) {
        (trial / self.runs, trial % self.runs)
    }
}

/// Fans independent trials out over scoped worker threads.
///
/// The runner is deliberately free of external dependencies: workers are
/// plain [`std::thread::scope`] threads pulling trial indices off a shared
/// atomic cursor, and results land in a slot vector indexed by trial, so
/// the returned `Vec` is always in plan order.
#[derive(Clone, Copy, Debug)]
pub struct TrialRunner {
    threads: usize,
    /// When set, every trial gets a brand-new [`TrialArena`] instead of
    /// reusing its worker's — the reference point the arena-determinism
    /// suite compares reuse against.
    fresh_arenas: bool,
}

impl Default for TrialRunner {
    fn default() -> Self {
        Self::auto()
    }
}

impl TrialRunner {
    /// Creates a runner using exactly `threads` worker threads
    /// (`0` = automatic, see [`TrialRunner::auto`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        if threads == 0 {
            Self::auto()
        } else {
            Self {
                threads,
                fresh_arenas: false,
            }
        }
    }

    /// Disables per-worker arena reuse: every trial of this runner receives
    /// a freshly allocated [`TrialArena`].
    ///
    /// Arena reuse must be observationally invisible, so this runner always
    /// produces the same results as the reusing one — that equivalence is
    /// exactly what the `arena_determinism` integration suite asserts, with
    /// this mode as the untainted reference.
    #[must_use]
    pub fn with_fresh_arenas(mut self) -> Self {
        self.fresh_arenas = true;
        self
    }

    /// A runner sized to the machine: the `FNP_THREADS` environment
    /// variable if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn auto() -> Self {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        let threads = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Self {
            threads,
            fresh_arenas: false,
        }
    }

    /// A runner that executes every trial on the calling thread, in order.
    #[must_use]
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            fresh_arenas: false,
        }
    }

    /// Number of worker threads this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `trials` invocations of `f` (one per trial index `0..trials`)
    /// and returns their results **in plan order**.
    ///
    /// `f` must be a pure function of the trial index (plus captured
    /// immutable state): it runs concurrently on multiple threads and must
    /// not rely on execution order. Panics in any trial propagate to the
    /// caller once all workers have stopped.
    pub fn run<T, F>(&self, trials: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with_arena(trials, |_, trial| f(trial))
    }

    /// Runs `trials` invocations of `f` like [`TrialRunner::run`], but
    /// hands each invocation the *reusable* [`TrialArena`] of the worker
    /// executing it.
    ///
    /// Each worker thread owns exactly one arena for the whole batch, so
    /// consecutive trials on the same worker reuse each other's overlay,
    /// queue, metrics and node-storage allocations instead of rebuilding
    /// them. Arena reuse is observationally invisible: trial results must
    /// not (and, asserted by the arena-determinism suite, do not) depend on
    /// which worker — and therefore which arena history — executed them.
    pub fn run_with_arena<T, F>(&self, trials: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut TrialArena, usize) -> T + Sync,
    {
        let workers = self.threads.min(trials);
        if workers <= 1 {
            let mut arena = TrialArena::new();
            return (0..trials)
                .map(|trial| {
                    if self.fresh_arenas {
                        arena = TrialArena::new();
                    }
                    f(&mut arena, trial)
                })
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..trials).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut arena = TrialArena::new();
                    loop {
                        let trial = cursor.fetch_add(1, Ordering::Relaxed);
                        if trial >= trials {
                            break;
                        }
                        if self.fresh_arenas {
                            arena = TrialArena::new();
                        }
                        let result = f(&mut arena, trial);
                        *slots[trial].lock().expect("trial slot poisoned") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("trial slot poisoned")
                    .expect("every trial index is claimed exactly once")
            })
            .collect()
    }

    /// Runs the flattened cell×run grid of `plan`, passing `f` the worker's
    /// arena and the trial's `(cell, run)` coordinates, and returns the
    /// results grouped per cell (outer index = cell, inner = run), in plan
    /// order.
    ///
    /// This keeps every worker busy across cell boundaries — with 8 workers
    /// and `runs = 4`, two cells are in flight at once — while the caller
    /// still aggregates cell by cell exactly as with nested per-cell runs.
    pub fn run_grid<T, F>(&self, plan: GridPlan, f: F) -> Vec<Vec<T>>
    where
        T: Send,
        F: Fn(&mut TrialArena, usize, usize) -> T + Sync,
    {
        if plan.runs == 0 {
            return (0..plan.cells).map(|_| Vec::new()).collect();
        }
        let mut flat = self
            .run_with_arena(plan.trials(), |arena, trial| {
                let (cell, run) = plan.coordinates(trial);
                f(arena, cell, run)
            })
            .into_iter();
        (0..plan.cells)
            .map(|_| flat.by_ref().take(plan.runs).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_plan_order() {
        for threads in [1, 2, 4, 7] {
            let runner = TrialRunner::new(threads);
            let out = runner.run(25, |i| i * 3);
            assert_eq!(out, (0..25).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let work = |trial: usize| {
            // A deterministic, seed-dependent computation standing in for a
            // simulation run.
            let seed = derive_seed(42, trial as u64);
            (0..100u64).fold(seed, |acc, i| {
                acc.rotate_left(7)
                    .wrapping_mul(i | 1)
                    .wrapping_add(trial as u64)
            })
        };
        let sequential = TrialRunner::sequential().run(40, work);
        for threads in [2, 4, 8] {
            assert_eq!(TrialRunner::new(threads).run(40, work), sequential);
        }
    }

    #[test]
    fn zero_and_one_trials_work() {
        let runner = TrialRunner::new(4);
        assert_eq!(runner.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(runner.run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let runner = TrialRunner::new(64);
        assert_eq!(runner.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        // Pinned values: experiment outputs depend on this derivation.
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|t| derive_seed(7, t)).collect();
        assert_eq!(seeds.len(), 1000, "derived seeds must not collide");
    }

    #[test]
    fn grid_plan_coordinates_are_cell_major() {
        let plan = GridPlan::new(3, 4);
        assert_eq!(plan.trials(), 12);
        assert_eq!(plan.coordinates(0), (0, 0));
        assert_eq!(plan.coordinates(3), (0, 3));
        assert_eq!(plan.coordinates(4), (1, 0));
        assert_eq!(plan.coordinates(11), (2, 3));
    }

    #[test]
    fn run_grid_groups_results_per_cell_in_order() {
        for threads in [1, 2, 4, 7] {
            let runner = TrialRunner::new(threads);
            let grouped = runner.run_grid(GridPlan::new(3, 2), |_, cell, run| (cell, run));
            assert_eq!(
                grouped,
                vec![
                    vec![(0, 0), (0, 1)],
                    vec![(1, 0), (1, 1)],
                    vec![(2, 0), (2, 1)],
                ]
            );
        }
    }

    #[test]
    fn run_grid_with_zero_runs_or_cells_is_empty() {
        let runner = TrialRunner::new(2);
        let no_runs: Vec<Vec<u32>> = runner.run_grid(GridPlan::new(3, 0), |_, _, _| 0);
        assert_eq!(no_runs, vec![Vec::new(), Vec::new(), Vec::new()]);
        let no_cells: Vec<Vec<u32>> = runner.run_grid(GridPlan::new(0, 5), |_, _, _| 0);
        assert!(no_cells.is_empty());
    }

    #[test]
    fn arena_reuse_does_not_change_results() {
        // The same workload through the arena-reusing path and the plain
        // path; the worker arenas are exercised (graph + nodes + metrics)
        // and the results must be identical across thread counts.
        let work = |arena: &mut TrialArena, trial: usize| {
            let mut graph = arena.graph(4 + trial % 3);
            for i in 1..graph.node_count() {
                graph.add_edge(crate::node::NodeId::new(i - 1), crate::node::NodeId::new(i));
            }
            let edges = graph.edge_count();
            arena.store_graph(graph);
            edges * 10 + trial
        };
        let sequential = TrialRunner::sequential().run_with_arena(20, work);
        for threads in [2, 4] {
            assert_eq!(
                TrialRunner::new(threads).run_with_arena(20, work),
                sequential
            );
        }
    }

    #[test]
    fn new_zero_means_auto() {
        assert!(TrialRunner::new(0).threads() >= 1);
        assert_eq!(TrialRunner::new(3).threads(), 3);
        assert_eq!(TrialRunner::sequential().threads(), 1);
    }
}
