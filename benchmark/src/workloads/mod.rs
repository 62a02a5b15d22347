//! The five workloads. Each module's docs say which layer does the work
//! there and which does none; `README.md` has the same table.

pub mod dcnet_rounds;
pub mod flood_large;
pub mod node_wire;
pub mod paper_grid;
pub mod steady_mix;

use crate::harness::{run_traced, run_untraced, Options, Report, Workload};

fn run_one<W: Workload>(options: &Options) -> std::io::Result<Report> {
    if options.trace {
        run_traced::<W>(options)
    } else {
        Ok(run_untraced::<W>(options))
    }
}

/// Runs workload `name`; `None` if there is no such workload.
///
/// # Errors
///
/// Fails if a traced run cannot write its trace file.
pub fn run(name: &str, options: &Options) -> Option<std::io::Result<Report>> {
    Some(match name {
        flood_large::FloodLarge::NAME => run_one::<flood_large::FloodLarge>(options),
        paper_grid::PaperGrid::NAME => run_one::<paper_grid::PaperGrid>(options),
        steady_mix::SteadyMix::NAME => run_one::<steady_mix::SteadyMix>(options),
        dcnet_rounds::DcnetRounds::NAME => run_one::<dcnet_rounds::DcnetRounds>(options),
        node_wire::NodeWire::NAME => run_one::<node_wire::NodeWire>(options),
        _ => return None,
    })
}

/// Wall-clock of `f` per iteration over `iterations` calls, in nanoseconds:
/// the microloop behind the probe legs.
pub(crate) fn ns_per_iteration(iterations: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = std::time::Instant::now();
    for iteration in 0..iterations {
        f(iteration);
    }
    start.elapsed().as_nanos() as f64 / iterations as f64
}
