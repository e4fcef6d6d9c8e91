//! The repository benchmark's workloads, probes and report format
//! (the binary is a thin argument parser over [`run_workload`]).

pub mod calib;
pub mod common;
pub mod direct;
pub mod layers;
pub mod plan;
pub mod probes;
pub mod report;
pub mod setup;
pub mod sweep;
pub mod workloads;

use std::path::Path;

use common::Tracer;
use plan::Scale;
use report::Outcome;

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["closed-paper", "openloop-knee", "sweep-grid"];

/// Runs `workload` (one of [`WORKLOADS`]) for about `seconds` of
/// measurement; `work` is a scratch directory for sweep stores.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    tracer: &Tracer,
    work: &Path,
) -> Outcome {
    match workload {
        "closed-paper" => workloads::closed_paper(seed, seconds, scale, tracer),
        "openloop-knee" => workloads::openloop_knee(seed, seconds, scale, tracer),
        "sweep-grid" => sweep::sweep_grid(seed, seconds, scale, tracer, work),
        other => panic!("unknown workload {other}"),
    }
}
