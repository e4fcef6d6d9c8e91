//! The set-up phase every workload shares: plan the jobs, run the lint
//! gate (`lint_jobs` + `mech::gate_jobs`) and prepare whatever the
//! first simulated cycle needs. It is repeated `setup_reps` times and
//! `setup_s` is the median, each repetition calibrated by a kernel
//! timed right after it (set-up is over within the run's first
//! seconds, so the run-wide host slowdown says little about it).

use std::time::Instant;

use rop_sim_system::SweepJob;

use crate::common::{median, secs, timed, Tracer};
use crate::plan::Scale;

#[derive(Debug, Clone)]
pub struct Setup {
    /// Median wall seconds of one whole set-up.
    pub median_s: f64,
    /// Host slowdown over the set-ups: `median_s` over the median of
    /// each set-up's time calibrated by a kernel run right after it.
    pub slowdown: f64,
    /// Median seconds in `lint_jobs` (config rule catalog).
    pub lint_s: f64,
    /// Median seconds in `mech::gate_jobs` (refresh-mechanism model check).
    pub mech_s: f64,
    /// Median seconds in the workload's own preparation step.
    pub prepare_s: f64,
    /// Lint gate findings (empty when clean).
    pub findings: Vec<String>,
}

pub fn setup<T>(
    plan: &impl Fn() -> Vec<SweepJob>,
    scale: Scale,
    tracer: &Tracer,
    prepare: impl Fn(&[SweepJob]) -> Option<T>,
) -> (Setup, Vec<SweepJob>, Option<T>) {
    let mut totals = Vec::new();
    let mut calibrated = Vec::new();
    let mut lints = Vec::new();
    let mut mechs = Vec::new();
    let mut preps = Vec::new();
    let mut findings = Vec::new();
    let mut kept = None;
    let mut jobs = Vec::new();
    for _ in 0..scale.setup_reps.max(1) {
        drop(kept.take());
        findings.clear();
        let t0 = Instant::now();
        jobs = tracer.span("sim.plan", plan);
        let (grid, lint_s) = timed(|| tracer.span("lint.lint_jobs", || rop_lint::lint_jobs(&jobs)));
        if !grid.clean() {
            findings.push(grid.render());
        }
        let (gate, mech_s) =
            timed(|| tracer.span("lint.gate_jobs", || rop_lint::mech::gate_jobs(&jobs)));
        if let Err(e) = gate {
            findings.push(e);
        }
        let (prepared, prep_s) = timed(|| prepare(&jobs));
        kept = prepared;
        let total = secs(t0);
        totals.push(total);
        calibrated.push(total * crate::calib::NOMINAL_KERNEL_S / crate::calib::kernel_s());
        lints.push(lint_s);
        mechs.push(mech_s);
        preps.push(prep_s);
    }
    let setup = Setup {
        median_s: median(&totals),
        slowdown: median(&totals) / median(&calibrated),
        lint_s: median(&lints),
        mech_s: median(&mechs),
        prepare_s: median(&preps),
        findings,
    };
    (setup, jobs, kept)
}
