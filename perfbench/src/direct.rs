//! closed-paper and openloop-knee: simulations built and run one at a
//! time through the simulator's public API (`System::new` +
//! `run_until`, `OpenLoopSystem::new` + `run`), no harness involved.

use std::time::Instant;

use rop_memctrl::{MemController, MemCtrlStats};
use rop_sim_system::{OpenLoopSystem, RunMetrics, SweepJob, System};

use crate::common::{median, secs, timed, Digest, Tracer};
use crate::plan::Scale;
use crate::setup::{setup, Setup};

/// A built simulation of either kind.
pub enum Sim {
    Closed(Box<System>),
    Open(Box<OpenLoopSystem>),
}

impl Sim {
    pub fn new(job: &SweepJob) -> Sim {
        if job.config.open_loop.is_some() {
            Sim::Open(Box::new(OpenLoopSystem::new(job.config.clone())))
        } else {
            Sim::Closed(Box::new(System::new(job.config.clone())))
        }
    }

    pub fn enable_audit(&mut self) {
        match self {
            Sim::Closed(s) => s.enable_audit(),
            Sim::Open(s) => s.enable_audit(),
        }
    }

    pub fn run(&mut self, job: &SweepJob) -> RunMetrics {
        match self {
            Sim::Closed(s) => s.run_until(job.spec.instructions, job.spec.max_cycles),
            Sim::Open(s) => s.run(),
        }
    }

    pub fn controller(&self) -> &MemController {
        match self {
            Sim::Closed(s) => s.controller(),
            Sim::Open(s) => s.controller(),
        }
    }
}

/// What the benchmark reads back from one finished job (first pass).
#[derive(Debug, Clone)]
pub struct JobObs {
    pub metrics: RunMetrics,
    pub ctrl: MemCtrlStats,
    pub read_queue_len: usize,
    /// Σ over ranks of the ROP engines' (prefetch, skip) decisions.
    pub rop_decisions: (u64, u64),
}

/// Host seconds one job spent in one pass.
#[derive(Debug, Clone, Copy)]
pub struct JobTime {
    /// In `System::new` / `OpenLoopSystem::new`.
    pub new_s: f64,
    /// In `run_until` / `run`.
    pub run_s: f64,
    /// The calibration kernel's time, the mean of one run right before
    /// and one right after the job.
    pub calib_s: f64,
}

/// Reads a run delivered: completed open-loop reads, or the reads the
/// cores sent past the LLC.
pub fn sim_reads(m: &RunMetrics) -> u64 {
    match &m.open_loop {
        Some(ol) => ol.read_latency.count(),
        None => m.cores.iter().map(|c| c.read_misses).sum(),
    }
}

pub struct DirectRun {
    pub setup: Setup,
    pub jobs: Vec<SweepJob>,
    pub first: Vec<JobObs>,
    /// `times[pass][job]`.
    pub times: Vec<Vec<JobTime>>,
    pub digest: Digest,
    /// Passes whose simulated output differed from the first pass.
    pub divergent_passes: usize,
    /// Jobs that panicked (each counted once per pass it failed in).
    pub panicked: Vec<String>,
}

impl DirectRun {
    /// Σ over jobs of the median over passes of `f` — host-speed swings
    /// last well under a pass, so medians keep one slow moment from
    /// moving the whole figure. When `calibrated`, each sample is first
    /// divided by the host slowdown measured around that job.
    fn job_medians(&self, f: impl Fn(&JobTime) -> f64, calibrated: bool) -> f64 {
        let scale = |t: &JobTime| {
            if calibrated {
                crate::calib::NOMINAL_KERNEL_S / t.calib_s
            } else {
                1.0
            }
        };
        (0..self.first.len())
            .map(|j| {
                median(
                    &self
                        .times
                        .iter()
                        .map(|p| f(&p[j]) * scale(&p[j]))
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    }

    /// Σ median run seconds over jobs: the host cost of one pass's
    /// simulation calls.
    pub fn run_s(&self) -> f64 {
        self.job_medians(|t| t.run_s, false)
    }

    pub fn points_per_s(&self, calibrated: bool) -> f64 {
        self.first.len() as f64 / self.job_medians(|t| t.new_s + t.run_s, calibrated)
    }

    pub fn mcycles_per_s(&self, calibrated: bool) -> f64 {
        let cycles: u64 = self.first.iter().map(|o| o.metrics.total_cycles).sum();
        cycles as f64 / self.job_medians(|t| t.run_s, calibrated) / 1e6
    }

    pub fn kreads_per_s(&self, calibrated: bool) -> f64 {
        let reads: u64 = self.first.iter().map(|o| sim_reads(&o.metrics)).sum();
        reads as f64 / self.job_medians(|t| t.run_s, calibrated) / 1e3
    }

    /// Host slowdown against the calibration nominal over this run.
    pub fn slowdown(&self) -> f64 {
        crate::calib::slowdown(
            &self
                .times
                .iter()
                .flatten()
                .map(|t| t.calib_s)
                .collect::<Vec<_>>(),
        )
    }

    pub fn passes(&self) -> usize {
        self.times.len()
    }

    pub fn attempted(&self) -> usize {
        self.jobs.len() * self.passes()
    }
}

/// Builds every job's simulation (one `System::new`/`OpenLoopSystem::new`
/// span each), with the seconds each build took.
pub fn build_all(jobs: &[SweepJob], tracer: &Tracer) -> Vec<(Sim, f64)> {
    jobs.iter()
        .map(|j| timed(|| tracer.span("sim.new", || Sim::new(j))))
        .collect()
}

/// Runs one built job and reads its counters back; `Err` when the
/// simulation panicked. Also returns the seconds spent in the run call.
pub fn observe_one(job: &SweepJob, mut sim: Sim, tracer: &Tracer) -> Result<(JobObs, f64), String> {
    let (m, run_s) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        timed(|| tracer.span("sim.run", || sim.run(job)))
    }))
    .map_err(|p| rop_sim_system::runner::panic_message(p.as_ref()))?;
    let ctrl = sim.controller();
    let ranks = ctrl.config().dram.geometry.ranks;
    let rop_decisions = (0..ranks)
        .filter_map(|r| ctrl.rop_engine_stats(r))
        .fold((0, 0), |acc, s| {
            (acc.0 + s.prefetch_decisions, acc.1 + s.skip_decisions)
        });
    let obs = JobObs {
        ctrl: ctrl.stats().clone(),
        read_queue_len: ctrl.read_queue_len(),
        rop_decisions,
        metrics: m,
    };
    Ok((obs, run_s))
}

/// Builds and runs each job once (the sweep-grid's layer sample).
pub fn observe(jobs: &[SweepJob], tracer: &Tracer) -> (Vec<JobObs>, f64) {
    let built = build_all(jobs, tracer);
    let new_s = built.iter().map(|b| b.1).sum();
    let obs = jobs
        .iter()
        .zip(built)
        .filter_map(|(j, (sim, _))| observe_one(j, sim, tracer).ok().map(|(o, _)| o))
        .collect();
    (obs, new_s)
}

/// Set-up, then whole passes over the job list until `seconds` have
/// been measured (always at least one pass).
pub fn run(
    plan: impl Fn() -> Vec<SweepJob>,
    seconds: f64,
    scale: Scale,
    tracer: &Tracer,
) -> DirectRun {
    let (setup, jobs, mut sims) = setup(&plan, scale, tracer, |jobs| Some(build_all(jobs, tracer)));
    let mut first: Vec<JobObs> = Vec::new();
    let mut times: Vec<Vec<JobTime>> = Vec::new();
    let mut digest = Digest::default();
    let mut divergent_passes = 0;
    let mut panicked = Vec::new();
    let t_loop = Instant::now();
    while times.is_empty() || secs(t_loop) < seconds {
        let built = sims.take().unwrap_or_else(|| build_all(&jobs, tracer));
        let mut pass = Vec::with_capacity(jobs.len());
        let mut pass_digest = Digest::default();
        for (job, (sim, new_s)) in jobs.iter().zip(built) {
            let before = crate::calib::kernel_s();
            let Ok((obs, run_s)) = observe_one(job, sim, tracer) else {
                panicked.push(job.label.clone());
                continue;
            };
            let calib_s = (before + crate::calib::kernel_s()) / 2.0;
            pass.push(JobTime {
                new_s,
                run_s,
                calib_s,
            });
            pass_digest.run(&obs.metrics);
            if times.is_empty() {
                first.push(obs);
            }
        }
        if times.is_empty() {
            digest = pass_digest;
        } else if pass_digest.hex() != digest.hex() {
            divergent_passes += 1;
        }
        if pass.len() == first.len() {
            times.push(pass);
        }
    }
    DirectRun {
        setup,
        jobs,
        first,
        times,
        digest,
        divergent_passes,
        panicked,
    }
}

/// Runs `job` with the invariant auditor attached; `Err` carries the
/// violation report (audited runs panic on any violation).
pub fn audit(job: &SweepJob) -> Result<u64, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Sim::new(job);
        sim.enable_audit();
        let m = sim.run(job);
        m.audit.map(|a| (a.events, a.violations))
    }))
    .map_err(|p| rop_sim_system::runner::panic_message(p.as_ref()))
    .and_then(|a| match a {
        Some((events, 0)) => Ok(events),
        Some((_, v)) => Err(format!("{v} violation(s)")),
        None => Err("no audit summary".into()),
    })
}
