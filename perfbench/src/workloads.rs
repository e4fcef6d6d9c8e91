//! closed-paper and openloop-knee: the direct-run workloads, their
//! verification passes and their metrics.

use rop_sim_system::{RunMetrics, SweepJob, System};

use crate::common::{peak_rss_mb, ratio, sim_json, Check, MetricSet, Tracer};
use crate::direct::{self, DirectRun};
use crate::layers::{direct_counters, direct_times, put, zero_layers};
use crate::plan::{self, Scale};
use crate::probes;
use crate::report::Outcome;

/// The paper's single-core average IPC gain of ROP over Baseline
/// (Fig 7; EXPERIMENTS.md records this model's deviation as D1).
pub const PAPER_ROP_IPC_RATIO: f64 = 1.033;

/// The calibrated end-to-end host metrics, plus a report line with the
/// raw values they were scaled from.
fn e2e_direct(run: &DirectRun) -> (MetricSet, String) {
    let fs = run.setup.slowdown;
    host_metrics(
        &[
            ("setup_s", run.setup.median_s, run.setup.median_s / fs),
            (
                "points_per_s",
                run.points_per_s(false),
                run.points_per_s(true),
            ),
            (
                "sim_mcycles_per_s",
                run.mcycles_per_s(false),
                run.mcycles_per_s(true),
            ),
            (
                "sim_kreads_per_s",
                run.kreads_per_s(false),
                run.kreads_per_s(true),
            ),
        ],
        run.slowdown(),
        fs,
    )
}

/// Host metrics in reference-machine units from `(name, raw,
/// calibrated)` rows (rates scaled by the host slowdown, `setup_s` by
/// its inverse), plus a report line with the slowdowns and raw values.
pub fn host_metrics(
    rows: &[(&'static str, f64, f64)],
    slowdown: f64,
    setup_slowdown: f64,
) -> (MetricSet, String) {
    let mut e = MetricSet::new();
    let mut note = format!(
        "# host slowdown vs calibration nominal: {slowdown:.4} (set-up {setup_slowdown:.4}); raw:"
    );
    for &(name, raw, scaled) in rows {
        put(&mut e, name, scaled);
        note.push_str(&format!(" {name} {raw:.6}"));
    }
    (e, note)
}

/// Checks every direct workload shares: lint gate, no panics, and
/// bit-identical simulated output on every pass.
fn common_checks(run: &DirectRun) -> Vec<Check> {
    vec![
        Check::new(
            "lint-gate",
            run.setup.findings.is_empty(),
            run.setup.findings.join("; "),
        ),
        Check::new(
            "no-panics",
            run.panicked.is_empty(),
            run.panicked.join(", "),
        ),
        Check::new(
            "passes-identical",
            run.divergent_passes == 0,
            format!(
                "{} of {} pass(es) diverged from the first",
                run.divergent_passes,
                run.passes()
            ),
        ),
    ]
}

fn shortened(job: &SweepJob, instructions: u64) -> SweepJob {
    let mut j = job.clone();
    j.spec.instructions = instructions;
    j
}

/// Geomean IPC(ROP-64) / IPC(Baseline) over consecutive
/// (Baseline, ROP-64) single-core job pairs.
pub fn rop_ipc_ratio(pairs: &[(&RunMetrics, &RunMetrics)]) -> f64 {
    let logs: Vec<f64> = pairs
        .iter()
        .map(|(base, rop)| (rop.ipc() / base.ipc()).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

fn finish(
    run: DirectRun,
    mut checks: Vec<Check>,
    mut notes: Vec<String>,
    tracer: &Tracer,
    scale: Scale,
) -> Outcome {
    checks.extend(common_checks(&run));
    let (mut e2e, raw) = e2e_direct(&run);
    notes.push(raw);
    let mut layers = MetricSet::new();
    if tracer.enabled() {
        layers = zero_layers();
        direct_counters(&mut layers, &run.first);
        direct_times(&mut layers, &run);
        probes::direct(&mut layers, &run.jobs, &run.first, scale, tracer);
        probes::overhead(&mut layers, tracer);
    }
    put(&mut e2e, "peak_rss_mb", peak_rss_mb());
    notes.push(format!(
        "# passes: {} over {} job(s); median simulation time per pass {:.2}s",
        run.passes(),
        run.jobs.len(),
        run.run_s()
    ));
    Outcome::new(
        e2e,
        layers,
        run.attempted() as u64 + run.panicked.len() as u64,
        checks,
        run.digest,
        notes,
    )
}

pub fn closed_paper(seed: u64, seconds: f64, scale: Scale, tracer: &Tracer) -> Outcome {
    let run = direct::run(|| plan::closed_jobs(seed, scale), seconds, scale, tracer);
    let mut checks = Vec::new();

    // Every job retires its quota without touching the cycle cap.
    let short: Vec<&str> = run
        .jobs
        .iter()
        .zip(&run.first)
        .filter(|(j, o)| {
            o.metrics.hit_cycle_cap
                || o.metrics
                    .cores
                    .iter()
                    .any(|c| c.instructions < j.spec.instructions)
        })
        .map(|(j, _)| j.label.as_str())
        .collect();
    checks.push(Check::new(
        "quota-retired",
        short.is_empty() && run.first.len() == run.jobs.len(),
        short.join(", "),
    ));

    // A fixed sample (the first Baseline/ROP-64 pair, shortened) matches
    // the per-cycle reference loop bit-exactly.
    for job in &run.jobs[..2] {
        let j = shortened(job, scale.verify_instr);
        let event = System::new(j.config.clone()).run_until(j.spec.instructions, j.spec.max_cycles);
        let reference = System::new(j.config.clone())
            .run_until_reference(j.spec.instructions, j.spec.max_cycles);
        checks.push(Check::new(
            format!("reference-loop {}", j.label),
            sim_json(&event) == sim_json(&reference),
            "event-driven and per-cycle loops disagree",
        ));
    }

    // One ROP-64 job runs clean under the invariant auditor.
    let j = shortened(&run.jobs[1], scale.verify_instr);
    let audit = direct::audit(&j);
    checks.push(Check::new(
        format!("audit {}", j.label),
        audit.is_ok(),
        audit.err().unwrap_or_default(),
    ));

    let singles = plan::INTENSIVE.len() + plan::COMPUTE.len();
    let pairs: Vec<(&RunMetrics, &RunMetrics)> = run
        .first
        .get(..2 * singles)
        .unwrap_or_default()
        .chunks(2)
        .map(|p| (&p[0].metrics, &p[1].metrics))
        .collect();
    let mut notes: Vec<String> = pairs
        .iter()
        .map(|(b, r)| {
            format!(
                "# sim {}: IPC Baseline {:.6} ROP-64 {:.6}",
                b.cores[0].benchmark,
                b.ipc(),
                r.ipc()
            )
        })
        .collect();
    if pairs.len() == singles {
        let r = rop_ipc_ratio(&pairs);
        notes.push(format!(
            "# sim rop_ipc_ratio: {r:.6} (geomean IPC ROP-64/Baseline over {singles} single-core pairs); \
             paper Fig 7 average: {PAPER_ROP_IPC_RATIO:.3}; error {:+.2}% (EXPERIMENTS.md deviation D1)",
            (r / PAPER_ROP_IPC_RATIO - 1.0) * 100.0
        ));
    }
    let instr: u64 = run.first.iter().map(|o| o.metrics.instructions_total).sum();
    notes.push(format!(
        "# sim_minstr_per_s: {:.2} Minstr/s",
        ratio(instr as f64, run.run_s()) / 1e6
    ));
    finish(run, checks, notes, tracer, scale)
}

pub fn openloop_knee(seed: u64, seconds: f64, scale: Scale, tracer: &Tracer) -> Outcome {
    let run = direct::run(|| plan::open_jobs(seed), seconds, scale, tracer);
    let mut checks = Vec::new();

    // Read conservation: every injected read either completed inside
    // the window (and is in the histogram) or is censored in flight.
    // Reads the controller completed but whose data lands after the
    // window sit in the completion wheel; the one data bus returns a
    // burst per bl/2 cycles, so only the last few issued can be there.
    for (job, o) in run.jobs.iter().zip(&run.first) {
        let (Some(ol), Some(ctrl)) = (&o.metrics.open_loop, &job.config.ctrl_override) else {
            checks.push(Check::new(
                format!("conservation {}", job.label),
                false,
                "no open-loop metrics",
            ));
            continue;
        };
        let t = &ctrl.dram.timing;
        let max_in_wheel = (t.cl + t.bl / 2 + t.t_rtrs) / (t.bl / 2).max(1) + 1;
        let completed = o.ctrl.reads_completed;
        let delivered = ol.read_latency.count();
        let in_wheel = completed.saturating_sub(delivered);
        let censored = in_wheel + o.read_queue_len as u64;
        let ok = ol.reads_injected == delivered + censored
            && delivered <= completed
            && in_wheel <= max_in_wheel;
        checks.push(Check::new(
            format!("conservation {}", job.label),
            ok,
            format!(
                "injected {} vs delivered {delivered} + censored {censored} \
                 ({in_wheel} completed but undelivered, at most {max_in_wheel} fit in flight)",
                ol.reads_injected
            ),
        ));
    }

    // One knee job (the most refresh-stressed) runs clean under audit.
    let knee = run.jobs.iter().position(plan::is_knee).unwrap_or(0);
    let j = &run.jobs[knee];
    let audit = direct::audit(j);
    checks.push(Check::new(
        format!("audit {}", j.label),
        audit.is_ok(),
        audit.err().unwrap_or_default(),
    ));

    let mut notes = Vec::new();
    for (job, o) in run.jobs.iter().zip(&run.first) {
        if let Some(ol) = &o.metrics.open_loop {
            notes.push(format!(
                "# sim {}: read p99 {} cycles, refresh-attributed p99 {} cycles, backlog peak {}",
                job.label,
                ol.read_latency.p99(),
                ol.refresh_blocked_latency.p99(),
                ol.backlog_peak
            ));
        }
    }
    for (name, knee) in [("below the knee", false), ("at the knee", true)] {
        let obs: Vec<_> = run
            .jobs
            .iter()
            .zip(&run.first)
            .filter(|(j, _)| plan::is_knee(j) == knee)
            .map(|(_, o)| o)
            .collect();
        let peak = obs
            .iter()
            .filter_map(|o| o.metrics.open_loop.as_ref().map(|ol| ol.backlog_peak))
            .max()
            .unwrap_or(0);
        let blocked: u64 = obs.iter().map(|o| o.ctrl.reads_blocked_by_refresh).sum();
        let completed: u64 = obs.iter().map(|o| o.ctrl.reads_completed).sum();
        let frozen: u64 = obs.iter().map(|o| o.metrics.refresh_blocked_cycles).sum();
        let cycles: u64 = obs.iter().map(|o| o.metrics.total_cycles).sum();
        notes.push(format!(
            "# sim {name}: backlog peak {peak}; reads blocked by refresh {:.2}% ({blocked} of {completed}); \
             refresh-blocked cycles {:.2}%",
            100.0 * ratio(blocked as f64, completed as f64),
            100.0 * ratio(frozen as f64, cycles as f64)
        ));
    }
    let merged =
        |f: &dyn Fn(&rop_sim_system::OpenLoopMetrics) -> &rop_sim_system::LatencyHistogram| {
            let mut h = rop_sim_system::LatencyHistogram::new();
            for o in &run.first {
                if let Some(ol) = &o.metrics.open_loop {
                    merge(&mut h, f(ol));
                }
            }
            h
        };
    let read = merged(&|ol| &ol.read_latency);
    let refresh = merged(&|ol| &ol.refresh_blocked_latency);
    notes.push(format!(
        "# sim read_p99_cycles: {} ; refresh_tail_p99_cycles: {} (merged over all jobs; UNVALIDATED: the paper reports no open-loop tail)",
        read.p99(),
        refresh.p99()
    ));
    finish(run, checks, notes, tracer, scale)
}

/// Adds `src`'s samples into `dst` through the histogram's JSON form
/// (the only public view of its buckets).
pub fn merge(dst: &mut rop_sim_system::LatencyHistogram, src: &rop_sim_system::LatencyHistogram) {
    let add = |a: &rop_stats::Json, b: &rop_stats::Json, key: &str| -> f64 {
        a.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
            + b.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    let (a, b) = (dst.to_json(), src.to_json());
    let buckets: Vec<rop_stats::Json> = a
        .get("buckets")
        .and_then(|x| x.as_arr())
        .unwrap_or(&[])
        .iter()
        .zip(b.get("buckets").and_then(|x| x.as_arr()).unwrap_or(&[]))
        .map(|(x, y)| rop_stats::Json::Num(x.as_f64().unwrap_or(0.0) + y.as_f64().unwrap_or(0.0)))
        .collect();
    let max = a
        .get("max")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
        .max(b.get("max").and_then(|v| v.as_f64()).unwrap_or(0.0));
    let mut j = rop_stats::Json::obj();
    j.push("buckets", rop_stats::Json::Arr(buckets))
        .push("count", rop_stats::Json::Num(add(&a, &b, "count")))
        .push("sum", rop_stats::Json::Num(add(&a, &b, "sum")))
        .push("max", rop_stats::Json::Num(max));
    *dst = rop_sim_system::LatencyHistogram::from_json(&j).expect("merged histogram decodes");
}
