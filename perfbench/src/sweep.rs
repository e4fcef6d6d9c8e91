//! sweep-grid: thousands of short distinct jobs through the harness —
//! a cold `StoreExecutor::execute` into a fresh JSONL store, then a
//! warm `execute` of the same grid resolving every job from it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rop_harness::{ExecStats, Status, Store, StoreExecutor};
use rop_sim_system::{RunMetrics, SweepExecutor, SweepJob};
use rop_stats::Json;

use crate::common::{median, peak_rss_mb, ratio, timed, Check, Digest, MetricSet, Tracer};
use crate::direct;
use crate::layers::{direct_counters, put, zero_layers};
use crate::plan::{self, Scale};
use crate::probes;
use crate::report::Outcome;
use crate::setup::setup;

/// Calibration-kernel samples taken after each cold pass.
const KERNEL_SAMPLES: usize = 8;

/// Warm passes per repetition (their mean time is the warm time).
const WARM_REPEATS: usize = 3;

/// One cold + warm repetition.
struct Rep {
    cold_s: f64,
    warm_s: f64,
    /// Σ simulated cycles / reads and Σ per-job simulation seconds.
    cycles: u64,
    reads: u64,
    sim_s: f64,
    /// Host slowdown from the kernel samples taken right after it.
    slowdown: f64,
    /// Disk slowdown from I/O-kernel runs right before and after the
    /// cold pass.
    io_slowdown: f64,
}

/// Everything the first repetition keeps for verification and tracing.
struct FirstRep {
    cold: Vec<RunMetrics>,
    cold_stats: ExecStats,
    warm_stats: ExecStats,
    failures: usize,
    store_ok: Result<(), String>,
    warm_identical: bool,
    store_bytes: u64,
    load_s: f64,
}

fn execute(
    path: &Path,
    jobs: &[SweepJob],
    tracer: &Tracer,
) -> (Vec<RunMetrics>, ExecStats, usize, f64) {
    let exec = StoreExecutor::new(Store::open(path));
    let (out, secs) = timed(|| tracer.span("harness.execute", || exec.execute(jobs.to_vec())));
    (out, exec.stats(), exec.failures().len(), secs)
}

/// Every stored record decodes to exactly the metrics `execute` returned.
fn check_store(path: &Path, jobs: &[SweepJob], cold: &[RunMetrics]) -> Result<(), String> {
    let contents = Store::open(path).load()?;
    if contents.corrupt_lines > 0 {
        return Err(format!("{} corrupt line(s)", contents.corrupt_lines));
    }
    let latest = contents.latest();
    for (job, m) in jobs.iter().zip(cold) {
        let id = rop_harness::job_id(job);
        let rec = latest
            .get(id.as_str())
            .ok_or(format!("{}: no record", job.label))?;
        let stored = rec
            .metrics
            .as_ref()
            .filter(|_| rec.status == Status::Ok)
            .ok_or(format!("{}: record not ok", job.label))?;
        if stored.to_json().render() != m.to_json().render() {
            return Err(format!("{}: stored metrics differ", job.label));
        }
    }
    Ok(())
}

fn rendered(ms: &[RunMetrics]) -> Vec<String> {
    ms.iter().map(|m| m.to_json().render()).collect()
}

pub fn sweep_grid(seed: u64, seconds: f64, scale: Scale, tracer: &Tracer, work: &Path) -> Outcome {
    let plan = || plan::sweep_jobs(seed, scale);
    let setup_store = work.join("setup.jsonl");
    let (setup, jobs, _) = setup(&plan, scale, tracer, |_| {
        let store = Store::open(&setup_store);
        tracer.span("harness.load", || store.load()).ok()
    });
    let n = jobs.len() as f64;
    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Option<FirstRep> = None;
    let mut digest = Digest::default();
    let mut divergent = 0usize;
    let mut io_failures = 0usize;
    let workers = rop_harness::PoolConfig::default().workers;
    let t_loop = Instant::now();
    while reps.is_empty() || t_loop.elapsed().as_secs_f64() < seconds {
        let path: PathBuf = work.join(format!("grid-{}.jsonl", reps.len()));
        let _ = std::fs::remove_file(&path);
        let io_before = crate::calib::io_kernel_s(work);
        let (cold, cold_stats, failures, cold_s) = execute(&path, &jobs, tracer);
        let io: Vec<f64> = [io_before, crate::calib::io_kernel_s(work)]
            .into_iter()
            .flatten()
            .collect();
        io_failures += 2 - io.len();
        let kernel: Vec<f64> = (0..KERNEL_SAMPLES)
            .map(|_| crate::calib::parallel_kernel_s(workers))
            .collect();
        // The warm pass is an order of magnitude faster than the cold
        // one, so it is repeated to be measured as steadily.
        let mut warm_s = 0.0;
        let mut warm_out = None;
        for _ in 0..WARM_REPEATS {
            let (warm, warm_stats, _, s) = execute(&path, &jobs, tracer);
            warm_s += s / WARM_REPEATS as f64;
            warm_out.get_or_insert((warm, warm_stats));
        }
        let (warm, warm_stats) = warm_out.expect("warm pass ran");
        let mut d = Digest::default();
        cold.iter().for_each(|m| d.run(m));
        reps.push(Rep {
            cold_s,
            warm_s,
            cycles: cold.iter().map(|m| m.total_cycles).sum(),
            reads: cold.iter().map(direct::sim_reads).sum(),
            sim_s: cold.iter().map(|m| m.wall_seconds).sum(),
            slowdown: crate::calib::slowdown(&kernel),
            io_slowdown: if io.is_empty() {
                1.0
            } else {
                median(&io) / crate::calib::NOMINAL_IO_S
            },
        });
        if first.is_none() {
            digest = d;
            let (loaded, load_s) =
                timed(|| tracer.span("harness.load", || Store::open(&path).load()));
            drop(loaded);
            first = Some(FirstRep {
                store_ok: check_store(&path, &jobs, &cold),
                warm_identical: rendered(&warm) == rendered(&cold),
                store_bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                cold,
                cold_stats,
                warm_stats,
                failures,
                load_s,
            });
        } else if d.hex() != digest.hex() {
            divergent += 1;
        }
        let _ = std::fs::remove_file(&path);
    }
    let first = first.expect("at least one repetition ran");

    let cs = first.cold_stats;
    let ws = first.warm_stats;
    let mut checks = vec![
        Check::new(
            "lint-gate",
            setup.findings.is_empty(),
            setup.findings.join("; "),
        ),
        Check::new(
            "cold-pass-executed",
            cs.executed == jobs.len() && cs.failed == 0 && cs.not_run == 0 && first.failures == 0,
            format!("{cs:?}"),
        ),
        Check::new(
            "store-decodes",
            first.store_ok.is_ok(),
            first.store_ok.clone().err().unwrap_or_default(),
        ),
        Check::new(
            "warm-pass-all-hits",
            ws.cache_hits == jobs.len() && ws.executed == 0,
            format!("{ws:?}"),
        ),
        Check::new(
            "warm-pass-identical",
            first.warm_identical,
            "warm metrics differ from cold",
        ),
        Check::new(
            "reps-identical",
            divergent == 0,
            format!("{divergent} of {} repetition(s) diverged", reps.len()),
        ),
    ];
    let audit = direct::audit(&jobs[1]);
    checks.push(Check::new(
        format!("audit {}", jobs[1].label),
        audit.is_ok(),
        audit.err().unwrap_or_default(),
    ));

    checks.push(Check::new(
        "io-calibration",
        io_failures == 0,
        format!("{io_failures} I/O-kernel run(s) could not write their scratch file"),
    ));

    // Each repetition's rates are calibrated by its own kernel samples
    // (the host drifts within a run), then the median is taken; the
    // raw figure is the median of the uncalibrated rates. The cold
    // pass is bound by one fsync per job, and the disk's sync latency
    // drifts on its own, so the cold rate is calibrated by the I/O
    // kernel; everything else by the CPU kernel.
    let rate = |f: &dyn Fn(&Rep) -> f64, by: &dyn Fn(&Rep) -> f64| {
        (
            median(&reps.iter().map(f).collect::<Vec<_>>()),
            median(&reps.iter().map(|r| f(r) * by(r)).collect::<Vec<_>>()),
        )
    };
    let cold = rate(&|r| n / r.cold_s, &|r| r.io_slowdown);
    let warm = rate(&|r| n / r.warm_s, &|r| r.slowdown);
    let mcycles = rate(&|r| r.cycles as f64 / r.sim_s / 1e6, &|r| r.slowdown);
    let kreads = rate(&|r| r.reads as f64 / r.sim_s / 1e3, &|r| r.slowdown);
    let io_slowdown = median(&reps.iter().map(|r| r.io_slowdown).collect::<Vec<_>>());
    let slowdown = median(&reps.iter().map(|r| r.slowdown).collect::<Vec<_>>());
    let (mut e2e, raw) = crate::workloads::host_metrics(
        &[
            ("setup_s", setup.median_s, setup.median_s / setup.slowdown),
            // Geomean of the cold (simulate + store) and warm (resolve
            // from the store) rates: a 2x change in either moves it by
            // the same factor, but a change that speeds one and slows
            // the other by one factor leaves it unchanged — only
            // harness.cold_points_per_s / resume_points_per_s show that.
            (
                "points_per_s",
                (cold.0 * warm.0).sqrt(),
                (cold.1 * warm.1).sqrt(),
            ),
            ("sim_mcycles_per_s", mcycles.0, mcycles.1),
            ("sim_kreads_per_s", kreads.0, kreads.1),
        ],
        slowdown,
        setup.slowdown,
    );

    let mut layers = MetricSet::new();
    if tracer.enabled() {
        layers = zero_layers();
        // Controller-level counters are not in the stored metrics, so a
        // sample (the first seed's 36 cells) runs directly.
        let cells = plan::sweep_jobs(
            seed,
            Scale {
                sweep_seeds: 1,
                ..scale
            },
        );
        let (obs, new_s) = direct::observe(&cells, tracer);
        direct_counters(&mut layers, &obs);
        probes::direct(&mut layers, &cells, &obs, scale, tracer);
        let execute_s = median(&reps.iter().map(|r| r.cold_s).collect::<Vec<_>>());
        let sim_s = median(&reps.iter().map(|r| r.sim_s).collect::<Vec<_>>());
        put(&mut layers, "sim.new_s", new_s);
        put(&mut layers, "sim.run_s", reps[0].sim_s);
        put(&mut layers, "harness.execute_s", execute_s);
        put(
            &mut layers,
            "harness.overhead_s",
            (execute_s - sim_s / workers.max(1) as f64).max(0.0),
        );
        put(&mut layers, "harness.load_s", first.load_s);
        put(
            &mut layers,
            "harness.cache_hit_frac",
            ratio(ws.cache_hits as f64, ws.planned as f64),
        );
        put(&mut layers, "harness.appends", cs.executed as f64);
        put(&mut layers, "harness.store_bytes", first.store_bytes as f64);
        put(&mut layers, "harness.failed", cs.failed as f64);
        put(&mut layers, "harness.cold_points_per_s", cold.0);
        put(&mut layers, "harness.resume_points_per_s", warm.0);
        put(&mut layers, "lint.check_config_s", setup.lint_s);
        put(&mut layers, "lint.verify_mech_s", setup.mech_s);
        json_probe(&mut layers, &first.cold, tracer);
        probes::overhead(&mut layers, tracer);
    }
    put(&mut e2e, "peak_rss_mb", peak_rss_mb());

    let notes = vec![
        raw,
        format!("# disk slowdown vs I/O calibration nominal (cold pass): {io_slowdown:.4}"),
        format!(
            "# repetitions: {} over {} job(s); cold {:.1} jobs/s, warm (resume) {:.1} jobs/s (medians)",
            reps.len(),
            jobs.len(),
            cold.0,
            warm.0
        ),
        format!(
            "# sim rop_ipc_ratio (grid, Baseline vs ROP-64): {:.4}",
            grid_rop_ratio(&first.cold)
        ),
    ];
    let attempted = (2 * jobs.len() * reps.len()) as u64;
    Outcome::new(e2e, layers, attempted, checks, digest, notes)
}

/// Geomean ROP-64/Baseline IPC over the grid's (Baseline, ROP-64, DARP)
/// triples.
fn grid_rop_ratio(cold: &[RunMetrics]) -> f64 {
    let pairs: Vec<(&RunMetrics, &RunMetrics)> = cold.chunks(3).map(|t| (&t[0], &t[1])).collect();
    crate::workloads::rop_ipc_ratio(&pairs)
}

/// `stats.json_render_ns` / `stats.json_parse_ns`: the store's codec
/// over every cold-pass record.
fn json_probe(layers: &mut MetricSet, cold: &[RunMetrics], tracer: &Tracer) {
    let (lines, render_s) = timed(|| {
        tracer.span("stats.render", || {
            cold.iter()
                .map(|m| m.to_json().render())
                .collect::<Vec<_>>()
        })
    });
    let (decoded, parse_s) = timed(|| {
        tracer.span("stats.parse", || {
            lines
                .iter()
                .filter_map(|l| {
                    Json::parse(l)
                        .ok()
                        .and_then(|j| RunMetrics::from_json(&j).ok())
                })
                .count()
        })
    });
    let n = cold.len().max(1) as f64;
    put(layers, "stats.json_render_ns", render_s * 1e9 / n);
    put(
        layers,
        "stats.json_parse_ns",
        ratio(parse_s * 1e9, decoded as f64),
    );
}
