//! The repository benchmark.
//!
//! ```text
//! rop-perfbench --workload <closed-paper|openloop-knee|sweep-grid> \
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload derived from the seed for about `--seconds` of
//! measurement, verifies its outputs, and prints `#`-prefixed report
//! lines followed by one JSON object (the last line): the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See README.md for the workloads and metrics.

use std::path::PathBuf;
use std::process::ExitCode;

use rop_perfbench::common::Tracer;
use rop_perfbench::plan::Scale;
use rop_perfbench::{report, run_workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(report::DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rop-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch stores live inside the checkout's build directory and are
    // removed before exit.
    let work = PathBuf::from(".bench_build").join(format!("perfbench-work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("rop-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let out = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        Scale::bench(),
        &tracer,
        &work,
    );
    let _ = std::fs::remove_dir_all(&work);
    if tracer.enabled() {
        for (name, (calls, total, own)) in tracer.summary() {
            println!(
                "# span {name}: {calls} call(s), {:.4}s total, {:.4}s self",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
    }
    report::print(&args.workload, args.seed, args.trace, &out);
    ExitCode::SUCCESS
}
