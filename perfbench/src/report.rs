//! A workload's outcome and the benchmark's output format: human
//! `#`-prefixed lines, then one JSON object as the last stdout line.

use crate::common::{Check, Digest, MetricSet};

pub struct Outcome {
    /// End-to-end metrics (untraced runs print these).
    pub e2e: MetricSet,
    /// Per-layer metrics (traced runs print these).
    pub layers: MetricSet,
    /// Jobs attempted across every pass, plus one per verification check.
    pub attempted: u64,
    pub checks: Vec<Check>,
    pub digest: Digest,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(
        e2e: MetricSet,
        layers: MetricSet,
        jobs_attempted: u64,
        checks: Vec<Check>,
        digest: Digest,
        notes: Vec<String>,
    ) -> Self {
        Outcome {
            e2e,
            layers,
            attempted: jobs_attempted + checks.len() as u64,
            checks,
            digest,
            notes,
        }
    }

    pub fn failed(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    /// Jobs or checks that failed over jobs and checks attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// The digest recorded for each workload at the default seed.
pub const RECORDED_DIGESTS: &str = include_str!("../DIGESTS.txt");

/// The seed `DIGESTS.txt` was recorded with.
pub const DEFAULT_SEED: u64 = 1;

pub fn recorded_digest(workload: &str) -> Option<&'static str> {
    RECORDED_DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(workload)).then(|| it.next()).flatten()
        })
}

fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that reads back to `v`.
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The final JSON line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Prints the whole report; the JSON object is the last line.
pub fn print(workload: &str, seed: u64, traced: bool, out: &Outcome) {
    for note in &out.notes {
        println!("{note}");
    }
    for c in &out.checks {
        let status = if c.ok { "ok" } else { "FAIL" };
        if c.ok {
            println!("# check {status}: {}", c.name);
        } else {
            println!("# check {status}: {} — {}", c.name, c.detail);
        }
    }
    let digest = out.digest.hex();
    let recorded = match (seed == DEFAULT_SEED, recorded_digest(workload)) {
        (true, Some(d)) if d == digest => " (matches the recorded default-seed digest)".to_string(),
        (true, Some(d)) => format!(" (DIFFERS from the recorded default-seed digest {d})"),
        _ => String::new(),
    };
    println!("# sim digest {workload} seed {seed}: {digest}{recorded}");
    println!(
        "# failed_frac: {} ({} of {} jobs+checks)",
        out.failed_frac(),
        out.failed(),
        out.attempted
    );
    let metrics = if traced { &out.layers } else { &out.e2e };
    for (name, (v, unit)) in metrics {
        println!("# {name} = {} {unit}", number(*v));
    }
    println!(
        "{}",
        json_line(out.failed() == 0, out.attempted, out.failed(), metrics)
    );
}
