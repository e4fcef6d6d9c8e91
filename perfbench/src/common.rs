//! Shared plumbing: seeds, the span tracer, metric sets, digests and
//! the small statistics helpers every workload uses.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use rop_sim_system::RunMetrics;

/// SplitMix64 finaliser: derives independent config seeds from the one
/// `--seed` argument.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a, folded incrementally over the digest's byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in every simulated statistic of a run: its JSON encoding
    /// with the two host-only fields (wall time and engine iterations,
    /// which differ between the event and reference loops) zeroed.
    pub fn run(&mut self, m: &RunMetrics) {
        self.bytes(sim_json(m).as_bytes());
        self.bytes(b"\n");
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The simulated content of a run as canonical JSON text.
pub fn sim_json(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.wall_seconds = 0.0;
    m.events = 0;
    m.to_json().render()
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One recorded call into a crate's public API.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub depth: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder. Disabled tracers cost one branch per call;
/// enabled ones push one [`Span`] per call and never touch the disk —
/// spans are summarised when the run ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    depth: Cell<u32>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            depth: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording it as span `name` when tracing is on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let depth = self.depth.get();
        self.depth.set(depth + 1);
        let t0 = Instant::now();
        let r = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.depth.set(depth);
        self.spans.borrow_mut().push(Span {
            name,
            depth,
            start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
        });
        r
    }

    /// Nanoseconds since the tracer was created.
    pub fn elapsed_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Per span name: (calls, total ns, self ns). Self time is a span's
    /// duration minus the durations of the spans nested directly in it.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut spans = self.spans();
        // Parents close after their children, so sort by start time.
        spans.sort_by_key(|s| (s.start_ns, s.depth));
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let end = s.start_ns + s.dur_ns;
            let children: u64 = spans[i + 1..]
                .iter()
                .take_while(|c| c.start_ns < end)
                .filter(|c| c.depth == s.depth + 1)
                .map(|c| c.dur_ns)
                .sum();
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(children);
        }
        out
    }

    /// Host nanoseconds one enabled span costs, measured on the spot.
    pub fn span_cost_ns() -> f64 {
        let t = Tracer::new(true);
        let n = 20_000u32;
        let t0 = Instant::now();
        for i in 0..n {
            t.span("calibrate", || std::hint::black_box(i));
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    }
}

/// A named metric with its unit.
pub type MetricSet = BTreeMap<&'static str, (f64, &'static str)>;

/// Wall-clock stopwatch returning seconds.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, secs(t0))
}

/// Result of one verification check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}
