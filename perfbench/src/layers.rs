//! Metric catalogs and the per-layer counters read back through public
//! accessors (`RunMetrics`, `MemController::stats`, `rop_engine_stats`).

use crate::common::{ratio, MetricSet};
use crate::direct::{DirectRun, JobObs};

/// End-to-end metrics every workload reports from an untraced run.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("points_per_s", "jobs/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_kreads_per_s", "kreads/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports from a traced run; 0 where
/// the workload bypasses the layer.
pub const LAYERS: [(&str, &str); 47] = [
    ("trace.records", "count"),
    ("trace.record_ns", "ns"),
    ("trace.arrival_ns", "ns"),
    ("cpu.stall_frac", "ratio"),
    ("cpu.mpki", "1/kinstr"),
    ("cache.hit_rate", "ratio"),
    ("cache.access_ns", "ns"),
    ("memctrl.tick_ns", "ns"),
    ("memctrl.enqueue_ns", "ns"),
    ("memctrl.enqueue_refused_frac", "ratio"),
    ("memctrl.row_hit_rate", "ratio"),
    ("memctrl.avg_read_latency_cycles", "cycles"),
    ("memctrl.reads_blocked_by_refresh", "count"),
    ("memctrl.refresh_blocked_frac", "ratio"),
    ("memctrl.refreshes", "count"),
    ("memctrl.refreshes_pulled_in", "count"),
    ("memctrl.refreshes_skipped", "count"),
    ("dram.issue_ns", "ns"),
    ("dram.energy_mj", "mJ"),
    ("core.sram_lookups", "count"),
    ("core.sram_hit_rate", "ratio"),
    ("core.prefetches", "count"),
    ("core.prefetches_dropped", "count"),
    ("core.prefetch_useful_frac", "ratio"),
    ("core.prefetch_decisions", "count"),
    ("core.skip_decisions", "count"),
    ("core.generate_ns", "ns"),
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_kinstr", "1/kinstr"),
    ("sim.events_per_kcycle", "1/kcycle"),
    ("sim.backlog_peak", "count"),
    ("harness.execute_s", "s"),
    ("harness.overhead_s", "s"),
    ("harness.load_s", "s"),
    ("harness.cache_hit_frac", "ratio"),
    ("harness.appends", "count"),
    ("harness.store_bytes", "bytes"),
    ("harness.failed", "count"),
    ("harness.cold_points_per_s", "jobs/s"),
    ("harness.resume_points_per_s", "jobs/s"),
    ("stats.json_render_ns", "ns"),
    ("stats.json_parse_ns", "ns"),
    ("lint.check_config_s", "s"),
    ("lint.verify_mech_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    E2E.iter()
        .chain(LAYERS.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// Sets `name` (which must be catalogued) in `set`.
pub fn put(set: &mut MetricSet, name: &'static str, value: f64) {
    set.insert(name, (value, unit_of(name)));
}

/// A set with every catalogued per-layer metric at 0.
pub fn zero_layers() -> MetricSet {
    LAYERS.iter().map(|&(n, u)| (n, (0.0, u))).collect()
}

/// A named per-job counter.
type Counter<'a> = (&'static str, &'a dyn Fn(&JobObs) -> u64);

/// Counter-derived layer metrics from directly-run jobs.
pub fn direct_counters(set: &mut MetricSet, obs: &[JobObs]) {
    let cores = obs.iter().flat_map(|o| o.metrics.cores.iter());
    let (mut stall, mut finish, mut misses, mut hits, mut instr) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for c in cores {
        stall += c.stall_cycles;
        finish += c.finish_cycle;
        misses += c.read_misses;
        hits += c.llc_hits;
        instr += c.instructions;
    }
    put(set, "cpu.stall_frac", ratio(stall as f64, finish as f64));
    put(set, "cpu.mpki", ratio(misses as f64 * 1000.0, instr as f64));
    put(
        set,
        "cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );

    let sum = |f: &dyn Fn(&JobObs) -> u64| -> u64 { obs.iter().map(f).sum() };
    let refused = sum(&|o| o.ctrl.read_queue_full + o.ctrl.write_queue_full);
    let accepted =
        sum(&|o| o.ctrl.reads_completed + o.read_queue_len as u64 + o.ctrl.writes_accepted);
    put(
        set,
        "memctrl.enqueue_refused_frac",
        ratio(refused as f64, (accepted + refused) as f64),
    );
    put(
        set,
        "memctrl.row_hit_rate",
        ratio(
            sum(&|o| o.ctrl.row_buffer.hits()) as f64,
            sum(&|o| o.ctrl.row_buffer.total()) as f64,
        ),
    );
    put(
        set,
        "memctrl.avg_read_latency_cycles",
        ratio(
            sum(&|o| o.ctrl.sum_read_latency) as f64,
            sum(&|o| o.ctrl.reads_completed) as f64,
        ),
    );
    put(
        set,
        "memctrl.refresh_blocked_frac",
        ratio(
            sum(&|o| o.metrics.refresh_blocked_cycles) as f64,
            sum(&|o| o.metrics.total_cycles) as f64,
        ),
    );
    let counts: [Counter; 8] = [
        ("memctrl.reads_blocked_by_refresh", &|o| {
            o.ctrl.reads_blocked_by_refresh
        }),
        ("memctrl.refreshes", &|o| o.metrics.refreshes),
        ("memctrl.refreshes_pulled_in", &|o| {
            o.metrics.refreshes_pulled_in
        }),
        ("memctrl.refreshes_skipped", &|o| {
            o.metrics.refreshes_skipped
        }),
        ("core.sram_lookups", &|o| o.ctrl.sram_lookups),
        ("core.prefetches", &|o| o.ctrl.prefetches_issued),
        ("core.prefetches_dropped", &|o| o.ctrl.prefetches_dropped),
        ("sim.events", &|o| o.metrics.events),
    ];
    for (name, f) in counts {
        put(set, name, sum(f) as f64);
    }
    put(
        set,
        "dram.energy_mj",
        obs.iter().map(|o| o.metrics.energy_mj()).sum(),
    );
    let sram_hits = sum(&|o| o.ctrl.sram_hits) as f64;
    put(
        set,
        "core.sram_hit_rate",
        ratio(sram_hits, sum(&|o| o.ctrl.sram_lookups) as f64),
    );
    put(
        set,
        "core.prefetch_useful_frac",
        ratio(sram_hits, sum(&|o| o.ctrl.prefetches_issued) as f64),
    );
    put(
        set,
        "core.prefetch_decisions",
        sum(&|o| o.rop_decisions.0) as f64,
    );
    put(
        set,
        "core.skip_decisions",
        sum(&|o| o.rop_decisions.1) as f64,
    );
    let events = sum(&|o| o.metrics.events) as f64;
    put(
        set,
        "sim.events_per_kinstr",
        ratio(
            events * 1000.0,
            sum(&|o| o.metrics.instructions_total) as f64,
        ),
    );
    put(
        set,
        "sim.events_per_kcycle",
        ratio(events * 1000.0, sum(&|o| o.metrics.total_cycles) as f64),
    );
    let backlog = obs
        .iter()
        .filter_map(|o| o.metrics.open_loop.as_ref().map(|ol| ol.backlog_peak))
        .max()
        .unwrap_or(0);
    put(set, "sim.backlog_peak", backlog as f64);
}

/// Host-time layer metrics of a direct run (per-job medians) and its set-up.
pub fn direct_times(set: &mut MetricSet, run: &DirectRun) {
    put(set, "sim.new_s", run.setup.prepare_s);
    put(set, "sim.run_s", run.run_s());
    put(set, "lint.check_config_s", run.setup.lint_s);
    put(set, "lint.verify_mech_s", run.setup.mech_s);
}
