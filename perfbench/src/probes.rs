//! Layer probes for traced runs: each replays the workload's own
//! traffic through one crate's public API and times the calls.
//!
//! * trace — `WorkloadGen::next_record` over each closed job's record
//!   stream (counting the records its instruction quota consumes), or
//!   `ArrivalGen::next_arrival` over each open-loop job's arrivals;
//! * cache — `Cache::try_access` / `fill` replaying the record stream
//!   into the job's LLC, which yields the miss stream the next probes use;
//! * memctrl — `enqueue_read` / `enqueue_write` / `tick` /
//!   `drain_completions_into` fed that stream at its recorded pace;
//! * dram — `DramDevice::earliest_issue` + `issue` for each request's
//!   PRE/ACT/column commands;
//! * core — `Prefetcher::generate` over a prediction table trained on
//!   the stream (ROP jobs only).

use std::collections::VecDeque;
use std::time::Instant;

use rop_cache::{Cache, TryAccess};
use rop_core::{PredictionTable, Prefetcher};
use rop_dram::{Command, DramDevice};
use rop_memctrl::{AddressMapping, Completion, MemController, MemCtrlConfig};
use rop_sim_system::SweepJob;
use rop_trace::{ArrivalGen, SyntheticWorkload, WorkloadGen};

use crate::common::{ratio, MetricSet, Tracer};
use crate::direct::JobObs;
use crate::layers::put;
use crate::plan::Scale;

/// One memory request of a replayed stream.
#[derive(Debug, Clone, Copy)]
struct Req {
    at: u64,
    line: u64,
    write: bool,
    core: usize,
}

/// Accumulated (calls, ns) per probe.
#[derive(Debug, Default)]
struct Tally {
    records: (u64, f64),
    arrivals: (u64, f64),
    cache: (u64, f64),
    enqueue: (u64, f64),
    tick: (u64, f64),
    issue: (u64, f64),
    generate: (u64, f64),
}

fn add(t: &mut (u64, f64), calls: u64, ns: f64) {
    t.0 += calls;
    t.1 += ns;
}

fn per_call(t: (u64, f64)) -> f64 {
    ratio(t.1, t.0 as f64).max(0.0)
}

/// Nanoseconds an empty timed region reads; subtracted from every
/// individually-timed call.
fn clock_cost_ns() -> f64 {
    let n = 20_000;
    let total: f64 = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            ns_since(t0)
        })
        .sum();
    total / n as f64
}

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// The closed job's record streams through its LLC: counts the records
/// each core's quota consumes and returns the (time-stamped) misses and
/// writebacks of the first `scale.probe_records` records per core.
fn closed_stream(
    job: &SweepJob,
    obs: &JobObs,
    ctrl: &MemCtrlConfig,
    scale: Scale,
    t: &mut Tally,
) -> Vec<Req> {
    let geometry = ctrl.dram.geometry;
    let mapping = AddressMapping::new(geometry, ctrl.mapping);
    let line_bytes = geometry.line_bytes as u64;
    let mut refs: Vec<(u64, u64, bool, usize)> = Vec::new();
    for (i, b) in job.config.benchmarks.iter().enumerate() {
        let mut params = b.params();
        params.base_addr = i as u64 * mapping.lines_per_rank() * line_bytes;
        // Instructions per memory cycle this core achieved in the run.
        let pace = obs
            .metrics
            .cores
            .get(i)
            .map(|c| ratio(c.instructions as f64, c.finish_cycle as f64))
            .filter(|p| *p > 0.0)
            .unwrap_or(1.0);
        // Count (and time) the records the quota consumes...
        let seed = job.config.seed.wrapping_add(i as u64 * 7919);
        let mut gen = SyntheticWorkload::new(params.clone(), seed);
        let (mut instr, mut n) = (0u64, 0u64);
        let t0 = Instant::now();
        while instr < job.spec.instructions {
            instr += gen.next_record().gap_instructions as u64 + 1;
            n += 1;
        }
        add(&mut t.records, n, ns_since(t0));
        // ...then replay the head of the same stream with timestamps.
        let mut gen = SyntheticWorkload::new(params, seed);
        let mut instr = 0u64;
        for _ in 0..(n as usize).min(scale.probe_records) {
            let r = gen.next_record();
            instr += r.gap_instructions as u64 + 1;
            refs.push((
                (instr as f64 / pace) as u64,
                r.line_addr(line_bytes),
                r.is_write,
                i,
            ));
        }
    }
    refs.sort_by_key(|r| (r.0, r.3));
    let mut cache = Cache::new(job.config.llc);
    let mut out = Vec::new();
    let t0 = Instant::now();
    for &(at, line, write, core) in &refs {
        if let TryAccess::Miss(token) = cache.try_access(line, write) {
            out.push(Req {
                at,
                line,
                write,
                core,
            });
            if let Some(victim) = cache.fill(token) {
                out.push(Req {
                    at,
                    line: victim,
                    write: true,
                    core,
                });
            }
        }
    }
    add(&mut t.cache, refs.len() as u64, ns_since(t0));
    out
}

/// The open-loop job's merged tenant arrivals.
fn open_stream(job: &SweepJob, ctrl: &MemCtrlConfig, scale: Scale, t: &mut Tally) -> Vec<Req> {
    let Some(spec) = &job.config.open_loop else {
        return Vec::new();
    };
    let mapping = AddressMapping::new(ctrl.dram.geometry, ctrl.mapping);
    let per_tenant = spec.offered_rpkc / spec.tenants as f64;
    let cap = scale.probe_records / spec.tenants;
    let mut out = Vec::new();
    for tenant in 0..spec.tenants {
        let mut gen = ArrivalGen::new(
            spec.process.clone(),
            per_tenant,
            spec.pattern.clone(),
            spec.region_lines,
            spec.write_fraction,
            job.config.seed.wrapping_add(tenant as u64 * 7919),
        );
        let base = tenant as u64 * mapping.lines_per_rank();
        let t0 = Instant::now();
        let arrivals: Vec<_> = (0..cap).map(|_| gen.next_arrival()).collect();
        add(&mut t.arrivals, cap as u64, ns_since(t0));
        out.extend(
            arrivals
                .into_iter()
                .take_while(|a| a.at < spec.duration)
                .map(|a| Req {
                    at: a.at,
                    line: base + a.line_offset,
                    write: a.is_write,
                    core: tenant,
                }),
        );
    }
    out.sort_by_key(|r| (r.at, r.core));
    out
}

/// Controller ticks one job's memctrl probe may take.
const MAX_TICKS: usize = 20_000;

/// Feeds `stream` to a fresh controller open-loop, timing every
/// enqueue attempt and every tick (+ completion drain).
fn memctrl_probe(ctrl: &MemCtrlConfig, stream: &[Req], clock: f64, t: &mut Tally) {
    let mut mc = MemController::new(ctrl.clone());
    let mut backlog: VecDeque<Req> = VecDeque::new();
    let mut done: Vec<Completion> = Vec::new();
    let (mut now, mut next) = (0u64, 0usize);
    let mut ticks = 0usize;
    while (next < stream.len() || !backlog.is_empty()) && ticks < MAX_TICKS {
        ticks += 1;
        while next < stream.len() && stream[next].at <= now {
            backlog.push_back(stream[next]);
            next += 1;
        }
        while let Some(&r) = backlog.front() {
            let t0 = Instant::now();
            let accepted = if r.write {
                mc.enqueue_write(r.line, r.core, now)
            } else {
                mc.enqueue_read(r.line, r.core, now).is_some()
            };
            add(&mut t.enqueue, 1, ns_since(t0) - clock);
            if !accepted {
                break;
            }
            backlog.pop_front();
        }
        let t0 = Instant::now();
        let hint = mc.tick(now);
        mc.drain_completions_into(&mut done);
        add(&mut t.tick, 1, ns_since(t0) - clock);
        done.clear();
        let mut to = hint;
        if let Some(r) = stream.get(next) {
            to = to.min(r.at);
        }
        if !backlog.is_empty() {
            to = now + 1;
        }
        now = to.max(now + 1);
    }
}

/// Issues each request's PRE/ACT/column commands at their earliest
/// legal cycle on a fresh device.
fn dram_probe(ctrl: &MemCtrlConfig, stream: &[Req], clock: f64, t: &mut Tally) {
    let mapping = AddressMapping::new(ctrl.dram.geometry, ctrl.mapping);
    let mut dev = DramDevice::new(ctrl.dram.clone());
    let mut now = 0u64;
    for r in stream {
        let d = mapping.decode(r.line);
        let (rank, bank) = (d.rank, d.bank);
        let mut cmds = Vec::with_capacity(3);
        match dev.open_row(rank, bank) {
            Some(row) if row == d.row => {}
            Some(_) => {
                cmds.push(Command::Precharge { rank, bank });
                cmds.push(Command::Activate {
                    rank,
                    bank,
                    row: d.row,
                });
            }
            None => cmds.push(Command::Activate {
                rank,
                bank,
                row: d.row,
            }),
        }
        cmds.push(if r.write {
            Command::Write {
                rank,
                bank,
                column: d.col,
            }
        } else {
            Command::Read {
                rank,
                bank,
                column: d.col,
            }
        });
        for cmd in cmds {
            let t0 = Instant::now();
            let issued = dev.earliest_issue(&cmd, now).map(|at| dev.issue(&cmd, at));
            add(&mut t.issue, 1, ns_since(t0) - clock);
            match issued {
                Ok(o) => now = o.issued_at,
                Err(_) => break,
            }
        }
    }
}

/// Trains a prediction table on the stream's reads and asks the
/// prefetcher for a buffer-load of candidates every 64 reads.
fn generate_probe(ctrl: &MemCtrlConfig, stream: &[Req], t: &mut Tally) {
    let Some(rop) = &ctrl.rop else { return };
    let g = ctrl.dram.geometry;
    let mapping = AddressMapping::new(g, ctrl.mapping);
    let mut table = PredictionTable::new(rop.banks_per_rank);
    let prefetcher = Prefetcher::new(rop.lines_per_bank);
    for (i, r) in stream.iter().filter(|r| !r.write).enumerate() {
        let d = mapping.decode(r.line);
        table.update(d.bank, d.line_in_bank(g.lines_per_row));
        if i % 64 == 63 {
            let t0 = Instant::now();
            let c = prefetcher.generate(&table, rop.buffer_capacity);
            add(&mut t.generate, 1, ns_since(t0));
            std::hint::black_box(c);
        }
    }
}

/// Runs every probe over the workload's jobs and records the layer
/// timings (0 for a layer the workload never calls).
pub fn direct(
    layers: &mut MetricSet,
    jobs: &[SweepJob],
    obs: &[JobObs],
    scale: Scale,
    tracer: &Tracer,
) {
    let clock = clock_cost_ns();
    let mut t = Tally::default();
    for (job, o) in jobs.iter().zip(obs) {
        let ctrl = rop_lint::config::resolve_ctrl(job);
        let stream = if job.config.open_loop.is_some() {
            tracer.span("probe.trace", || open_stream(job, &ctrl, scale, &mut t))
        } else {
            tracer.span("probe.trace+cache", || {
                closed_stream(job, o, &ctrl, scale, &mut t)
            })
        };
        tracer.span("probe.memctrl", || {
            memctrl_probe(&ctrl, &stream, clock, &mut t)
        });
        tracer.span("probe.dram", || dram_probe(&ctrl, &stream, clock, &mut t));
        tracer.span("probe.core", || generate_probe(&ctrl, &stream, &mut t));
    }
    put(layers, "trace.records", t.records.0 as f64);
    put(layers, "trace.record_ns", per_call(t.records));
    put(layers, "trace.arrival_ns", per_call(t.arrivals));
    put(layers, "cache.access_ns", per_call(t.cache));
    put(layers, "memctrl.enqueue_ns", per_call(t.enqueue));
    put(layers, "memctrl.tick_ns", per_call(t.tick));
    put(layers, "dram.issue_ns", per_call(t.issue));
    put(layers, "core.generate_ns", per_call(t.generate));
}

/// `bench.trace_overhead_frac`: recorded spans × the measured cost of
/// one span, over the traced run's wall time so far.
pub fn overhead(layers: &mut MetricSet, tracer: &Tracer) {
    let spans = tracer.spans().len() as f64;
    put(
        layers,
        "bench.trace_overhead_frac",
        ratio(spans * Tracer::span_cost_ns(), tracer.elapsed_ns()),
    );
}
