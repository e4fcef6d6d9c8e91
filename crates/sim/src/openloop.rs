//! Open-loop traffic injector: the datacenter-mode engine.
//!
//! [`crate::System`] is closed-loop — a stalled core stops issuing, so
//! the request rate adapts to the memory system and mean IPC is the
//! natural metric. Datacenter front-ends are open-loop: requests arrive
//! on a wall-clock schedule regardless of how the memory system is
//! doing, queue up in front of it when it falls behind, and the metric
//! that matters is the *tail* of schedule-to-data latency (DSARP's
//! motivation, Chang et al., HPCA 2014). [`OpenLoopSystem`] drives the
//! unmodified [`MemController`] with seeded arrival processes
//! ([`rop_trace::arrival`]) and collects fixed-bucket log2 latency
//! histograms ([`crate::metrics::LatencyHistogram`]).
//!
//! Semantics:
//!
//! * Each of `tenants` traffic sources owns one rank-partition worth of
//!   lines (base line `t × lines_per_rank`), so under the
//!   rank-partitioned mapping tenant *t*'s requests land on rank *t* —
//!   the same isolation contrast the closed-loop multicore runs use.
//! * Arrivals from all tenants merge into one FIFO frontend backlog in
//!   `(arrival cycle, tenant)` order. The head of the backlog is
//!   offered to the controller as soon as it can be accepted; when the
//!   controller refuses (queue full), the backlog grows — there is no
//!   back-pressure on the generators. Latency is measured from the
//!   *scheduled arrival*, so backlog wait counts toward the tail,
//!   exactly like a datacenter SLO clock that starts when the request
//!   hits the front-end.
//! * The loop is event-driven: it wakes at the next controller hint,
//!   read completion or (with an empty backlog) arrival. A refused head
//!   is re-offered at the next hint, not every cycle: only a command
//!   issued by `tick` frees a queue slot, and then the hint is the next
//!   cycle. Refusals in between are skipped, so the controller's
//!   queue-full counters count one refusal per wake, not per cycle.
//!   With a ROP buffer a refused read still probes the SRAM
//!   ([`MemController::refused_reads_have_effects`]), so those runs
//!   re-offer every cycle. [`OpenLoopSystem::run_reference`] ticks
//!   every cycle and is the oracle for both rules.
//! * Reads whose lifetime overlaps a refresh freeze (tracked by the
//!   controller's opt-in id tap) are additionally recorded in a second
//!   histogram — the refresh-attributed tail.
//! * The run is time-bounded (`duration` cycles), not work-bounded:
//!   quantiles need a fixed observation window. Reads still in flight
//!   or still backlogged at the end are censored (counted in
//!   `backlog_final`, not in the histogram).
//!
//! The injector never touches the closed-loop engine path: it is a
//! separate loop over the same controller, and the closed-loop
//! differential guard in the tests proves `System` output is
//! byte-identical with this module compiled in.

use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rop_memctrl::{Completion, MemController};
use rop_trace::{Arrival, ArrivalGen};

use crate::audit::{Auditor, AuditorConfig};
use crate::config::{OpenLoopSpec, SystemConfig};
use crate::metrics::{LatencyHistogram, OpenLoopMetrics, RunMetrics};
use crate::wheel::TimingWheel;
use crate::Cycle;

/// One request waiting in the frontend backlog.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    /// Scheduled arrival cycle (the SLO clock start).
    at: Cycle,
    /// Tenant index (doubles as the controller's `core` id).
    tenant: usize,
    /// Absolute line address inside the tenant's partition.
    line_addr: u64,
    is_write: bool,
}

/// A complete open-loop machine: arrival generators → frontend backlog
/// → controller → DRAM.
pub struct OpenLoopSystem {
    cfg: SystemConfig,
    spec: OpenLoopSpec,
    ctrl: MemController,
    gens: Vec<ArrivalGen>,
    /// Peeked next arrival per tenant (generators are infinite).
    heads: Vec<Arrival>,
    /// Base line address of each tenant's footprint.
    tenant_base: Vec<u64>,
    /// FIFO of requests that have arrived but not yet been accepted.
    backlog: VecDeque<PendingReq>,
    /// Read id → scheduled arrival cycle, for latency on completion.
    arrival_of: BTreeMap<u64, Cycle>,
    /// Read ids observed blocked by a refresh freeze (dedup set).
    blocked: BTreeSet<u64>,
    blocked_scratch: Vec<u64>,
    inflight: TimingWheel,
    due: Vec<Completion>,
    now: Cycle,
    read_hist: LatencyHistogram,
    refresh_hist: LatencyHistogram,
    reads_injected: u64,
    writes_injected: u64,
    backlog_peak: u64,
    wall_seconds: f64,
    events: u64,
    auditor: Option<Auditor>,
    cancel: Option<std::sync::Arc<crate::runner::CancelToken>>,
}

impl OpenLoopSystem {
    /// Builds the open-loop machine described by `cfg` (whose
    /// `open_loop` field must be set).
    ///
    /// # Panics
    /// Panics on an invalid configuration: missing/invalid open-loop
    /// spec, more tenants than ranks, or a tenant footprint larger than
    /// one rank partition.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        let spec = cfg
            .open_loop
            .clone()
            .expect("OpenLoopSystem requires cfg.open_loop");
        spec.validate().expect("invalid open-loop spec");
        let ctrl_cfg = cfg
            .ctrl_override
            .clone()
            .unwrap_or_else(|| cfg.kind.memctrl_config(cfg.ranks, cfg.seed));
        let ctrl = MemController::new(ctrl_cfg);
        let lines_per_rank = ctrl.mapping().lines_per_rank();
        assert!(
            spec.tenants <= cfg.ranks,
            "open-loop tenants ({}) exceed ranks ({})", // rop-lint: allow(no-panic)
            spec.tenants,
            cfg.ranks
        );
        assert!(
            spec.region_lines <= lines_per_rank,
            "tenant footprint ({} lines) exceeds one rank partition ({lines_per_rank})", // rop-lint: allow(no-panic)
            spec.region_lines
        );
        let per_tenant_rpkc = spec.offered_rpkc / spec.tenants as f64;
        let mut gens: Vec<ArrivalGen> = (0..spec.tenants)
            .map(|t| {
                ArrivalGen::new(
                    spec.process.clone(),
                    per_tenant_rpkc,
                    spec.pattern.clone(),
                    spec.region_lines,
                    spec.write_fraction,
                    cfg.seed.wrapping_add(t as u64 * 7919),
                )
            })
            .collect();
        let heads = gens.iter_mut().map(|g| g.next_arrival()).collect();
        let tenant_base = (0..spec.tenants)
            .map(|t| t as u64 * lines_per_rank)
            .collect();
        let mut sys = OpenLoopSystem {
            cfg,
            spec,
            ctrl,
            gens,
            heads,
            tenant_base,
            backlog: VecDeque::new(),
            arrival_of: BTreeMap::new(),
            blocked: BTreeSet::new(),
            blocked_scratch: Vec::new(),
            inflight: TimingWheel::new(),
            due: Vec::new(),
            now: 0,
            read_hist: LatencyHistogram::new(),
            refresh_hist: LatencyHistogram::new(),
            reads_injected: 0,
            writes_injected: 0,
            backlog_peak: 0,
            wall_seconds: 0.0,
            events: 0,
            auditor: None,
            cancel: None,
        };
        sys.ctrl.set_track_refresh_blocked(true);
        sys
    }

    /// Attaches a cancellation token (see [`crate::runner::CancelToken`]).
    pub fn set_cancel_token(&mut self, token: std::sync::Arc<crate::runner::CancelToken>) {
        self.cancel = Some(token);
    }

    /// Enables audit mode with parameters derived from the controller
    /// configuration, exactly like [`crate::System::enable_audit`].
    pub fn enable_audit(&mut self) {
        let cfg = AuditorConfig::from_ctrl(self.ctrl.config());
        self.ctrl.set_trace_enabled(true);
        self.auditor = Some(Auditor::new(cfg));
    }

    /// Immutable access to the controller (for inspection in tests).
    pub fn controller(&self) -> &MemController {
        &self.ctrl
    }

    /// Moves every arrival scheduled at or before `now` from the
    /// generators into the backlog, in `(arrival, tenant)` order.
    fn merge_arrivals(&mut self, now: Cycle) {
        loop {
            let mut best: Option<usize> = None;
            for (t, h) in self.heads.iter().enumerate() {
                if h.at > now {
                    continue;
                }
                // Ascending tenant iteration makes the first strict
                // minimum the (at, tenant) winner.
                if best.is_none_or(|b| h.at < self.heads[b].at) {
                    best = Some(t);
                }
            }
            let Some(t) = best else { break };
            let h = self.heads[t];
            self.backlog.push_back(PendingReq {
                at: h.at,
                tenant: t,
                line_addr: self.tenant_base[t] + h.line_offset,
                is_write: h.is_write,
            });
            self.heads[t] = self.gens[t].next_arrival();
        }
        self.backlog_peak = self.backlog_peak.max(self.backlog.len() as u64);
    }

    /// Offers the backlog head to the controller until it refuses.
    /// Head-of-line blocking is deliberate: the frontend is a FIFO, so
    /// one full queue stalls everything behind it (that wait is real
    /// latency and must show in the tail).
    fn inject(&mut self, now: Cycle) {
        while let Some(&head) = self.backlog.front() {
            if head.is_write {
                if !self.ctrl.enqueue_write(head.line_addr, head.tenant, now) {
                    break;
                }
                self.writes_injected += 1;
            } else {
                let Some(id) = self.ctrl.enqueue_read(head.line_addr, head.tenant, now) else {
                    break;
                };
                self.arrival_of.insert(id, head.at);
                self.reads_injected += 1;
            }
            self.backlog.pop_front();
        }
    }

    /// Runs the injector for the configured duration and returns the
    /// metrics (with `open_loop` populated).
    pub fn run(&mut self) -> RunMetrics {
        self.drive(true);
        self.collect()
    }

    /// [`OpenLoopSystem::run`] without any fast-forwarding: ticks (and
    /// re-offers the backlog head) every single cycle. Semantically
    /// identical and much slower — the oracle the differential tests
    /// compare the event-driven loop against.
    pub fn run_reference(&mut self) -> RunMetrics {
        self.drive(false);
        self.collect()
    }

    /// The injection loop shared by both entry points.
    fn drive(&mut self, event_driven: bool) {
        // Wall-clock throughput metadata only — never fed back into
        // simulated state, so determinism is unaffected.
        let start = Instant::now(); // rop-lint: allow(wallclock)
        let duration = self.spec.duration;
        // With a ROP buffer a refused read still probes the SRAM, so
        // every re-offer is observable and none may be skipped.
        let retry_every_cycle = self.ctrl.refused_reads_have_effects();
        while self.now < duration {
            let now = self.now;
            self.events += 1;
            if let Some(token) = &self.cancel {
                token.beat(now);
                token.checkpoint(); // panics when a watchdog cancelled us
            }

            // Deliver read data that has arrived, in `(done_at, id)`
            // order, and score each read against its SLO clock.
            self.inflight.pop_due(now, &mut self.due);
            for i in 0..self.due.len() {
                let c = self.due[i];
                if let Some(at) = self.arrival_of.remove(&c.id) {
                    let latency = c.done_at.saturating_sub(at);
                    self.read_hist.record(latency);
                    if self.blocked.remove(&c.id) {
                        self.refresh_hist.record(latency);
                    }
                }
            }
            self.due.clear();

            // Frontend: pull due arrivals, then push at the controller.
            self.merge_arrivals(now);
            self.inject(now);

            // Tick the controller and collect fresh completions.
            let hint = self.ctrl.tick(now);
            if let Some(auditor) = &mut self.auditor {
                self.ctrl.drain_trace(auditor);
            }
            self.ctrl.drain_completions_into(&mut self.due);
            for i in 0..self.due.len() {
                self.inflight.push(self.due[i]);
            }
            self.due.clear();
            self.ctrl
                .drain_refresh_blocked_into(&mut self.blocked_scratch);
            for &id in &self.blocked_scratch {
                self.blocked.insert(id);
            }
            self.blocked_scratch.clear();

            // Advance straight to the earliest next event: controller
            // hint and next read completion, plus the next scheduled
            // arrival while the backlog is empty. A non-empty backlog
            // means its head was just refused. Only a queue slot can
            // admit it, and a slot frees only when `tick` issues a
            // command — which makes the hint `now + 1` — so the head
            // waits for the hint, and arrivals in the skipped span
            // queue behind it at the next wake in unchanged order.
            let next = if !event_driven || (retry_every_cycle && !self.backlog.is_empty()) {
                now + 1
            } else {
                let mut next = hint;
                if let Some(done_at) = self.inflight.peek_earliest() {
                    next = next.min(done_at);
                }
                if self.backlog.is_empty() {
                    if let Some(at) = self.heads.iter().map(|h| h.at).min() {
                        next = next.min(at);
                    }
                }
                next
            };
            self.now = next.max(now + 1).min(duration);
        }
        if let Some(token) = &self.cancel {
            token.beat(self.now);
        }
        self.wall_seconds += start.elapsed().as_secs_f64();
        if let Some(auditor) = &self.auditor {
            if auditor.summary().violations > 0 {
                panic!("{}", auditor.report()); // rop-lint: allow(no-panic)
            }
        }
    }

    fn collect(&mut self) -> RunMetrics {
        let duration = self.spec.duration.max(1);
        self.ctrl.finalize_analysis();
        let energy = self.ctrl.energy_breakdown(duration);
        let analysis = (0..self.ctrl.refresh_slots())
            .map(|slot| self.ctrl.analysis(slot).reports())
            .collect();
        let stats = self.ctrl.stats().clone();
        let refreshes: u64 = (0..self.cfg.ranks)
            .map(|r| self.ctrl.refreshes_issued(r))
            .sum();
        crate::engine_stats::record(duration, 0, self.events);
        let open_loop = OpenLoopMetrics {
            process: self.spec.process.label().to_string(),
            offered_rpkc: self.spec.offered_rpkc,
            achieved_rpkc: self.read_hist.count() as f64 * 1000.0 / duration as f64,
            reads_injected: self.reads_injected,
            writes_injected: self.writes_injected,
            backlog_peak: self.backlog_peak,
            backlog_final: self.backlog.len() as u64,
            // Behind schedule by more than one controller queue's worth
            // at the end of the window: the offered load is past this
            // mechanism's saturation point.
            saturated: self.backlog.len() > self.ctrl.config().read_queue_capacity,
            read_latency: self.read_hist.clone(),
            refresh_blocked_latency: self.refresh_hist.clone(),
        };
        RunMetrics {
            system: self.cfg.kind.label(),
            cores: Vec::new(),
            total_cycles: duration,
            energy,
            refreshes,
            mechanism: self.ctrl.config().mechanism.label().to_string(),
            refresh_blocked_cycles: stats.refresh_blocked_cycles,
            refreshes_skipped: self.ctrl.refreshes_skipped(),
            refreshes_pulled_in: self.ctrl.refreshes_pulled_in(),
            sram_hit_rate: if stats.sram_lookups == 0 {
                0.0
            } else {
                stats.sram_hits as f64 / stats.sram_lookups as f64
            },
            sram_lookups: stats.sram_lookups,
            prefetches: stats.prefetches_issued,
            analysis,
            row_hit_rate: stats.row_buffer.ratio(),
            avg_read_latency: self.read_hist.mean(),
            hit_cycle_cap: false,
            wall_seconds: self.wall_seconds,
            instructions_total: 0,
            events: self.events,
            audit: self.auditor.as_ref().map(|a| a.summary()),
            open_loop: Some(open_loop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use rop_memctrl::MappingScheme;
    use rop_trace::{AddressPattern, ArrivalProcess, Benchmark};

    fn open_loop_config(kind: SystemKind, rpkc: f64, duration: Cycle) -> SystemConfig {
        let mut cfg = SystemConfig::multi_core(
            [
                Benchmark::Lbm,
                Benchmark::Libquantum,
                Benchmark::Bwaves,
                Benchmark::GemsFDTD,
            ],
            kind,
            42,
        );
        // Pin tenants to ranks regardless of the mechanism's default
        // mapping (the tail-latency experiment does the same).
        let mut ctrl = kind.memctrl_config(cfg.ranks, cfg.seed);
        ctrl.mapping = MappingScheme::RankPartitioned;
        cfg.ctrl_override = Some(ctrl);
        cfg.open_loop = Some(OpenLoopSpec {
            process: ArrivalProcess::Poisson,
            offered_rpkc: rpkc,
            tenants: 4,
            pattern: AddressPattern::Random,
            region_lines: 1 << 12,
            write_fraction: 0.25,
            duration,
        });
        cfg
    }

    #[test]
    fn runs_and_reports_latency() {
        let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, 80.0, 100_000));
        let m = sys.run();
        let ol = m.open_loop.expect("open-loop metrics");
        assert!(ol.reads_injected > 1_000, "{}", ol.reads_injected);
        assert!(ol.read_latency.count() > 1_000);
        assert!(ol.read_latency.p50() > 0);
        assert!(ol.read_latency.p999() >= ol.read_latency.p99());
        assert!(ol.read_latency.p99() >= ol.read_latency.p50());
        assert!(!ol.saturated);
        assert!(
            (ol.achieved_rpkc - 80.0 * 0.75).abs() < 12.0,
            "{}",
            ol.achieved_rpkc
        );
        assert_eq!(m.total_cycles, 100_000);
        assert!(m.refreshes > 0);
        // Refresh-attributed tail: some reads overlapped a freeze, and
        // the blocked subset is worse (or equal) at the median.
        assert!(ol.refresh_blocked_latency.count() > 0);
        assert!(ol.refresh_blocked_latency.p50() >= ol.read_latency.p50());
    }

    /// Event-driven differential: `run` skips cycles the reference
    /// loop ticks one by one — idle stretches, and past the knee the
    /// span a refused backlog head waits for the controller hint — and
    /// must produce the same simulated metrics for every mechanism,
    /// below and past the knee, and for ROP (which retries every cycle
    /// while the head is refused).
    #[test]
    fn event_loop_matches_reference() {
        let sim_json = |mut m: RunMetrics| {
            m.events = 0;
            m.wall_seconds = 0.0;
            m.to_json().render()
        };
        let rop = SystemKind::Rop { buffer: 64 };
        let mut kinds = SystemKind::MECHANISMS.to_vec();
        kinds.push(rop);
        for kind in kinds {
            for rpkc in [75.0, 320.0] {
                let mut cfg = open_loop_config(kind, rpkc, 20_000);
                if let Some(rc) = cfg.ctrl_override.as_mut().and_then(|c| c.rop.as_mut()) {
                    // Power the SRAM buffer on within the window, so
                    // refused reads during freezes probe it.
                    rc.training_refreshes = 2;
                }
                let fast = OpenLoopSystem::new(cfg.clone()).run();
                let slow = OpenLoopSystem::new(cfg).run_reference();
                assert_eq!(slow.events, 20_000, "{kind:?} at {rpkc}");
                let saturated = fast.open_loop.as_ref().unwrap().saturated;
                assert_eq!(saturated, rpkc > 250.0, "{kind:?} at {rpkc}");
                if kind == rop {
                    assert!(fast.sram_lookups > 0, "ROP buffer never probed at {rpkc}");
                } else if saturated {
                    assert!(
                        fast.events < fast.total_cycles,
                        "{kind:?} past the knee: {} events, {} cycles",
                        fast.events,
                        fast.total_cycles
                    );
                }
                assert_eq!(sim_json(fast), sim_json(slow), "{kind:?} at {rpkc}");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Darp, 120.0, 60_000));
            let mut m = sys.run();
            // Wall-clock timing is the one legitimately nondeterministic
            // field; everything else must be byte-identical.
            m.wall_seconds = 0.0;
            m.to_json().render()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn audit_clean_for_every_mechanism() {
        for kind in SystemKind::MECHANISMS {
            let mut sys = OpenLoopSystem::new(open_loop_config(kind, 60.0, 40_000));
            sys.enable_audit();
            let m = sys.run(); // panics on any violation
            let audit = m.audit.expect("audited run");
            assert!(audit.events > 0, "{kind:?}: no events audited");
            assert_eq!(audit.violations, 0);
        }
    }

    #[test]
    fn saturates_past_the_bus_ceiling() {
        // DDR4-1600, burst 4: the data bus serves at most 250 rpkc.
        // Offering 400 rpkc must leave the frontend behind schedule.
        let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, 400.0, 80_000));
        let m = sys.run();
        let ol = m.open_loop.unwrap();
        assert!(ol.saturated, "backlog_final = {}", ol.backlog_final);
        assert!(ol.achieved_rpkc < 300.0);
        // Saturation shows up as queueing-dominated latency: the tail is
        // thousands of cycles, far past any DRAM service time.
        assert!(ol.read_latency.p999() > 2_048, "{}", ol.read_latency.p999());
    }

    #[test]
    fn higher_load_has_fatter_tail() {
        let p999 = |rpkc: f64| {
            let mut sys =
                OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, rpkc, 120_000));
            let m = sys.run();
            m.open_loop.unwrap().read_latency.p999()
        };
        assert!(p999(220.0) > p999(40.0));
    }

    #[test]
    #[should_panic(expected = "tenants")]
    fn more_tenants_than_ranks_panics() {
        let mut cfg = open_loop_config(SystemKind::Baseline, 60.0, 10_000);
        cfg.open_loop.as_mut().unwrap().tenants = 8;
        let _ = OpenLoopSystem::new(cfg);
    }

    #[test]
    fn mechanism_config_without_override_works() {
        // No ctrl_override: the mechanism's own mapping applies
        // (footprints stay disjoint even when not rank-pinned).
        let mut cfg = open_loop_config(SystemKind::Sarp, 60.0, 30_000);
        cfg.ctrl_override = None;
        let m = OpenLoopSystem::new(cfg).run();
        assert!(m.open_loop.unwrap().read_latency.count() > 100);
    }

    /// Closed-loop differential guard: constructing/running the
    /// open-loop engine must not perturb the closed-loop path — a
    /// `System` run before and after an interleaved `OpenLoopSystem`
    /// run is byte-identical.
    #[test]
    fn closed_loop_engine_is_unperturbed() {
        let closed = || {
            let cfg = SystemConfig::single_core(Benchmark::Lbm, SystemKind::Rop { buffer: 64 }, 7);
            let mut sys = crate::System::new(cfg);
            let mut m = sys.run_until(20_000, 2_000_000);
            m.wall_seconds = 0.0;
            m.to_json().render()
        };
        let before = closed();
        let mut ol = OpenLoopSystem::new(open_loop_config(SystemKind::Baseline, 120.0, 30_000));
        let _ = ol.run();
        let after = closed();
        assert_eq!(before, after);
    }

    /// The open-loop config knob itself must not leak into the
    /// closed-loop engine: `System::new` ignores `open_loop` entirely
    /// (planners route by its presence, not the engine).
    #[test]
    fn run_metrics_roundtrip_from_openloop_run() {
        let mut sys = OpenLoopSystem::new(open_loop_config(SystemKind::Raidr, 100.0, 50_000));
        let m = sys.run();
        let text = m.to_json().render();
        let back = RunMetrics::from_json(&rop_stats::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), text);
        let ol = back.open_loop.unwrap();
        assert_eq!(
            ol.read_latency.p999(),
            m.open_loop.as_ref().unwrap().read_latency.p999()
        );
    }
}
