//! System assembly and the fixed-work simulation loop.
//!
//! Two loops drive the same machine state:
//!
//! * [`System::run_until`] — the event-driven engine. Every iteration
//!   advances `now` straight to the earliest next event (core memory op,
//!   controller hint, or in-flight read completion), batch-replaying the
//!   skipped cycles on each core in O(1) via [`Core::fast_forward`].
//!   In-flight completions live in a hierarchical timing wheel
//!   ([`crate::wheel`]) that preserves the `(done_at, id)` delivery
//!   order of the binary heap it replaced.
//! * [`System::run_until_reference`] — a pure per-cycle loop with no
//!   fast-forwarding at all. It exists as the semantic oracle: the
//!   differential tests assert both loops produce identical metrics.
//!
//! See DESIGN.md ("Engine") for the event contract and the invariants
//! that make the batched loop cycle-exact.

use std::time::Instant;

use rop_cache::{Cache, TryAccess};
use rop_cpu::{Core, MemOp, SubmitResult};
use rop_memctrl::{Completion, MemController};
use rop_trace::SyntheticWorkload;

use crate::audit::{Auditor, AuditorConfig};
use crate::config::SystemConfig;
use crate::metrics::{CoreMetrics, RunMetrics};
use crate::wheel::TimingWheel;
use crate::Cycle;

/// A complete simulated machine: cores → shared LLC → controller → DRAM.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core<SyntheticWorkload>>,
    llc: Cache,
    ctrl: MemController,
    /// Read completions waiting for their data-arrival cycle, popped in
    /// `(done_at, id)` order (see [`crate::wheel`]).
    inflight: TimingWheel,
    /// Reused batch buffer for completions due this cycle.
    due: Vec<Completion>,
    now: Cycle,
    /// Cycle at which each core crossed its instruction quota.
    finish: Vec<Option<Cycle>>,
    /// `log2(line_bytes)` when the line size is a power of two.
    line_shift: Option<u32>,
    /// Wall-clock seconds spent inside the run loop.
    wall_seconds: f64,
    /// Engine loop iterations executed (events processed).
    events: u64,
    /// Online invariant checker consuming the event trace, when audit
    /// mode is enabled.
    auditor: Option<Auditor>,
    /// Cooperative cancellation + heartbeat, when a supervisor watches
    /// this run (see [`crate::runner::CancelToken`]).
    cancel: Option<std::sync::Arc<crate::runner::CancelToken>>,
}

impl System {
    /// Builds the system described by `cfg`.
    ///
    /// Each core's footprint is offset by one rank-partition worth of
    /// lines, so under rank-partitioned mappings core *i* occupies rank
    /// *i*, and under the interleaved baseline mapping footprints remain
    /// disjoint but spread over all ranks — exactly the contrast between
    /// the paper's Baseline and Baseline-RP/ROP systems.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        let ctrl_cfg = cfg
            .ctrl_override
            .clone()
            .unwrap_or_else(|| cfg.kind.memctrl_config(cfg.ranks, cfg.seed));
        let ctrl = MemController::new(ctrl_cfg);
        let lines_per_rank = ctrl.mapping().lines_per_rank();
        let line_bytes = ctrl.mapping().geometry().line_bytes as u64;
        let cores = cfg
            .benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut params = b.params();
                params.base_addr = i as u64 * lines_per_rank * line_bytes;
                let workload =
                    SyntheticWorkload::new(params, cfg.seed.wrapping_add(i as u64 * 7919));
                Core::new(cfg.core, workload)
            })
            .collect();
        let llc_line = cfg.llc.line_bytes as u64;
        System {
            llc: Cache::new(cfg.llc),
            finish: vec![None; cfg.benchmarks.len()],
            cores,
            ctrl,
            inflight: TimingWheel::new(),
            due: Vec::new(),
            now: 0,
            line_shift: llc_line
                .is_power_of_two()
                .then(|| llc_line.trailing_zeros()),
            wall_seconds: 0.0,
            events: 0,
            auditor: None,
            cancel: None,
            cfg,
        }
    }

    /// Attaches a cancellation token: every engine iteration publishes
    /// the current cycle as a heartbeat and panics if the token has been
    /// cancelled. Pure observation while uncancelled — two relaxed
    /// atomic operations per iteration, no effect on simulated state.
    pub fn set_cancel_token(&mut self, token: std::sync::Arc<crate::runner::CancelToken>) {
        self.cancel = Some(token);
    }

    /// Enables audit mode with parameters derived from the controller
    /// configuration: the full event trace is collected and checked
    /// online, and the run panics with a labelled violation report if
    /// any invariant fails (see [`crate::audit`]).
    pub fn enable_audit(&mut self) {
        let cfg = AuditorConfig::from_ctrl(self.ctrl.config());
        self.enable_audit_with(cfg);
    }

    /// [`System::enable_audit`] with explicit audit parameters — the
    /// differential tests use this to audit against deliberately
    /// corrupted timing and prove the auditor catches it.
    pub fn enable_audit_with(&mut self, cfg: AuditorConfig) {
        self.ctrl.set_trace_enabled(true);
        self.auditor = Some(Auditor::new(cfg));
    }

    /// The audit outcome so far, when audit mode is on.
    pub fn audit_summary(&self) -> Option<crate::audit::AuditSummary> {
        self.auditor.as_ref().map(|a| a.summary())
    }

    /// The current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Immutable access to the controller (for inspection in tests).
    pub fn controller(&self) -> &MemController {
        &self.ctrl
    }

    /// Runs until every core has retired `target_instructions` (or the
    /// safety cap of `max_cycles` is reached) and returns the metrics.
    ///
    /// Finished cores keep executing so multi-program contention persists
    /// until the last core completes, as in fixed-work methodology; their
    /// statistics are frozen at the quota-crossing cycle.
    pub fn run_until(&mut self, target_instructions: u64, max_cycles: Cycle) -> RunMetrics {
        self.drive(target_instructions, max_cycles, true);
        self.collect(target_instructions, max_cycles)
    }

    /// [`System::run_until`] without any fast-forwarding: ticks every
    /// single cycle. Semantically identical and much slower — it is the
    /// oracle the differential tests compare the event-driven engine
    /// against.
    pub fn run_until_reference(
        &mut self,
        target_instructions: u64,
        max_cycles: Cycle,
    ) -> RunMetrics {
        self.drive(target_instructions, max_cycles, false);
        self.collect(target_instructions, max_cycles)
    }

    /// The simulation loop shared by both entry points.
    ///
    /// Event-driven invariants (enforced by the differential tests):
    /// no core submits a memory op, and no controller action or read
    /// completion occurs, at any skipped cycle — so replaying the skips
    /// with [`Core::fast_forward`] and leaving the controller untouched
    /// reproduces the per-cycle execution exactly.
    fn drive(&mut self, target_instructions: u64, max_cycles: Cycle, event_driven: bool) {
        // Wall-clock throughput metadata only — never fed back into
        // simulated state, so determinism is unaffected.
        let start = Instant::now(); // rop-lint: allow(wallclock)
        let line_bytes = self.cfg.llc.line_bytes as u64;
        let line_shift = self.line_shift;
        while self.finish.iter().any(Option::is_none) && self.now < max_cycles {
            let now = self.now;
            self.events += 1;
            if let Some(token) = &self.cancel {
                token.beat(now);
                token.checkpoint(); // panics when a watchdog cancelled us
            }

            // Deliver read data that has arrived, in `(done_at, id)`
            // order exactly as the old completion heap did.
            self.inflight.pop_due(now, &mut self.due);
            for i in 0..self.due.len() {
                let c = self.due[i];
                self.cores[c.core].complete_read(c.id);
            }
            self.due.clear();

            // Tick every core for exactly this cycle.
            let Self {
                cores, llc, ctrl, ..
            } = self;
            for (i, core) in cores.iter_mut().enumerate() {
                core.tick(|op| submit(llc, ctrl, line_bytes, line_shift, i, now, op));
            }

            // Record quota crossings.
            for (i, core) in self.cores.iter().enumerate() {
                if self.finish[i].is_none() && core.stats().instructions >= target_instructions {
                    self.finish[i] = Some(now + 1);
                }
            }

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

            // Once every core has crossed its quota the run is over; do
            // not fast-forward (and tally stalls for) cycles the
            // per-cycle reference would never execute.
            if !event_driven || self.finish.iter().all(Option::is_some) {
                self.now = now + 1;
                continue;
            }

            // Advance straight to the earliest next event: the controller
            // hint, the next read completion, or the next core memory op.
            let mut next = hint;
            if let Some(done_at) = self.inflight.peek_earliest() {
                next = next.min(done_at);
            }
            for (i, core) in self.cores.iter().enumerate() {
                next = next.min(core.next_event(now));
                if self.finish[i].is_none() {
                    // End the span exactly on a quota-crossing tick: the
                    // reference loop stops simulating once the last core
                    // crosses, so replaying past the crossing would count
                    // stall cycles the reference never executes.
                    let crossing = core.next_quota_crossing(now, target_instructions);
                    next = next.min(crossing.saturating_add(1));
                }
            }
            assert!(
                next != Cycle::MAX,
                "system deadlock: all cores stalled with no pending events"
            );
            let next = next.max(now + 1).min(max_cycles);

            // Batch-replay the skipped cycles on every core (stall and
            // gap-retirement accounting stays cycle-exact), watching for
            // quota crossings inside the span.
            if next > now + 1 {
                let span = next - now - 1;
                for (i, core) in self.cores.iter_mut().enumerate() {
                    let crossed = core.fast_forward(span, target_instructions);
                    if self.finish[i].is_none() {
                        if let Some(offset) = crossed {
                            self.finish[i] = Some(now + 1 + offset + 1);
                        }
                    }
                }
            }
            self.now = next;
        }
        // Publish the final position: a short run can fast-forward to
        // completion in a single engine iteration, and its only in-loop
        // beat would then be cycle 0.
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

    fn collect(&mut self, target: u64, max_cycles: Cycle) -> RunMetrics {
        let hit_cycle_cap = self.finish.iter().any(Option::is_none);
        let total_cycles = self
            .finish
            .iter()
            .map(|f| f.unwrap_or(self.now))
            .max()
            .unwrap_or(self.now)
            .max(1);
        self.ctrl.finalize_analysis();
        let cores: Vec<CoreMetrics> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let s = core.stats();
                let finish = self.finish[i].unwrap_or(self.now).max(1);
                CoreMetrics {
                    benchmark: core.workload_name().to_string(),
                    instructions: s.instructions.min(target),
                    finish_cycle: finish,
                    ipc: s.instructions.min(target) as f64
                        / (finish * core.config().clock_ratio) as f64,
                    llc_hits: s.llc_hits,
                    read_misses: s.read_misses,
                    stall_cycles: s.stall_cycles,
                }
            })
            .collect();
        let energy = self.ctrl.energy_breakdown(total_cycles);
        let ranks = self.cfg.ranks;
        let analysis = (0..self.ctrl.refresh_slots())
            .map(|slot| self.ctrl.analysis(slot).reports())
            .collect();
        let stats = self.ctrl.stats().clone();
        let refreshes: u64 = (0..ranks).map(|r| self.ctrl.refreshes_issued(r)).sum();
        let _ = max_cycles;
        let instructions_total: u64 = self
            .cores
            .iter()
            .map(|c| c.stats().instructions.min(target))
            .sum();
        crate::engine_stats::record(total_cycles, instructions_total, self.events);
        RunMetrics {
            system: self.cfg.kind.label(),
            cores,
            total_cycles,
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
            avg_read_latency: if stats.reads_completed == 0 {
                0.0
            } else {
                stats.sum_read_latency as f64 / stats.reads_completed as f64
            },
            hit_cycle_cap,
            wall_seconds: self.wall_seconds,
            instructions_total,
            events: self.events,
            audit: self.auditor.as_ref().map(|a| a.summary()),
            open_loop: None,
        }
    }
}

/// Routes one core memory operation through the shared LLC and, on a
/// miss, into the memory controller.
///
/// The LLC is probed exactly once: a hit commits immediately, a miss
/// yields a token that is only committed after the controller has
/// accepted everything the miss generates — dropping the token on
/// back-pressure leaves the cache untouched, exactly like the retried
/// access never happened.
///
/// Store misses allocate in the LLC without fetching the line from DRAM
/// (their fill traffic is omitted; the store's memory-side cost is the
/// eventual dirty writeback — see DESIGN.md's substitution notes). Load
/// misses become DRAM reads and may evict a dirty victim, which becomes a
/// DRAM write.
fn submit(
    llc: &mut Cache,
    ctrl: &mut MemController,
    line_bytes: u64,
    line_shift: Option<u32>,
    core: usize,
    now: Cycle,
    op: MemOp,
) -> SubmitResult {
    let (addr, is_write) = match op {
        MemOp::Read { addr } => (addr, false),
        MemOp::Write { addr } => (addr, true),
    };
    let line = match line_shift {
        Some(shift) => addr >> shift,
        None => addr / line_bytes,
    };

    let token = match llc.try_access(line, is_write) {
        TryAccess::Hit => return SubmitResult::LlcHit,
        TryAccess::Miss(token) => token,
    };

    // Miss path: make sure the controller can take everything this miss
    // may generate before committing the fill.
    let write_room = ctrl.write_queue_len() < ctrl.config().write_queue_capacity;
    if !write_room {
        return SubmitResult::Retry;
    }
    if is_write {
        match llc.fill(token) {
            Some(victim) => {
                let ok = ctrl.enqueue_write(victim, core, now);
                debug_assert!(ok, "write room was checked");
                SubmitResult::QueuedWrite
            }
            None => SubmitResult::LlcHit,
        }
    } else {
        let Some(id) = ctrl.enqueue_read(line, core, now) else {
            return SubmitResult::Retry;
        };
        if let Some(victim) = llc.fill(token) {
            let ok = ctrl.enqueue_write(victim, core, now);
            debug_assert!(ok, "write room was checked");
        }
        SubmitResult::QueuedRead(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use rop_trace::Benchmark;

    fn quick(kind: SystemKind, b: Benchmark) -> RunMetrics {
        let mut sys = System::new(SystemConfig::single_core(b, kind, 42));
        sys.run_until(200_000, 20_000_000)
    }

    #[test]
    fn baseline_single_core_completes() {
        let m = quick(SystemKind::Baseline, Benchmark::Libquantum);
        assert!(!m.hit_cycle_cap);
        assert_eq!(m.cores[0].instructions, 200_000);
        assert!(m.ipc() > 0.0);
        assert!(m.refreshes > 0);
        assert!(m.energy.total_nj() > 0.0);
        assert!(m.cores[0].read_misses > 0, "libquantum must stream");
    }

    #[test]
    fn no_refresh_is_at_least_as_fast() {
        let base = quick(SystemKind::Baseline, Benchmark::Lbm);
        let ideal = quick(SystemKind::NoRefresh, Benchmark::Lbm);
        assert_eq!(ideal.refreshes, 0);
        assert!(
            ideal.ipc() >= base.ipc() * 0.999,
            "ideal {} vs base {}",
            ideal.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(SystemKind::Baseline, Benchmark::Gcc);
        let b = quick(SystemKind::Baseline, Benchmark::Gcc);
        assert_eq!(a.ipc(), b.ipc());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.refreshes, b.refreshes);
        assert!((a.energy.total_nj() - b.energy.total_nj()).abs() < 1e-6);
    }

    #[test]
    fn rop_system_runs_and_prefetches() {
        // Long enough to complete the 50-refresh training phase
        // (~312k memory cycles) and prefetch for a while after.
        let mut sys = System::new(SystemConfig::single_core(
            Benchmark::Libquantum,
            SystemKind::Rop { buffer: 64 },
            42,
        ));
        let m = sys.run_until(2_500_000, 80_000_000);
        assert!(!m.hit_cycle_cap);
        // A streaming benchmark must trigger prefetching after training.
        assert!(m.prefetches > 0, "no prefetches issued");
        assert!(m.sram_lookups > 0, "no reads arrived during refreshes");
    }

    #[test]
    fn multicore_runs() {
        let mix = rop_trace::WORKLOAD_MIXES[5]; // lightest mix for speed
        let mut sys = System::new(SystemConfig::multi_core(
            mix.programs,
            SystemKind::Baseline,
            7,
        ));
        let m = sys.run_until(100_000, 50_000_000);
        assert!(!m.hit_cycle_cap);
        assert_eq!(m.cores.len(), 4);
        for c in &m.cores {
            assert!(c.ipc > 0.0, "{} stalled forever", c.benchmark);
        }
    }

    /// Runs `cfg` through both loops, asserts the metrics the
    /// acceptance criteria pin down are bit-identical, and returns the
    /// event loop's metrics.
    fn assert_config_loops_agree(cfg: SystemConfig, target: u64, cap: Cycle) -> RunMetrics {
        let what = format!("{:?}/{:?}", cfg.kind, cfg.benchmarks);
        let mut event = System::new(cfg.clone());
        let me = event.run_until(target, cap);
        let mut reference = System::new(cfg);
        let mr = reference.run_until_reference(target, cap);

        assert_eq!(me.total_cycles, mr.total_cycles, "{what}");
        assert_eq!(me.refreshes, mr.refreshes, "{what}");
        assert_eq!(me.hit_cycle_cap, mr.hit_cycle_cap, "{what}");
        assert_eq!(me.sram_lookups, mr.sram_lookups, "{what}");
        assert_eq!(me.prefetches, mr.prefetches, "{what}");
        assert_eq!(me.energy.total_nj(), mr.energy.total_nj(), "{what}");
        for (ce, cr) in me.cores.iter().zip(&mr.cores) {
            assert_eq!(ce.instructions, cr.instructions, "{what}");
            assert_eq!(ce.finish_cycle, cr.finish_cycle, "{what}");
            assert_eq!(ce.ipc, cr.ipc, "{what}");
            assert_eq!(ce.llc_hits, cr.llc_hits, "{what}");
            assert_eq!(ce.read_misses, cr.read_misses, "{what}");
            assert_eq!(ce.stall_cycles, cr.stall_cycles, "{what}");
        }
        me
    }

    /// [`assert_config_loops_agree`] on a stock single-core system.
    fn assert_loops_agree(kind: SystemKind, b: Benchmark, target: u64, cap: Cycle) {
        assert_config_loops_agree(SystemConfig::single_core(b, kind, 42), target, cap);
    }

    #[test]
    fn event_loop_is_cycle_exact_memory_light() {
        // Compute-heavy: the event engine skips most cycles here, so this
        // is where fast-forward bugs would surface.
        assert_loops_agree(SystemKind::Baseline, Benchmark::Gcc, 120_000, 20_000_000);
        assert_loops_agree(
            SystemKind::Rop { buffer: 64 },
            Benchmark::Gcc,
            120_000,
            20_000_000,
        );
    }

    #[test]
    fn event_loop_is_cycle_exact_streaming() {
        assert_loops_agree(
            SystemKind::Baseline,
            Benchmark::Libquantum,
            120_000,
            20_000_000,
        );
        assert_loops_agree(
            SystemKind::Rop { buffer: 64 },
            Benchmark::Libquantum,
            120_000,
            20_000_000,
        );
    }

    #[test]
    fn event_loop_is_cycle_exact_mixed() {
        assert_loops_agree(SystemKind::Baseline, Benchmark::Lbm, 120_000, 20_000_000);
        assert_loops_agree(
            SystemKind::Rop { buffer: 64 },
            Benchmark::Lbm,
            120_000,
            20_000_000,
        );
    }

    /// Differential check with a tweaked controller configuration —
    /// the hook for stressing timing corners (refresh pressure, tFAW
    /// saturation) that the stock DDR4 profile rarely exercises.
    fn assert_loops_agree_with(
        kind: SystemKind,
        b: Benchmark,
        target: u64,
        cap: Cycle,
        tweak: impl Fn(&mut rop_memctrl::MemCtrlConfig),
    ) {
        let mut cfg = SystemConfig::single_core(b, kind, 42);
        let mut ctrl = kind.memctrl_config(cfg.ranks, cfg.seed);
        tweak(&mut ctrl);
        cfg.ctrl_override = Some(ctrl);
        assert_config_loops_agree(cfg, target, cap);
    }

    /// `cfg` with ROP training cut to two refreshes: the SRAM buffer
    /// powers on within a few tREFI, so short runs reach the prefetch
    /// path instead of ending inside the 50-refresh training phase.
    fn quickly_trained(mut cfg: SystemConfig) -> SystemConfig {
        let mut ctrl = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
        ctrl.rop
            .as_mut()
            .expect("a ROP controller")
            .training_refreshes = 2;
        cfg.ctrl_override = Some(ctrl);
        cfg
    }

    #[test]
    fn event_loop_is_cycle_exact_refresh_heavy() {
        // tREFI/8 (still > tRFC, so the config stays legal): REF
        // traffic dominates and every drain/freeze/thaw transition in
        // the wheel-driven engine must land on the same cycle as the
        // per-cycle oracle.
        for kind in [SystemKind::Baseline, SystemKind::Rop { buffer: 64 }] {
            assert_loops_agree_with(kind, Benchmark::Libquantum, 120_000, 20_000_000, |ctrl| {
                ctrl.dram.timing.t_refi_base /= 8
            });
        }
    }

    #[test]
    fn event_loop_is_cycle_exact_tfaw_saturated() {
        // A pathologically wide four-activate window (tFAW 24 -> 120)
        // makes the rolling-ACT constraint bind on essentially every
        // activate, exercising the SoA ACT-ring bookkeeping and the
        // fast-forward hints it feeds.
        for kind in [SystemKind::Baseline, SystemKind::Rop { buffer: 64 }] {
            assert_loops_agree_with(kind, Benchmark::Libquantum, 120_000, 40_000_000, |ctrl| {
                ctrl.dram.timing.t_faw = 120
            });
        }
    }

    #[test]
    fn event_loop_is_cycle_exact_per_mechanism() {
        // Every refresh mechanism must agree with the per-cycle oracle:
        // DARP's pull-in eligibility, SARP's subarray freezes and
        // RAIDR's skipped rounds all have their own wake-up hints, and
        // a late hint shows up here as a diverging cycle count.
        for kind in [SystemKind::Darp, SystemKind::Sarp, SystemKind::Raidr] {
            assert_loops_agree(kind, Benchmark::Libquantum, 120_000, 20_000_000);
            assert_loops_agree(kind, Benchmark::Gcc, 120_000, 20_000_000);
        }
    }

    #[test]
    fn allbank_mechanism_is_bitexact_with_the_pre_seam_controller() {
        // The seam's AllBank delegation must not change a single cycle
        // relative to the refresh-heavy and tFAW-saturated differential
        // corners the pre-seam controller was pinned on.
        for b in [Benchmark::Libquantum, Benchmark::Lbm] {
            assert_loops_agree(SystemKind::Baseline, b, 120_000, 20_000_000);
        }
        assert_loops_agree_with(
            SystemKind::Baseline,
            Benchmark::Libquantum,
            120_000,
            20_000_000,
            |ctrl| ctrl.dram.timing.t_refi_base /= 8,
        );
    }

    #[test]
    fn mechanisms_are_deterministic() {
        // Same seed, same mechanism: byte-identical metrics payloads
        // (the property the figure files inherit).
        for kind in [SystemKind::Darp, SystemKind::Sarp, SystemKind::Raidr] {
            let mut a = quick(kind, Benchmark::Libquantum);
            let mut b = quick(kind, Benchmark::Libquantum);
            // Wall-clock timing is the one legitimately nondeterministic
            // field; blank it before comparing.
            a.wall_seconds = 0.0;
            b.wall_seconds = 0.0;
            assert_eq!(a.to_json().render(), b.to_json().render(), "{kind:?}");
        }
    }

    #[test]
    fn mechanisms_report_their_signature_counters() {
        let base = quick(SystemKind::Baseline, Benchmark::Libquantum);
        assert_eq!(base.mechanism, "allbank");
        assert_eq!(base.refreshes_skipped, 0);
        assert_eq!(base.refreshes_pulled_in, 0);
        assert!(base.refresh_blocked_cycles > 0, "libquantum must block");

        let raidr = quick(SystemKind::Raidr, Benchmark::Libquantum);
        assert_eq!(raidr.mechanism, "raidr");
        assert!(raidr.refreshes_skipped > 0, "half the rounds should skip");

        let darp = quick(SystemKind::Darp, Benchmark::Gcc);
        assert_eq!(darp.mechanism, "darp");
        assert!(
            darp.refreshes_pulled_in > 0,
            "gcc leaves idle windows to pull refreshes into"
        );

        let sarp = quick(SystemKind::Sarp, Benchmark::Libquantum);
        assert_eq!(sarp.mechanism, "sarp");
        assert!(sarp.refreshes > 0);
    }

    #[test]
    fn darp_and_sarp_shrink_refresh_blocking_under_pressure() {
        // Refresh-heavy shape (tREFI/8): the rivals' whole pitch is
        // fewer demand-visible freeze cycles than all-bank refresh.
        let heavy = |kind: SystemKind| {
            let mut cfg = SystemConfig::single_core(Benchmark::Libquantum, kind, 42);
            let mut ctrl = kind.memctrl_config(cfg.ranks, cfg.seed);
            ctrl.dram.timing.t_refi_base /= 8;
            cfg.ctrl_override = Some(ctrl);
            let mut sys = System::new(cfg);
            sys.run_until(200_000, 40_000_000)
        };
        let base = heavy(SystemKind::Baseline);
        let darp = heavy(SystemKind::Darp);
        let sarp = heavy(SystemKind::Sarp);
        assert!(
            darp.refresh_blocked_cycles < base.refresh_blocked_cycles,
            "DARP {} vs AllBank {}",
            darp.refresh_blocked_cycles,
            base.refresh_blocked_cycles
        );
        assert!(
            sarp.refresh_blocked_cycles < base.refresh_blocked_cycles,
            "SARP {} vs AllBank {}",
            sarp.refresh_blocked_cycles,
            base.refresh_blocked_cycles
        );
    }

    #[test]
    fn event_loop_is_cycle_exact_multicore() {
        let mix = rop_trace::WORKLOAD_MIXES[5];
        let mut event = System::new(SystemConfig::multi_core(
            mix.programs,
            SystemKind::Baseline,
            7,
        ));
        let me = event.run_until(60_000, 50_000_000);
        let mut reference = System::new(SystemConfig::multi_core(
            mix.programs,
            SystemKind::Baseline,
            7,
        ));
        let mr = reference.run_until_reference(60_000, 50_000_000);
        assert_eq!(me.total_cycles, mr.total_cycles);
        assert_eq!(me.refreshes, mr.refreshes);
        for (ce, cr) in me.cores.iter().zip(&mr.cores) {
            assert_eq!(ce.finish_cycle, cr.finish_cycle, "{}", ce.benchmark);
            assert_eq!(ce.stall_cycles, cr.stall_cycles, "{}", ce.benchmark);
        }
    }

    #[test]
    fn event_loop_is_cycle_exact_multicore_rop() {
        // Four ranks take turns with one trained SRAM buffer, so
        // prefetches sit queued while a rank drains. Its drain then
        // completes when the prefetch grace runs out — a change no
        // command or arrival announces, which the controller's hint
        // must still wake the event loop for.
        let kind = SystemKind::Rop { buffer: 64 };
        let mix = rop_trace::WORKLOAD_MIXES[0];
        let cfg = quickly_trained(SystemConfig::multi_core(mix.programs, kind, 1));
        let m = assert_config_loops_agree(cfg, 60_000, 50_000_000);
        assert!(m.prefetches > 0, "the SRAM buffer never powered on");
    }

    #[test]
    fn event_loop_is_cycle_exact_trained_rop() {
        let kind = SystemKind::Rop { buffer: 64 };
        for b in [Benchmark::Libquantum, Benchmark::Lbm] {
            let cfg = quickly_trained(SystemConfig::single_core(b, kind, 42));
            let m = assert_config_loops_agree(cfg, 400_000, 40_000_000);
            assert!(m.prefetches > 0, "{b:?}: the SRAM buffer never powered on");
        }
    }

    #[test]
    fn event_loop_is_cycle_exact_darp_sarp_under_refresh_pressure() {
        // tREFI/8: DARP pulls refreshes into every idle window and SARP
        // keeps one subarray per bank locked most of the time, so the
        // per-bank gates and subarray exemptions change tick by tick.
        for kind in [SystemKind::Darp, SystemKind::Sarp] {
            for b in [Benchmark::Libquantum, Benchmark::Lbm] {
                assert_loops_agree_with(kind, b, 120_000, 20_000_000, |ctrl| {
                    ctrl.dram.timing.t_refi_base /= 8
                });
            }
        }
    }

    #[test]
    fn wall_clock_throughput_is_populated() {
        let m = quick(SystemKind::Baseline, Benchmark::Gcc);
        assert!(m.wall_seconds > 0.0);
        assert!(m.cycles_per_sec() > 0.0);
        assert!(m.instructions_per_sec() > 0.0);
        assert!(m.events_per_sec() > 0.0);
    }

    #[test]
    fn event_engine_processes_fewer_events_than_cycles() {
        // The honest throughput metric: the event engine visits a strict
        // subset of cycles, while the reference loop visits every one.
        let mut event = System::new(SystemConfig::single_core(
            Benchmark::Gcc,
            SystemKind::Baseline,
            42,
        ));
        let me = event.run_until(120_000, 20_000_000);
        assert!(me.events > 0);
        assert!(
            me.events < me.total_cycles,
            "gcc is memory-light; the engine must fast-forward ({} events, {} cycles)",
            me.events,
            me.total_cycles
        );
        let mut reference = System::new(SystemConfig::single_core(
            Benchmark::Gcc,
            SystemKind::Baseline,
            42,
        ));
        let mr = reference.run_until_reference(120_000, 20_000_000);
        assert!(mr.events >= mr.total_cycles.saturating_sub(1));
    }

    fn quick_audited(kind: SystemKind, b: Benchmark) -> RunMetrics {
        let mut sys = System::new(SystemConfig::single_core(b, kind, 42));
        sys.enable_audit();
        sys.run_until(200_000, 20_000_000)
    }

    #[test]
    fn audited_runs_are_clean() {
        // Every controller flavour must stream an event trace the
        // auditor accepts; `run_until` panics on any violation.
        for kind in [
            SystemKind::Baseline,
            SystemKind::ElasticRefresh,
            SystemKind::PerBankRefresh,
            SystemKind::Rop { buffer: 64 },
            SystemKind::Darp,
            SystemKind::Sarp,
            SystemKind::Raidr,
        ] {
            let m = quick_audited(kind, Benchmark::Libquantum);
            let audit = m.audit.expect("audited run must carry a summary");
            assert!(audit.events > 0, "{kind:?}: no events traced");
            assert_eq!(audit.violations, 0, "{kind:?}");
        }
    }

    #[test]
    fn audit_does_not_perturb_the_run() {
        let plain = quick(SystemKind::Rop { buffer: 64 }, Benchmark::Lbm);
        let audited = quick_audited(SystemKind::Rop { buffer: 64 }, Benchmark::Lbm);
        assert_eq!(plain.total_cycles, audited.total_cycles);
        assert_eq!(plain.refreshes, audited.refreshes);
        assert_eq!(plain.cores[0].ipc, audited.cores[0].ipc);
        assert!((plain.energy.total_nj() - audited.energy.total_nj()).abs() < 1e-6);
        assert_eq!(plain.audit, None);
    }

    /// Differential check from the acceptance criteria: auditing the
    /// real device against deliberately tightened timing parameters
    /// must produce a labeled violation report.
    #[test]
    fn corrupted_timing_is_detected() {
        let cfg = SystemConfig::single_core(Benchmark::Libquantum, SystemKind::Baseline, 42);
        let mcfg = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
        let mut audit_cfg = crate::audit::AuditorConfig::from_ctrl(&mcfg);
        // Pretend the device must wait twice as long after ACT before a
        // column command: every real tRCD-paced read now looks illegal.
        audit_cfg.timing.t_rcd *= 2;
        let err = std::panic::catch_unwind(move || {
            let mut sys = System::new(cfg);
            sys.enable_audit_with(audit_cfg);
            sys.run_until(200_000, 20_000_000)
        })
        .expect_err("tightened tRCD must trip the auditor");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "unexpected panic payload".into());
        assert!(msg.contains("timing.tRCD"), "report was: {msg}");
        assert!(msg.contains("violation"), "report was: {msg}");
    }
}
