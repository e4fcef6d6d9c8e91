//! The memory controller: transaction queues, FR-FCFS scheduling, write
//! batching, refresh handling, and the ROP integration points.
//!
//! # Scheduling model
//!
//! The controller issues at most one DRAM command per memory cycle
//! (single command bus). [`MemController::tick`] performs, in order:
//!
//! 1. SRAM fills whose prefetch data has arrived;
//! 2. refresh-manager bookkeeping (completions thaw ranks and drive ROP
//!    phase transitions; newly due refreshes snapshot drain sets and ask
//!    ROP for a prefetch decision);
//! 3. refresh preparation for ranks whose drain is complete: precharge
//!    remaining open banks, then issue REF;
//! 4. FR-FCFS command scheduling over the request queues, with the
//!    draining rank's requests (demand + prefetch) in a priority tier and
//!    an age cap as a starvation guard.
//!
//! `tick` returns a *hint*: the next cycle at which calling `tick` again
//! can possibly make progress, enabling the driver to fast-forward idle
//! stretches without losing cycle accuracy.

use rop_core::{PhaseTransition, RopConfig, RopEngine, RopPhase, SramBuffer};
use rop_dram::{Command, DramDevice, EnergyBreakdown};
use rop_events::{EventSink, TraceBuffer, TraceEvent};
use rop_stats::RatioCounter;

use crate::address::{AddressMapping, DecodedAddr};
use crate::analysis::RefreshAnalysis;
use crate::config::{MechanismKind, MemCtrlConfig};
use crate::mechanism::{Mechanism, RefreshMechanism, RefreshScope, RoundShape};
use crate::refresh::{RefreshManager, RefreshState};
use crate::request::MemRequest;
use crate::sched_index::{for_each_bit, Best, Next, QueueKind, SchedIndex, SlotGates, TieShape};
use crate::Cycle;

/// A finished read delivered back to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Id returned by [`MemController::enqueue_read`].
    pub id: u64,
    /// Originating core.
    pub core: usize,
    /// Cycle at which the data is available to the core.
    pub done_at: Cycle,
    /// True when the read was served by the ROP SRAM buffer.
    pub from_sram: bool,
}

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default)]
pub struct MemCtrlStats {
    /// Reads completed (including SRAM-served).
    pub reads_completed: u64,
    /// Reads served by the SRAM buffer.
    pub reads_from_sram: u64,
    /// Writes accepted into the write queue.
    pub writes_accepted: u64,
    /// Sum over completed reads of (completion − arrival), in cycles.
    pub sum_read_latency: u64,
    /// Row-buffer hit ratio over demand column commands.
    pub row_buffer: RatioCounter,
    /// Read arrivals rejected because the read queue was full.
    pub read_queue_full: u64,
    /// Write arrivals rejected because the write queue was full.
    pub write_queue_full: u64,
    /// ROP prefetch requests issued to DRAM.
    pub prefetches_issued: u64,
    /// ROP prefetch requests dropped because the refresh could not wait.
    pub prefetches_dropped: u64,
    /// Prefetched lines actually inserted into the buffer.
    pub prefetch_fills: u64,
    /// Reads that arrived during a refresh and missed the SRAM buffer.
    pub reads_blocked_by_refresh: u64,
    /// Cycles read requests spent blocked behind an in-flight refresh,
    /// summed over reads still queued when their scope's refresh
    /// completed (per read: completion − max(refresh start, arrival)).
    /// The head-to-head mechanism figures' central metric.
    pub refresh_blocked_cycles: u64,
    /// Total SRAM lookups performed for reads arriving during refreshes.
    pub sram_lookups: u64,
    /// SRAM lookup hits.
    pub sram_hits: u64,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: MemRequest,
    /// True once an ACT has been issued on behalf of this request (used
    /// for the row-buffer-hit statistic).
    acted: bool,
    /// The request's stable handle in the scheduling index, which also
    /// holds its drain-set flag.
    handle: u32,
}

/// ROP state attached to the controller (engines are per rank, the SRAM
/// buffer is shared across the channel — ranks take turns).
#[derive(Debug)]
struct RopState {
    engines: Vec<RopEngine>,
    buffer: SramBuffer,
    /// Rank currently owning the buffer (decided at its drain start),
    /// cleared when its refresh completes.
    active_rank: Option<usize>,
    /// Per-rank flag: a positive prefetch decision whose candidates have
    /// not been generated yet (generation happens once the demand drain
    /// finishes, right before the refresh would issue).
    prefetch_pending: Vec<bool>,
    /// Per-rank (hits, lookups) for the refresh currently in flight.
    refresh_hits: Vec<u64>,
    refresh_lookups: Vec<u64>,
    /// Per-access SRAM energy in nJ (from the paper's Table III).
    access_energy_nj: f64,
    /// SRAM access latency in cycles.
    latency: Cycle,
}

/// One scheduling candidate of the sorted walk, fully materialised at
/// candidate-build time so the walk's sorts and scans run over plain
/// contiguous memory instead of chasing back into the request queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cand {
    /// 0 = draining-rank demand, 1 = regular, 2 = ROP prefetch.
    tier: u8,
    /// Arrival cycle (FCFS age within a tier).
    arrival: Cycle,
    /// Queue holding the request.
    kind: QueueKind,
    /// Index within that queue.
    idx: usize,
    /// Global bank key: `rank * banks_per_rank + bank`.
    bank: u32,
    /// The request's row is open in its bank right now.
    hit: bool,
}

impl Cand {
    /// FR-FCFS priority: tier first, then age. Smaller is served first.
    #[inline]
    fn key(&self) -> (u8, Cycle) {
        (self.tier, self.arrival)
    }
}

/// A scheduling decision: the request whose next command issues this
/// cycle, by queue and position, or the earliest cycle any candidate's
/// next command could issue.
type Pick = Result<(QueueKind, usize), Cycle>;

/// The tie that sent an indexed pick to the sorted walk: equal keys
/// where the walk's sort order among them decides the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tie {
    /// The oldest key is over age and shared (pass 0).
    AgeCap,
    /// The oldest ready row hit's key is shared (pass 1).
    RowHit,
    /// A bank's oldest key is shared by requests whose next commands
    /// differ or are ready, so its representative is the sort's
    /// choice, or the oldest ready representative's key is shared
    /// (pass 2).
    Bank,
}

/// Running minimum of one indexed pass over bank summary entries: the
/// offered entry with the smallest key, and whether another offered
/// request — in another bank, or in the entry's own tie group — shares
/// that key.
#[derive(Debug, Default)]
struct ReadyMin {
    best: Option<Best>,
    tied: bool,
}

impl ReadyMin {
    /// Folds in one bank's entry.
    // rop-lint: hot
    #[inline]
    fn offer(&mut self, c: Best) {
        match self.best {
            Some(b) if b.key() < c.key() => {}
            Some(b) if b.key() == c.key() => self.tied = true,
            _ => {
                self.best = Some(c);
                self.tied = c.tied();
            }
        }
    }
}

/// A command class whose bound the probe cache holds per bank.
#[derive(Debug, Clone, Copy)]
enum Probe {
    Read,
    Write,
    Precharge,
    /// The row-independent ACT gate ([`DramDevice::activate_gate`]).
    Activate,
}

/// Per-bank command bounds that do not depend on the current cycle
/// (see [`DramDevice::read_ready_at`]), cached until the next command
/// issues on the channel — every bound only moves when a command
/// issues. Each bound is read from the device the first time it is
/// needed after that.
#[derive(Debug)]
struct ProbeCache {
    /// Commands issued on the channel so far: a cached bound is valid
    /// while the epoch stored beside it equals this count.
    epoch: u64,
    /// Per bank, `(epoch, bound)` for each [`Probe`].
    banks: Vec<[(u64, Cycle); 4]>,
}

impl ProbeCache {
    fn new(banks: usize) -> Self {
        ProbeCache {
            epoch: 0,
            banks: vec![[(u64::MAX, 0); 4]; banks],
        }
    }

    /// Drops every cached bound: a command issued.
    // rop-lint: hot
    #[inline]
    fn invalidate(&mut self) {
        self.epoch += 1;
    }

    /// The `probe` bound of global bank `g` — `(rank, bank)` on
    /// `device`.
    // rop-lint: hot
    #[inline]
    fn bound(
        &mut self,
        g: usize,
        probe: Probe,
        (rank, bank): (usize, usize),
        device: &DramDevice,
    ) -> Cycle {
        let cached = &mut self.banks[g][probe as usize];
        if cached.0 != self.epoch {
            let bound = match probe {
                Probe::Read => device.read_ready_at(rank, bank),
                Probe::Write => device.write_ready_at(rank, bank),
                Probe::Precharge => device.precharge_ready_at(rank, bank),
                Probe::Activate => device.activate_gate(rank, bank),
            };
            *cached = (self.epoch, bound);
        }
        cached.1
    }

    /// The bound `next` waits for on global bank `g`. A SARP lock holds
    /// single subarrays, so under SARP an ACT's bound depends on its
    /// row and is read from the device per request, not cached.
    // rop-lint: hot
    #[inline]
    fn next_bound(
        &mut self,
        g: usize,
        next: Next,
        loc: (usize, usize),
        device: &DramDevice,
        sarp: bool,
    ) -> Cycle {
        let probe = match next {
            Next::Read => Probe::Read,
            Next::Write => Probe::Write,
            Next::Precharge => Probe::Precharge,
            Next::Activate { row } if sarp => return device.activate_ready_at(loc.0, loc.1, row),
            Next::Activate { .. } => Probe::Activate,
        };
        self.bound(g, probe, loc, device)
    }
}

/// Reusable per-tick scratch buffers. The scheduling loop runs every
/// simulated command-bus cycle; taking these out of the controller,
/// filling them, and putting them back keeps the steady-state hot path
/// allocation-free (capacities are retained across ticks).
#[derive(Debug, Default)]
struct TickScratch {
    /// Sorted walk: FR-FCFS candidates, in queue order.
    cands: Vec<Cand>,
    /// Sorted walk: per-slot admission gates.
    gates: Vec<SlotGates>,
    /// Sorted walk: row-hit candidates (pass 1).
    hits: Vec<Cand>,
    /// Sorted walk: age-ordered candidates for the per-bank pass.
    ordered: Vec<Cand>,
    /// Sorted walk: per-bank "already owns a candidate" flags, indexed
    /// by the flattened bank key.
    seen_banks: Vec<bool>,
    /// Refresh slots reported by the manager this tick.
    slots: Vec<usize>,
    /// Elastic debt snapshot (trace-only path).
    debts: Vec<u32>,
    /// Prefetch lines whose fill landed this tick.
    filled: Vec<u64>,
    /// Read ids blocked by a just-issued refresh.
    blocked: Vec<u64>,
}

impl TickScratch {
    /// Scratch pre-sized to the controller's hard occupancy bounds, so
    /// the per-cycle paths never grow these vectors: candidate lists
    /// are capped by total queue capacity, per-slot lists by the
    /// refresh-slot count, and the per-bank dedup flags by the bank
    /// count. (ROP prefetch queues have no configured cap; the
    /// allowance below covers the paper's deepest configuration, and
    /// anything beyond it merely grows once.)
    fn with_bounds(queue_cap: usize, slots: usize, banks: usize) -> Self {
        TickScratch {
            cands: Vec::with_capacity(queue_cap),
            gates: Vec::with_capacity(slots),
            hits: Vec::with_capacity(queue_cap),
            ordered: Vec::with_capacity(queue_cap),
            seen_banks: vec![false; banks],
            slots: Vec::with_capacity(slots),
            debts: Vec::with_capacity(slots),
            filled: Vec::with_capacity(queue_cap),
            blocked: Vec::with_capacity(queue_cap),
        }
    }
}

/// The refresh slot a request to `addr` belongs to: its rank under
/// per-rank refresh, its (rank, bank) pair under per-bank refresh. A
/// free function so closures can use it while the controller's queues
/// are borrowed.
// rop-lint: hot
#[inline]
fn slot_of(scope: RefreshScope, banks: usize, addr: &DecodedAddr) -> usize {
    match scope {
        RefreshScope::PerBank => addr.rank * banks + addr.bank,
        RefreshScope::PerRank => addr.rank,
    }
}

/// The memory controller for one channel.
#[derive(Debug)]
pub struct MemController {
    cfg: MemCtrlConfig,
    device: DramDevice,
    mapping: AddressMapping,
    refresh: RefreshManager,
    /// The refresh mechanism layered over the manager (AllBank, DARP,
    /// SARP or RAIDR). Kept as a separate field so the tick loop can
    /// borrow mechanism and manager disjointly.
    mech: Mechanism,
    /// Slot granularity, read once from the configured mechanism kind.
    scope: RefreshScope,
    /// Per-slot issue cycle of the in-flight refresh (`Cycle::MAX` when
    /// none, or when the round was skipped) — blocked-cycle accounting.
    refresh_started_at: Vec<Cycle>,
    /// Per-slot subarray scope of the in-flight refresh (SARP only).
    refresh_scope_sa: Vec<Option<usize>>,
    read_q: Vec<Queued>,
    write_q: Vec<Queued>,
    prefetch_q: Vec<Queued>,
    /// (buffer key, fill-ready cycle) for prefetch data in flight.
    pending_fills: Vec<(u64, Cycle)>,
    completions: Vec<Completion>,
    /// Per-slot drain sets: ids that must issue before the slot's REF.
    /// Membership is mirrored in `Queued::in_drain`; the lists serve
    /// the emptiness test of `demand_drained`, where ids of reads later
    /// served from SRAM still count until the next snapshot.
    drain_sets: Vec<Vec<u64>>,
    rop: Option<RopState>,
    analysis: Vec<RefreshAnalysis>,
    write_drain: bool,
    next_id: u64,
    stats: MemCtrlStats,
    /// Controller-level trace sink (refresh/drain lifecycle events).
    trace: TraceBuffer,
    scratch: TickScratch,
    /// FR-FCFS scheduling index over the three queues.
    index: SchedIndex,
    /// Per-bank command bounds, valid until the next command issues.
    probes: ProbeCache,
    /// `(rank, bank)` of each global bank (the hot paths index by the
    /// global key and avoid dividing it back).
    bank_loc: Vec<(usize, usize)>,
    /// Test builds: the last indexed pick (or the tie that sent it to
    /// the walk) next to the sorted walk's answer for the same tick.
    #[cfg(test)]
    last_pick: Option<(Result<Pick, Tie>, Pick)>,
    // Cold fields stay behind `stats`/`scratch`: inserting them
    // mid-struct shifts the hot tick fields across cache lines and
    // costs ~25% end-to-end throughput (perf_gate catches this).
    /// Opt-in (open-loop tail accounting): record the id of every read
    /// that overlaps a refresh freeze. Off by default so closed-loop
    /// runs never grow `blocked_ids`.
    track_blocked: bool,
    /// Ids of reads observed blocked by refresh since the last drain
    /// (may contain duplicates; consumers dedup).
    blocked_ids: Vec<u64>,
    /// `ROP_DEBUG` was set at construction: log prefetch generation,
    /// REF issue and blocked-read sweeps to stderr.
    rop_debug: bool,
}

impl MemController {
    /// Builds a controller (and its DRAM device) from `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: MemCtrlConfig) -> Self {
        cfg.validate().expect("invalid controller configuration");
        let device = DramDevice::new(cfg.dram.clone());
        let mapping = AddressMapping::new(cfg.dram.geometry, cfg.mapping);
        let ranks = cfg.dram.geometry.ranks;
        let banks = cfg.dram.geometry.banks_per_rank;
        // Refresh is managed per *slot*: one slot per rank in all-bank
        // mode, one per (rank, bank) in per-bank (REFpb) mode. Every slot
        // owes one refresh per tREFI; the manager staggers them.
        let scope = cfg.mechanism.scope();
        let (slots, t_rfc) = match scope {
            RefreshScope::PerBank => (ranks * banks, cfg.dram.timing.t_rfc_pb),
            RefreshScope::PerRank => (ranks, cfg.dram.timing.t_rfc()),
        };
        let t_refi = cfg.dram.timing.t_refi();
        let refresh = RefreshManager::new(slots, t_refi, cfg.max_refresh_postpone);
        let rop = cfg.rop.as_ref().map(|rc| {
            let mut engines: Vec<RopEngine> = (0..ranks)
                .map(|r| {
                    let mut c: RopConfig = rc.clone();
                    // Give each rank's throttle an independent stream.
                    c.seed = rc
                        .seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r as u64 + 1));
                    RopEngine::new(c)
                })
                .collect();
            // Memory that never refreshes leaves the engines no due to
            // watch (their default).
            if cfg.mechanism != MechanismKind::NoRefresh {
                for (r, e) in engines.iter_mut().enumerate() {
                    // Per rank: the earliest due among the rank's slots.
                    let due = match scope {
                        RefreshScope::PerBank => {
                            (0..banks).map(|b| refresh.next_due(r * banks + b)).min()
                        }
                        RefreshScope::PerRank => Some(refresh.next_due(r)),
                    };
                    e.set_next_refresh_due(due.expect("at least one slot"));
                }
            }
            RopState {
                buffer: SramBuffer::new(rc.buffer_capacity),
                engines,
                active_rank: None,
                prefetch_pending: vec![false; slots],
                refresh_hits: vec![0; slots],
                refresh_lookups: vec![0; slots],
                access_energy_nj: rc.sram_access_energy_nj(),
                latency: rc.sram_latency,
            }
        });
        let mech = Mechanism::from_config(&cfg);
        MemController {
            analysis: (0..slots).map(|_| RefreshAnalysis::new(t_rfc)).collect(),
            // Pre-sized to the hard bound (a drain set holds at most
            // every queued request) so the snapshot loop in
            // `handle_refresh_dues` never grows it mid-run.
            drain_sets: (0..slots)
                .map(|_| Vec::with_capacity(cfg.read_queue_capacity + cfg.write_queue_capacity))
                .collect(),
            device,
            mapping,
            refresh,
            mech,
            scope,
            refresh_started_at: vec![Cycle::MAX; slots],
            refresh_scope_sa: vec![None; slots],
            read_q: Vec::with_capacity(cfg.read_queue_capacity),
            write_q: Vec::with_capacity(cfg.write_queue_capacity),
            prefetch_q: Vec::new(),
            pending_fills: Vec::new(),
            completions: Vec::new(),
            rop,
            write_drain: false,
            next_id: 0,
            track_blocked: false,
            blocked_ids: Vec::new(),
            rop_debug: std::env::var_os("ROP_DEBUG").is_some(),
            stats: MemCtrlStats::default(),
            trace: TraceBuffer::new(),
            scratch: TickScratch::with_bounds(
                cfg.read_queue_capacity + cfg.write_queue_capacity + 128,
                slots,
                ranks * banks,
            ),
            index: SchedIndex::new(
                ranks * banks,
                slots,
                cfg.read_queue_capacity + cfg.write_queue_capacity + 128,
            ),
            probes: ProbeCache::new(ranks * banks),
            bank_loc: (0..ranks)
                .flat_map(|r| (0..banks).map(move |b| (r, b)))
                .collect(),
            #[cfg(test)]
            last_pick: None,
            cfg,
        }
    }

    /// Turns the event trace on or off across every layer the controller
    /// owns: its own lifecycle events, the DRAM device's command stream,
    /// the per-rank ROP engines, and the SRAM buffer.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
        self.device.trace_mut().set_enabled(enabled);
        if let Some(rop) = &mut self.rop {
            for (r, e) in rop.engines.iter_mut().enumerate() {
                e.set_trace_rank(r);
                e.trace_mut().set_enabled(enabled);
            }
            rop.buffer.trace_mut().set_enabled(enabled);
        }
    }

    /// True when the event trace is being collected.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Drains every layer's buffered trace events into `sink` in the
    /// documented merge order: controller first, then the device, then
    /// the per-rank engines, then the SRAM buffer. Within one tick this
    /// puts refresh/drain transitions before the commands they caused and
    /// before the profiler-window events they opened.
    pub fn drain_trace(&mut self, sink: &mut impl EventSink) {
        self.trace.drain_into(sink);
        self.device.trace_mut().drain_into(sink);
        if let Some(rop) = &mut self.rop {
            for e in rop.engines.iter_mut() {
                e.trace_mut().drain_into(sink);
            }
            rop.buffer.trace_mut().drain_into(sink);
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &MemCtrlConfig {
        &self.cfg
    }

    /// The address mapping in force.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Controller statistics so far.
    pub fn stats(&self) -> &MemCtrlStats {
        &self.stats
    }

    /// Turns refresh-blocked read-id tracking on or off. Purely
    /// observational: scheduling is identical either way. The open-loop
    /// injector uses the drained ids to attribute tail latency to
    /// refresh; closed-loop runs leave this off so the id buffer never
    /// grows.
    pub fn set_track_refresh_blocked(&mut self, enabled: bool) {
        self.track_blocked = enabled;
        if !enabled {
            self.blocked_ids.clear();
        }
    }

    /// Appends the ids of reads observed blocked by refresh since the
    /// last drain and clears the internal buffer. Ids may repeat (a
    /// read can arrive during one freeze and still be queued at the
    /// next thaw); consumers dedup.
    pub fn drain_refresh_blocked_into(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.blocked_ids);
    }

    /// True when a refused read still changes simulated state: with a
    /// ROP buffer, `enqueue_read` probes the SRAM (and may serve the
    /// line without a queue slot) and counts frozen-cycle lookups that
    /// feed ROP's phase decisions. Without one, a refused enqueue only
    /// bumps a refusal counter and can succeed only after `tick` issues
    /// a command, so the caller may wait for the tick hint instead of
    /// re-offering every cycle.
    pub fn refused_reads_have_effects(&self) -> bool {
        self.rop.is_some()
    }

    /// Number of refresh slots: ranks (all-bank mode) or rank×bank pairs
    /// (per-bank mode).
    pub fn refresh_slots(&self) -> usize {
        self.drain_sets.len()
    }

    #[inline]
    fn slot_rank(&self, slot: usize) -> usize {
        match self.scope {
            RefreshScope::PerBank => self.bank_loc[slot].0,
            RefreshScope::PerRank => slot,
        }
    }

    #[inline]
    fn slot_bank(&self, slot: usize) -> Option<usize> {
        match self.scope {
            RefreshScope::PerBank => Some(self.bank_loc[slot].1),
            RefreshScope::PerRank => None,
        }
    }

    /// The refresh slot a request belongs to.
    // rop-lint: hot
    #[inline]
    fn addr_slot(&self, addr: &DecodedAddr) -> usize {
        slot_of(self.scope, self.cfg.dram.geometry.banks_per_rank, addr)
    }

    /// True while `slot`'s refresh blocks this *particular* request at
    /// `now`. Identical to [`Self::slot_frozen`] except under SARP,
    /// where a subarray-scoped refresh only blocks requests whose row
    /// lives in the frozen subarray.
    // rop-lint: hot
    #[inline]
    fn request_frozen(&self, slot: usize, addr: &DecodedAddr, now: Cycle) -> bool {
        if !self.slot_frozen(slot, now) {
            return false;
        }
        match self.device.frozen_subarray(addr.rank, addr.bank, now) {
            // Subarray-scoped freeze: only the matching subarray blocks.
            Some(sa) => self.cfg.dram.geometry.subarray_of_row(addr.row) == sa,
            // Bank- or rank-wide freeze blocks everything in scope.
            None => true,
        }
    }

    /// True while `slot`'s refresh holds its scope frozen at `now`.
    #[inline]
    fn slot_frozen(&self, slot: usize, now: Cycle) -> bool {
        match self.slot_bank(slot) {
            Some(bank) => self
                .device
                .is_bank_refreshing(self.slot_rank(slot), bank, now),
            None => self.device.is_rank_refreshing(slot, now),
        }
    }

    /// Refreshes the engine's notion of its rank's next due time (the
    /// earliest among the rank's slots).
    fn update_engine_due(&mut self, rank: usize) {
        let banks = self.cfg.dram.geometry.banks_per_rank;
        let due = match self.scope {
            RefreshScope::PerBank => (0..banks)
                .map(|b| self.refresh.next_due(rank * banks + b))
                .min()
                .expect("banks > 0"),
            RefreshScope::PerRank => self.refresh.next_due(rank),
        };
        if let Some(rop) = &mut self.rop {
            rop.engines[rank].set_next_refresh_due(due);
        }
    }

    /// Refreshes issued on `rank` (all its slots in per-bank mode).
    pub fn refreshes_issued(&self, rank: usize) -> u64 {
        match self.scope {
            RefreshScope::PerBank => {
                let banks = self.cfg.dram.geometry.banks_per_rank;
                (0..banks)
                    .map(|b| self.refresh.issued(rank * banks + b))
                    .sum()
            }
            RefreshScope::PerRank => self.refresh.issued(rank),
        }
    }

    /// Refresh rounds skipped outright (RAIDR: no retention bin due).
    pub fn refreshes_skipped(&self) -> u64 {
        self.mech.refreshes_skipped()
    }

    /// Refreshes pulled in ahead of their due time (DARP).
    pub fn refreshes_pulled_in(&self) -> u64 {
        self.mech.refreshes_pulled_in()
    }

    /// ROP phase of `rank`'s engine, if ROP is enabled.
    pub fn rop_phase(&self, rank: usize) -> Option<RopPhase> {
        self.rop.as_ref().map(|r| r.engines[rank].phase())
    }

    /// ROP engine statistics for `rank`, if ROP is enabled.
    pub fn rop_engine_stats(&self, rank: usize) -> Option<rop_core::EngineStats> {
        self.rop.as_ref().map(|r| r.engines[rank].stats())
    }

    /// SRAM buffer (writes, reads-served) counts, if ROP is enabled.
    pub fn rop_buffer_counts(&self) -> Option<(u64, u64)> {
        self.rop
            .as_ref()
            .map(|r| (r.buffer.write_count(), r.buffer.read_count()))
    }

    /// (λ, β) of `rank`'s engine, if ROP is enabled and trained.
    pub fn rop_probabilities(&self, rank: usize) -> Option<(f64, f64)> {
        self.rop
            .as_ref()
            .map(|r| (r.engines[rank].lambda(), r.engines[rank].beta()))
    }

    /// The refresh-analysis instrumentation for `rank` (finalise before
    /// reading: [`Self::finalize_analysis`]).
    pub fn analysis(&self, rank: usize) -> &RefreshAnalysis {
        &self.analysis[rank]
    }

    /// Folds in-flight refreshes into the analysis (call at end of run).
    pub fn finalize_analysis(&mut self) {
        for a in &mut self.analysis {
            a.finalize_current();
        }
    }

    /// Number of read-queue entries currently pending.
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Number of write-queue entries currently pending.
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// Full energy breakdown: DRAM (device model) + ROP SRAM accesses.
    pub fn energy_breakdown(&mut self, now: Cycle) -> EnergyBreakdown {
        let mut b = self.device.energy_breakdown(now);
        if let Some(rop) = &self.rop {
            let accesses = rop.buffer.read_count() + rop.buffer.write_count();
            b.sram_nj = accesses as f64 * rop.access_energy_nj;
        }
        b
    }

    /// Drains the accumulated read completions.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Allocation-free variant of [`Self::take_completions`]: appends
    /// the accumulated completions to `out` and clears the internal
    /// buffer *in place*, so both sides keep their capacity across the
    /// simulation's steady state.
    // rop-lint: hot
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.extend_from_slice(&self.completions);
        self.completions.clear();
    }

    /// Enqueues a read for `line_addr`. Returns the request id, or `None`
    /// when the controller cannot accept it this cycle (queue full — the
    /// core must retry). Reads arriving while their rank is frozen consult
    /// the SRAM buffer and may complete without touching DRAM.
    pub fn enqueue_read(&mut self, line_addr: u64, core: usize, now: Cycle) -> Option<u64> {
        let addr = self.mapping.decode(line_addr);
        let slot = self.addr_slot(&addr);
        let refreshing = self.request_frozen(slot, &addr, now);
        if let Some(rop) = &mut self.rop {
            rop.buffer.set_trace_cycle(now);
        }

        // The SRAM buffer answers whenever it holds the line — during the
        // refresh that is the whole point; before it, serving from SRAM
        // makes each prefetch *substitute* the demand DRAM read it
        // anticipated, so prefetching stays bandwidth-neutral. The
        // hit-rate statistics that drive the Training fallback only count
        // lookups during frozen cycles (the paper's Figure 9 metric).
        if let Some(rop) = &mut self.rop {
            if rop.buffer.is_powered() {
                if refreshing {
                    rop.refresh_lookups[slot] += 1;
                    self.stats.sram_lookups += 1;
                }
                let hit = if refreshing {
                    rop.buffer.lookup(line_addr)
                } else {
                    rop.buffer.serve_quiet(line_addr)
                };
                if hit {
                    if refreshing {
                        rop.refresh_hits[slot] += 1;
                        self.stats.sram_hits += 1;
                    }
                    let latency = rop.latency;
                    // Served from SRAM: no DRAM involvement at all.
                    let id = self.alloc_id();
                    let done_at = now + latency;
                    self.completions.push(Completion {
                        id,
                        core,
                        done_at,
                        from_sram: true,
                    });
                    self.stats.reads_completed += 1;
                    self.stats.reads_from_sram += 1;
                    self.stats.sum_read_latency += latency;
                    self.note_arrival(addr.rank, addr.bank, addr, true, now);
                    return Some(id);
                }
            }
        }

        if self.read_q.len() >= self.cfg.read_queue_capacity {
            self.stats.read_queue_full += 1;
            return None;
        }
        let id = self.alloc_id();
        if refreshing {
            self.stats.reads_blocked_by_refresh += 1;
            if self.track_blocked {
                self.blocked_ids.push(id);
            }
        }
        self.note_arrival(addr.rank, addr.bank, addr, true, now);
        let handle = self.index_insert(QueueKind::Read, &addr, now);
        self.read_q.push(Queued {
            req: MemRequest {
                id,
                line_addr,
                addr,
                is_write: false,
                arrival: now,
                core,
                is_prefetch: false,
            },
            acted: false,
            handle,
        });
        Some(id)
    }

    /// Enqueues a write (store or LLC writeback). Returns false when the
    /// write queue is full (the core must retry).
    pub fn enqueue_write(&mut self, line_addr: u64, core: usize, now: Cycle) -> bool {
        if self.write_q.len() >= self.cfg.write_queue_capacity {
            self.stats.write_queue_full += 1;
            return false;
        }
        let addr = self.mapping.decode(line_addr);
        let id = self.alloc_id();
        self.note_arrival(addr.rank, addr.bank, addr, false, now);
        let handle = self.index_insert(QueueKind::Write, &addr, now);
        self.write_q.push(Queued {
            req: MemRequest {
                id,
                line_addr,
                addr,
                is_write: true,
                arrival: now,
                core,
                is_prefetch: false,
            },
            acted: false,
            handle,
        });
        self.stats.writes_accepted += 1;
        true
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Global bank key of `addr`: `rank * banks_per_rank + bank`.
    // rop-lint: hot
    #[inline]
    fn global_bank(&self, addr: &DecodedAddr) -> usize {
        addr.rank * self.cfg.dram.geometry.banks_per_rank + addr.bank
    }

    /// Enters a request about to be queued into the scheduling index.
    // rop-lint: hot
    fn index_insert(&mut self, kind: QueueKind, addr: &DecodedAddr, now: Cycle) -> u32 {
        let bank = self.global_bank(addr) as u32;
        self.index.insert(bank, kind, now, addr.row)
    }

    /// The global banks of refresh slot `slot`.
    // rop-lint: hot
    #[inline]
    fn slot_banks(&self, slot: usize) -> std::ops::Range<usize> {
        match self.scope {
            RefreshScope::PerBank => slot..slot + 1,
            RefreshScope::PerRank => {
                let banks = self.cfg.dram.geometry.banks_per_rank;
                slot * banks..(slot + 1) * banks
            }
        }
    }

    /// The refresh slot global bank `bank` belongs to.
    // rop-lint: hot
    #[inline]
    fn bank_slot(&self, bank: usize) -> usize {
        match self.scope {
            RefreshScope::PerBank => bank,
            RefreshScope::PerRank => self.bank_loc[bank].0,
        }
    }

    /// Issues `cmd`, invalidating every cached probe and the summary of
    /// the bank whose open row it may change.
    // rop-lint: hot
    fn issue_command(&mut self, cmd: &Command, now: Cycle) -> rop_dram::IssueOutcome {
        let outcome = self.device.issue(cmd, now);
        self.probes.invalidate();
        if let Some(bank) = cmd.bank() {
            let g = cmd.rank() * self.cfg.dram.geometry.banks_per_rank + bank;
            self.index.mark_dirty(g);
        }
        outcome
    }

    /// Records an accepted demand arrival with the analysis and ROP hooks.
    fn note_arrival(
        &mut self,
        rank: usize,
        bank: usize,
        addr: DecodedAddr,
        is_read: bool,
        now: Cycle,
    ) {
        let slot = self.addr_slot(&addr);
        self.analysis[slot].note_arrival(now, is_read);
        self.mech.on_bank_activity(slot, now);
        if let Some(rop) = &mut self.rop {
            let line_in_bank = addr.line_in_bank(self.cfg.dram.geometry.lines_per_row);
            rop.engines[rank].note_access(bank, line_in_bank, is_read, now);
        }
    }

    /// Advances the controller at `now`. Returns the next cycle at which
    /// another call can possibly make progress.
    // rop-lint: hot
    pub fn tick(&mut self, now: Cycle) -> Cycle {
        if let Some(rop) = &mut self.rop {
            rop.buffer.set_trace_cycle(now);
        }
        // 1. Prefetch data arriving from DRAM fills the SRAM buffer.
        self.apply_fills(now);

        // 2. Refresh bookkeeping.
        self.handle_refresh_completions(now);
        self.handle_refresh_dues(now);

        // 3. Write-drain hysteresis.
        if self.write_q.len() >= self.cfg.write_drain_high {
            self.write_drain = true;
        } else if self.write_q.len() <= self.cfg.write_drain_low {
            self.write_drain = false;
        }

        // 4. One command this cycle: refresh preparation first, then the
        //    request scheduler.
        let mut earliest_hint = Cycle::MAX;
        if let Some(hint) = self.try_refresh_prep(now) {
            match hint {
                Ok(()) => return now.saturating_add(1), // command issued
                Err(e) => earliest_hint = earliest_hint.min(e),
            }
        }
        match self.schedule(now) {
            Ok(()) => return now.saturating_add(1),
            Err(e) => earliest_hint = earliest_hint.min(e),
        }

        // Nothing issued: compute the fast-forward hint.
        if let Some(e) = self.mech.next_event(&self.refresh, now) {
            earliest_hint = earliest_hint.min(e);
        }
        if self.rop.is_some() {
            earliest_hint = earliest_hint.min(self.prefetch_grace_end(now));
        }
        if let Some(&(_, at)) = self.pending_fills.iter().min_by_key(|&&(_, at)| at) {
            earliest_hint = earliest_hint.min(at.max(now.saturating_add(1)));
        }
        earliest_hint.max(now.saturating_add(1))
    }

    // rop-lint: hot
    fn apply_fills(&mut self, now: Cycle) {
        if self.rop.is_none() || self.pending_fills.is_empty() {
            return;
        }
        let rop = self.rop.as_mut().expect("checked above");
        let mut filled = std::mem::take(&mut self.scratch.filled);
        filled.clear();
        self.pending_fills.retain(|&(key, at)| {
            if at <= now {
                rop.buffer.insert(key);
                filled.push(key);
                false
            } else {
                true
            }
        });
        self.stats.prefetch_fills += filled.len() as u64;
        if filled.is_empty() {
            self.scratch.filled = filled;
            return;
        }
        // Late fills: prefetch data issued just before REF can land after
        // the rank froze. Reads already swept (and skipped as in-flight)
        // get matched against the arriving lines, exactly as an MSHR
        // would match a fill against its waiting queue.
        let latency = rop.latency;
        let mut i = 0;
        while i < self.read_q.len() {
            let req = self.read_q[i].req;
            let slot = self.addr_slot(&req.addr);
            if self.request_frozen(slot, &req.addr, now) && filled.contains(&req.line_addr) {
                let rop = self.rop.as_mut().expect("rop enabled");
                rop.refresh_lookups[slot] += 1;
                rop.refresh_hits[slot] += 1;
                let served = rop.buffer.lookup(req.line_addr);
                debug_assert!(served, "line was just inserted");
                self.stats.sram_lookups += 1;
                self.stats.sram_hits += 1;
                let q = self.read_q.remove(i);
                self.index.remove(q.handle);
                self.completions.push(Completion {
                    id: req.id,
                    core: req.core,
                    done_at: now.saturating_add(latency),
                    from_sram: true,
                });
                self.stats.reads_completed += 1;
                self.stats.reads_from_sram += 1;
                self.stats.sum_read_latency += now.saturating_add(latency) - req.arrival;
            } else {
                i += 1;
            }
        }
        self.scratch.filled = filled;
    }

    // rop-lint: hot
    fn handle_refresh_completions(&mut self, now: Cycle) {
        let mut slots = std::mem::take(&mut self.scratch.slots);
        slots.clear();
        self.refresh.poll_complete_into(now, &mut slots);
        for &slot in &slots {
            let rank = self.slot_rank(slot);
            let scope_bank = self.slot_bank(slot);
            // A skipped RAIDR round never started (sentinel stays at
            // `Cycle::MAX`): no RefreshEnd, nothing was blocked.
            let started = self.refresh_started_at[slot];
            let scope_sa = self.refresh_scope_sa[slot];
            self.refresh_started_at[slot] = Cycle::MAX;
            self.refresh_scope_sa[slot] = None;
            if started != Cycle::MAX {
                self.trace.emit(|| TraceEvent::RefreshEnd {
                    cycle: now,
                    rank,
                    bank: scope_bank,
                });
            }
            // Blocked-cycle accounting: reads still queued for the
            // thawed scope were stalled from max(refresh start,
            // arrival) until now. Purely observational — identical
            // scheduling either way.
            if started != Cycle::MAX {
                let mut blocked = 0u64;
                let mut ids = std::mem::take(&mut self.blocked_ids);
                for q in &self.read_q {
                    if self.addr_slot(&q.req.addr) != slot {
                        continue;
                    }
                    if let Some(sa) = scope_sa {
                        if self.cfg.dram.geometry.subarray_of_row(q.req.addr.row) != sa {
                            continue;
                        }
                    }
                    blocked += now - started.max(q.req.arrival);
                    if self.track_blocked {
                        ids.push(q.req.id);
                    }
                }
                self.blocked_ids = ids;
                // A u64 counter of blocked cycles cannot overflow in any
                // reachable run length. // rop-lint: allow(cycle-cast)
                self.stats.refresh_blocked_cycles += blocked;
            }
            if let Some(rop) = &mut self.rop {
                let hits = rop.refresh_hits[slot];
                let lookups = rop.refresh_lookups[slot];
                let transition = rop.engines[rank].refresh_completed(now, hits, lookups);
                match transition {
                    PhaseTransition::StartObserving | PhaseTransition::StartTraining => {
                        // Buffer power follows the union of engine phases:
                        // on if any rank is out of Training.
                        let any_active =
                            rop.engines.iter().any(|e| e.phase() != RopPhase::Training);
                        if any_active {
                            rop.buffer.power_on();
                        } else {
                            rop.buffer.power_off();
                        }
                    }
                    PhaseTransition::None => {}
                }
                // Lazy buffer handoff: the lines stay resident (serving
                // demand hits, which is what keeps prefetching
                // bandwidth-neutral) until another rank claims the buffer
                // for its own refresh, or the buffer powers off.
                if !rop.buffer.is_powered() {
                    rop.active_rank = None;
                    self.pending_fills.clear();
                }
                self.update_engine_due(rank);
            }
        }
        self.scratch.slots = slots;
    }

    // rop-lint: hot
    fn handle_refresh_dues(&mut self, now: Cycle) {
        // `busy` for the Elastic and DARP mechanisms: does the slot's
        // scope have pending demand?
        let scope = self.scope;
        let banks = self.cfg.dram.geometry.banks_per_rank;
        let read_q = &self.read_q;
        let write_q = &self.write_q;
        let busy = |slot: usize| {
            read_q
                .iter()
                .chain(write_q.iter())
                .any(|q| slot_of(scope, banks, &q.req.addr) == slot)
        };
        // Elastic debt accrues inside `poll_due`; snapshot it so a
        // postponement can be traced (only when the trace is live).
        let mut debts_before = std::mem::take(&mut self.scratch.debts);
        debts_before.clear();
        if self.trace.is_enabled() {
            debts_before.extend((0..self.refresh_slots()).map(|s| self.mech.debt(s)));
        }
        let mut due = std::mem::take(&mut self.scratch.slots);
        due.clear();
        self.mech
            .poll_due(&mut self.refresh, now, &busy, self.write_drain, &mut due);
        for &slot in &due {
            let rank = self.slot_rank(slot);
            let shape = self.mech.round_shape(&self.refresh, slot);
            // RAIDR rounds with no retention bin due never touch the
            // bus: the slot cycles immediately (no drain, no freeze).
            if let RoundShape::Skip { round } = shape {
                self.mech.on_refresh_skipped(&mut self.refresh, slot, now);
                self.trace.emit(|| TraceEvent::RetentionRound {
                    cycle: now,
                    rank,
                    round,
                    covers_128: false,
                    covers_256: false,
                });
                continue;
            }
            self.trace
                .emit(|| TraceEvent::DrainStart { cycle: now, rank });
            // Snapshot the drain set: everything queued for this slot's
            // scope (rank, or single bank in per-bank mode; under SARP
            // only the refreshing subarray needs to drain — the rest of
            // the bank keeps flowing through the refresh). The slot's
            // Vec is refilled in place, keeping its capacity, and every
            // request of the slot has its index drain flag set or reset
            // to match.
            let sa_filter = match shape {
                RoundShape::Subarray { subarray } => Some(subarray),
                _ => None,
            };
            let geom = self.cfg.dram.geometry;
            let set = &mut self.drain_sets[slot];
            set.clear();
            for q in self.read_q.iter().chain(self.write_q.iter()) {
                if slot_of(scope, banks, &q.req.addr) == slot {
                    let in_drain =
                        sa_filter.is_none_or(|sa| geom.subarray_of_row(q.req.addr.row) == sa);
                    self.index.set_in_drain(q.handle, in_drain);
                    if in_drain {
                        set.push(q.req.id);
                    }
                }
            }
            for g in self.slot_banks(slot) {
                self.index.mark_dirty(g);
            }

            if let Some(rop) = &mut self.rop {
                // The buffer is claimable when free, already owned by this
                // slot, or owned by a slot whose refresh cycle is over
                // (its lines are only serving residual demand hits).
                let claimable = match rop.active_rank {
                    None => true,
                    Some(owner) if owner == slot => true,
                    Some(owner) => self.refresh.state(owner) == RefreshState::Idle,
                };
                if claimable
                    && rop.buffer.is_powered()
                    && rop.engines[rank].decide_prefetch_gate(now)
                {
                    if rop.active_rank != Some(slot) && rop.active_rank.is_some() {
                        // Taking over from another slot: its lines are
                        // dead weight for this refresh.
                        rop.buffer.invalidate_all();
                        self.pending_fills.clear();
                    }
                    // Candidates are generated later, once the drain has
                    // emptied the slot's demand queue (see
                    // `try_refresh_prep`): the drained requests move the
                    // stream, and extrapolating now would go stale.
                    rop.active_rank = Some(slot);
                    rop.prefetch_pending[slot] = true;
                }
            }
        }
        if !debts_before.is_empty() {
            for (slot, &before) in debts_before.iter().enumerate() {
                let debt = u64::from(self.mech.debt(slot));
                if debt > u64::from(before) {
                    let rank = self.slot_rank(slot);
                    self.trace.emit(|| TraceEvent::RefreshPostponed {
                        cycle: now,
                        rank,
                        debt,
                    });
                }
            }
        }
        self.scratch.slots = due;
        self.scratch.debts = debts_before;
    }

    /// Generates the pending prefetch candidates for `rank` and queues
    /// them as prefetch requests. Called exactly once per positive
    /// decision, at the moment the demand drain completes.
    fn fill_prefetch_queue(&mut self, slot: usize, now: Cycle) {
        let rank = self.slot_rank(slot);
        let bank = self.slot_bank(slot);
        let grace = self.cfg.prefetch_grace;
        let capacity = self
            .cfg
            .rop
            .as_ref()
            .map(|r| r.buffer_capacity)
            .unwrap_or(0);
        let Some(rop) = &mut self.rop else { return };
        rop.prefetch_pending[slot] = false;
        // Lead by the full grace window: the fill of a busy channel takes
        // most of the grace, so candidates extrapolate to where the
        // stream will be when the rank actually freezes. Lines between
        // LastAddr and the lead are served by DRAM before the freeze, so
        // under-coverage there costs nothing.
        let cands = match bank {
            // Per-bank refresh: only `bank` freezes (for tRFCpb, a
            // fraction of tRFC), so a fraction of the buffer suffices.
            Some(b) => rop.engines[rank].generate_candidates_for_bank(
                b,
                (capacity / 4).max(8).min(capacity.max(1)),
                now,
                grace,
            ),
            None => rop.engines[rank].generate_candidates(now, grace),
        };
        if self.rop_debug {
            let banks = self.cfg.dram.geometry.banks_per_rank;
            let mut per_bank = vec![0usize; banks];
            let mut ranges: Vec<(u64, u64)> = vec![(u64::MAX, 0); banks];
            for c in &cands {
                per_bank[c.bank] += 1;
                ranges[c.bank].0 = ranges[c.bank].0.min(c.line_offset);
                ranges[c.bank].1 = ranges[c.bank].1.max(c.line_offset);
            }
            eprintln!(
                "[rop] t={now} rank={rank} generate {} candidates, per-bank {per_bank:?} ranges {ranges:?}",
                cands.len()
            );
        }
        for cand in cands {
            let line_addr = self
                .mapping
                .encode_bank_line(rank, cand.bank, cand.line_offset);
            let addr = self.mapping.decode(line_addr);
            let id = self.alloc_id();
            let handle = self.index_insert(QueueKind::Prefetch, &addr, now);
            self.prefetch_q.push(Queued {
                req: MemRequest {
                    id,
                    line_addr,
                    addr,
                    is_write: false,
                    arrival: now,
                    core: usize::MAX,
                    is_prefetch: true,
                },
                acted: false,
                handle,
            });
            self.stats.prefetches_issued += 1;
        }
    }

    /// True when `slot`'s snapshot of demand requests has been issued (or
    /// the postpone deadline forces the refresh).
    fn demand_drained(&self, slot: usize, now: Cycle) -> bool {
        self.refresh.drain_deadline_passed(slot, now) || self.drain_sets[slot].is_empty()
    }

    /// True when `slot`'s drain obligations are met: the demand drain set
    /// has issued, and its prefetch requests have either issued or used
    /// up their opportunistic grace window.
    fn drain_complete(&self, slot: usize, now: Cycle) -> bool {
        if self.refresh.drain_deadline_passed(slot, now) {
            return true;
        }
        if !self.demand_drained(slot, now) {
            return false;
        }
        let prefetch_done = (!self
            .prefetch_q
            .iter()
            .any(|q| self.addr_slot(&q.req.addr) == slot)
            && !self.rop.as_ref().is_some_and(|r| r.prefetch_pending[slot]))
            || self
                .refresh
                .draining_longer_than(slot, now, self.cfg.prefetch_grace);
        prefetch_done
    }

    /// Earliest cycle after `now` at which a draining slot whose demand
    /// has drained completes its drain because its prefetch grace runs
    /// out. No command or arrival announces that change, yet it lets
    /// REF preparation start and closes the slot to regular requests.
    fn prefetch_grace_end(&self, now: Cycle) -> Cycle {
        let mut end = Cycle::MAX;
        for slot in 0..self.refresh_slots() {
            if let RefreshState::Draining { due } = self.refresh.state(slot) {
                let grace_end = due.saturating_add(self.cfg.prefetch_grace);
                if grace_end > now
                    && self.demand_drained(slot, now)
                    && !self.drain_complete(slot, now)
                {
                    end = end.min(grace_end);
                }
            }
        }
        end
    }

    /// Refresh preparation: for a Draining rank whose drain is complete,
    /// precharge open banks and then issue REF. `Ok(())` = command issued;
    /// `Err(earliest)` = nothing issuable now, retry at `earliest`.
    fn try_refresh_prep(&mut self, now: Cycle) -> Option<Result<(), Cycle>> {
        let mut earliest = Cycle::MAX;
        let mut any = false;
        for slot in 0..self.refresh_slots() {
            if !matches!(self.refresh.state(slot), RefreshState::Draining { .. }) {
                continue;
            }
            let rank = self.slot_rank(slot);
            // The demand drain just finished: now is the moment to
            // extrapolate the stream into prefetch candidates.
            if self.demand_drained(slot, now)
                && self.rop.as_ref().is_some_and(|r| r.prefetch_pending[slot])
                && !self.refresh.drain_deadline_passed(slot, now)
            {
                self.fill_prefetch_queue(slot, now);
            }
            if !self.drain_complete(slot, now) {
                continue;
            }
            any = true;
            // What this round puts on the bus is the mechanism's call.
            let shape = self.mech.round_shape(&self.refresh, slot);
            let sa_target = match shape {
                RoundShape::Subarray { subarray } => Some(subarray),
                _ => None,
            };
            // Close any open bank in the refresh scope (a single bank in
            // per-bank mode, the whole rank otherwise). Under SARP only
            // a row open in the *target* subarray needs closing; rows in
            // sibling subarrays stay open through the refresh.
            let banks = self.cfg.dram.geometry.banks_per_rank;
            let (scope_lo, scope_hi) = match self.slot_bank(slot) {
                Some(b) => (b, b + 1),
                None => (0, banks),
            };
            let mut all_idle = true;
            for bank in scope_lo..scope_hi {
                if let Some(row) = self.device.open_row(rank, bank) {
                    if sa_target.is_some_and(|sa| self.device.subarray_of_row(row) != sa) {
                        continue;
                    }
                    all_idle = false;
                    let cmd = Command::Precharge { rank, bank };
                    match self.device.earliest_issue(&cmd, now) {
                        Ok(e) if e <= now => {
                            self.issue_command(&cmd, now);
                            return Some(Ok(()));
                        }
                        Ok(e) => earliest = earliest.min(e),
                        Err(_) => {}
                    }
                }
            }
            if all_idle {
                let issued = match shape {
                    RoundShape::Standard => {
                        let cmd = match self.slot_bank(slot) {
                            Some(bank) => Command::RefreshBank { rank, bank },
                            None => Command::Refresh { rank },
                        };
                        match self.device.earliest_issue(&cmd, now) {
                            Ok(e) if e <= now => Some(self.issue_command(&cmd, now)),
                            Ok(e) => {
                                earliest = earliest.min(e);
                                None
                            }
                            Err(_) => None,
                        }
                    }
                    RoundShape::Subarray { subarray } => {
                        let bank = self.slot_bank(slot).expect("SARP refresh is per-bank");
                        match self
                            .device
                            .earliest_subarray_refresh(rank, bank, subarray, now)
                        {
                            Ok(e) if e <= now => Some(
                                self.device
                                    .try_issue_subarray_refresh(rank, bank, subarray, now)
                                    .expect("legal at its earliest-issue cycle"),
                            ),
                            Ok(e) => {
                                earliest = earliest.min(e);
                                None
                            }
                            Err(_) => None,
                        }
                    }
                    RoundShape::Scaled {
                        duration,
                        round,
                        covers_128,
                        covers_256,
                    } => match self.device.earliest_issue(&Command::Refresh { rank }, now) {
                        Ok(e) if e <= now => {
                            let o = self
                                .device
                                .try_issue_refresh_scaled(rank, now, duration)
                                .expect("legal at its earliest-issue cycle");
                            self.trace.emit(|| TraceEvent::RetentionRound {
                                cycle: now,
                                rank,
                                round,
                                covers_128,
                                covers_256,
                            });
                            Some(o)
                        }
                        Ok(e) => {
                            earliest = earliest.min(e);
                            None
                        }
                        Err(_) => None,
                    },
                    // Skips resolve at due time, never reach Draining.
                    RoundShape::Skip { .. } => {
                        unreachable!("skipped round entered drain") // rop-lint: allow(no-panic)
                    }
                };
                if let Some(outcome) = issued {
                    // Subarray and scaled refreshes bypass `issue_command`.
                    if !matches!(shape, RoundShape::Standard) {
                        self.probes.invalidate();
                    }
                    self.mech
                        .on_refresh_issued(&mut self.refresh, slot, now, outcome.completes_at);
                    self.refresh_started_at[slot] = now;
                    self.refresh_scope_sa[slot] = sa_target;
                    self.analysis[slot].refresh_started(now);
                    let scope_bank = self.slot_bank(slot);
                    self.trace
                        .emit(|| TraceEvent::DrainEnd { cycle: now, rank });
                    self.trace.emit(|| TraceEvent::RefreshStart {
                        cycle: now,
                        rank,
                        bank: scope_bank,
                        subarray: sa_target,
                    });
                    if let Some(rop) = &mut self.rop {
                        rop.refresh_hits[slot] = 0;
                        rop.refresh_lookups[slot] = 0;
                        rop.prefetch_pending[slot] = false;
                        rop.engines[rank].refresh_started_scoped(now, scope_bank);
                        // Prefetches for this slot that have not issued
                        // can no longer help; drop them.
                        let before = self.prefetch_q.len();
                        let (scope, banks) = (self.scope, self.cfg.dram.geometry.banks_per_rank);
                        let index = &mut self.index;
                        self.prefetch_q.retain(|q| {
                            let keep = slot_of(scope, banks, &q.req.addr) != slot;
                            if !keep {
                                index.remove(q.handle);
                            }
                            keep
                        });
                        self.stats.prefetches_dropped += (before - self.prefetch_q.len()) as u64;
                        if self.rop_debug {
                            eprintln!(
                                    "[rop] t={now} slot={slot} REF: buffer={} pending_fills={} dropped={}",
                                    rop.buffer.len(),
                                    self.pending_fills.len(),
                                    before - self.prefetch_q.len()
                                );
                        }
                    }
                    self.sweep_blocked_reads(slot, now);
                    return Some(Ok(()));
                }
            }
        }
        if any {
            Some(Err(earliest))
        } else {
            None
        }
    }

    /// At refresh issue, reads still queued for the frozen rank are
    /// blocked for the whole `tRFC`. They count toward the blocked-read
    /// analysis (`A` side), and with ROP enabled they get an SRAM-buffer
    /// lookup: hits complete from SRAM immediately, misses wait out the
    /// refresh in the queue.
    fn sweep_blocked_reads(&mut self, slot: usize, now: Cycle) {
        let rank = self.slot_rank(slot);
        // Under SARP only reads aimed at the refreshing subarray are
        // blocked; siblings keep flowing and are not swept.
        let scope_sa = self.refresh_scope_sa[slot];
        let geom = self.cfg.dram.geometry;
        let mut blocked = std::mem::take(&mut self.scratch.blocked);
        blocked.clear();
        blocked.extend(
            self.read_q
                .iter()
                .filter(|q| {
                    self.addr_slot(&q.req.addr) == slot
                        && scope_sa.is_none_or(|sa| geom.subarray_of_row(q.req.addr.row) == sa)
                })
                .map(|q| q.req.id),
        );
        if blocked.is_empty() {
            self.scratch.blocked = blocked;
            return;
        }
        if self.rop_debug {
            let lpr = self.cfg.dram.geometry.lines_per_row;
            let preview: Vec<_> = self
                .read_q
                .iter()
                .filter(|q| self.addr_slot(&q.req.addr) == slot)
                .take(6)
                .map(|q| {
                    let in_buf = self
                        .rop
                        .as_ref()
                        .map(|r| r.buffer.contains(q.req.line_addr))
                        .unwrap_or(false);
                    (q.req.addr.bank, q.req.addr.line_in_bank(lpr), in_buf)
                })
                .collect();
            eprintln!(
                "[rop] t={now} slot={slot} sweep {} blocked (bank, off, in_buf): {preview:?}",
                blocked.len()
            );
        }
        self.analysis[slot].note_blocked_at_refresh_start(blocked.len() as u64);
        let Some(rop) = &mut self.rop else {
            self.stats.reads_blocked_by_refresh += blocked.len() as u64;
            if self.track_blocked {
                self.blocked_ids.extend_from_slice(&blocked);
            }
            self.scratch.blocked = blocked;
            return;
        };
        rop.engines[rank].note_blocked_queued(blocked.len() as u64);
        if !rop.buffer.is_powered() {
            // Training phase: the buffer is off, nothing can be served.
            self.stats.reads_blocked_by_refresh += blocked.len() as u64;
            if self.track_blocked {
                self.blocked_ids.extend_from_slice(&blocked);
            }
            self.scratch.blocked = blocked;
            return;
        }
        let latency = rop.latency;
        for &id in &blocked {
            let idx = self
                .read_q
                .iter()
                .position(|q| q.req.id == id)
                .expect("id collected above");
            let req = self.read_q[idx].req;
            // The line may still be in flight from a just-issued prefetch;
            // defer judgement — `apply_fills` re-matches it on arrival.
            if self
                .pending_fills
                .iter()
                .any(|&(key, _)| key == req.line_addr)
            {
                continue;
            }
            rop.refresh_lookups[slot] += 1;
            self.stats.sram_lookups += 1;
            if rop.buffer.lookup(req.line_addr) {
                rop.refresh_hits[slot] += 1;
                self.stats.sram_hits += 1;
                let q = self.read_q.remove(idx);
                self.index.remove(q.handle);
                self.completions.push(Completion {
                    id: req.id,
                    core: req.core,
                    done_at: now.saturating_add(latency),
                    from_sram: true,
                });
                self.stats.reads_completed += 1;
                self.stats.reads_from_sram += 1;
                self.stats.sum_read_latency += now.saturating_add(latency) - req.arrival;
            } else {
                self.stats.reads_blocked_by_refresh += 1;
                if self.track_blocked {
                    self.blocked_ids.push(id);
                }
            }
        }
        self.scratch.blocked = blocked;
    }

    /// Admission state of `slot` at `now` (see [`SlotGates`]).
    // rop-lint: hot
    fn slot_gates(&self, slot: usize, now: Cycle) -> SlotGates {
        let frozen = self.slot_frozen(slot, now);
        let draining = matches!(self.refresh.state(slot), RefreshState::Draining { .. });
        SlotGates {
            draining,
            // Demand keeps flowing through the drain and the prefetch
            // burst (prefetches yield to it on the command bus); only
            // the final precharge-and-REF stage quiesces the scope.
            regular: frozen || (draining && self.drain_complete(slot, now)),
            frozen,
            sa_scope: self.slot_sa_scope(slot, now),
        }
    }

    /// Subarray scope of `slot`'s current freeze/quiesce, when the
    /// mechanism refreshes at subarray granularity. Requests to rows
    /// *outside* the returned subarray are exempt from the slot's
    /// admission gates (SARP's whole point: siblings stay accessible).
    // rop-lint: hot
    fn slot_sa_scope(&self, slot: usize, now: Cycle) -> Option<usize> {
        if !matches!(self.mech, Mechanism::Sarp(_)) {
            return None;
        }
        let rank = self.slot_rank(slot);
        let bank = self.slot_bank(slot)?;
        if self.slot_frozen(slot, now) {
            return self.device.frozen_subarray(rank, bank, now);
        }
        if matches!(self.refresh.state(slot), RefreshState::Draining { .. }) {
            if let RoundShape::Subarray { subarray } = self.mech.round_shape(&self.refresh, slot) {
                return Some(subarray);
            }
        }
        None
    }

    /// FR-FCFS scheduling. `Ok(())` = one command issued; `Err(earliest)`
    /// = nothing ready, next possible issue at `earliest`.
    ///
    /// The scheduling index answers from per-bank summaries kept across
    /// ticks ([`Self::pick_indexed`]). When a tie between equal keys
    /// decides the answer, the sorted walk ([`Self::pick_walk`])
    /// answers instead; debug builds check every indexed pick against
    /// it.
    // rop-lint: hot
    fn schedule(&mut self, now: Cycle) -> Result<(), Cycle> {
        self.refresh_index(now);
        let indexed = self.pick_indexed(now);
        if cfg!(any(test, debug_assertions)) {
            let walk = self.pick_walk(now);
            if let Ok(p) = indexed {
                debug_assert_eq!(p, walk, "indexed pick vs sorted walk at cycle {now}");
            }
            #[cfg(test)]
            {
                self.last_pick = Some((indexed, walk));
            }
        }
        let (kind, idx) = match indexed {
            Ok(p) => p?,
            Err(_) => self.pick_walk(now)?,
        };
        self.issue_for(kind, idx, now);
        Ok(())
    }

    /// Brings the index up to date for this tick: records the gates of
    /// every slot holding requests and the serve-writes flag (marking
    /// the banks whose inputs changed dirty), then recomputes the dirty
    /// summaries of occupied banks.
    ///
    /// A summary depends on its bank's requests, its open row, its
    /// slot's gates and the serve-writes flag. Request changes and
    /// commands mark their bank dirty where they happen; gates and the
    /// flag are compared here every tick, which also covers the drain
    /// gates that move with time alone. A slot's recorded gates may go
    /// stale while it holds no request: a request entering it marks its
    /// bank dirty, and the gates are refreshed before that bank's
    /// summary is.
    // rop-lint: hot
    fn refresh_index(&mut self, now: Cycle) {
        for slot in 0..self.refresh_slots() {
            let banks = self.slot_banks(slot);
            if !self.index.any_occupied(banks.clone()) {
                continue;
            }
            let gates = self.slot_gates(slot, now);
            if self.index.update_gates(slot, gates) {
                for g in banks {
                    self.index.mark_dirty(g);
                }
            }
        }
        self.index
            .update_serve_writes(self.write_drain || self.read_q.is_empty());
        let geom = self.cfg.dram.geometry;
        for w in 0..self.index.words() {
            let word = self.index.take_dirty_word(w);
            for_each_bit(word, w * 64, |g| {
                let (rank, bank) = self.bank_loc[g];
                let open = self.device.open_row(rank, bank);
                let slot = self.bank_slot(g);
                self.index
                    .summarize(g, slot, open, |row| geom.subarray_of_row(row));
            });
        }
    }

    /// The FR-FCFS pick from the bank summaries: the sorted walk's
    /// three passes, folded into one scan with each occupied bank
    /// standing in for its requests. A bank's read hits share one RD
    /// bound and its write hits one WR bound, so its oldest hit of each
    /// kind decides pass 1, and its oldest candidate is its pass-2
    /// representative.
    ///
    /// `Err(tie)` when a tie between equal keys decides the answer,
    /// because the walk's order among equal keys is its sort's. Pass 2
    /// lets a bank's tie through when every tied request waits for one
    /// bound, or when only a row miss put first could add a bound the
    /// hint does not already hold.
    // rop-lint: hot
    fn pick_indexed(&mut self, now: Cycle) -> Result<Pick, Tie> {
        let sarp = matches!(self.mech, Mechanism::Sarp(_));
        // Pass 0 over all candidates; passes 1 and 2 over ready ones.
        let (mut oldest, mut hits, mut reps) = (
            ReadyMin::default(),
            ReadyMin::default(),
            ReadyMin::default(),
        );
        // Earliest bound among waiting hits (pass 1) and waiting
        // representatives (pass 2); the lowest PRE bound a tied bank
        // adds only if the sort puts a row miss first.
        let (mut hit_wait, mut rep_wait, mut maybe) = (Cycle::MAX, Cycle::MAX, Cycle::MAX);
        let mut bank_tie = false;
        for w in 0..self.index.words() {
            for_each_bit(self.index.occupied_word(w), w * 64, |g| {
                let sum = self.index.summary(g);
                let Some(o) = sum.oldest else { return };
                oldest.offer(o);
                let loc = self.bank_loc[g];
                let dev = &self.device;
                for (hit, probe) in [(sum.read_hit, Probe::Read), (sum.write_hit, Probe::Write)] {
                    if let Some(h) = hit {
                        let bound = self.probes.bound(g, probe, loc, dev);
                        if bound <= now {
                            hits.offer(h);
                        } else {
                            hit_wait = hit_wait.min(bound);
                        }
                    }
                }
                // A tie group waits for one shared bound; ACTs share one
                // only outside SARP.
                let (probe, wait) = match sum.tie {
                    TieShape::Unique => {
                        let bound = self.probes.next_bound(g, sum.next, loc, dev, sarp);
                        if bound <= now {
                            reps.offer(o);
                        } else {
                            rep_wait = rep_wait.min(bound);
                        }
                        return;
                    }
                    TieShape::Hits => return,
                    TieShape::Precharge => (Probe::Precharge, &mut rep_wait),
                    TieShape::HitsAndPrecharge => (Probe::Precharge, &mut maybe),
                    TieShape::Activate if !sarp => (Probe::Activate, &mut rep_wait),
                    TieShape::Activate => {
                        bank_tie = true;
                        return;
                    }
                };
                let bound = self.probes.bound(g, probe, loc, dev);
                if bound > now {
                    *wait = (*wait).min(bound);
                } else {
                    bank_tie = true;
                }
            });
        }

        // Pass 0: starvation guard — serve the oldest over-age request.
        let mut earliest = Cycle::MAX;
        if let Some(o) = oldest.best {
            if now.saturating_sub(o.arrival) > self.cfg.age_cap {
                if oldest.tied {
                    return Err(Tie::AgeCap);
                }
                let g = self.index.entry(o.handle).bank as usize;
                let next = self.index.summary(g).next;
                let bound = self
                    .probes
                    .next_bound(g, next, self.bank_loc[g], &self.device, sarp);
                if bound <= now {
                    return Ok(Ok(self.locate(o.handle)));
                }
                earliest = bound;
            }
        }

        // Pass 1: ready row-hit column commands, tier then age order.
        if let Some(h) = hits.best {
            if hits.tied {
                return Err(Tie::RowHit);
            }
            return Ok(Ok(self.locate(h.handle)));
        }
        earliest = earliest.min(hit_wait);

        // Pass 2: oldest request per bank drives PRE/ACT (or its column
        // command once the row opens).
        if bank_tie {
            return Err(Tie::Bank);
        }
        match reps.best {
            Some(_) if reps.tied => Err(Tie::Bank),
            Some(r) => Ok(Ok(self.locate(r.handle))),
            None if maybe < earliest.min(rep_wait) => Err(Tie::Bank),
            None => Ok(Err(earliest.min(rep_wait))),
        }
    }

    /// Queue and position of the request behind `handle`.
    // rop-lint: hot
    fn locate(&self, handle: u32) -> (QueueKind, usize) {
        let kind = self.index.entry(handle).kind;
        let queue = match kind {
            QueueKind::Read => &self.read_q,
            QueueKind::Write => &self.write_q,
            QueueKind::Prefetch => &self.prefetch_q,
        };
        let idx = queue
            .iter()
            .position(|q| q.handle == handle)
            .expect("an indexed request is queued");
        (kind, idx)
    }

    /// The reference pick: materialise every candidate
    /// ([`Self::build_candidates`]) and run the sorted walk
    /// ([`Self::pick_sorted`]). It answers the index's tie fallback
    /// and is its oracle. Its working sets live in [`TickScratch`] —
    /// taken out here, refilled, and put back, which keeps it
    /// allocation-free.
    // rop-lint: hot
    fn pick_walk(&mut self, now: Cycle) -> Pick {
        let mut s = std::mem::take(&mut self.scratch);
        self.build_candidates(now, &mut s);
        let pick = if s.cands.is_empty() {
            Err(Cycle::MAX)
        } else {
            self.pick_sorted(now, &mut s).map(|c| (c.kind, c.idx))
        };
        self.scratch = s;
        pick
    }

    /// Fills `s.cands` with every request the admission gates let
    /// compete at `now`, in queue order (prefetch, read, write).
    // rop-lint: hot
    fn build_candidates(&self, now: Cycle, s: &mut TickScratch) {
        // Tier 0: draining-rank demand (must issue before its REF);
        // tier 1: regular traffic; tier 2: ROP prefetches — strictly
        // opportunistic, they only get bus slots no demand request can
        // use this cycle (§IV-D's "minimise interference with demand
        // requests").
        //
        // Candidates are materialised once — tier, arrival, bank key
        // and row-hit flag — so the passes of `pick_sorted` sort and
        // scan plain arrays without re-deriving keys through the
        // queues on every comparison.
        s.cands.clear();
        s.gates.clear();
        for slot in 0..self.refresh_slots() {
            s.gates.push(self.slot_gates(slot, now));
        }
        let geom = self.cfg.dram.geometry;
        let banks = geom.banks_per_rank;
        let serve_writes = self.write_drain || self.read_q.is_empty();
        for (kind, queue) in [
            (QueueKind::Prefetch, &self.prefetch_q),
            (QueueKind::Read, &self.read_q),
            (QueueKind::Write, &self.write_q),
        ] {
            for (i, q) in queue.iter().enumerate() {
                let a = &q.req.addr;
                let gates = s.gates[self.addr_slot(a)];
                // A gate is waived for requests outside the slot's
                // frozen subarray (SARP).
                let exempt = gates
                    .sa_scope
                    .is_some_and(|sa| geom.subarray_of_row(a.row) != sa);
                let in_drain = self.index.entry(q.handle).in_drain;
                if let Some(tier) = gates.tier(kind, in_drain, exempt, serve_writes) {
                    s.cands.push(self.materialize(tier, kind, i, q, banks));
                }
            }
        }
    }

    /// The sorted walk: each pass orders its candidates by `(tier,
    /// arrival)` with `sort_unstable` and takes the first ready one, or
    /// `Err(earliest)` when none is ready. Side-effect free: every pass
    /// only probes ([`Self::probe`]); the caller issues the pick.
    // rop-lint: hot
    fn pick_sorted(&self, now: Cycle, s: &mut TickScratch) -> Result<Cand, Cycle> {
        let mut earliest = Cycle::MAX;

        // Pass 0: starvation guard — serve the oldest over-age request.
        let oldest = s.cands.iter().min_by_key(|c| c.key()).copied();
        if let Some(c) = oldest {
            if self.queued(c.kind, c.idx).req.age(now) > self.cfg.age_cap {
                let e = self.probe(c.kind, c.idx, now);
                if e <= now {
                    return Ok(c);
                }
                earliest = earliest.min(e);
            }
        }

        // Pass 1: ready row-hit column commands, tier then age order.
        match self.pick_hit_sorted(now, s) {
            Ok(c) => return Ok(c),
            Err(e) => earliest = earliest.min(e),
        }

        // Pass 2: oldest request per bank drives PRE/ACT (or its column
        // command once the row opens).
        self.pick_bank_sorted(now, s).map_err(|e| earliest.min(e))
    }

    /// Pass 1 by sorted walk: row hits in key order, first ready wins.
    // rop-lint: hot
    fn pick_hit_sorted(&self, now: Cycle, s: &mut TickScratch) -> Result<Cand, Cycle> {
        s.hits.clear();
        s.hits.extend(s.cands.iter().filter(|c| c.hit));
        s.hits.sort_unstable_by_key(Cand::key);
        let mut earliest = Cycle::MAX;
        for c in &s.hits {
            let e = self.probe(c.kind, c.idx, now);
            if e <= now {
                return Ok(*c);
            }
            earliest = earliest.min(e);
        }
        Err(earliest)
    }

    /// Pass 2 by sorted walk: the first candidate of each bank in key
    /// order represents it; the first ready representative wins. Bank
    /// keys were frozen into the candidates up front, so the dedup
    /// flags are independent of anything a probe could see.
    // rop-lint: hot
    fn pick_bank_sorted(&self, now: Cycle, s: &mut TickScratch) -> Result<Cand, Cycle> {
        s.ordered.clear();
        s.ordered.extend_from_slice(&s.cands);
        s.ordered.sort_unstable_by_key(Cand::key);
        s.seen_banks.fill(false);
        let mut earliest = Cycle::MAX;
        for c in &s.ordered {
            if std::mem::replace(&mut s.seen_banks[c.bank as usize], true) {
                continue;
            }
            let e = self.probe(c.kind, c.idx, now);
            if e <= now {
                return Ok(*c);
            }
            earliest = earliest.min(e);
        }
        Err(earliest)
    }

    /// Builds the materialised scheduling snapshot for one queued
    /// request (see [`Cand`]).
    // rop-lint: hot
    #[inline]
    fn materialize(&self, tier: u8, kind: QueueKind, idx: usize, q: &Queued, banks: usize) -> Cand {
        let a = &q.req.addr;
        Cand {
            tier,
            arrival: q.req.arrival,
            kind,
            idx,
            bank: (a.rank * banks + a.bank) as u32,
            hit: self.device.open_row(a.rank, a.bank) == Some(a.row),
        }
    }

    // rop-lint: hot
    fn queued(&self, kind: QueueKind, i: usize) -> &Queued {
        match kind {
            QueueKind::Read => &self.read_q[i],
            QueueKind::Write => &self.write_q[i],
            QueueKind::Prefetch => &self.prefetch_q[i],
        }
    }

    /// The next command request `(kind, i)` needs: its column command
    /// when its row is open, PRE on a row conflict, ACT on a closed
    /// bank.
    // rop-lint: hot
    #[inline]
    fn next_command(&self, kind: QueueKind, i: usize) -> Command {
        let req = &self.queued(kind, i).req;
        let (rank, bank, row, column) = (req.addr.rank, req.addr.bank, req.addr.row, req.addr.col);
        match self.device.open_row(rank, bank) {
            Some(open) if open == row && req.is_write => Command::Write { rank, bank, column },
            Some(open) if open == row => Command::Read { rank, bank, column },
            Some(_) => Command::Precharge { rank, bank },
            None => Command::Activate { rank, bank, row },
        }
    }

    /// Earliest cycle the next command of request `(kind, i)` can issue;
    /// `Cycle::MAX` when an ACT is structurally illegal (its scope is
    /// refreshing). Side-effect free.
    // rop-lint: hot
    fn probe(&self, kind: QueueKind, i: usize, now: Cycle) -> Cycle {
        let cmd = self.next_command(kind, i);
        let earliest = self.device.earliest_issue(&cmd, now);
        if matches!(cmd, Command::Activate { .. }) {
            earliest.unwrap_or(Cycle::MAX)
        } else {
            earliest.expect("an open bank takes its column command or PRE")
        }
    }

    /// Issues the next command of request `(kind, i)`, which the caller
    /// has probed ready at `now` (column commands also retire the
    /// request).
    // rop-lint: hot
    fn issue_for(&mut self, kind: QueueKind, i: usize, now: Cycle) {
        debug_assert!(self.probe(kind, i, now) <= now, "issued before ready");
        let cmd = self.next_command(kind, i);
        let outcome = self.issue_command(&cmd, now);
        let Queued { req, acted, .. } = *self.queued(kind, i);
        match cmd {
            Command::Read { rank, bank, .. } | Command::Write { rank, bank, .. } => {
                if !req.is_prefetch {
                    self.stats.row_buffer.record(!acted);
                    if !req.is_write {
                        // The prediction table trails the *served* read
                        // stream (see `RopEngine::note_served`).
                        if let Some(rop) = &mut self.rop {
                            let line_in_bank =
                                req.addr.line_in_bank(self.cfg.dram.geometry.lines_per_row);
                            rop.engines[rank].note_served(bank, line_in_bank, now);
                        }
                    }
                }
                self.retire(kind, i, outcome.data_at.expect("column command"), now);
            }
            Command::Activate { .. } => self.mark_acted(kind, i),
            _ => {}
        }
    }

    // rop-lint: hot
    fn mark_acted(&mut self, kind: QueueKind, i: usize) {
        match kind {
            QueueKind::Read => self.read_q[i].acted = true,
            QueueKind::Write => self.write_q[i].acted = true,
            QueueKind::Prefetch => self.prefetch_q[i].acted = true,
        }
    }

    /// Removes a request whose column command issued, delivering its
    /// effect (completion, fill, or write retirement).
    // rop-lint: hot
    fn retire(&mut self, kind: QueueKind, i: usize, data_at: Cycle, now: Cycle) {
        let q = match kind {
            QueueKind::Read => self.read_q.remove(i),
            QueueKind::Write => self.write_q.remove(i),
            QueueKind::Prefetch => self.prefetch_q.remove(i),
        };
        let req = q.req;
        // Remove from the slot's drain set if present.
        if self.index.remove(q.handle).in_drain {
            let slot = self.addr_slot(&req.addr);
            let set = &mut self.drain_sets[slot];
            if let Some(pos) = set.iter().position(|&id| id == req.id) {
                set.swap_remove(pos);
            }
        }
        match kind {
            QueueKind::Read => {
                self.completions.push(Completion {
                    id: req.id,
                    core: req.core,
                    done_at: data_at,
                    from_sram: false,
                });
                self.stats.reads_completed += 1;
                self.stats.sum_read_latency += data_at - req.arrival;
            }
            QueueKind::Write => {
                // Fire-and-forget; nothing to deliver.
            }
            QueueKind::Prefetch => {
                self.pending_fills.push((req.line_addr, data_at));
            }
        }
        let _ = now;
    }
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use rop_dram::DramConfig;

    fn baseline_1rank() -> MemController {
        MemController::new(MemCtrlConfig::baseline(DramConfig::baseline(1)))
    }

    /// Runs the controller until `pred` or `deadline`, returning when.
    fn run_until(
        c: &mut MemController,
        mut now: Cycle,
        deadline: Cycle,
        mut pred: impl FnMut(&MemController) -> bool,
    ) -> Cycle {
        while now < deadline {
            let hint = c.tick(now);
            if pred(c) {
                return now;
            }
            now = hint.max(now + 1).min(deadline);
        }
        now
    }

    #[test]
    fn single_read_completes() {
        let mut c = baseline_1rank();
        let id = c.enqueue_read(12345, 0, 10).expect("queue empty");
        run_until(&mut c, 10, 10_000, |c| !c.completions.is_empty());
        let comps = c.take_completions();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].id, id);
        assert!(!comps[0].from_sram);
        // ACT + RD latency: tRCD + CL + burst = 11 + 11 + 4 = 26 from issue.
        assert!(comps[0].done_at >= 10 + 26);
        assert!(comps[0].done_at < 100);
        assert_eq!(c.stats().reads_completed, 1);
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let mut c = baseline_1rank();
        // Two reads in the same bank and row (bank-interleaved mapping:
        // same bank repeats every 8 lines, next column).
        c.enqueue_read(100, 0, 0).unwrap();
        c.enqueue_read(108, 0, 0).unwrap();
        run_until(&mut c, 0, 10_000, |c| c.stats().reads_completed == 2);
        let s = c.stats();
        assert_eq!(s.row_buffer.hits(), 1); // second read hits the open row
        let comps = c.take_completions();
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn writes_are_batched_and_drain() {
        let mut c = baseline_1rank();
        for k in 0..20u64 {
            assert!(c.enqueue_write(k * 128, 0, 0));
        }
        // With no reads pending, writes drain opportunistically.
        run_until(&mut c, 0, 50_000, |c| c.write_queue_len() == 0);
        assert_eq!(c.write_queue_len(), 0);
        assert_eq!(c.stats().writes_accepted, 20);
    }

    #[test]
    fn read_queue_capacity_enforced() {
        let mut c = baseline_1rank();
        let mut accepted = 0;
        for k in 0..200u64 {
            if c.enqueue_read(k * 1_000_003, 0, 0).is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64);
        assert_eq!(c.stats().read_queue_full, 200 - 64);
    }

    #[test]
    fn refreshes_happen_at_trefi_rate() {
        let mut c = baseline_1rank();
        // Idle memory for 10 tREFI.
        let mut now = 0;
        let end = 10 * 6240 + 1000;
        while now < end {
            now = c.tick(now).min(end);
        }
        let issued = c.refreshes_issued(0);
        assert!((9..=11).contains(&issued), "issued {issued}");
    }

    #[test]
    fn no_refresh_config_never_refreshes() {
        let mut c = MemController::new(MemCtrlConfig::no_refresh(DramConfig::baseline(1)));
        let mut now = 0;
        while now < 20 * 6240 {
            now = c.tick(now).min(20 * 6240);
        }
        assert_eq!(c.refreshes_issued(0), 0);
    }

    #[test]
    fn reads_blocked_by_refresh_wait_for_thaw() {
        let mut c = baseline_1rank();
        // Let the first refresh start.
        let mut now = 0;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
        }
        // Rank is now refreshing; a read arriving must be blocked.
        assert!(c.device.is_rank_refreshing(0, now));
        c.enqueue_read(777, 0, now).unwrap();
        assert_eq!(c.stats().reads_blocked_by_refresh, 1);
        let done = run_until(&mut c, now, now + 10_000, |c| {
            c.stats().reads_completed == 1
        });
        // It can only have completed after the refresh ended.
        assert!(done >= c.device.refresh_done_at(0) || c.stats().reads_completed == 1);
        let comps = c.take_completions();
        assert!(comps[0].done_at > c.device.refresh_done_at(0));
    }

    /// Opt-in blocked-id tracking records the id of a read arriving
    /// during a freeze, is drained exactly once, and stays empty (and
    /// allocation-free) when the flag is off.
    #[test]
    fn refresh_blocked_ids_are_tracked_on_opt_in() {
        let mut c = baseline_1rank();
        c.set_track_refresh_blocked(true);
        let mut now = 0;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
        }
        assert!(c.device.is_rank_refreshing(0, now));
        let id = c.enqueue_read(777, 0, now).unwrap();
        let mut ids = Vec::new();
        c.drain_refresh_blocked_into(&mut ids);
        assert!(ids.contains(&id), "blocked id {id} missing from {ids:?}");
        ids.clear();
        c.drain_refresh_blocked_into(&mut ids);
        assert!(ids.is_empty(), "drain must clear the buffer");

        // Default-off: same scenario records nothing.
        let mut c = baseline_1rank();
        let mut now = 0;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
        }
        c.enqueue_read(777, 0, now).unwrap();
        assert_eq!(c.stats().reads_blocked_by_refresh, 1);
        let mut ids = Vec::new();
        c.drain_refresh_blocked_into(&mut ids);
        assert!(ids.is_empty());
    }

    #[test]
    fn drain_set_issues_before_refresh() {
        let mut c = baseline_1rank();
        // Enqueue reads just before the refresh due time.
        let due = 6240;
        for k in 0..4u64 {
            c.enqueue_read(1_000 + k, 0, due - 10).unwrap();
        }
        let mut now = due - 10;
        while c.refreshes_issued(0) == 0 {
            now = c.tick(now);
            assert!(now < due + 20_000, "refresh never issued");
        }
        // All drained reads completed before or at refresh issue.
        assert_eq!(c.stats().reads_completed, 4);
    }

    #[test]
    fn rop_controller_trains_then_observes() {
        let cfg = MemCtrlConfig::rop(DramConfig::baseline(1), 64, 42);
        let mut c = MemController::new(cfg);
        assert_eq!(c.rop_phase(0), Some(RopPhase::Training));
        // Drive enough traffic + refreshes to complete training (50).
        let mut now = 0u64;
        let mut k = 0u64;
        while c.refreshes_issued(0) < 55 {
            // Steady read stream.
            if now.is_multiple_of(40) {
                let _ = c.enqueue_read(k * 3, 0, now);
                k += 1;
            }
            let hint = c.tick(now);
            c.take_completions();
            now = hint.max(now + 1).min(now + 40 - now % 40);
        }
        // At least one training phase completed and λ/β published. (The
        // engine may legitimately be back in Training if this synthetic
        // stream defeats the prefetcher's hit-rate threshold.)
        assert!(c.rop_engine_stats(0).unwrap().trainings_completed >= 1);
        let (lambda, _beta) = c.rop_probabilities(0).unwrap();
        // Continuous traffic: λ must be high.
        assert!(lambda > 0.8, "lambda {lambda}");
    }

    #[test]
    fn per_bank_refresh_mode_runs_and_freezes_banks_only() {
        let mut c = MemController::new(MemCtrlConfig::per_bank(DramConfig::baseline(1)));
        assert_eq!(c.refresh_slots(), 8);
        // Idle memory for several tREFI: every bank slot refreshes once
        // per tREFI (8 REFpb per tREFI for the rank).
        let mut now = 0;
        let end = 5 * 6240 + 1000;
        while now < end {
            now = c.tick(now).min(end);
        }
        let issued = c.refreshes_issued(0);
        assert!(
            (4 * 8..=6 * 8).contains(&issued),
            "per-bank refreshes issued: {issued}"
        );
        // The device never saw an all-bank REF.
        assert_eq!(c.device.counts().refreshes, 0);
        assert!(c.device.counts().refreshes_pb > 0);
    }

    #[test]
    fn per_bank_refresh_serves_reads_on_other_banks() {
        let mut c = MemController::new(MemCtrlConfig::per_bank(DramConfig::baseline(1)));
        // Let the first REFpb start.
        let mut now = 0;
        while c.device.counts().refreshes_pb == 0 {
            now = c.tick(now);
        }
        // Find the refreshing bank and read from a different one.
        let frozen: Vec<usize> = (0..8)
            .filter(|&b| c.device.is_bank_refreshing(0, b, now))
            .collect();
        assert_eq!(frozen.len(), 1);
        let other_bank = (frozen[0] + 1) % 8;
        // Line addr hitting (rank 0, other_bank): bank bits lowest.
        let line = other_bank as u64;
        c.enqueue_read(line, 0, now).unwrap();
        let t_rfc_pb = c.cfg.dram.timing.t_rfc_pb;
        let mut done = now;
        while c.stats().reads_completed == 0 {
            done = c.tick(done);
            assert!(done < now + 10_000, "read starved");
        }
        let comps = c.take_completions();
        // Served well inside the REFpb window: the sibling bank was free.
        assert!(
            comps[0].done_at < now + t_rfc_pb,
            "done {} vs refresh end {}",
            comps[0].done_at,
            now + t_rfc_pb
        );
    }

    #[test]
    fn rop_per_bank_mode_trains_and_prefetches() {
        let mut c =
            MemController::new(MemCtrlConfig::rop_per_bank(DramConfig::baseline(1), 64, 11));
        // Stream reads; REFpb slots come 8× as often, so training (50
        // refresh events) completes quickly.
        let mut now = 0u64;
        let mut k = 0u64;
        while c.refreshes_issued(0) < 120 {
            if now.is_multiple_of(16) {
                let _ = c.enqueue_read(k, 0, now);
                k += 3;
            }
            let hint = c.tick(now);
            c.take_completions();
            now = hint.max(now + 1).min(now + 16 - now % 16);
        }
        assert!(c.rop_engine_stats(0).unwrap().trainings_completed >= 1);
        assert!(
            c.stats().prefetches_issued > 0,
            "per-bank ROP must prefetch"
        );
    }

    #[test]
    fn analysis_counts_refreshes() {
        let mut c = baseline_1rank();
        let mut now = 0;
        while c.refreshes_issued(0) < 5 {
            now = c.tick(now);
        }
        c.finalize_analysis();
        let r = c.analysis(0).report(0);
        assert!(r.refreshes >= 4);
        // No traffic at all: every refresh non-blocking.
        assert_eq!(r.non_blocking_fraction, 1.0);
    }

    #[test]
    fn energy_accumulates() {
        let mut c = baseline_1rank();
        c.enqueue_read(5, 0, 0).unwrap();
        let mut now = 0;
        while c.stats().reads_completed == 0 {
            now = c.tick(now);
        }
        let e = c.energy_breakdown(now + 100);
        assert!(e.read_nj > 0.0);
        assert!(e.act_pre_nj > 0.0);
        assert!(e.background_nj > 0.0);
    }

    /// Forty reads into one bank, all arriving in the same cycle: every
    /// candidate shares one `(tier, arrival)` key, so the indexed pick
    /// must fall back to the sorted walk — in the per-bank pass while
    /// the bank is closed, and in the row-hit pass once a row holding
    /// several of them opens. Every indexed pick that does not fall
    /// back is checked against the walk.
    #[test]
    fn same_cycle_same_bank_ties_fall_back_to_the_sorted_walk() {
        let mut c = baseline_1rank();
        // Four rows of bank 0, ten columns each.
        let lines: Vec<u64> = (0..1u64 << 20)
            .filter(|&l| {
                let a = c.mapping().decode(l);
                a.bank == 0 && a.row < 4 && a.col < 10
            })
            .collect();
        assert_eq!(lines.len(), 40);
        for &l in &lines {
            c.enqueue_read(l, 0, 0).expect("queue has room");
        }

        let (mut hit_ties, mut bank_ties) = (0, 0);
        let mut now = 0;
        while c.stats().reads_completed < 40 {
            assert!(now < 20_000, "reads starved");
            now = c.tick(now);
            match c.last_pick.take() {
                Some((Err(Tie::RowHit), _)) => hit_ties += 1,
                Some((Err(Tie::Bank), _)) => bank_ties += 1,
                Some((Err(Tie::AgeCap), _)) | None => {}
                Some((Ok(p), walk)) => assert_eq!(p, walk, "indexed pick at cycle {now}"),
            }
        }
        assert!(bank_ties > 0, "per-bank tie never reached the fallback");
        assert!(hit_ties > 0, "row-hit tie never reached the fallback");
        // Served oldest-first within the tie by the walk: every read
        // completed, none twice.
        let mut ids: Vec<u64> = c.take_completions().iter().map(|x| x.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }
}
