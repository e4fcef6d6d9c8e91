//! Seeded fault schedules.
//!
//! A [`FaultPlan`] is a pure function of `(seed, count)`: the same pair
//! always produces the same `(site, kind)` schedule, so any oracle
//! failure is replayable from two integers. Sites index *global
//! monotone counters* — the nth store record written, the nth job
//! attempt — maintained by the [`ArmedPlan`] across every crash/resume
//! round, and each fault is consumed exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use std::collections::BTreeMap;

/// Where in the pipeline a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// The nth record the store writes since the plan was armed
    /// (process-global, counted across crash/resume rounds). A group
    /// commit writes many records in one I/O call; each is its own site.
    Append(u64),
    /// The nth job attempt since the plan was armed.
    Attempt(u64),
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Site::Append(n) => write!(f, "append#{n}"),
            Site::Attempt(n) => write!(f, "attempt#{n}"),
        }
    }
}

/// What goes wrong at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The records before it in its group land whole, then half the
    /// record's bytes, then the "process dies" (the append returns an
    /// error that aborts the round).
    TornWrite,
    /// The tail of the record is silently dropped: the append reports
    /// success but leaves a corrupt line for the next load to
    /// quarantine. The nastiest store fault — only the oracle's final
    /// clean verify round catches it.
    ShortWrite,
    /// The whole group lands but the fsync "fails"; the round aborts
    /// even though the data is intact.
    FsyncError,
    /// Nothing of the record or the rest of its group is written
    /// (ENOSPC); the round aborts.
    DiskFull,
    /// The record is appended twice; newest-record-wins resume must
    /// shrug it off.
    DuplicateLine,
    /// The worker panics before the job body runs, consuming a retry.
    WorkerPanic,
    /// The worker wedges without a heartbeat until the watchdog cancels
    /// it; the retry (after backoff) must succeed.
    HungJob,
    /// The worker stalls briefly, then proceeds — the watchdog must
    /// tolerate a slow-but-alive attempt.
    SlowJob,
}

/// Every fault kind, in schedule-filling order.
pub const ALL_KINDS: [FaultKind; 8] = [
    FaultKind::TornWrite,
    FaultKind::FsyncError,
    FaultKind::WorkerPanic,
    FaultKind::HungJob,
    FaultKind::ShortWrite,
    FaultKind::DiskFull,
    FaultKind::DuplicateLine,
    FaultKind::SlowJob,
];

impl FaultKind {
    /// True for faults injected at store-append sites.
    pub fn is_store_fault(self) -> bool {
        matches!(
            self,
            FaultKind::TornWrite
                | FaultKind::ShortWrite
                | FaultKind::FsyncError
                | FaultKind::DiskFull
                | FaultKind::DuplicateLine
        )
    }

    /// Stable identifier used in plan renderings and event logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn-write",
            FaultKind::ShortWrite => "short-write",
            FaultKind::FsyncError => "fsync-error",
            FaultKind::DiskFull => "disk-full",
            FaultKind::DuplicateLine => "duplicate-line",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::HungJob => "hung-job",
            FaultKind::SlowJob => "slow-job",
        }
    }
}

/// splitmix64 — the standard 64-bit seed expander; tiny, seedable, and
/// good enough to scatter sites (this is scheduling, not statistics).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic `(site, kind)` schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// The schedule, sorted by site.
    pub faults: Vec<(Site, FaultKind)>,
}

impl FaultPlan {
    /// Derives a `count`-fault schedule from `seed`.
    ///
    /// The first four kinds are always the headline quartet — torn
    /// write, fsync error, worker panic, hung job — so any schedule of
    /// at least four faults exercises every recovery path the paper
    /// harness claims; the rest are drawn pseudo-randomly from
    /// [`ALL_KINDS`]. Store faults land on distinct append sites and
    /// worker faults on distinct attempt sites, all within the first
    /// `2 * count` events of their counter, so a sweep with at least
    /// `2 * count` jobs fires the whole schedule in its first round.
    pub fn generate(seed: u64, count: usize) -> FaultPlan {
        let mut rng = seed ^ 0x05ee_d0fc_4a05; // decouple from job seeds
        let mut kinds: Vec<FaultKind> = ALL_KINDS.iter().copied().take(count.min(4)).collect();
        while kinds.len() < count {
            let pick = (splitmix64(&mut rng) % ALL_KINDS.len() as u64) as usize;
            kinds.push(ALL_KINDS[pick]);
        }

        // Distinct sites per counter, scattered over [0, 2*count).
        let window = (2 * count.max(1)) as u64;
        let mut draw_site = |used: &mut Vec<u64>| -> u64 {
            loop {
                let s = splitmix64(&mut rng) % window;
                if !used.contains(&s) {
                    used.push(s);
                    return s;
                }
            }
        };
        let mut used_appends: Vec<u64> = Vec::new();
        let mut used_attempts: Vec<u64> = Vec::new();
        let mut faults: Vec<(Site, FaultKind)> = kinds
            .into_iter()
            .map(|kind| {
                let site = if kind.is_store_fault() {
                    Site::Append(draw_site(&mut used_appends))
                } else {
                    Site::Attempt(draw_site(&mut used_attempts))
                };
                (site, kind)
            })
            .collect();
        faults.sort_by_key(|&(site, _)| site);
        FaultPlan { seed, faults }
    }

    /// Human-readable schedule (one fault per line) for artifacts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# rop-chaos fault plan — seed {}, {} fault(s)\n",
            self.seed,
            self.faults.len()
        );
        for (site, kind) in &self.faults {
            out.push_str(&format!("{site}\t{}\n", kind.name()));
        }
        out
    }
}

/// A [`FaultPlan`] armed with live counters: the injection seams call
/// [`ArmedPlan::take_append_fault`] / [`ArmedPlan::take_attempt_fault`]
/// on every event, and each planned fault is handed out exactly once.
#[derive(Debug)]
pub struct ArmedPlan {
    pending: Mutex<BTreeMap<Site, FaultKind>>,
    appends: AtomicU64,
    attempts: AtomicU64,
    fired: Mutex<Vec<String>>,
}

impl ArmedPlan {
    /// Arms `plan` with zeroed counters.
    pub fn new(plan: &FaultPlan) -> Arc<ArmedPlan> {
        Arc::new(ArmedPlan {
            pending: Mutex::new(plan.faults.iter().copied().collect()),
            appends: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            fired: Mutex::new(Vec::new()),
        })
    }

    fn take(&self, site: Site) -> Option<FaultKind> {
        let kind = self
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&site)?;
        self.log(format!("{site}: {}", kind.name()));
        Some(kind)
    }

    /// Counts one record written to the store; returns the fault
    /// planned for it.
    pub fn take_append_fault(&self) -> Option<FaultKind> {
        let n = self.appends.fetch_add(1, Ordering::SeqCst);
        self.take(Site::Append(n))
    }

    /// Counts one job attempt; returns the fault planned for it.
    pub fn take_attempt_fault(&self) -> Option<FaultKind> {
        let n = self.attempts.fetch_add(1, Ordering::SeqCst);
        self.take(Site::Attempt(n))
    }

    /// Faults that have not fired yet.
    pub fn remaining(&self) -> usize {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Sites whose faults have not fired yet, rendered for diagnostics.
    pub fn remaining_sites(&self) -> Vec<String> {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(site, kind)| format!("{site}: {}", kind.name()))
            .collect()
    }

    /// Appends a line to the event log (used by the supervisor too, so
    /// one log tells the whole story of a chaos run).
    pub fn log(&self, line: String) {
        self.fired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line);
    }

    /// The event log so far.
    pub fn events(&self) -> Vec<String> {
        self.fired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

// ---------------------------------------------------------------------------
// Distributed (multi-process) fault vocabulary.
// ---------------------------------------------------------------------------

/// Where in the **lease protocol** a distributed fault fires. Sites
/// index each worker *incarnation's* process-local sequence counters
/// (`LeaseManager` hands them to its hooks), so a respawned worker
/// restarts at claim #0 — which is why the parent threads the set of
/// already-fired faults through to respawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DistSite {
    /// The nth claim decision this incarnation makes (fires at the
    /// first *eligible* decision at or after n — eligibility depends
    /// on the kind, e.g. split-brain needs a live peer lease).
    Claim(u64),
    /// The nth lease heartbeat this incarnation sends.
    Beat(u64),
    /// The nth result commit this incarnation attempts.
    Commit(u64),
    /// Worker start-up, before any lease traffic.
    Startup,
}

impl std::fmt::Display for DistSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistSite::Claim(n) => write!(f, "claim#{n}"),
            DistSite::Beat(n) => write!(f, "beat#{n}"),
            DistSite::Commit(n) => write!(f, "commit#{n}"),
            DistSite::Startup => write!(f, "startup"),
        }
    }
}

/// What goes wrong with a distributed worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistFaultKind {
    /// The worker vanishes at a commit point: it stops heartbeating,
    /// waits until a peer has stolen the job and committed, then comes
    /// back as a zombie and tries to land a *poisoned* result. Epoch
    /// fencing must refuse the late commit; with fencing disabled (the
    /// `no-fencing` mutant) the poison lands and the figures diverge.
    WorkerDisconnect,
    /// The worker claims a job **at the live holder's epoch** — the
    /// double-claim the advisory lock normally prevents. Resolution
    /// must converge on one deterministic winner.
    SplitBrainClaim,
    /// The process aborts between the claim decision and the claim
    /// record hitting the lease log.
    CrashAfterClaim,
    /// Heartbeats for one running job stop cold; the lease must go
    /// stale by observation count and be stolen.
    LeaseStall,
    /// The process aborts in `before_commit`: the work is lost, the
    /// lease stays live, and a peer must steal and re-run the job.
    CrashBeforeCommit,
    /// Half a claim line reaches the lease log (the worker's real claim
    /// fuses into the torn bytes and is quarantined on load).
    TornLeaseClaim,
    /// The claim record lands twice; resolution must be idempotent.
    DuplicateClaim,
    /// The process aborts the moment it arms its plan, before any
    /// lease traffic at all.
    CrashOnStartup,
}

/// Every distributed fault kind, in schedule-filling order. The first
/// four are the headline quartet every schedule of ≥ 4 faults carries.
pub const ALL_DIST_KINDS: [DistFaultKind; 8] = [
    DistFaultKind::WorkerDisconnect,
    DistFaultKind::SplitBrainClaim,
    DistFaultKind::CrashAfterClaim,
    DistFaultKind::LeaseStall,
    DistFaultKind::CrashBeforeCommit,
    DistFaultKind::TornLeaseClaim,
    DistFaultKind::DuplicateClaim,
    DistFaultKind::CrashOnStartup,
];

impl DistFaultKind {
    /// Stable identifier used in plan renderings and the chaos log.
    pub fn name(self) -> &'static str {
        match self {
            DistFaultKind::WorkerDisconnect => "worker-disconnect",
            DistFaultKind::SplitBrainClaim => "split-brain-claim",
            DistFaultKind::CrashAfterClaim => "crash-after-claim",
            DistFaultKind::LeaseStall => "lease-stall",
            DistFaultKind::CrashBeforeCommit => "crash-before-commit",
            DistFaultKind::TornLeaseClaim => "torn-lease-claim",
            DistFaultKind::DuplicateClaim => "duplicate-claim",
            DistFaultKind::CrashOnStartup => "crash-on-startup",
        }
    }

    /// Which sequence counter this kind's site indexes (None =
    /// startup, no counter).
    fn site_category(self) -> Option<u8> {
        match self {
            DistFaultKind::SplitBrainClaim
            | DistFaultKind::CrashAfterClaim
            | DistFaultKind::TornLeaseClaim
            | DistFaultKind::DuplicateClaim => Some(0), // claim
            DistFaultKind::LeaseStall => Some(1), // beat
            DistFaultKind::WorkerDisconnect | DistFaultKind::CrashBeforeCommit => Some(2), // commit
            DistFaultKind::CrashOnStartup => None,
        }
    }
}

/// One scheduled distributed fault, pinned to a worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistFault {
    /// Position in the schedule — the id the chaos log and `--fired`
    /// sets use.
    pub index: usize,
    /// Which worker slot arms it (`spawn index % procs`).
    pub slot: usize,
    /// Where it fires.
    pub site: DistSite,
    /// What fires.
    pub kind: DistFaultKind,
}

/// A deterministic distributed fault schedule: a pure function of
/// `(seed, count, procs)`.
#[derive(Debug, Clone)]
pub struct DistPlan {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Worker process count the slots were laid out for.
    pub procs: usize,
    /// The schedule, in index order.
    pub faults: Vec<DistFault>,
}

impl DistPlan {
    /// Derives a `count`-fault, `procs`-slot schedule from `seed`.
    ///
    /// The first four kinds are always the headline quartet — worker
    /// disconnect, split-brain claim, crash-after-claim, lease stall —
    /// and the rest are drawn pseudo-randomly from [`ALL_DIST_KINDS`].
    /// Fault `i` lands on slot `i % procs`; sites are distinct per
    /// `(slot, counter)` and drawn from small windows (claims 0..4,
    /// beats 0..6, commits 0..3) so every fault fires within a worker
    /// incarnation's first few protocol events.
    pub fn generate(seed: u64, count: usize, procs: usize) -> DistPlan {
        let procs = procs.max(1);
        let mut rng = seed ^ 0x0d15_7a5c_ed0b_0017; // decouple from other streams
        let mut kinds: Vec<DistFaultKind> =
            ALL_DIST_KINDS.iter().copied().take(count.min(4)).collect();
        while kinds.len() < count {
            let pick = (splitmix64(&mut rng) % ALL_DIST_KINDS.len() as u64) as usize;
            kinds.push(ALL_DIST_KINDS[pick]);
        }
        let mut used: BTreeMap<(usize, u8), Vec<u64>> = BTreeMap::new();
        let faults = kinds
            .into_iter()
            .enumerate()
            .map(|(index, kind)| {
                let slot = index % procs;
                let site = match kind.site_category() {
                    None => DistSite::Startup,
                    Some(cat) => {
                        let window = match cat {
                            0 => 4u64, // claim
                            1 => 6,    // beat
                            _ => 3,    // commit
                        };
                        let taken = used.entry((slot, cat)).or_default();
                        let n = loop {
                            let s = splitmix64(&mut rng) % window;
                            // A saturated window (more faults than
                            // sites) falls back to reuse — fine, since
                            // "at or after" firing drains duplicates
                            // across incarnations.
                            if !taken.contains(&s) || taken.len() as u64 >= window {
                                break s;
                            }
                        };
                        taken.push(n);
                        match cat {
                            0 => DistSite::Claim(n),
                            1 => DistSite::Beat(n),
                            _ => DistSite::Commit(n),
                        }
                    }
                };
                DistFault {
                    index,
                    slot,
                    site,
                    kind,
                }
            })
            .collect();
        DistPlan {
            seed,
            procs,
            faults,
        }
    }

    /// The faults a given worker slot arms.
    pub fn for_slot(&self, slot: usize) -> Vec<DistFault> {
        self.faults
            .iter()
            .copied()
            .filter(|f| f.slot == slot)
            .collect()
    }

    /// Human-readable schedule (one fault per line) for artifacts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# rop-chaos distributed fault plan — seed {}, {} fault(s), {} worker slot(s)\n",
            self.seed,
            self.faults.len(),
            self.procs
        );
        for f in &self.faults {
            out.push_str(&format!(
                "{}\tslot {}\t{}\t{}\n",
                f.index,
                f.slot,
                f.site,
                f.kind.name()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_seed_and_count() {
        let a = FaultPlan::generate(7, 8);
        let b = FaultPlan::generate(7, 8);
        assert_eq!(a.faults, b.faults);
        let c = FaultPlan::generate(8, 8);
        assert_ne!(a.faults, c.faults, "different seed, different schedule");
        assert_eq!(a.faults.len(), 8);
    }

    #[test]
    fn eight_fault_plans_cover_the_headline_quartet() {
        for seed in 0..20 {
            let plan = FaultPlan::generate(seed, 8);
            for required in [
                FaultKind::TornWrite,
                FaultKind::FsyncError,
                FaultKind::WorkerPanic,
                FaultKind::HungJob,
            ] {
                assert!(
                    plan.faults.iter().any(|&(_, k)| k == required),
                    "seed {seed}: missing {}",
                    required.name()
                );
            }
        }
    }

    #[test]
    fn sites_are_distinct_per_counter_and_within_window() {
        for seed in 0..20 {
            let plan = FaultPlan::generate(seed, 8);
            let appends: Vec<u64> = plan
                .faults
                .iter()
                .filter_map(|&(s, _)| match s {
                    Site::Append(n) => Some(n),
                    Site::Attempt(_) => None,
                })
                .collect();
            let attempts: Vec<u64> = plan
                .faults
                .iter()
                .filter_map(|&(s, _)| match s {
                    Site::Attempt(n) => Some(n),
                    Site::Append(_) => None,
                })
                .collect();
            for set in [&appends, &attempts] {
                let mut sorted = set.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), set.len(), "seed {seed}: duplicate site");
                assert!(sorted.iter().all(|&n| n < 16), "seed {seed}: out of window");
            }
        }
    }

    #[test]
    fn armed_plan_fires_each_fault_exactly_once() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                (Site::Append(1), FaultKind::TornWrite),
                (Site::Attempt(0), FaultKind::WorkerPanic),
            ],
        };
        let armed = ArmedPlan::new(&plan);
        assert_eq!(armed.remaining(), 2);
        // Append 0: clean. Append 1: torn write. Append 2+: clean again.
        assert_eq!(armed.take_append_fault(), None);
        assert_eq!(armed.take_append_fault(), Some(FaultKind::TornWrite));
        assert_eq!(armed.take_append_fault(), None);
        // Attempt 0 fires; the counter never rewinds, so the fault
        // cannot fire twice even across simulated resume rounds.
        assert_eq!(armed.take_attempt_fault(), Some(FaultKind::WorkerPanic));
        assert_eq!(armed.take_attempt_fault(), None);
        assert_eq!(armed.remaining(), 0);
        assert_eq!(armed.events().len(), 2);
    }

    #[test]
    fn render_lists_every_fault() {
        let plan = FaultPlan::generate(3, 8);
        let text = plan.render();
        assert_eq!(text.lines().count(), 9, "header + 8 faults");
        assert!(text.contains("torn-write"), "{text}");
        assert!(text.contains("hung-job"), "{text}");
    }

    #[test]
    fn dist_plans_are_deterministic_and_cover_the_quartet() {
        let a = DistPlan::generate(7, 8, 3);
        let b = DistPlan::generate(7, 8, 3);
        assert_eq!(a.faults, b.faults);
        assert_ne!(a.faults, DistPlan::generate(8, 8, 3).faults);
        for seed in 0..20 {
            let plan = DistPlan::generate(seed, 8, 3);
            assert_eq!(plan.faults.len(), 8);
            for required in [
                DistFaultKind::WorkerDisconnect,
                DistFaultKind::SplitBrainClaim,
                DistFaultKind::CrashAfterClaim,
                DistFaultKind::LeaseStall,
            ] {
                assert!(
                    plan.faults.iter().any(|f| f.kind == required),
                    "seed {seed}: missing {}",
                    required.name()
                );
            }
        }
    }

    #[test]
    fn dist_slots_round_robin_and_sites_stay_in_window() {
        for seed in 0..20 {
            let plan = DistPlan::generate(seed, 8, 3);
            for f in &plan.faults {
                assert_eq!(f.slot, f.index % 3);
                match f.site {
                    DistSite::Claim(n) => assert!(n < 4, "seed {seed}: claim site {n}"),
                    DistSite::Beat(n) => assert!(n < 6, "seed {seed}: beat site {n}"),
                    DistSite::Commit(n) => assert!(n < 3, "seed {seed}: commit site {n}"),
                    DistSite::Startup => assert_eq!(f.kind, DistFaultKind::CrashOnStartup),
                }
            }
            // Every slot arms something: no worker is fault-free by
            // construction with 8 faults over 3 slots.
            for slot in 0..3 {
                assert!(!plan.for_slot(slot).is_empty(), "seed {seed}: slot {slot}");
            }
        }
    }

    #[test]
    fn dist_render_lists_every_fault_with_slot_and_site() {
        let plan = DistPlan::generate(3, 8, 3);
        let text = plan.render();
        assert_eq!(text.lines().count(), 9, "header + 8 faults");
        assert!(text.contains("worker-disconnect"), "{text}");
        assert!(text.contains("split-brain-claim"), "{text}");
        assert!(text.contains("slot "), "{text}");
    }
}
