//! The Refresh Manager: per-rank auto-refresh scheduling with
//! drain-before-refresh and a bounded postpone budget.
//!
//! Every `tREFI` a rank owes one all-bank refresh. When one falls due the
//! manager enters **Draining** for that rank: the controller prioritises
//! the requests already queued for the rank (the *drain set*) plus any
//! ROP prefetch requests, and the refresh issues as soon as the drain set
//! has been issued and all banks are precharged. A hard deadline bounds
//! postponement (JEDEC DDR4 permits up to eight outstanding postponed
//! refreshes; the controller's default deadline is far inside that).
//! Scheduling is by *due time*, not issue time, so the long-run refresh
//! rate is exactly one per `tREFI` regardless of postponement.

use crate::Cycle;

/// Per-rank refresh lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshState {
    /// No refresh due.
    Idle,
    /// A refresh is due; queued requests for the rank are being drained.
    Draining {
        /// The cycle at which the refresh fell due.
        due: Cycle,
    },
    /// REF issued; rank frozen until `until`.
    Refreshing {
        /// Completion cycle.
        until: Cycle,
    },
}

/// Auto-refresh bookkeeping for one channel.
#[derive(Debug, Clone)]
pub struct RefreshManager {
    t_refi: Cycle,
    max_postpone: Cycle,
    /// Next due time per rank.
    next_due: Vec<Cycle>,
    /// Current state per rank.
    state: Vec<RefreshState>,
    /// Refreshes issued per rank.
    issued: Vec<u64>,
}

impl RefreshManager {
    /// Creates a manager for `ranks` ranks. Rank due times are staggered
    /// by `tREFI / ranks` as real controllers do, so refreshes of
    /// different ranks do not collide on the command bus.
    pub fn new(ranks: usize, t_refi: Cycle, max_postpone: Cycle) -> Self {
        assert!(ranks > 0 && t_refi > 0);
        let stagger = t_refi / ranks as u64;
        RefreshManager {
            t_refi,
            max_postpone,
            next_due: (0..ranks).map(|r| t_refi + r as u64 * stagger).collect(),
            state: vec![RefreshState::Idle; ranks],
            issued: vec![0; ranks],
        }
    }

    /// Number of ranks managed.
    pub fn ranks(&self) -> usize {
        self.state.len()
    }

    /// Current state of `rank`.
    pub fn state(&self, rank: usize) -> RefreshState {
        self.state[rank]
    }

    /// The next scheduled due time for `rank`.
    pub fn next_due(&self, rank: usize) -> Cycle {
        self.next_due[rank]
    }

    /// Total refreshes issued on `rank`.
    pub fn issued(&self, rank: usize) -> u64 {
        self.issued[rank]
    }

    /// Checks for ranks whose refresh falls due at `now`; transitions
    /// Idle → Draining and reports newly-due ranks (so the controller can
    /// snapshot drain sets and ask ROP for a decision).
    pub fn poll_due(&mut self, now: Cycle) -> Vec<usize> {
        let mut newly_due = Vec::new();
        self.poll_due_into(now, &mut newly_due);
        newly_due
    }

    /// Allocation-free variant of [`Self::poll_due`]: appends newly-due
    /// ranks to `out` (which the caller clears and reuses across ticks).
    // rop-lint: hot
    pub fn poll_due_into(&mut self, now: Cycle, out: &mut Vec<usize>) {
        for rank in 0..self.state.len() {
            if self.state[rank] == RefreshState::Idle && now >= self.next_due[rank] {
                self.state[rank] = RefreshState::Draining {
                    due: self.next_due[rank],
                };
                out.push(rank);
            }
        }
    }

    /// Pulls `slot`'s next refresh forward: transitions Idle → Draining
    /// *now*, keeping the nominal due time, so [`Self::refresh_issued`]
    /// still advances the schedule in exact `tREFI` steps and the
    /// long-run refresh rate is unchanged. Used by the DARP mechanism to
    /// start refreshes early on idle banks (and during write drains).
    /// Returns `false` without transitioning unless the slot is Idle.
    pub fn pull_in(&mut self, slot: usize) -> bool {
        let due = self.next_due[slot];
        self.start_drain(slot, due)
    }

    /// Transitions an Idle `slot` to Draining with the given `due`
    /// stamp, from which the postpone deadline and the prefetch grace
    /// are measured. Returns `false` (no transition) unless Idle.
    pub fn start_drain(&mut self, slot: usize, due: Cycle) -> bool {
        if self.state[slot] != RefreshState::Idle {
            return false;
        }
        self.state[slot] = RefreshState::Draining { due };
        true
    }

    /// Advances `slot`'s schedule by one `tREFI` without a refresh: the
    /// due passed and the caller now owes the refresh (Elastic debt).
    pub fn defer_due(&mut self, slot: usize) {
        self.next_due[slot] += self.t_refi;
    }

    /// True when the drain deadline for `rank` has passed and the refresh
    /// must be forced regardless of remaining drain-set requests.
    pub fn drain_deadline_passed(&self, rank: usize, now: Cycle) -> bool {
        self.draining_longer_than(rank, now, self.max_postpone)
    }

    /// True when `rank` has been in Draining for at least `budget`
    /// cycles (used for the ROP prefetch grace window).
    pub fn draining_longer_than(&self, rank: usize, now: Cycle, budget: Cycle) -> bool {
        match self.state[rank] {
            RefreshState::Draining { due } => now >= due + budget,
            _ => false,
        }
    }

    /// Records that REF was issued on `rank` at `now`, completing at
    /// `until`. Advances the schedule by exactly one `tREFI` from the due
    /// time (not from `now`), preserving the average refresh rate.
    pub fn refresh_issued(&mut self, rank: usize, _now: Cycle, until: Cycle) {
        let due = self.start_refresh(rank, until);
        self.next_due[rank] = due + self.t_refi;
    }

    /// Draining → Refreshing until `until`, counting the refresh but
    /// leaving the schedule alone (for a mechanism that already advanced
    /// it, like Elastic paying off a deferred due). Returns the drain's
    /// due stamp.
    pub fn start_refresh(&mut self, rank: usize, until: Cycle) -> Cycle {
        let due = match self.state[rank] {
            RefreshState::Draining { due } => due,
            // Controller bug, not a config error: the scheduler only
            // issues REF from Draining.
            other => panic!("refresh issued on rank {rank} in state {other:?}"), // rop-lint: allow(no-panic)
        };
        self.state[rank] = RefreshState::Refreshing { until };
        self.issued[rank] += 1;
        due
    }

    /// Checks for refresh completions at `now`; transitions Refreshing →
    /// Idle and returns the ranks that just thawed.
    pub fn poll_complete(&mut self, now: Cycle) -> Vec<usize> {
        let mut done = Vec::new();
        self.poll_complete_into(now, &mut done);
        done
    }

    /// Allocation-free variant of [`Self::poll_complete`]: appends the
    /// thawed ranks to `out`.
    // rop-lint: hot
    pub fn poll_complete_into(&mut self, now: Cycle, out: &mut Vec<usize>) {
        for rank in 0..self.state.len() {
            if let RefreshState::Refreshing { until } = self.state[rank] {
                if now >= until {
                    self.state[rank] = RefreshState::Idle;
                    out.push(rank);
                }
            }
        }
    }

    /// The earliest future cycle at which this manager needs attention
    /// (a due time or a completion), for fast-forwarding.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            if c > now {
                next = Some(next.map_or(c, |n| n.min(c)));
            }
        };
        for rank in 0..self.state.len() {
            match self.state[rank] {
                RefreshState::Idle => consider(self.next_due[rank]),
                RefreshState::Draining { due } => consider(due + self.max_postpone),
                // `until.max(now + 1)`: a zero-length round (RAIDR skip)
                // completes at the next tick, which still needs a hint.
                RefreshState::Refreshing { until } => consider(until.max(now + 1)),
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T_REFI: Cycle = 6240;
    const T_RFC: Cycle = 280;

    #[test]
    fn staggered_due_times() {
        let m = RefreshManager::new(4, T_REFI, 2 * T_REFI);
        let dues: Vec<Cycle> = (0..4).map(|r| m.next_due(r)).collect();
        assert_eq!(dues[0], T_REFI);
        assert_eq!(dues[1], T_REFI + T_REFI / 4);
        assert!(dues.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn lifecycle_idle_draining_refreshing() {
        let mut m = RefreshManager::new(1, T_REFI, 2 * T_REFI);
        assert!(m.poll_due(100).is_empty());
        let due = m.poll_due(T_REFI);
        assert_eq!(due, vec![0]);
        assert!(matches!(m.state(0), RefreshState::Draining { .. }));
        m.refresh_issued(0, T_REFI + 50, T_REFI + 50 + T_RFC);
        assert!(matches!(m.state(0), RefreshState::Refreshing { .. }));
        assert!(m.poll_complete(T_REFI + 100).is_empty());
        let done = m.poll_complete(T_REFI + 50 + T_RFC);
        assert_eq!(done, vec![0]);
        assert_eq!(m.state(0), RefreshState::Idle);
        assert_eq!(m.issued(0), 1);
        // Next due advanced by exactly one tREFI from the *due* time.
        assert_eq!(m.next_due(0), 2 * T_REFI);
    }

    #[test]
    fn average_rate_preserved_under_postponement() {
        let mut m = RefreshManager::new(1, T_REFI, 2 * T_REFI);
        let mut issued_times = Vec::new();
        for _ in 0..10 {
            let now = m.next_due(0);
            m.poll_due(now);
            // Postpone every refresh by 500 cycles.
            let issue_at = now + 500;
            m.refresh_issued(0, issue_at, issue_at + T_RFC);
            m.poll_complete(issue_at + T_RFC);
            issued_times.push(issue_at);
        }
        // Due times march in exact tREFI steps despite postponement.
        assert_eq!(m.next_due(0), 11 * T_REFI);
        assert_eq!(m.issued(0), 10);
    }

    #[test]
    fn deadline_forces_refresh() {
        let mut m = RefreshManager::new(1, T_REFI, 1000);
        m.poll_due(T_REFI);
        assert!(!m.drain_deadline_passed(0, T_REFI + 999));
        assert!(m.drain_deadline_passed(0, T_REFI + 1000));
    }

    #[test]
    fn next_event_tracks_state() {
        let mut m = RefreshManager::new(1, T_REFI, 1000);
        assert_eq!(m.next_event(0), Some(T_REFI));
        m.poll_due(T_REFI);
        assert_eq!(m.next_event(T_REFI), Some(T_REFI + 1000));
        m.refresh_issued(0, T_REFI + 10, T_REFI + 10 + T_RFC);
        assert_eq!(m.next_event(T_REFI + 10), Some(T_REFI + 10 + T_RFC));
    }

    #[test]
    fn pull_in_keeps_the_nominal_schedule() {
        let mut m = RefreshManager::new(1, T_REFI, 2 * T_REFI);
        // Pull the first refresh 1000 cycles early.
        assert!(m.pull_in(0));
        assert!(matches!(m.state(0), RefreshState::Draining { .. }));
        // Idempotent while draining.
        assert!(!m.pull_in(0));
        let issue_at = T_REFI - 1000;
        m.refresh_issued(0, issue_at, issue_at + T_RFC);
        m.poll_complete(issue_at + T_RFC);
        // The schedule advanced from the *due* time, not the early issue.
        assert_eq!(m.next_due(0), 2 * T_REFI);
        assert_eq!(m.issued(0), 1);
    }

    #[test]
    #[should_panic]
    fn issue_without_draining_panics() {
        let mut m = RefreshManager::new(1, T_REFI, 1000);
        m.refresh_issued(0, 10, 290);
    }
}
