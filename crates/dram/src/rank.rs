//! Per-rank operations on the struct-of-arrays timing state: the
//! four-activate window, refresh locking, and background-energy
//! bookkeeping ([`crate::soa::ChannelTiming`] columns indexed by rank).

use crate::soa::ChannelTiming;
use crate::Cycle;

/// Background power state of a rank, for the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankPowerState {
    /// All banks precharged (IDD2N-class standby).
    AllPrecharged,
    /// At least one bank has an open row (IDD3N-class standby).
    SomeActive,
    /// An all-bank refresh is in progress (IDD5B-class current).
    Refreshing,
}

impl ChannelTiming {
    /// True while an all-bank refresh holds `rank` locked at `now` —
    /// the paper's *frozen cycles*.
    // rop-lint: hot
    #[inline]
    pub fn is_refreshing(&self, rank: usize, now: Cycle) -> bool {
        now < self.refresh_until[rank]
    }

    /// Cycle at which `rank`'s current refresh (if any) completes.
    #[inline]
    pub fn refresh_done_at(&self, rank: usize) -> Cycle {
        self.refresh_until[rank]
    }

    /// True when every bank of `rank` is precharged (a refresh
    /// precondition). O(1) via the maintained open-bank count.
    // rop-lint: hot
    #[inline]
    pub fn all_banks_idle(&self, rank: usize) -> bool {
        self.open_banks[rank] == 0
    }

    /// Current background power state of `rank` at `now`.
    pub fn power_state(&self, rank: usize, now: Cycle) -> RankPowerState {
        if self.is_refreshing(rank, now) {
            RankPowerState::Refreshing
        } else if self.open_banks[rank] > 0 {
            RankPowerState::SomeActive
        } else {
            RankPowerState::AllPrecharged
        }
    }

    /// Accrues background time on `rank` up to `now` under the
    /// *current* state.
    ///
    /// Must be called before any state change (ACT/PRE/REF issue or
    /// refresh completion) so each interval is attributed to the state
    /// that actually held during it. The device drives this.
    // rop-lint: hot
    pub fn accrue_background(&mut self, rank: usize, now: Cycle) {
        if now <= self.accrued_until[rank] {
            return;
        }
        // If a refresh ended inside the interval, split it.
        let mut start = self.accrued_until[rank];
        let refresh_until = self.refresh_until[rank];
        if start < refresh_until && now > refresh_until {
            self.cycles_refreshing[rank] += refresh_until - start;
            start = refresh_until;
        }
        let span = now - start;
        match self.power_state(rank, start) {
            RankPowerState::Refreshing => self.cycles_refreshing[rank] += span,
            RankPowerState::SomeActive => self.cycles_some_active[rank] += span,
            RankPowerState::AllPrecharged => self.cycles_all_precharged[rank] += span,
        }
        self.accrued_until[rank] = now;
    }

    /// Records an ACT-class command on `rank` at `now` for tRRD/tFAW
    /// purposes. Only the four most recent ACT times can ever bind the
    /// four-activate window, so they live in a fixed ring — no growth,
    /// no pruning pass.
    // rop-lint: hot
    pub fn record_activate(&mut self, rank: usize, now: Cycle, t_rrd: Cycle, _t_faw: Cycle) {
        self.next_act_rrd[rank] = now.saturating_add(t_rrd);
        let n = self.act_count[rank] as usize;
        let ring = &mut self.act_ring[rank];
        if n < 4 {
            ring[n] = now;
            self.act_count[rank] = (n + 1) as u8;
        } else {
            ring[0] = ring[1];
            ring[1] = ring[2];
            ring[2] = ring[3];
            ring[3] = now;
        }
    }

    /// Earliest cycle the next ACT may issue on `rank`, considering
    /// tRRD and the four-activate window (but not per-bank
    /// constraints).
    ///
    /// The window binds exactly when the oldest of the last four ACTs
    /// is still inside tFAW of the candidate cycle: ACT times are
    /// monotone, so "all four in window" reduces to one comparison
    /// against `act_ring[rank][0]`.
    // rop-lint: hot
    #[inline]
    pub fn earliest_activate(&self, rank: usize, now: Cycle, t_faw: Cycle) -> Cycle {
        self.activate_window(rank, t_faw).max(now)
    }

    /// The rank-level ACT gate as a bound that does not depend on the
    /// current cycle: tRRD, the four-activate window and the all-bank
    /// refresh lock. [`Self::earliest_activate`] is this gate clamped
    /// to `now`.
    // rop-lint: hot
    #[inline]
    pub fn activate_window(&self, rank: usize, t_faw: Cycle) -> Cycle {
        let mut gate = self.next_act_rrd[rank];
        if self.act_count[rank] == 4 {
            gate = gate.max(self.act_ring[rank][0] + t_faw);
        }
        gate.max(self.refresh_until[rank])
    }

    /// Starts an all-bank refresh on `rank` at `now`, locking the rank
    /// until `now + t_rfc`. The per-bank ACT gates are raised in one
    /// batched pass over the rank's contiguous `next_act` slice.
    pub fn start_refresh(&mut self, rank: usize, now: Cycle, t_rfc: Cycle) {
        debug_assert!(!self.is_refreshing(rank, now));
        debug_assert!(self.all_banks_idle(rank));
        let until = now + t_rfc;
        self.refresh_until[rank] = until;
        let span = self.bank_span(rank);
        for gate in &mut self.next_act[span] {
            *gate = (*gate).max(until);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_activate_window() {
        let mut c = ChannelTiming::new(1, 8);
        let t_rrd = 5;
        let t_faw = 24;
        // Issue 4 ACTs as fast as tRRD allows: 0, 5, 10, 15.
        for i in 0..4u64 {
            let now = i * t_rrd;
            assert!(c.earliest_activate(0, now, t_faw) <= now);
            c.record_activate(0, now, t_rrd, t_faw);
        }
        // The 5th ACT must wait for the first to leave the tFAW window.
        let earliest = c.earliest_activate(0, 20, t_faw);
        assert_eq!(earliest, 24);
    }

    #[test]
    fn stale_acts_fall_out_of_the_window() {
        let mut c = ChannelTiming::new(1, 8);
        let (t_rrd, t_faw) = (5, 24);
        for now in [0, 5, 10, 15, 100] {
            c.record_activate(0, now, t_rrd, t_faw);
        }
        // Last four ACTs are 5, 10, 15, 100; the oldest left the window
        // long before cycle 105, so only tRRD binds.
        assert_eq!(c.earliest_activate(0, 105, t_faw), 105);
    }

    #[test]
    fn refresh_locks_rank() {
        let mut c = ChannelTiming::new(1, 8);
        c.start_refresh(0, 100, 280);
        assert!(c.is_refreshing(0, 100));
        assert!(c.is_refreshing(0, 379));
        assert!(!c.is_refreshing(0, 380));
        assert_eq!(c.refresh_done_at(0), 380);
        assert!(c.earliest_activate(0, 150, 24) >= 380);
        // Every bank's ACT gate was raised by the batched pass.
        for idx in c.bank_span(0) {
            assert_eq!(c.next_act[idx], 380);
        }
    }

    #[test]
    fn background_accrual_splits_states() {
        let mut c = ChannelTiming::new(1, 2);
        // 0..100 all precharged.
        c.accrue_background(0, 100);
        assert_eq!(c.cycles_all_precharged[0], 100);
        // Open a bank at 100; 100..150 some-active.
        c.apply_activate(0, 100, 7, 11, 28, 39);
        c.accrue_background(0, 150);
        assert_eq!(c.cycles_some_active[0], 50);
        // Close it; 150..200 precharged again.
        c.apply_precharge(0, 150, 11);
        c.accrue_background(0, 200);
        assert_eq!(c.cycles_all_precharged[0], 150);
        // Refresh 200..480; accrue past the end splits into refresh + idle.
        c.start_refresh(0, 200, 280);
        c.accrue_background(0, 600);
        assert_eq!(c.cycles_refreshing[0], 280);
        assert_eq!(c.cycles_all_precharged[0], 150 + (600 - 480));
    }

    #[test]
    fn power_state_reporting() {
        let mut c = ChannelTiming::new(1, 2);
        assert_eq!(c.power_state(0, 0), RankPowerState::AllPrecharged);
        c.apply_activate(1, 0, 3, 11, 28, 39);
        assert_eq!(c.power_state(0, 5), RankPowerState::SomeActive);
        c.apply_precharge(1, 28, 11);
        c.start_refresh(0, 40, 280);
        assert_eq!(c.power_state(0, 41), RankPowerState::Refreshing);
    }
}
