//! The FR-FCFS scheduling index: per-bank request lists and pass
//! summaries kept across controller ticks.
//!
//! Every queued request owns a *handle* — a stable slot in the index's
//! entry slab, linked into its global bank's arrival-ordered list. The
//! controller's queues shift positions on every removal; handles do
//! not, so the index can name a request between ticks.
//!
//! Each bank caches a [`BankSummary`]: the oldest candidate the
//! admission gates let compete, and the oldest read and write row hit,
//! each with the number of the bank's requests sharing its `(tier,
//! arrival)` key (more than one is a tie), plus the command the oldest
//! candidate needs next and what its tie group needs. A summary is a
//! pure function of the bank's requests, its open row, its refresh
//! slot's [`SlotGates`] and the controller's serve-writes flag, so it
//! is recomputed only when one of those changed — the bank is then
//! marked dirty.

use std::ops::Range;

use crate::Cycle;

/// Sentinel for "no handle" (list ends).
const NIL: u32 = u32::MAX;

/// Which controller queue holds a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueKind {
    Read,
    Write,
    Prefetch,
}

/// Admission state of one refresh slot at the current tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SlotGates {
    /// The slot is draining for an imminent refresh.
    pub draining: bool,
    /// Requests outside the drain set may not issue (scope frozen, or
    /// its drain is complete and it is quiescing for REF).
    pub regular: bool,
    /// Not even drain-set or prefetch requests may issue: the scope is
    /// frozen by an in-flight refresh.
    pub frozen: bool,
    /// SARP: the subarray the slot's round locks. Requests to other
    /// subarrays are exempt from both gates.
    pub sa_scope: Option<usize>,
}

impl SlotGates {
    /// The request's FR-FCFS tier under these gates, or `None` when the
    /// gates keep it out this tick: 0 = draining-slot demand, 1 =
    /// regular traffic, 2 = ROP prefetch. `exempt` says the request's
    /// row lies outside the SARP-locked subarray.
    // rop-lint: hot
    #[inline]
    pub fn tier(
        &self,
        kind: QueueKind,
        in_drain: bool,
        exempt: bool,
        serve_writes: bool,
    ) -> Option<u8> {
        let gated = if kind == QueueKind::Prefetch || in_drain {
            self.frozen
        } else {
            self.regular
        };
        if gated && !exempt {
            return None;
        }
        match kind {
            QueueKind::Prefetch => Some(2),
            _ if self.draining && in_drain => Some(0),
            QueueKind::Read => Some(1),
            QueueKind::Write => serve_writes.then_some(1),
        }
    }
}

/// A bank's best request for one scheduling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Best {
    pub tier: u8,
    pub arrival: Cycle,
    pub handle: u32,
    /// Requests of the bank with this key (the tie group's size).
    pub count: u32,
}

impl Best {
    /// FR-FCFS priority: tier first, then age. Smaller is served first.
    #[inline]
    pub fn key(&self) -> (u8, Cycle) {
        (self.tier, self.arrival)
    }

    /// Another request of the bank shares this key.
    #[inline]
    pub fn tied(&self) -> bool {
        self.count > 1
    }

    /// Size of this entry's tie group at `key` (0 when its key differs).
    #[inline]
    pub fn count_at(best: Option<Best>, key: (u8, Cycle)) -> u32 {
        best.filter(|b| b.key() == key).map_or(0, |b| b.count)
    }

    /// Folds a request with key `(tier, arrival)` into the running
    /// minimum `best`.
    // rop-lint: hot
    #[inline]
    fn fold(best: &mut Option<Best>, tier: u8, arrival: Cycle, handle: u32) {
        match best {
            Some(b) if (tier, arrival) > b.key() => {}
            Some(b) if (tier, arrival) == b.key() => b.count += 1,
            _ => {
                *best = Some(Best {
                    tier,
                    arrival,
                    handle,
                    count: 1,
                })
            }
        }
    }
}

/// The command a bank's oldest candidate needs next, given the bank's
/// open row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Next {
    /// RD column command (a read or prefetch row hit).
    #[default]
    Read,
    /// WR column command (a write row hit).
    Write,
    /// PRE on a row conflict.
    Precharge,
    /// ACT of `row` on a closed bank.
    Activate { row: usize },
}

/// What the requests sharing a bank's oldest key need next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum TieShape {
    /// No tie: one request holds the key.
    #[default]
    Unique,
    /// Row hits only; the hit pass already accounted for their bounds.
    Hits,
    /// Row misses only: each needs the same PRE.
    Precharge,
    /// Row hits and row misses: a miss, if the sort puts one first,
    /// needs PRE.
    HitsAndPrecharge,
    /// A closed bank: each needs an ACT of its own row.
    Activate,
}

/// One bank's cached pass summary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BankSummary {
    /// Oldest candidate: the bank's representative in the per-bank pass.
    pub oldest: Option<Best>,
    /// Oldest read or prefetch whose row is open (RD column command).
    pub read_hit: Option<Best>,
    /// Oldest write whose row is open (WR column command).
    pub write_hit: Option<Best>,
    /// The command `oldest` needs next.
    pub next: Next,
    /// What the requests tied at `oldest`'s key need next.
    pub tie: TieShape,
}

/// A set of global banks, one bit each.
#[derive(Debug, Clone)]
pub(crate) struct BankSet {
    words: Vec<u64>,
}

impl BankSet {
    fn new(banks: usize) -> Self {
        BankSet {
            words: vec![0; banks.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, bank: usize) {
        self.words[bank / 64] |= 1 << (bank % 64);
    }

    #[inline]
    fn remove(&mut self, bank: usize) {
        self.words[bank / 64] &= !(1 << (bank % 64));
    }

    /// True when any bank of `banks` is in the set, tested a word at a
    /// time.
    // rop-lint: hot
    #[inline]
    fn any_in(&self, banks: Range<usize>) -> bool {
        let mut lo = banks.start;
        while lo < banks.end {
            let end = banks.end.min((lo / 64 + 1) * 64);
            let ones = u64::MAX >> (64 - (end - lo));
            if self.words[lo / 64] & (ones << (lo % 64)) != 0 {
                return true;
            }
            lo = end;
        }
        false
    }
}

/// Calls `f` with each set bit of `word`, offset by `base`, in
/// ascending order.
// rop-lint: hot
#[inline]
pub(crate) fn for_each_bit(mut word: u64, base: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Scheduling record of one queued request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub arrival: Cycle,
    pub row: usize,
    /// Global bank key: `rank * banks_per_rank + bank`.
    pub bank: u32,
    pub kind: QueueKind,
    /// The request is in its slot's drain set (set and reset at each
    /// drain snapshot).
    pub in_drain: bool,
    prev: u32,
    next: u32,
}

/// Per-bank lists, summaries and dirty flags over an entry slab.
#[derive(Debug)]
pub(crate) struct SchedIndex {
    entries: Vec<Entry>,
    free: Vec<u32>,
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per bank: queued requests, and how many of them are writes.
    len: Vec<u32>,
    writes: Vec<u32>,
    /// Banks queueing at least one request.
    occupied: BankSet,
    /// Banks whose summary is stale.
    dirty: BankSet,
    summary: Vec<BankSummary>,
    /// Per slot: the gates the current summaries were computed under.
    gates: Vec<SlotGates>,
    /// The serve-writes flag the current summaries were computed under.
    serve_writes: bool,
}

impl SchedIndex {
    /// An empty index for `banks` global banks and `slots` refresh
    /// slots, with room for `capacity` queued requests before the slab
    /// reallocates. The slab fills up to its high-water mark as requests
    /// arrive, so memory no run reaches is never touched.
    pub fn new(banks: usize, slots: usize, capacity: usize) -> Self {
        SchedIndex {
            entries: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            head: vec![NIL; banks],
            tail: vec![NIL; banks],
            len: vec![0; banks],
            writes: vec![0; banks],
            occupied: BankSet::new(banks),
            dirty: BankSet::new(banks),
            summary: vec![BankSummary::default(); banks],
            gates: vec![SlotGates::default(); slots],
            serve_writes: false,
        }
    }

    /// Number of 64-bank words in the bank sets.
    #[inline]
    pub fn words(&self) -> usize {
        self.occupied.words.len()
    }

    /// Word `w` of the occupied-bank set.
    // rop-lint: hot
    #[inline]
    pub fn occupied_word(&self, w: usize) -> u64 {
        self.occupied.words[w]
    }

    /// Word `w` of the banks that are both occupied and dirty, clearing
    /// their dirty bits. (An empty bank's summary is never read; it is
    /// marked dirty again when a request enters it.)
    // rop-lint: hot
    #[inline]
    pub fn take_dirty_word(&mut self, w: usize) -> u64 {
        let word = self.dirty.words[w] & self.occupied.words[w];
        self.dirty.words[w] &= !word;
        word
    }

    /// True when any bank of `banks` queues a request.
    // rop-lint: hot
    #[inline]
    pub fn any_occupied(&self, banks: Range<usize>) -> bool {
        self.occupied.any_in(banks)
    }

    /// The record behind `handle`.
    // rop-lint: hot
    #[inline]
    pub fn entry(&self, handle: u32) -> &Entry {
        &self.entries[handle as usize]
    }

    /// Appends a request to its bank's list; returns its handle.
    // rop-lint: hot
    pub fn insert(&mut self, bank: u32, kind: QueueKind, arrival: Cycle, row: usize) -> u32 {
        let b = bank as usize;
        let e = Entry {
            arrival,
            row,
            bank,
            kind,
            in_drain: false,
            prev: self.tail[b],
            next: NIL,
        };
        let h = match self.free.pop() {
            Some(h) => {
                self.entries[h as usize] = e;
                h
            }
            None => {
                self.entries.push(e);
                (self.entries.len() - 1) as u32
            }
        };
        match self.tail[b] {
            NIL => self.head[b] = h,
            t => self.entries[t as usize].next = h,
        }
        self.tail[b] = h;
        self.len[b] += 1;
        self.writes[b] += u32::from(kind == QueueKind::Write);
        self.occupied.insert(b);
        self.dirty.insert(b);
        h
    }

    /// Unlinks `handle` from its bank's list and frees it; returns the
    /// record it held.
    // rop-lint: hot
    pub fn remove(&mut self, handle: u32) -> Entry {
        let e = self.entries[handle as usize];
        let b = e.bank as usize;
        match e.prev {
            NIL => self.head[b] = e.next,
            p => self.entries[p as usize].next = e.next,
        }
        match e.next {
            NIL => self.tail[b] = e.prev,
            n => self.entries[n as usize].prev = e.prev,
        }
        self.free.push(handle);
        self.len[b] -= 1;
        self.writes[b] -= u32::from(e.kind == QueueKind::Write);
        if self.len[b] == 0 {
            self.occupied.remove(b);
        }
        self.dirty.insert(b);
        e
    }

    /// Sets the drain-set flag of `handle` (the caller marks the bank
    /// dirty once per snapshot).
    // rop-lint: hot
    #[inline]
    pub fn set_in_drain(&mut self, handle: u32, in_drain: bool) {
        self.entries[handle as usize].in_drain = in_drain;
    }

    /// Marks `bank`'s summary stale.
    // rop-lint: hot
    #[inline]
    pub fn mark_dirty(&mut self, bank: usize) {
        self.dirty.insert(bank);
    }

    /// Records `slot`'s gates for this tick; true when they changed
    /// (the caller then marks the slot's banks dirty).
    // rop-lint: hot
    #[inline]
    pub fn update_gates(&mut self, slot: usize, gates: SlotGates) -> bool {
        std::mem::replace(&mut self.gates[slot], gates) != gates
    }

    /// Records the serve-writes flag for this tick, marking every bank
    /// that holds writes dirty when it flipped.
    // rop-lint: hot
    pub fn update_serve_writes(&mut self, serve_writes: bool) {
        if std::mem::replace(&mut self.serve_writes, serve_writes) == serve_writes {
            return;
        }
        for (b, &w) in self.writes.iter().enumerate() {
            if w > 0 {
                self.dirty.insert(b);
            }
        }
    }

    /// `bank`'s cached summary.
    // rop-lint: hot
    #[inline]
    pub fn summary(&self, bank: usize) -> &BankSummary {
        &self.summary[bank]
    }

    /// Recomputes `bank`'s summary under `slot`'s recorded gates with
    /// `open_row` open. `subarray_of` maps a row to its subarray (for
    /// the SARP exemption).
    // rop-lint: hot
    pub fn summarize(
        &mut self,
        bank: usize,
        slot: usize,
        open_row: Option<usize>,
        subarray_of: impl Fn(usize) -> usize,
    ) {
        let gates = self.gates[slot];
        let mut sum = BankSummary::default();
        let mut h = self.head[bank];
        while h != NIL {
            let e = &self.entries[h as usize];
            let exempt = gates.sa_scope.is_some_and(|sa| subarray_of(e.row) != sa);
            if let Some(tier) = gates.tier(e.kind, e.in_drain, exempt, self.serve_writes) {
                Best::fold(&mut sum.oldest, tier, e.arrival, h);
                if open_row == Some(e.row) {
                    let hits = match e.kind {
                        QueueKind::Write => &mut sum.write_hit,
                        _ => &mut sum.read_hit,
                    };
                    Best::fold(hits, tier, e.arrival, h);
                }
            }
            h = e.next;
        }
        if let Some(o) = sum.oldest {
            let e = &self.entries[o.handle as usize];
            sum.next = match open_row {
                Some(r) if r == e.row && e.kind == QueueKind::Write => Next::Write,
                Some(r) if r == e.row => Next::Read,
                Some(_) => Next::Precharge,
                None => Next::Activate { row: e.row },
            };
            let hits =
                Best::count_at(sum.read_hit, o.key()) + Best::count_at(sum.write_hit, o.key());
            sum.tie = match open_row {
                _ if !o.tied() => TieShape::Unique,
                None => TieShape::Activate,
                Some(_) if hits == o.count => TieShape::Hits,
                Some(_) if hits == 0 => TieShape::Precharge,
                Some(_) => TieShape::HitsAndPrecharge,
            };
        }
        self.summary[bank] = sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open() -> SlotGates {
        SlotGates::default()
    }

    #[test]
    fn handles_survive_removals_and_lists_stay_in_arrival_order() {
        let mut ix = SchedIndex::new(2, 1, 2);
        let a = ix.insert(0, QueueKind::Read, 1, 5);
        let b = ix.insert(1, QueueKind::Write, 2, 6);
        let c = ix.insert(0, QueueKind::Read, 3, 7); // outgrows the slab
        ix.remove(a);
        assert_eq!(ix.entry(c).arrival, 3);
        assert_eq!(ix.entry(b).bank, 1);
        let d = ix.insert(0, QueueKind::Prefetch, 4, 8); // reuses `a`
        assert_eq!(d, a);
        let mut order = Vec::new();
        let mut h = ix.head[0];
        while h != NIL {
            order.push(ix.entry(h).arrival);
            h = ix.entry(h).next;
        }
        assert_eq!(order, vec![3, 4]);
        assert_eq!((ix.len[0], ix.writes[1]), (2, 1));
        ix.remove(b);
        assert!(ix.any_occupied(0..1) && !ix.any_occupied(1..2));
    }

    #[test]
    fn bank_set_range_tests_span_words() {
        let mut set = BankSet::new(130);
        for b in [3, 64, 129] {
            set.insert(b);
        }
        assert!(set.any_in(0..4) && !set.any_in(4..64) && set.any_in(60..65));
        assert!(!set.any_in(65..129) && set.any_in(65..130) && set.any_in(0..130));
        set.remove(64);
        assert!(!set.any_in(4..129));
        let mut bits = Vec::new();
        for_each_bit(set.words[0] | 1 << 63, 0, |b| bits.push(b));
        assert_eq!(bits, vec![3, 63]);
    }

    #[test]
    fn summary_tracks_oldest_hits_and_ties() {
        let mut ix = SchedIndex::new(1, 1, 8);
        ix.update_gates(0, open());
        ix.update_serve_writes(true);
        let r = ix.insert(0, QueueKind::Read, 10, 3);
        ix.insert(0, QueueKind::Read, 10, 4);
        let w = ix.insert(0, QueueKind::Write, 12, 3);
        assert_eq!(ix.take_dirty_word(0), 1);
        ix.summarize(0, 0, Some(3), |_| 0);
        let s = *ix.summary(0);
        let oldest = s.oldest.unwrap();
        assert_eq!((oldest.handle, oldest.count), (r, 2));
        assert_eq!(s.read_hit.map(|b| (b.handle, b.count)), Some((r, 1)));
        assert_eq!(Best::count_at(s.read_hit, oldest.key()), 1);
        assert_eq!(Best::count_at(s.write_hit, oldest.key()), 0);
        assert_eq!(s.write_hit.map(|b| b.handle), Some(w));
        // The representative hits row 3; its tie partner misses.
        assert_eq!((s.next, s.tie), (Next::Read, TieShape::HitsAndPrecharge));
        ix.summarize(0, 0, None, |_| 0);
        let s = *ix.summary(0);
        assert_eq!(
            (s.next, s.tie),
            (Next::Activate { row: 3 }, TieShape::Activate)
        );

        // Writes drop out when the controller stops serving them.
        assert_eq!(ix.take_dirty_word(0), 0);
        ix.update_serve_writes(false);
        assert_eq!(ix.take_dirty_word(0), 1);
        ix.summarize(0, 0, Some(3), |_| 0);
        assert!(ix.summary(0).write_hit.is_none());
    }

    #[test]
    fn gates_order_drain_demand_first_and_keep_regular_traffic_out() {
        let g = SlotGates {
            draining: true,
            regular: true,
            frozen: false,
            sa_scope: Some(1),
        };
        assert_eq!(g.tier(QueueKind::Read, true, false, false), Some(0));
        assert_eq!(g.tier(QueueKind::Read, false, false, false), None);
        // SARP: a row outside the locked subarray passes the gate.
        assert_eq!(g.tier(QueueKind::Read, false, true, false), Some(1));
        assert_eq!(g.tier(QueueKind::Write, false, true, false), None);
        assert_eq!(g.tier(QueueKind::Prefetch, false, false, false), Some(2));
        let frozen = SlotGates { frozen: true, ..g };
        assert_eq!(frozen.tier(QueueKind::Prefetch, false, false, true), None);
    }
}
