//! Property test: the scheduling index against the sorted walk.
//!
//! Seeded random read/write streams drive a two-rank controller under
//! every refresh mechanism, and under ROP (all-bank and per-bank) with
//! training cut short so prefetches queue during drains. The streams mix
//! same-cycle bursts into one bank (key ties), write floods that cross
//! `write_drain_high` and then drain below `write_drain_low`, sequential
//! read streams the ROP predictor can extrapolate, and quiet stretches in
//! which the read queue empties and writes become eligible. On every
//! tick that reaches the scheduler, the indexed pick and its hint must
//! equal the sorted walk's — compared here with `assert_eq!`, so
//! optimised test builds are checked too.

use super::*;
use crate::address::DecodedAddr;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rop_dram::DramConfig;

/// Every mechanism, plus both ROP flavours, on two ranks with tREFI/4 so
/// a short run sees dozens of drains and freezes.
fn configs() -> Vec<(&'static str, MemCtrlConfig)> {
    let mut dram = DramConfig::baseline(2);
    dram.timing.t_refi_base /= 4;
    let trained = |mut c: MemCtrlConfig| {
        c.rop.as_mut().expect("a ROP controller").training_refreshes = 2;
        c
    };
    vec![
        ("allbank", MemCtrlConfig::baseline(dram.clone())),
        ("norefresh", MemCtrlConfig::no_refresh(dram.clone())),
        ("perbank", MemCtrlConfig::per_bank(dram.clone())),
        ("elastic", MemCtrlConfig::elastic(dram.clone())),
        ("darp", MemCtrlConfig::darp(dram.clone())),
        ("sarp", MemCtrlConfig::sarp(dram.clone())),
        ("raidr", MemCtrlConfig::raidr(dram.clone(), 3)),
        ("rop", trained(MemCtrlConfig::rop(dram.clone(), 64, 5))),
        (
            "rop-perbank",
            trained(MemCtrlConfig::rop_per_bank(dram, 64, 5)),
        ),
    ]
}

/// What a run checked.
#[derive(Debug, Default)]
struct Tally {
    /// Ticks whose indexed pick was compared against the walk.
    compared: u64,
    /// Ticks the index handed to the walk because of a tie.
    fallbacks: u64,
    /// Ticks on which the write-drain flag flipped.
    drain_flips: u64,
    /// Ticks on which the read queue was empty while writes waited.
    reads_empty: u64,
}

/// Drives `c` for `cycles` cycles with a seeded traffic mix, checking
/// every scheduling decision against the sorted walk.
fn drive(c: &mut MemController, seed: u64, cycles: Cycle) -> Tally {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = c.config().dram.geometry;
    let mut tally = Tally::default();
    let mut stream = 0u64;
    let mut done = Vec::new();
    let mut was_draining = false;
    for now in 0..cycles {
        // Four 1500-cycle phases, repeating.
        match (now / 1_500) % 4 {
            // Mixed random traffic.
            0 => {
                if rng.gen_bool(0.3) {
                    let _ = c.enqueue_read(rng.gen_range(0..1u64 << 24), 0, now);
                }
                if rng.gen_bool(0.15) {
                    let _ = c.enqueue_write(rng.gen_range(0..1u64 << 24), 0, now);
                }
            }
            // Same-cycle bursts into one bank, a few rows: key ties.
            1 => {
                if now % 150 == 0 {
                    let (rank, bank) = (
                        rng.gen_range(0..g.ranks),
                        rng.gen_range(0..g.banks_per_rank),
                    );
                    for _ in 0..rng.gen_range(6..20) {
                        let d = DecodedAddr {
                            rank,
                            bank,
                            row: rng.gen_range(0..3),
                            col: rng.gen_range(0..g.lines_per_row),
                        };
                        let line = c.mapping().encode(&d);
                        if rng.gen_bool(0.7) {
                            let _ = c.enqueue_read(line, 0, now);
                        } else {
                            let _ = c.enqueue_write(line, 0, now);
                        }
                    }
                }
            }
            // Write flood with a sequential read stream alongside: the
            // write queue crosses the high watermark, and the stream
            // trains ROP's predictor.
            2 => {
                if rng.gen_bool(0.5) {
                    let _ = c.enqueue_write(rng.gen_range(0..1u64 << 24), 0, now);
                }
                if now % 6 == 0 && c.enqueue_read(stream, 0, now).is_some() {
                    stream += 1;
                }
            }
            // Quiet: reads drain away, then writes drain below the low
            // watermark.
            _ => {
                if rng.gen_bool(0.01) {
                    let _ = c.enqueue_write(rng.gen_range(0..1u64 << 24), 0, now);
                }
            }
        }
        tally.reads_empty += u64::from(c.read_queue_len() == 0 && c.write_queue_len() > 0);

        c.last_pick = None;
        c.tick(now);
        if let Some((indexed, walk)) = c.last_pick.take() {
            match indexed {
                Ok(pick) => {
                    tally.compared += 1;
                    assert_eq!(
                        pick, walk,
                        "seed {seed}: indexed pick vs walk at cycle {now}"
                    );
                }
                Err(_) => tally.fallbacks += 1,
            }
        }
        tally.drain_flips +=
            u64::from(std::mem::replace(&mut was_draining, c.write_drain) != c.write_drain);
        c.drain_completions_into(&mut done);
        done.clear();
    }
    tally
}

#[test]
fn indexed_picks_match_the_sorted_walk_under_every_mechanism() {
    for (name, cfg) in configs() {
        let rop = cfg.rop.is_some();
        let mut fallbacks = 0;
        for seed in 0..3 {
            let mut c = MemController::new(cfg.clone());
            let t = drive(&mut c, seed, 24_000);
            assert!(
                t.compared > 1_000,
                "{name}/{seed}: only {} picks compared",
                t.compared
            );
            assert!(
                t.drain_flips >= 2,
                "{name}/{seed}: write drain never cycled"
            );
            assert!(t.reads_empty > 0, "{name}/{seed}: read queue never emptied");
            if rop {
                assert!(
                    c.stats().prefetches_issued > 0,
                    "{name}/{seed}: no prefetches were queued"
                );
            }
            fallbacks += t.fallbacks;
        }
        assert!(fallbacks > 0, "{name}: the tie fallback was never taken");
    }
}
