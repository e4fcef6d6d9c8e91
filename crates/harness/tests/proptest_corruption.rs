//! Property tests: crash-shaped store damage is recoverable.
//!
//! A crash can truncate the JSONL store at an arbitrary byte and may
//! leave arbitrary junk after the torn point (a half-flushed buffer).
//! The contract under test:
//!
//! 1. **Recovery is exact** — every record whose line survived intact
//!    comes back; the damaged tail is quarantined, never surfaced as a
//!    record, and never takes healthy lines with it.
//! 2. **Resume converges** — re-appending the lost records restores the
//!    store: the latest-wins view afterwards is byte-identical to the
//!    undamaged store's. (A single-record re-append can glue onto an
//!    unterminated torn tail and corrupt *itself* — resume must still
//!    converge on the next round. A group commit, which the sweep's
//!    crash loop uses, starts on a fresh line after a torn tail, so it
//!    converges in one round.)
//!
//! The expected outcome of each damage pattern is computed from line
//! offsets, so the assertions are exact, not "roughly recovered".

use proptest::prelude::*;
use rop_dram::EnergyBreakdown;
use rop_harness::{RealIo, Record, Status, Store, StoreIo};
use rop_sim_system::metrics::{CoreMetrics, RunMetrics};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tmp(name: &str, tag: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "rop-proptest-corrupt-{name}-{}-{tag}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A small, fully finite metrics payload — field fidelity has its own
/// property test; this one is about line framing.
fn metrics(cycles: u64, ipc_milli: u64) -> RunMetrics {
    RunMetrics {
        system: "Prop".into(),
        cores: vec![CoreMetrics {
            benchmark: "lbm".into(),
            instructions: cycles / 2,
            finish_cycle: cycles,
            ipc: ipc_milli as f64 / 1000.0,
            llc_hits: 1,
            read_misses: 2,
            stall_cycles: 3,
        }],
        total_cycles: cycles,
        energy: EnergyBreakdown::default(),
        refreshes: cycles / 64,
        mechanism: "allbank".into(),
        refresh_blocked_cycles: cycles / 8,
        refreshes_skipped: 0,
        refreshes_pulled_in: 0,
        sram_hit_rate: 0.5,
        sram_lookups: 10,
        prefetches: 4,
        analysis: Vec::new(),
        row_hit_rate: 0.9,
        avg_read_latency: 40.0,
        hit_cycle_cap: false,
        wall_seconds: 0.25,
        instructions_total: cycles / 2,
        events: cycles / 3,
        audit: None,
        open_loop: None,
    }
}

/// One record per index: distinct job ids, a mix of ok and failed.
fn record_params() -> impl Strategy<Value = (bool, u64, u32, u64)> {
    (any::<bool>(), 0u64..1_000_000, 1u32..6, 0u64..100_000)
}

fn build_record(i: usize, (ok, ts, attempts, payload): (bool, u64, u32, u64)) -> Record {
    Record {
        job: format!("{i:016x}"),
        label: format!("prop/job-{i}"),
        status: if ok { Status::Ok } else { Status::Failed },
        attempts,
        panic_msg: (!ok).then(|| format!("[prop/job-{i}] boom {payload}")),
        ts,
        metrics: ok.then(|| metrics(payload + 1, payload % 3000)),
        epoch: 0,
        worker: String::new(),
    }
}

/// Junk a crash might leave after the torn point: printable bytes with
/// no newline, so it fuses into (at most) one trailing line that can
/// never parse as a record.
fn junk() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(
            (0u8..62).prop_map(|c| if c < 26 { b'a' + c } else { b'0' + c % 10 }),
            1..40
        ),
    ]
}

/// Latest-wins view rendered to comparable bytes.
fn rendered_latest(contents: &rop_harness::StoreContents) -> BTreeMap<String, String> {
    contents
        .latest()
        .iter()
        .map(|(job, rec)| (job.to_string(), format!("{rec:?}")))
        .collect()
}

/// Real I/O whose `tear`-th append lands only its first `keep % len`
/// bytes and then fails: a process dying in the middle of a group
/// commit's single write.
struct TearingIo {
    appends: AtomicUsize,
    tear: usize,
    keep: usize,
}

impl StoreIo for TearingIo {
    fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
        RealIo.read_file(path)
    }

    fn append_lines(&self, path: &Path, lines: &str) -> Result<(), String> {
        if self.appends.fetch_add(1, Ordering::SeqCst) != self.tear {
            return RealIo.append_lines(path, lines);
        }
        let keep = self.keep % lines.len();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| e.to_string())?;
        f.write_all(&lines.as_bytes()[..keep])
            .map_err(|e| e.to_string())?;
        Err(format!("torn after {keep} of {} bytes", lines.len()))
    }
}

/// Group-commits `recs` to `store` in consecutive groups of the given
/// sizes (each far below `GROUP_BYTES`, so one append per group);
/// returns each group's result.
fn commit_groups(store: &Store, recs: &[Record], sizes: &[usize]) -> Vec<Result<(), String>> {
    let mut rest = recs;
    sizes
        .iter()
        .map(|&n| {
            let (group, tail) = rest.split_at(n);
            rest = tail;
            let contents = store.load().unwrap();
            let mut commit = store.group_commit(&contents);
            for r in group {
                commit.push(r)?;
            }
            commit.finish()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch committed in random groups, the last one torn at a
    /// random byte: load keeps exactly the whole records before the
    /// tear and quarantines at most one line, and one re-append round
    /// converges to the undamaged store's latest-wins view (the torn
    /// tail is parked on its own line instead of swallowing the first
    /// re-appended record).
    #[test]
    fn torn_group_commits_recover_in_one_round(
        params in proptest::collection::vec(record_params(), 1..12),
        splits in proptest::collection::vec(1usize..5, 12..13),
        keep in any::<usize>(),
        tag in any::<u64>(),
    ) {
        let recs: Vec<Record> = params
            .into_iter()
            .enumerate()
            .map(|(i, p)| build_record(i, p))
            .collect();
        let mut sizes = Vec::new();
        let mut left = recs.len();
        for s in splits {
            if left == 0 {
                break;
            }
            sizes.push(s.min(left));
            left -= s.min(left);
        }
        if left > 0 {
            sizes.push(left);
        }

        let ref_path = tmp("group-ref", tag);
        let ref_store = Store::open(&ref_path);
        for res in commit_groups(&ref_store, &recs, &sizes) {
            res.unwrap();
        }
        let full = std::fs::read(&ref_path).unwrap();
        let baseline = rendered_latest(&ref_store.load().unwrap());
        let _ = std::fs::remove_file(&ref_path);

        let path = tmp("group-torn", tag);
        let io = TearingIo {
            appends: AtomicUsize::new(0),
            tear: sizes.len() - 1,
            keep,
        };
        let torn_store = Store::with_io(&path, Arc::new(io));
        let results = commit_groups(&torn_store, &recs, &sizes);
        prop_assert!(results.last().unwrap().is_err());

        // Expected outcome from line offsets: the last group starts
        // after the whole records of the earlier groups.
        let before: usize = sizes[..sizes.len() - 1].iter().sum();
        let group_start: usize = full
            .split_inclusive(|&b| b == b'\n')
            .take(before)
            .map(<[u8]>::len)
            .sum();
        let on_disk = std::fs::read(&path).unwrap_or_default();
        prop_assert_eq!(&on_disk[..], &full[..on_disk.len()]);
        let torn = &on_disk[group_start..];
        let whole = torn.iter().filter(|&&b| b == b'\n').count();
        let tail_len = torn.len() - torn.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        // A tear that removed only a line's newline leaves a line that
        // still parses; any other partial line cannot.
        let next_len = full[on_disk.len() - tail_len..]
            .split(|&b| b == b'\n')
            .next()
            .map_or(0, <[u8]>::len);
        let bare = tail_len > 0 && tail_len == next_len;
        let store = Store::open(&path);
        let contents = store.load().unwrap();
        prop_assert_eq!(contents.records.len(), before + whole + usize::from(bare));
        prop_assert_eq!(contents.corrupt_lines, usize::from(tail_len > 0 && !bare));
        prop_assert!(contents.corrupt_lines <= 1);
        for (got, want) in contents.records.iter().zip(&recs) {
            prop_assert_eq!(&got.job, &want.job, "recovered records out of order");
        }

        // One re-append round: the records the store cannot vouch for,
        // in one group commit.
        let have = contents.latest();
        let missing: Vec<Record> = recs
            .iter()
            .filter(|r| !have.contains_key(r.job.as_str()))
            .cloned()
            .collect();
        for res in commit_groups(&store, &missing, &[missing.len()]) {
            res.unwrap();
        }
        let recovered = rendered_latest(&store.load().unwrap());
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(recovered, baseline);
    }

    /// Truncate-at-byte + optional junk tail: recovery is exact and
    /// resume converges to a byte-identical latest-wins view.
    #[test]
    fn damaged_stores_recover_exactly(
        params in proptest::collection::vec(record_params(), 1..8),
        cut_seed in any::<u64>(),
        tail in junk(),
        tag in any::<u64>(),
    ) {
        let recs: Vec<Record> = params
            .into_iter()
            .enumerate()
            .map(|(i, p)| build_record(i, p))
            .collect();

        // Undamaged reference store → baseline view.
        let ref_path = tmp("ref", tag);
        let ref_store = Store::open(&ref_path);
        for r in &recs {
            ref_store.append(r).unwrap();
        }
        let full = std::fs::read(&ref_path).unwrap();
        let baseline = rendered_latest(&ref_store.load().unwrap());
        let _ = std::fs::remove_file(&ref_path);

        // Damage: keep `cut` bytes, then splice in the junk tail.
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
        let path = tmp("cut", tag);
        let mut damaged = full[..cut].to_vec();
        damaged.extend_from_slice(&tail);
        std::fs::write(&path, &damaged).unwrap();

        // Expected outcome, computed from line offsets. `consumed` is
        // the longest prefix of whole newline-terminated lines within
        // the first `cut` bytes; everything the damage leaves after it
        // fuses into at most one trailing line (neither record bytes
        // nor the junk contain interior newlines).
        let mut whole_lines = 0usize;
        let mut consumed = 0usize;
        for line in full.split_inclusive(|&b| b == b'\n') {
            if consumed + line.len() > cut {
                break;
            }
            consumed += line.len();
            whole_lines += 1;
        }
        let trailing_len = (cut - consumed) + tail.len();
        // The one survivable tear: the cut removed only a line's
        // newline and nothing was glued after it — the bare content
        // still parses. Any other nonempty trailing line cannot: a
        // strict JSON prefix is unbalanced, and the parser rejects
        // complete objects followed by junk.
        let next_content_len = full[consumed..]
            .split(|&b| b == b'\n')
            .next()
            .map_or(0, <[u8]>::len);
        let bare_line_survives =
            tail.is_empty() && cut > consumed && cut - consumed == next_content_len;
        let expect_intact = whole_lines + usize::from(bare_line_survives);
        let expect_corrupt = usize::from(trailing_len > 0 && !bare_line_survives);

        // Property 1: exact recovery + quarantine.
        let store = Store::open(&path);
        let contents = store.load().unwrap();
        prop_assert_eq!(contents.records.len(), expect_intact);
        prop_assert_eq!(contents.corrupt_lines, expect_corrupt);
        for (got, want) in contents.records.iter().zip(&recs) {
            prop_assert_eq!(&got.job, &want.job, "recovered records out of order");
        }

        // Property 2: resume converges. Each round re-appends whatever
        // the store cannot vouch for; the first round may glue onto an
        // unterminated tail and lose one line — the second cannot.
        for _round in 0..2 {
            let view = store.load().unwrap();
            let have = view.latest();
            let missing: Vec<&Record> = recs
                .iter()
                .filter(|r| !have.contains_key(r.job.as_str()))
                .collect();
            if missing.is_empty() {
                break;
            }
            for r in missing {
                store.append(r).unwrap();
            }
        }
        let recovered = rendered_latest(&store.load().unwrap());
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(recovered, baseline);
    }
}
