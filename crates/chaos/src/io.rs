//! The store-level injection seam.
//!
//! [`FaultyIo`] wraps [`RealIo`] behind the [`StoreIo`] trait: reads
//! pass straight through, and every record of an append consults the
//! [`ArmedPlan`] — a group commit hands over many records in one
//! append, and each one is its own `append#n` site. A planned store
//! fault then perturbs the write exactly the way a dying process or
//! failing disk would — partial bytes, missing fsync, ENOSPC,
//! duplicated line — while everything off-schedule behaves identically
//! to production I/O.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use rop_harness::{RealIo, StoreIo};

use crate::plan::{ArmedPlan, FaultKind};

/// A [`StoreIo`] that injects planned faults into appends.
#[derive(Debug, Clone)]
pub struct FaultyIo {
    plan: Arc<ArmedPlan>,
}

impl FaultyIo {
    /// Wraps real I/O with `plan`'s append faults.
    pub fn new(plan: Arc<ArmedPlan>) -> FaultyIo {
        FaultyIo { plan }
    }
}

/// Appends raw bytes without a trailing newline and without going
/// through [`RealIo`] — the torn/short-write primitives (and the
/// distributed worker's torn-lease-claim fault) need to leave
/// deliberately incomplete data behind.
pub(crate) fn append_raw(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
        }
    }
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path:?}: {e}"))?;
    f.write_all(bytes)
        .map_err(|e| format!("write {path:?}: {e}"))?;
    f.sync_data().map_err(|e| format!("fsync {path:?}: {e}"))?;
    Ok(())
}

impl StoreIo for FaultyIo {
    fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
        RealIo.read_file(path)
    }

    /// Numbers each record (non-empty line) of the group in order. The
    /// records before a faulted record `k` land whole; the fault then
    /// decides what becomes of `k` and of the rest of the group.
    fn append_lines(&self, path: &Path, lines: &str) -> Result<(), String> {
        let records = lines.lines().filter(|l| !l.trim().is_empty()).count();
        let mut out: Vec<u8> = Vec::new();
        let mut faulted = false;
        let mut fsync_failed = false;
        let mut k = 0;
        for line in lines.split_inclusive('\n') {
            let kind = if line.trim().is_empty() {
                None
            } else {
                k += 1;
                self.plan.take_append_fault()
            };
            if let Some(kind) = kind {
                faulted = true;
                self.plan.log(format!(
                    "{} at record {k} of a {records}-record group",
                    kind.name()
                ));
            }
            let bytes = line.as_bytes();
            match kind {
                // Worker faults never land on append sites by
                // construction ([`crate::plan::FaultPlan::generate`]); if
                // a hand-written plan puts one here, the record passes
                // through untouched.
                None | Some(FaultKind::WorkerPanic | FaultKind::HungJob | FaultKind::SlowJob) => {
                    out.extend_from_slice(bytes)
                }
                Some(FaultKind::TornWrite) => {
                    // Half of record k lands, then the process "dies":
                    // the error aborts the round mid-append, leaving a
                    // torn line with no terminator for the next load to
                    // quarantine.
                    out.extend_from_slice(&bytes[..bytes.len() / 2]);
                    append_raw(path, &out)?;
                    return Err("injected torn-write: process killed mid-append".to_string());
                }
                Some(FaultKind::ShortWrite) => {
                    // Silent corruption: record k's tail (including its
                    // newline) never lands but the caller is told all is
                    // well. Only a later load can notice.
                    out.extend_from_slice(&bytes[..bytes.len().saturating_sub(4)]);
                }
                Some(FaultKind::FsyncError) => {
                    // The whole group lands and is actually durable; only
                    // the fsync report is a lie. The round must still
                    // abort — an unsynced record cannot be trusted.
                    fsync_failed = true;
                    out.extend_from_slice(bytes);
                }
                Some(FaultKind::DiskFull) => {
                    // ENOSPC at record k: nothing of it or after lands.
                    if !out.is_empty() {
                        append_raw(path, &out)?;
                    }
                    return Err("injected disk-full: no space left on device".to_string());
                }
                Some(FaultKind::DuplicateLine) => {
                    out.extend_from_slice(bytes);
                    out.extend_from_slice(bytes);
                }
            }
        }
        if !faulted {
            return RealIo.append_lines(path, lines);
        }
        append_raw(path, &out)?;
        if fsync_failed {
            return Err("injected fsync-error: sync_data failed after write".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, Site};
    use rop_harness::{Record, Status, Store};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rop-chaos-io-{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn armed(faults: Vec<(Site, FaultKind)>) -> Arc<ArmedPlan> {
        ArmedPlan::new(&FaultPlan { seed: 0, faults })
    }

    #[test]
    fn torn_write_leaves_half_a_line_and_reports_death() {
        let path = tmp("torn");
        let io = FaultyIo::new(armed(vec![(Site::Append(0), FaultKind::TornWrite)]));
        let line = "{\"job\":\"abcd\"}\n";
        let err = io.append_lines(&path, line).unwrap_err();
        assert!(err.contains("torn-write"), "{err}");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, &line[..line.len() / 2]);
        // The next append is off-schedule and behaves normally.
        io.append_lines(&path, line).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(on_disk.ends_with('\n'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_write_is_silent_but_corrupt() {
        let path = tmp("short");
        let io = FaultyIo::new(armed(vec![(Site::Append(0), FaultKind::ShortWrite)]));
        let line = "{\"job\":\"abcd\",\"v\":1}\n";
        io.append_lines(&path, line).unwrap(); // reports success!
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, &line[..line.len() - 4]);
        assert!(!on_disk.ends_with('\n'), "tail (and newline) dropped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_full_writes_nothing() {
        let path = tmp("enospc");
        let io = FaultyIo::new(armed(vec![(Site::Append(0), FaultKind::DiskFull)]));
        let err = io.append_lines(&path, "{\"a\":1}\n").unwrap_err();
        assert!(err.contains("disk-full"), "{err}");
        assert!(!path.exists(), "no bytes may land");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_error_persists_data_but_fails() {
        let path = tmp("fsync");
        let io = FaultyIo::new(armed(vec![(Site::Append(0), FaultKind::FsyncError)]));
        let line = "{\"a\":1}\n";
        let err = io.append_lines(&path, line).unwrap_err();
        assert!(err.contains("fsync-error"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), line);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_line_lands_twice() {
        let path = tmp("dup");
        let io = FaultyIo::new(armed(vec![(Site::Append(0), FaultKind::DuplicateLine)]));
        let line = "{\"a\":1}\n";
        io.append_lines(&path, line).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, format!("{line}{line}"));
        let _ = std::fs::remove_file(&path);
    }

    // A group commit hands FaultyIo five records in one append; a fault
    // planned at `append#2` lands on the third record, mid-group.

    fn record(i: usize) -> Record {
        Record {
            job: format!("{i:016x}"),
            label: format!("chaos/job-{i}"),
            status: Status::Failed,
            attempts: 1,
            panic_msg: Some(format!("[chaos/job-{i}] boom")),
            ts: 0,
            metrics: None,
            epoch: 0,
            worker: String::new(),
        }
    }

    /// Group-commits records `ids` after what `path` holds, through
    /// `plan`'s faults; returns each record's line (with its newline)
    /// and the commit's result.
    fn commit(
        path: &Path,
        plan: &Arc<ArmedPlan>,
        ids: std::ops::Range<usize>,
    ) -> (Vec<String>, Result<(), String>) {
        let store = Store::with_io(path, Arc::new(FaultyIo::new(plan.clone())));
        let contents = store.load().unwrap();
        let mut group = store.group_commit(&contents);
        let lines = ids
            .map(|i| format!("{}\n", group.push(&record(i)).unwrap()))
            .collect();
        (lines, group.finish())
    }

    /// Job ids of the records `Store::load` trusts, and its corrupt-line
    /// count.
    fn loaded(path: &Path) -> (Vec<String>, usize) {
        let contents = Store::open(path).load().unwrap();
        let jobs = contents.records.iter().map(|r| r.job.clone()).collect();
        (jobs, contents.corrupt_lines)
    }

    fn jobs(ids: &[usize]) -> Vec<String> {
        ids.iter().map(|&i| record(i).job).collect()
    }

    #[test]
    fn torn_write_mid_group_keeps_the_records_before_it() {
        let path = tmp("group-torn");
        let plan = armed(vec![
            (Site::Append(2), FaultKind::TornWrite),
            // The resumed group's first record is site 3: the newline
            // that parks the torn tail on its own line is not a record.
            (Site::Append(3), FaultKind::DuplicateLine),
        ]);
        let (lines, res) = commit(&path, &plan, 0..5);
        assert!(res.unwrap_err().contains("torn-write"));
        let half = &lines[2][..lines[2].len() / 2];
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, format!("{}{}{half}", lines[0], lines[1]));
        assert_eq!(loaded(&path), (jobs(&[0, 1]), 1));

        // Resume: one re-append round restores every record, and the
        // torn tail stays one quarantined line.
        let (again, res) = commit(&path, &plan, 2..5);
        res.unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            on_disk,
            format!(
                "{}{}{half}\n{}{}",
                lines[0],
                lines[1],
                again[0],
                again.concat()
            )
        );
        assert_eq!(loaded(&path), (jobs(&[0, 1, 2, 2, 3, 4]), 1));
        assert_eq!(plan.remaining(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_write_mid_group_corrupts_one_line_silently() {
        let path = tmp("group-short");
        let plan = armed(vec![(Site::Append(2), FaultKind::ShortWrite)]);
        let (lines, res) = commit(&path, &plan, 0..5);
        res.unwrap(); // reports success!
        let short = &lines[2][..lines[2].len() - 4];
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            on_disk,
            format!("{}{}{short}{}{}", lines[0], lines[1], lines[3], lines[4])
        );
        // Record 2 lost its newline, so record 3 fused onto it: one
        // corrupt line, two records to re-run.
        assert_eq!(loaded(&path), (jobs(&[0, 1, 4]), 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_full_mid_group_writes_only_the_records_before_it() {
        let path = tmp("group-enospc");
        let plan = armed(vec![(Site::Append(2), FaultKind::DiskFull)]);
        let (lines, res) = commit(&path, &plan, 0..5);
        assert!(res.unwrap_err().contains("disk-full"));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, format!("{}{}", lines[0], lines[1]));
        assert_eq!(loaded(&path), (jobs(&[0, 1]), 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_error_after_a_partial_group_writes_the_whole_group() {
        let path = tmp("group-fsync");
        let plan = armed(vec![(Site::Append(2), FaultKind::FsyncError)]);
        let (lines, res) = commit(&path, &plan, 0..5);
        assert!(res.unwrap_err().contains("fsync-error"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), lines.concat());
        assert_eq!(loaded(&path), (jobs(&[0, 1, 2, 3, 4]), 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_line_mid_group_lands_twice() {
        let path = tmp("group-dup");
        let plan = armed(vec![(Site::Append(2), FaultKind::DuplicateLine)]);
        let (lines, res) = commit(&path, &plan, 0..5);
        res.unwrap();
        let mut want = lines.clone();
        want.insert(2, lines[2].clone());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want.concat());
        assert_eq!(loaded(&path), (jobs(&[0, 1, 2, 2, 3, 4]), 0));
        let contents = Store::open(&path).load().unwrap();
        assert_eq!(contents.latest().len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sites_count_records_across_groups_not_appends() {
        let path = tmp("group-sites");
        let plan = armed(vec![(Site::Append(6), FaultKind::DiskFull)]);
        let (_, res) = commit(&path, &plan, 0..5);
        res.unwrap();
        // Site 6 is the second record of the second group.
        let (_, res) = commit(&path, &plan, 5..10);
        assert!(res.unwrap_err().contains("disk-full"));
        assert_eq!(loaded(&path), (jobs(&[0, 1, 2, 3, 4, 5]), 0));
        let _ = std::fs::remove_file(&path);
    }
}
