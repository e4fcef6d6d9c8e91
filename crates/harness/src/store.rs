//! Append-only JSONL results store.
//!
//! One record per line, one line per finished job attempt-group. A
//! sweep resumes by loading the store and skipping every job whose
//! `JobId` already has an `ok` record; `failed` records are retried on
//! the next invocation (the newest record for a job wins). A line
//! truncated by a crash mid-write fails to parse and is counted as
//! corrupt, never trusted.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rop_sim_system::metrics::RunMetrics;
use rop_stats::Json;

/// Raw I/O seam under the store: every byte the store reads from or
/// writes to the filesystem goes through one of these methods, so a
/// fault-injection harness (`rop-chaos`) can wrap [`RealIo`] and tear
/// writes, fail fsyncs, or report disk-full at scheduled points while
/// the store logic above stays byte-for-byte the production code.
pub trait StoreIo: Send + Sync {
    /// Reads the whole file; `Ok(None)` when it does not exist.
    fn read_file(&self, path: &Path) -> Result<Option<String>, String>;

    /// Appends `line` (which must include its trailing newline) and
    /// durably syncs it to the device before returning `Ok`.
    fn append_line(&self, path: &Path, line: &str) -> Result<(), String>;
}

/// The production [`StoreIo`]: real reads, real appends, real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
        match std::fs::read_to_string(path) {
            Ok(t) => Ok(Some(t)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    fn append_line(&self, path: &Path, line: &str) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // `File::flush` is a no-op (there is no userspace buffer to
        // flush); only `sync_data` actually forces the bytes down to
        // the device.
        f.write_all(line.as_bytes())
            .and_then(|_| f.sync_data())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Terminal status of a stored job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The job produced metrics.
    Ok,
    /// The job exhausted its retry budget; `panic_msg` says why.
    Failed,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Failed => "failed",
        }
    }
}

/// One store line: the outcome of one job.
#[derive(Debug, Clone)]
pub struct Record {
    /// Content-hash identity (16 hex digits, from `SweepJob::fingerprint`).
    pub job: String,
    /// Human-readable label the job ran under.
    pub label: String,
    /// Outcome.
    pub status: Status,
    /// Attempts used.
    pub attempts: u32,
    /// Final panic message (failed jobs only).
    pub panic_msg: Option<String>,
    /// Unix seconds when the record was appended.
    pub ts: u64,
    /// The run's metrics (ok jobs only).
    pub metrics: Option<RunMetrics>,
    /// Lease epoch the writer held when committing (0 = unleased
    /// single-process run, the only value ever written before
    /// distributed mode existed).
    pub epoch: u64,
    /// Worker id of the committing process (empty = unleased).
    pub worker: String,
}

impl Record {
    /// Encodes as one JSON object (no newline).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("v", Json::Num(1.0))
            .push("job", Json::Str(self.job.clone()))
            .push("label", Json::Str(self.label.clone()))
            .push("status", Json::Str(self.status.as_str().to_string()))
            .push("attempts", Json::Num(self.attempts as f64))
            .push("ts", Json::Num(self.ts as f64));
        if let Some(msg) = &self.panic_msg {
            j.push("panic", Json::Str(msg.clone()));
        }
        // Lease identity is only written by leased (distributed)
        // workers, so single-process stores stay byte-identical to
        // every store ever written before the fields existed.
        if self.epoch > 0 || !self.worker.is_empty() {
            j.push("epoch", Json::Num(self.epoch as f64))
                .push("worker", Json::Str(self.worker.clone()));
        }
        if let Some(m) = &self.metrics {
            j.push("metrics", m.to_json());
        }
        j
    }

    /// Decodes one parsed store line.
    ///
    /// Rejects lines whose `v` field names a format version this build
    /// does not understand — a newer writer may encode fields with
    /// different semantics, so trusting such a line silently would be
    /// worse than re-running the job. A missing `v` is read as version
    /// 1 (the only version ever written without the field).
    pub fn from_json(j: &Json) -> Result<Record, String> {
        match j.get("v") {
            None => {}
            Some(v) => match v.as_u64() {
                Some(1) => {}
                Some(other) => return Err(format!("unsupported record version {other}")),
                None => return Err("non-numeric record version".into()),
            },
        }
        let status = match j.get("status").and_then(Json::as_str) {
            Some("ok") => Status::Ok,
            Some("failed") => Status::Failed,
            other => return Err(format!("bad status {other:?}")),
        };
        let job = j
            .get("job")
            .and_then(Json::as_str)
            .ok_or("missing job id")?
            .to_string();
        let metrics = match j.get("metrics") {
            Some(m) => Some(RunMetrics::from_json(m)?),
            None => None,
        };
        if status == Status::Ok && metrics.is_none() {
            return Err(format!("ok record {job} has no metrics"));
        }
        Ok(Record {
            job,
            label: j
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            status,
            attempts: j.get("attempts").and_then(Json::as_u64).unwrap_or(1) as u32,
            panic_msg: j.get("panic").and_then(Json::as_str).map(str::to_string),
            ts: j.get("ts").and_then(Json::as_u64).unwrap_or(0),
            metrics,
            epoch: j.get("epoch").and_then(Json::as_u64).unwrap_or(0),
            worker: j
                .get("worker")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }
}

/// Everything read from a store file.
#[derive(Debug, Default)]
pub struct StoreContents {
    /// Parseable records, in file order.
    pub records: Vec<Record>,
    /// Lines that failed to parse (e.g. truncated by a crash).
    pub corrupt_lines: usize,
}

impl StoreContents {
    /// Winning record per job id. A `BTreeMap` so every consumer
    /// iterates in job-id order — diff and CSV export output is
    /// byte-stable across runs by construction.
    ///
    /// Within a job, the winner is the record with the highest
    /// `(epoch, worker)` pair; ties (same writer re-committing, and
    /// every record of a pre-lease single-process store, where both
    /// fields are at their defaults) resolve newest-in-file-order
    /// wins. A record a fenced-out zombie managed to append *before*
    /// its lease was stolen can therefore never shadow the stealing
    /// worker's result, no matter the append order — split-brain
    /// resolution is deterministic and permutation-independent for
    /// distinct writers.
    pub fn latest(&self) -> BTreeMap<&str, &Record> {
        let mut map: BTreeMap<&str, &Record> = BTreeMap::new();
        for r in &self.records {
            match map.get(r.job.as_str()) {
                Some(cur) if (r.epoch, &r.worker) < (cur.epoch, &cur.worker) => {}
                _ => {
                    map.insert(r.job.as_str(), r);
                }
            }
        }
        map
    }

    /// Pure file-order newest-record-wins resolution, ignoring lease
    /// epochs — the pre-distributed behaviour. Kept only so the chaos
    /// oracle's `no-fencing` mutant can demonstrate what goes wrong
    /// without epoch fencing; production paths use
    /// [`StoreContents::latest`].
    pub fn latest_unfenced(&self) -> BTreeMap<&str, &Record> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            map.insert(r.job.as_str(), r);
        }
        map
    }

    /// (ok, failed) counts over [`StoreContents::latest`].
    pub fn counts(&self) -> (usize, usize) {
        let latest = self.latest();
        let ok = latest.values().filter(|r| r.status == Status::Ok).count();
        (ok, latest.len() - ok)
    }
}

/// Handle on a JSONL store file.
#[derive(Clone)]
pub struct Store {
    path: PathBuf,
    io: Arc<dyn StoreIo>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("path", &self.path).finish()
    }
}

impl Store {
    /// A store at `path` on the real filesystem. The file is created
    /// lazily on first append.
    pub fn open(path: impl Into<PathBuf>) -> Store {
        Store::with_io(path, Arc::new(RealIo))
    }

    /// A store at `path` whose raw I/O goes through `io` — the seam
    /// `rop-chaos` uses to inject deterministic storage faults.
    pub fn with_io(path: impl Into<PathBuf>, io: Arc<dyn StoreIo>) -> Store {
        Store {
            path: path.into(),
            io,
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every record. A missing file is an empty store.
    pub fn load(&self) -> Result<StoreContents, String> {
        let Some(text) = self.io.read_file(&self.path)? else {
            return Ok(Default::default());
        };
        let mut out = StoreContents::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match Json::parse(line).and_then(|j| Record::from_json(&j)) {
                Ok(rec) => out.records.push(rec),
                Err(_) => out.corrupt_lines += 1,
            }
        }
        Ok(out)
    }

    /// Appends one record (single line + newline, fsync'd to the
    /// device before returning so a machine crash after a successful
    /// append cannot lose it). Returns the line written, without its
    /// newline, so a caller can decode exactly the bytes the store holds
    /// without rendering the record a second time.
    pub fn append(&self, rec: &Record) -> Result<String, String> {
        let mut line = rec.to_json().render();
        line.push('\n');
        self.io.append_line(&self.path, &line)?;
        line.pop();
        Ok(line)
    }
}

/// Current unix time in whole seconds (0 if the clock is before 1970).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rop-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn ok_record(job: &str, ipc: f64) -> Record {
        // A complete v1 metrics record: the decoder is strict, so every
        // required field must be present (legacy pre-v1 fields like
        // `mechanism` may be omitted and take their documented defaults).
        let metrics_json = Json::parse(&format!(
            r#"{{"system":"Baseline","cores":[{{"benchmark":"lbm","instructions":100,"finish_cycle":50,"ipc":{ipc},"llc_hits":1,"read_misses":2,"stall_cycles":3}}],"total_cycles":50,"energy":{{"act_pre_nj":0,"read_nj":0,"write_nj":0,"refresh_nj":0,"background_nj":0,"sram_nj":0}},"refreshes":0,"sram_hit_rate":0,"sram_lookups":0,"prefetches":0,"analysis":[],"row_hit_rate":0,"avg_read_latency":0,"hit_cycle_cap":false}}"#
        ))
        .unwrap();
        Record {
            job: job.to_string(),
            label: format!("test/{job}"),
            status: Status::Ok,
            attempts: 1,
            panic_msg: None,
            ts: 1_700_000_000,
            metrics: Some(RunMetrics::from_json(&metrics_json).unwrap()),
            epoch: 0,
            worker: String::new(),
        }
    }

    #[test]
    fn append_load_roundtrip() {
        let path = tmp("roundtrip");
        let store = Store::open(&path);
        assert!(store.load().unwrap().records.is_empty());

        store.append(&ok_record("aaaa", 0.5)).unwrap();
        let failed = Record {
            job: "bbbb".into(),
            label: "test/bbbb".into(),
            status: Status::Failed,
            attempts: 3,
            panic_msg: Some("[test/bbbb] boom".into()),
            ts: 1_700_000_001,
            metrics: None,
            epoch: 0,
            worker: String::new(),
        };
        store.append(&failed).unwrap();

        let contents = store.load().unwrap();
        assert_eq!(contents.records.len(), 2);
        assert_eq!(contents.corrupt_lines, 0);
        assert_eq!(contents.records[0].metrics.as_ref().unwrap().ipc(), 0.5);
        assert_eq!(contents.records[1].status, Status::Failed);
        assert_eq!(
            contents.records[1].panic_msg.as_deref(),
            Some("[test/bbbb] boom")
        );
        let (ok, bad) = contents.counts();
        assert_eq!((ok, bad), (1, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn newest_record_wins() {
        let path = tmp("newest");
        let store = Store::open(&path);
        let failed = Record {
            status: Status::Failed,
            panic_msg: Some("first try".into()),
            metrics: None,
            ..ok_record("cccc", 0.0)
        };
        store.append(&failed).unwrap();
        store.append(&ok_record("cccc", 0.9)).unwrap();
        let contents = store.load().unwrap();
        let latest = contents.latest();
        assert_eq!(latest.len(), 1);
        assert_eq!(latest["cccc"].status, Status::Ok);
        assert_eq!(contents.counts(), (1, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn higher_epoch_wins_regardless_of_append_order() {
        let path = tmp("epoch-order");
        let store = Store::open(&path);
        // The stealing worker (epoch 2) lands first; the fenced-out
        // zombie's stale record (epoch 1) is appended after. File
        // order would pick the zombie — epochs must not.
        let fresh = Record {
            epoch: 2,
            worker: "w-live".into(),
            ..ok_record("abcd", 0.9)
        };
        let stale = Record {
            epoch: 1,
            worker: "w-zombie".into(),
            ..ok_record("abcd", 0.1)
        };
        store.append(&fresh).unwrap();
        store.append(&stale).unwrap();
        let contents = store.load().unwrap();
        let latest = contents.latest();
        assert_eq!(latest["abcd"].worker, "w-live");
        assert_eq!(latest["abcd"].metrics.as_ref().unwrap().ipc(), 0.9);
        // The unfenced view shows why fencing matters: file order
        // would resurrect the zombie.
        assert_eq!(contents.latest_unfenced()["abcd"].worker, "w-zombie");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn split_brain_same_epoch_resolves_by_worker_id_not_file_order() {
        let path = tmp("split-brain");
        let store = Store::open(&path);
        let a = Record {
            epoch: 1,
            worker: "wa".into(),
            ..ok_record("abcd", 0.5)
        };
        let b = Record {
            epoch: 1,
            worker: "wb".into(),
            ..ok_record("abcd", 0.5)
        };
        // Both orders must resolve to the same winner (max worker id).
        store.append(&a).unwrap();
        store.append(&b).unwrap();
        assert_eq!(store.load().unwrap().latest()["abcd"].worker, "wb");
        let path2 = tmp("split-brain-rev");
        let store2 = Store::open(&path2);
        store2.append(&b).unwrap();
        store2.append(&a).unwrap();
        assert_eq!(store2.load().unwrap().latest()["abcd"].worker, "wb");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn lease_fields_roundtrip_and_default_encoding_is_unchanged() {
        let plain = ok_record("aaaa", 0.5);
        let line = plain.to_json().render();
        assert!(
            !line.contains("epoch") && !line.contains("worker"),
            "unleased records must not grow fields: {line}"
        );
        let leased = Record {
            epoch: 3,
            worker: "w17".into(),
            ..ok_record("bbbb", 0.6)
        };
        let back = Record::from_json(&Json::parse(&leased.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.epoch, 3);
        assert_eq!(back.worker, "w17");
        let back = Record::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!((back.epoch, back.worker.as_str()), (0, ""));
    }

    #[test]
    fn truncated_tail_is_quarantined() {
        let path = tmp("truncated");
        let store = Store::open(&path);
        store.append(&ok_record("dddd", 0.7)).unwrap();
        // Simulate a crash mid-write: append half a record, no newline.
        let full = ok_record("eeee", 0.8).to_json().render();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&full.as_bytes()[..full.len() / 2]).unwrap();
        drop(f);

        let contents = store.load().unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.corrupt_lines, 1);
        assert_eq!(contents.records[0].job, "dddd");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ok_without_metrics_is_rejected() {
        let j = Json::parse(r#"{"v":1,"job":"ffff","status":"ok","attempts":1,"ts":0}"#).unwrap();
        assert!(Record::from_json(&j).is_err());
    }

    #[test]
    fn unknown_version_is_rejected() {
        let j =
            Json::parse(r#"{"v":2,"job":"aaaa","status":"failed","attempts":1,"ts":0}"#).unwrap();
        let err = Record::from_json(&j).unwrap_err();
        assert!(err.contains("version 2"), "{err}");
        let j =
            Json::parse(r#"{"v":"x","job":"aaaa","status":"failed","attempts":1,"ts":0}"#).unwrap();
        assert!(Record::from_json(&j).is_err());
        // Missing `v` is version 1.
        let j = Json::parse(r#"{"job":"aaaa","status":"failed","attempts":1,"ts":0}"#).unwrap();
        assert!(Record::from_json(&j).is_ok());
    }

    #[test]
    fn io_seam_carries_every_read_and_append() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct CountingIo {
            reads: AtomicUsize,
            appends: AtomicUsize,
        }
        impl StoreIo for CountingIo {
            fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
                self.reads.fetch_add(1, Ordering::SeqCst);
                RealIo.read_file(path)
            }
            fn append_line(&self, path: &Path, line: &str) -> Result<(), String> {
                self.appends.fetch_add(1, Ordering::SeqCst);
                assert!(line.ends_with('\n'), "append contract: newline included");
                RealIo.append_line(path, line)
            }
        }

        let path = tmp("io-seam");
        let io = Arc::new(CountingIo::default());
        let store = Store::with_io(&path, io.clone());
        let line = store.append(&ok_record("aaaa", 0.5)).unwrap();
        assert_eq!(line, ok_record("aaaa", 0.5).to_json().render());
        store.append(&ok_record("bbbb", 0.6)).unwrap();
        let contents = store.load().unwrap();
        assert_eq!(contents.records.len(), 2);
        assert_eq!(io.appends.load(Ordering::SeqCst), 2);
        assert_eq!(io.reads.load(Ordering::SeqCst), 1);

        // An injected append error surfaces as the store's error.
        struct FailingIo;
        impl StoreIo for FailingIo {
            fn read_file(&self, path: &Path) -> Result<Option<String>, String> {
                RealIo.read_file(path)
            }
            fn append_line(&self, _: &Path, _: &str) -> Result<(), String> {
                Err("injected disk-full".into())
            }
        }
        let failing = Store::with_io(&path, Arc::new(FailingIo));
        let err = failing.append(&ok_record("cccc", 0.7)).unwrap_err();
        assert!(err.contains("disk-full"), "{err}");
        // The failed append left the file untouched.
        assert_eq!(failing.load().unwrap().records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_version_lines_are_quarantined_on_load() {
        let path = tmp("future-version");
        let store = Store::open(&path);
        store.append(&ok_record("aaaa", 0.5)).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"v\":9,\"job\":\"bbbb\",\"status\":\"failed\",\"attempts\":1,\"ts\":0}\n")
            .unwrap();
        drop(f);
        let contents = store.load().unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.corrupt_lines, 1);
        let _ = std::fs::remove_file(&path);
    }
}
