//! Host-speed calibration.
//!
//! The machines this benchmark runs on share their cores, and their
//! speed drifts by tens of percent over minutes. Every host metric is
//! therefore reported in *reference-machine* units: between jobs the
//! benchmark times a fixed kernel that lives here, frozen, and scales
//! each rate by `kernel time / NOMINAL_KERNEL_S` (each set-up time by
//! the inverse). A change to the simulator moves the metric; a slower
//! moment on the host moves the kernel too and cancels out. The raw
//! values are printed beside the calibrated ones. Work bound by the
//! disk's sync latency (sweep-grid's cold pass) is scaled the same way
//! by [`io_kernel_s`] against `NOMINAL_IO_S`.
//!
//! The kernel mimics the simulator's instruction mix — a 16-way LRU
//! tag-array walk (the LLC's shape) over a 256 KiB tag array driven
//! by a xorshift address stream — because a kernel with a different
//! mix (a DRAM-latency pointer chase, say) tracks the host's slow
//! moments poorly.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Kernel seconds on the machine the bounds were set on (a 2-vCPU
/// Intel Xeon VM); only fixes the scale of the calibrated units.
pub const NOMINAL_KERNEL_S: f64 = 0.0004;

/// Seconds of one fsync'd append on the machine the bounds were set on.
pub const NOMINAL_IO_S: f64 = 0.00007;

/// Appends per I/O-kernel run, and the bytes of each (about one stored
/// sweep record).
const IO_APPENDS: usize = 16;
const IO_LINE_BYTES: usize = 1024;

const SETS: usize = 2048;
const WAYS: usize = 16;
const STEPS: usize = 20_000;

thread_local! {
    static TAGS: RefCell<Vec<u64>> = RefCell::new(vec![0; SETS * WAYS]);
}

/// Seconds one run of the calibration kernel takes right now.
///
/// The walk runs twice and only the second is timed: the first pulls
/// the tag array back into cache, so what the measured job left there
/// (a footprint a simulator change may grow or shrink) does not leak
/// into the calibration.
pub fn kernel_s() -> f64 {
    walk();
    walk()
}

/// One timed tag-array walk.
fn walk() -> f64 {
    TAGS.with(|tags| {
        let mut tags = tags.borrow_mut();
        let t0 = Instant::now();
        let (mut x, mut clock, mut hits) = (0x2545_f491_4f6c_dd1du64, 0u64, 0u64);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A quarter of the references roam, the rest stay in a
            // 16k-line hot region.
            let line = if x & 3 == 0 {
                x >> 20
            } else {
                (x >> 40) & 0x3fff
            };
            let set = (line as usize) & (SETS - 1);
            let tag = (line >> 11) & 0xffff_ffff;
            let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
            clock += 1;
            let stamp = (tag << 32) | (clock & 0xffff_ffff);
            let mut lru = 0;
            match ways.iter().position(|w| w >> 32 == tag) {
                Some(w) => {
                    ways[w] = stamp;
                    hits += 1;
                }
                None => {
                    for w in 1..WAYS {
                        if ways[w] & 0xffff_ffff < ways[lru] & 0xffff_ffff {
                            lru = w;
                        }
                    }
                    ways[lru] = stamp;
                }
            }
        }
        std::hint::black_box(hits);
        t0.elapsed().as_secs_f64()
    })
}

/// Mean kernel seconds with `threads` copies running at once — the
/// calibration for work spread over that many worker threads, which
/// feels contention on every core it runs on.
pub fn parallel_kernel_s(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(kernel_s)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::NAN))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// How much slower than nominal the host ran (>1 = slower), from the
/// kernel times sampled during a run.
pub fn slowdown(kernel_samples: &[f64]) -> f64 {
    crate::common::median(kernel_samples) / NOMINAL_KERNEL_S
}

/// Median seconds of one fsync'd append to a scratch file in `dir` right
/// now — the calibration for work bound by the disk's sync latency
/// (sweep-grid's cold pass appends and fsyncs one record per job),
/// which drifts on a shared disk independently of the CPU. `None` when
/// the scratch file cannot be written.
pub fn io_kernel_s(dir: &Path) -> Option<f64> {
    let path = dir.join("calib-io.tmp");
    let line = [b'x'; IO_LINE_BYTES];
    let times = std::fs::File::create(&path).and_then(|mut f| {
        (0..IO_APPENDS)
            .map(|_| {
                let t0 = Instant::now();
                f.write_all(&line)?;
                f.sync_data()?;
                Ok(t0.elapsed().as_secs_f64())
            })
            .collect::<std::io::Result<Vec<f64>>>()
    });
    let _ = std::fs::remove_file(&path);
    times.ok().map(|t| crate::common::median(&t))
}
