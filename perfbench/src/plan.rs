//! The three workloads' job lists, all derived from the `--seed`
//! argument, and the sizes that make one run long enough to be steady.

use rop_sim_system::experiments::tail_latency::tail_config;
use rop_sim_system::{RunSpec, SweepJob, SystemKind};
use rop_trace::{ArrivalProcess, Benchmark, ALL_BENCHMARKS, WORKLOAD_MIXES};

use crate::common::mix;

/// Workload sizes. [`Scale::bench`] is what the benchmark runs;
/// [`Scale::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Instructions per core for every closed-paper job.
    pub closed_instr: u64,
    /// Instructions per sweep-grid job.
    pub sweep_instr: u64,
    /// Derived seeds per (benchmark, system) cell of the sweep grid.
    pub sweep_seeds: usize,
    /// Set-up repetitions per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Instruction quota of the reference-loop and audit samples.
    pub verify_instr: u64,
    /// Records replayed per core stream by the layer probes.
    pub probe_records: usize,
}

impl Scale {
    pub fn bench() -> Self {
        Scale {
            closed_instr: 1_500_000,
            sweep_instr: 5_000,
            sweep_seeds: 16,
            setup_reps: 41,
            verify_instr: 100_000,
            probe_records: 100_000,
        }
    }

    pub fn tiny() -> Self {
        Scale {
            closed_instr: 40_000,
            sweep_instr: 2_000,
            sweep_seeds: 1,
            setup_reps: 1,
            verify_instr: 20_000,
            probe_records: 5_000,
        }
    }
}

/// Safety cap for every closed-loop job (far above any quota here).
pub const MAX_CYCLES: u64 = 500_000_000;

/// closed-paper's memory-intensive single-core benchmarks.
pub const INTENSIVE: [Benchmark; 6] = [
    Benchmark::GemsFDTD,
    Benchmark::Libquantum,
    Benchmark::Lbm,
    Benchmark::Gcc,
    Benchmark::Bwaves,
    Benchmark::CactusADM,
];

/// closed-paper's compute-bound single-core benchmarks.
pub const COMPUTE: [Benchmark; 2] = [Benchmark::Gobmk, Benchmark::Perlbench];

/// ROP with the paper's 64-line SRAM buffer.
pub const ROP64: SystemKind = SystemKind::Rop { buffer: 64 };

/// openloop-knee's offered loads: well below the knee, and just past
/// it, where the read queue stays full and the injector steps cycle by
/// cycle. (Loads inside the knee — and MMPP bursts into it — swing the
/// host cost by ±15% from one arrival stream to the next; the
/// saturated side is as heavy and steady.)
pub const BELOW_KNEE_RPKC: f64 = 75.0;
pub const KNEE_RPKC: f64 = 185.0;

/// Simulated cycles per openloop-knee job: past 8 x tREFI (49,920
/// cycles, the JEDEC postpone budget), so each rank is due seven or
/// eight refreshes and most of the window runs at steady occupancy
/// rather than filling an empty queue.
pub const OPEN_CYCLES: u64 = 50_000;

/// Independent arrival streams per openloop-knee load; a run averages
/// their host cost.
pub const OPEN_STREAMS: usize = 2;

/// closed-paper: each single-core benchmark as Baseline then ROP-64
/// (both on the same derived seed, so the pair compares one trace),
/// then the 4-core mix WL1 as Baseline-RP and ROP-64.
pub fn closed_jobs(seed: u64, scale: Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for (i, &b) in INTENSIVE.iter().chain(COMPUTE.iter()).enumerate() {
        let spec = RunSpec {
            instructions: scale.closed_instr,
            max_cycles: MAX_CYCLES,
            seed: mix(seed, 100 + i as u64),
        };
        for kind in [SystemKind::Baseline, ROP64] {
            jobs.push(SweepJob::single("closed", b, kind, spec));
        }
    }
    let spec = RunSpec {
        instructions: scale.closed_instr,
        max_cycles: MAX_CYCLES,
        seed: mix(seed, 200),
    };
    for kind in [SystemKind::BaselineRp, ROP64] {
        jobs.push(SweepJob::multi(WORKLOAD_MIXES[0], kind, 4, spec));
    }
    jobs
}

/// openloop-knee: 4 tenants on 4 ranks, every refresh mechanism at
/// both loads. Mechanisms at one load share a seed (one arrival
/// stream, four memory systems).
pub fn open_jobs(seed: u64) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    let process = ArrivalProcess::Poisson;
    for (li, load) in [BELOW_KNEE_RPKC, KNEE_RPKC].into_iter().enumerate() {
        for stream in 0..OPEN_STREAMS {
            let s = mix(seed, 300 + (li * OPEN_STREAMS + stream) as u64);
            for kind in SystemKind::MECHANISMS {
                let label = format!("open/{}/{load}/s{stream}/{}", process.label(), kind.label());
                let cfg = tail_config(kind, process.clone(), load, OPEN_CYCLES, s);
                let spec = RunSpec {
                    instructions: OPEN_CYCLES,
                    max_cycles: OPEN_CYCLES,
                    seed: s,
                };
                jobs.push(SweepJob::custom(label, cfg, spec));
            }
        }
    }
    jobs
}

/// True for the openloop-knee jobs at the knee load.
pub fn is_knee(job: &SweepJob) -> bool {
    job.config
        .open_loop
        .as_ref()
        .is_some_and(|ol| ol.offered_rpkc >= KNEE_RPKC)
}

/// sweep-grid: 12 benchmarks x {Baseline, ROP-64, DARP} x derived
/// seeds, each a short single-core job. Systems of one (benchmark,
/// seed) cell share the seed.
pub fn sweep_jobs(seed: u64, scale: Scale) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for g in 0..scale.sweep_seeds {
        for (bi, &b) in ALL_BENCHMARKS.iter().enumerate() {
            let spec = RunSpec {
                instructions: scale.sweep_instr,
                max_cycles: MAX_CYCLES,
                seed: mix(seed, 1_000 + (g * ALL_BENCHMARKS.len() + bi) as u64),
            };
            for kind in [SystemKind::Baseline, ROP64, SystemKind::Darp] {
                jobs.push(SweepJob::single(&format!("grid/s{g}"), b, kind, spec));
            }
        }
    }
    jobs
}
