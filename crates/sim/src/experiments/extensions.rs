//! Extension experiments beyond the paper's evaluation:
//!
//! * **refresh-policy comparison** — the related-work scheduler Elastic
//!   Refresh (Stuecheli et al.) against the paper's baseline, ROP, and
//!   the no-refresh bound, quantifying where scheduling alone runs out
//!   of headroom and prefetching keeps going (§VI of the paper argues
//!   this qualitatively);
//! * **fine-grained refresh (FGR) sweep** — DDR4's 1x/2x/4x refresh
//!   modes with and without ROP, the paper's §VII future-work direction:
//!   "we intend to implement our idea in DRAM systems which perform
//!   refreshes in finer granularities".

use rop_stats::TableBuilder;
use rop_trace::Benchmark;

use crate::config::{SystemConfig, SystemKind};
use crate::metrics::RunMetrics;
use crate::runner::{RunSpec, SweepExecutor, SweepJob};

/// Benchmarks used by the extension studies (the refresh-sensitive set).
pub const EXTENSION_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Libquantum,
    Benchmark::Lbm,
    Benchmark::GemsFDTD,
    Benchmark::CactusADM,
];

/// Runs `systems` on every extension benchmark through `exec` and
/// groups the metrics per benchmark, in `systems` order.
fn run_grid(
    prefix: &str,
    systems: &[SystemKind],
    spec: RunSpec,
    exec: &dyn SweepExecutor,
) -> Vec<(&'static str, Vec<RunMetrics>)> {
    let jobs = EXTENSION_BENCHMARKS
        .iter()
        .flat_map(|&b| {
            systems
                .iter()
                .map(move |&k| SweepJob::single(prefix, b, k, spec))
        })
        .collect();
    per_benchmark(exec.execute(jobs), systems.len())
}

/// Splits benchmark-major metrics into one row of `per` cells per
/// extension benchmark.
fn per_benchmark(metrics: Vec<RunMetrics>, per: usize) -> Vec<(&'static str, Vec<RunMetrics>)> {
    EXTENSION_BENCHMARKS
        .iter()
        .zip(metrics.chunks(per))
        .map(|(b, ms)| (b.name(), ms.to_vec()))
        .collect()
}

/// Result of the refresh-policy comparison.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// (benchmark, per-system metrics in `SYSTEMS` order).
    pub rows: Vec<(&'static str, Vec<RunMetrics>)>,
}

/// Systems compared by [`run_policy_comparison`].
pub const POLICY_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Baseline,
    SystemKind::ElasticRefresh,
    SystemKind::Rop { buffer: 64 },
    SystemKind::NoRefresh,
];

/// Runs the policy comparison on the extension benchmarks through
/// `exec`.
pub fn run_policy_comparison(spec: RunSpec, exec: &dyn SweepExecutor) -> PolicyComparison {
    PolicyComparison {
        rows: run_grid("policies", &POLICY_SYSTEMS, spec, exec),
    }
}

impl PolicyComparison {
    /// Renders IPC normalised to Baseline for each system.
    pub fn render(&self) -> String {
        let header: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(POLICY_SYSTEMS.iter().map(|k| k.label()))
            .collect();
        let mut t =
            TableBuilder::new("Extension — refresh-policy comparison (IPC normalised to Baseline)")
                .header(header);
        for (name, ms) in &self.rows {
            let base = ms[0].ipc();
            let mut cells = vec![name.to_string()];
            for m in ms {
                cells.push(format!("{:.3}", m.ipc() / base));
            }
            t.row(cells);
        }
        t.render()
    }
}

/// Result of the FGR sweep.
#[derive(Debug, Clone)]
pub struct FgrSweep {
    /// (benchmark, per-cell metrics in `FGR_MODES × {off, on}` order).
    pub rows: Vec<(&'static str, Vec<RunMetrics>)>,
}

/// FGR modes swept (refresh-interval divisor).
pub const FGR_MODES: [u32; 3] = [1, 2, 4];

/// Runs 1x/2x/4x refresh granularity, each without and with ROP,
/// through `exec`.
pub fn run_fgr_sweep(spec: RunSpec, exec: &dyn SweepExecutor) -> FgrSweep {
    use rop_dram::TimingParams;
    let mut jobs = Vec::new();
    for &b in &EXTENSION_BENCHMARKS {
        for &mode in &FGR_MODES {
            for kind in [SystemKind::Baseline, SystemKind::Rop { buffer: 64 }] {
                let mut cfg = SystemConfig::single_core(b, kind, spec.seed);
                let mut ctrl = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
                ctrl.dram.timing = match mode {
                    1 => TimingParams::ddr4_1600_8gb(),
                    2 => TimingParams::ddr4_1600_8gb_fgr2x(),
                    _ => TimingParams::ddr4_1600_8gb_fgr4x(),
                };
                if let Some(rc) = ctrl.rop.as_mut() {
                    // Keep ROP's windows consistent with the shrunken tRFC.
                    rc.observational_window = ctrl.dram.timing.t_rfc();
                    rc.refresh_period = ctrl.dram.timing.t_rfc();
                }
                cfg.ctrl_override = Some(ctrl);
                let label = format!("fgr/{}/{mode}x/{}", b.name(), kind.label());
                jobs.push(SweepJob::custom(label, cfg, spec));
            }
        }
    }
    FgrSweep {
        rows: per_benchmark(exec.execute(jobs), FGR_MODES.len() * 2),
    }
}

impl FgrSweep {
    /// Renders IPC normalised to the 1x baseline cell.
    pub fn render(&self) -> String {
        let mut header = vec!["benchmark".to_string()];
        for &m in &FGR_MODES {
            header.push(format!("{m}x base"));
            header.push(format!("{m}x ROP"));
        }
        let mut t = TableBuilder::new(
            "Extension — fine-grained refresh sweep (IPC normalised to 1x baseline)",
        )
        .header(header);
        for (name, ms) in &self.rows {
            let base = ms[0].ipc();
            let mut cells = vec![name.to_string()];
            for m in ms {
                cells.push(format!("{:.3}", m.ipc() / base));
            }
            t.row(cells);
        }
        t.render()
    }
}

/// Result of the per-bank-refresh (REFpb) study.
#[derive(Debug, Clone)]
pub struct PerBankStudy {
    /// (benchmark, per-system metrics in [`PER_BANK_SYSTEMS`] order).
    pub rows: Vec<(&'static str, Vec<RunMetrics>)>,
}

/// Systems compared by [`run_per_bank_study`]: all-bank baseline, ROP on
/// all-bank refresh, per-bank baseline, ROP on per-bank refresh, and the
/// no-refresh bound.
pub const PER_BANK_SYSTEMS: [SystemKind; 5] = [
    SystemKind::Baseline,
    SystemKind::Rop { buffer: 64 },
    SystemKind::PerBankRefresh,
    SystemKind::RopPerBank { buffer: 64 },
    SystemKind::NoRefresh,
];

/// Runs the §VII future-work study through `exec`: does
/// refresh-oriented prefetching still pay off when refresh granularity
/// shrinks to a single bank?
pub fn run_per_bank_study(spec: RunSpec, exec: &dyn SweepExecutor) -> PerBankStudy {
    PerBankStudy {
        rows: run_grid("per-bank", &PER_BANK_SYSTEMS, spec, exec),
    }
}

impl PerBankStudy {
    /// Renders IPC normalised to the all-bank Baseline.
    pub fn render(&self) -> String {
        let header: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(PER_BANK_SYSTEMS.iter().map(|k| k.label()))
            .collect();
        let mut t = TableBuilder::new(
            "Extension (§VII) — per-bank refresh: IPC normalised to all-bank Baseline",
        )
        .header(header);
        for (name, ms) in &self.rows {
            let base = ms[0].ipc();
            let mut cells = vec![name.to_string()];
            for m in ms {
                cells.push(format!("{:.3}", m.ipc() / base));
            }
            t.row(cells);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;

    #[test]
    fn elastic_system_runs_and_refreshes() {
        let spec = RunSpec {
            instructions: 300_000,
            max_cycles: 60_000_000,
            seed: 3,
        };
        let mut sys = System::new(SystemConfig::single_core(
            Benchmark::Libquantum,
            SystemKind::ElasticRefresh,
            spec.seed,
        ));
        let m = sys.run_until(spec.instructions, spec.max_cycles);
        assert!(!m.hit_cycle_cap);
        assert!(m.refreshes > 0, "elastic must still refresh");
        // Long-run refresh rate stays near one per tREFI (debt bounded).
        let expected = m.total_cycles / 6240;
        assert!(
            m.refreshes + 8 >= expected,
            "refreshes {} vs expected {}",
            m.refreshes,
            expected
        );
    }

    #[test]
    fn fgr_modes_change_refresh_count() {
        use rop_dram::TimingParams;
        let spec = RunSpec {
            instructions: 300_000,
            max_cycles: 60_000_000,
            seed: 3,
        };
        let mut counts = Vec::new();
        for timing in [
            TimingParams::ddr4_1600_8gb(),
            TimingParams::ddr4_1600_8gb_fgr4x(),
        ] {
            let mut cfg =
                SystemConfig::single_core(Benchmark::Libquantum, SystemKind::Baseline, spec.seed);
            let mut ctrl = cfg.kind.memctrl_config(cfg.ranks, cfg.seed);
            ctrl.dram.timing = timing;
            cfg.ctrl_override = Some(ctrl);
            let mut sys = System::new(cfg);
            let m = sys.run_until(spec.instructions, spec.max_cycles);
            counts.push((m.refreshes, m.total_cycles));
        }
        // 4x mode refreshes ~4× as often per cycle.
        let (r1, c1) = counts[0];
        let (r4, c4) = counts[1];
        let rate1 = r1 as f64 / c1 as f64;
        let rate4 = r4 as f64 / c4 as f64;
        assert!(
            rate4 > 3.0 * rate1,
            "4x rate {rate4:.6} vs 1x rate {rate1:.6}"
        );
    }
}
