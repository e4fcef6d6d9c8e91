//! Golden values for every `SystemKind` preset: the refresh counters and
//! total cycles of short audited single-core runs, pinned so a change to
//! how presets select their refresh mechanism cannot silently alter what
//! any of them simulates.

use rop_sim::sim::{System, SystemConfig, SystemKind};
use rop_sim::trace::Benchmark;

const QUOTA: u64 = 200_000;
const CAP: u64 = 100_000_000;
const SEED: u64 = 42;

/// Pinned run counters.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    total_cycles: u64,
    refreshes: u64,
    refreshes_skipped: u64,
    refreshes_pulled_in: u64,
    refresh_blocked_cycles: u64,
}

const fn g(
    total_cycles: u64,
    refreshes: u64,
    refreshes_skipped: u64,
    refreshes_pulled_in: u64,
    refresh_blocked_cycles: u64,
) -> Golden {
    Golden {
        total_cycles,
        refreshes,
        refreshes_skipped,
        refreshes_pulled_in,
        refresh_blocked_cycles,
    }
}

/// (benchmark, preset, mechanism label, expected counters); the
/// counters are `total_cycles, refreshes, refreshes_skipped,
/// refreshes_pulled_in, refresh_blocked_cycles`.
#[rustfmt::skip]
fn table() -> Vec<(Benchmark, SystemKind, &'static str, Golden)> {
    use Benchmark::{Lbm, Libquantum};
    use SystemKind::*;
    vec![
        (Libquantum, Baseline,                  "allbank", g(24410, 3, 0, 0, 5016)),
        (Libquantum, BaselineRp,                "allbank", g(24410, 3, 0, 0, 5016)),
        (Libquantum, Rop { buffer: 64 },        "allbank", g(24410, 3, 0, 0, 5016)),
        (Libquantum, NoRefresh,                 "none",    g(23482, 0, 0, 0, 0)),
        (Libquantum, ElasticRefresh,            "elastic", g(24410, 3, 0, 0, 4760)),
        (Libquantum, PerBankRefresh,            "perbank", g(25476, 25, 0, 0, 2396)),
        (Libquantum, RopPerBank { buffer: 64 }, "perbank", g(25476, 25, 0, 0, 2396)),
        (Libquantum, Darp,                      "darp",    g(25632, 26, 0, 26, 2651)),
        (Libquantum, Sarp,                      "sarp",    g(23966, 23, 0, 0, 528)),
        (Libquantum, Raidr,                     "raidr",   g(23848, 3, 1, 0, 1123)),
        (Lbm,        Baseline,                  "allbank", g(28577, 4, 0, 0, 6160)),
        (Lbm,        BaselineRp,                "allbank", g(28577, 4, 0, 0, 6160)),
        (Lbm,        Rop { buffer: 64 },        "allbank", g(28577, 4, 0, 0, 6160)),
        (Lbm,        NoRefresh,                 "none",    g(27376, 0, 0, 0, 0)),
        (Lbm,        ElasticRefresh,            "elastic", g(28615, 4, 0, 0, 5880)),
        (Lbm,        PerBankRefresh,            "perbank", g(29713, 31, 0, 0, 3371)),
        (Lbm,        RopPerBank { buffer: 64 }, "perbank", g(29713, 31, 0, 0, 3371)),
        (Lbm,        Darp,                      "darp",    g(29587, 31, 0, 31, 2831)),
        (Lbm,        Sarp,                      "sarp",    g(27830, 28, 0, 0, 725)),
        (Lbm,        Raidr,                     "raidr",   g(27713, 4, 2, 0, 1122)),
    ]
}

#[test]
fn every_preset_matches_its_golden_counters() {
    let mut mismatches = Vec::new();
    for (bench, kind, label, want) in table() {
        let mut sys = System::new(SystemConfig::single_core(bench, kind, SEED));
        sys.enable_audit();
        let m = sys.run_until(QUOTA, CAP);
        assert!(!m.hit_cycle_cap, "{} {}", bench.name(), kind.label());
        let audit = m.audit.as_ref().expect("audited run carries a summary");
        assert_eq!(audit.violations, 0, "{} {}", bench.name(), kind.label());
        let got = g(
            m.total_cycles,
            m.refreshes,
            m.refreshes_skipped,
            m.refreshes_pulled_in,
            m.refresh_blocked_cycles,
        );
        if got != want || m.mechanism != label {
            mismatches.push(format!(
                "{} {}: got {got:?} ({}), want {want:?} ({label})",
                bench.name(),
                kind.label(),
                m.mechanism
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn the_golden_table_covers_every_preset() {
    let kinds: Vec<String> = table().iter().map(|(_, k, _, _)| k.label()).collect();
    for kind in [
        "Baseline",
        "Baseline-RP",
        "ROP-64",
        "No-Refresh",
        "Elastic",
        "REFpb",
        "ROP-pb-64",
        "DARP",
        "SARP",
        "RAIDR",
    ] {
        assert_eq!(
            kinds.iter().filter(|k| *k == kind).count(),
            2,
            "{kind} must be pinned on both benchmarks"
        );
    }
}
