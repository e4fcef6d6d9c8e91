//! The benchmark's own tests: determinism of its inputs and digests,
//! the metric catalog against BENCHMARK.json, and that each workload
//! exercises (and bypasses) the layers it claims to.

use std::path::PathBuf;
use std::process::Command;

use rop_perfbench::common::{MetricSet, Tracer};
use rop_perfbench::layers::{direct_counters, zero_layers, E2E, LAYERS};
use rop_perfbench::plan::{self, Scale};
use rop_perfbench::report::{json_line, Outcome};
use rop_perfbench::{direct, run_workload, WORKLOADS};
use rop_stats::Json;

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rop-perfbench-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(workload: &str, seed: u64, traced: bool) -> Outcome {
    let dir = work_dir(workload);
    let out = run_workload(
        workload,
        seed,
        0.01,
        Scale::tiny(),
        &Tracer::new(traced),
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn value(set: &MetricSet, name: &str) -> f64 {
    set.get(name).unwrap_or_else(|| panic!("{name} missing")).0
}

fn fingerprints(jobs: &[rop_sim_system::SweepJob]) -> Vec<u64> {
    jobs.iter().map(|j| j.fingerprint()).collect()
}

#[test]
fn same_seed_same_jobs_different_seed_different_jobs() {
    let s = Scale::tiny();
    type Plan = fn(u64, Scale) -> Vec<rop_sim_system::SweepJob>;
    let plans: [Plan; 3] = [
        plan::closed_jobs,
        |s, _| plan::open_jobs(s),
        plan::sweep_jobs,
    ];
    for plan in plans {
        let a = fingerprints(&plan(7, s));
        assert_eq!(a, fingerprints(&plan(7, s)));
        let b = fingerprints(&plan(8, s));
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "every job's inputs follow the seed"
        );
    }
}

#[test]
fn same_seed_same_digest_and_every_check_passes() {
    for w in WORKLOADS {
        let a = run(w, 3, false);
        let b = run(w, 3, false);
        assert_eq!(a.digest.hex(), b.digest.hex(), "{w}");
        assert_ne!(a.digest.hex(), run(w, 4, false).digest.hex(), "{w}");
        for c in &a.checks {
            assert!(c.ok, "{w}: {} — {}", c.name, c.detail);
        }
        assert_eq!(a.failed(), 0);
        assert!(a.attempted > 0);
    }
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(*name), "{name} listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for (name, _) in LAYERS {
        assert!(
            name.split_once('.')
                .is_some_and(|(c, m)| !c.is_empty() && !m.is_empty()),
            "{name} is named <crate>.<metric>"
        );
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
        cat.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&E2E));
    assert_eq!(listed("per_layer"), own(&LAYERS));
    let workloads: Vec<String> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_run_prints_exactly_its_catalog() {
    for w in WORKLOADS {
        let plain = run(w, 5, false);
        let names: Vec<&str> = plain.e2e.keys().copied().collect();
        let mut want: Vec<&str> = E2E.iter().map(|(n, _)| *n).collect();
        want.sort();
        assert_eq!(names, want, "{w}");
        assert!(
            plain.e2e.values().all(|(v, _)| *v > 0.0),
            "{w}: end-to-end metrics are never 0"
        );
        let traced = run(w, 5, true);
        assert_eq!(traced.layers.len(), LAYERS.len(), "{w}");
        let line = json_line(true, traced.attempted, traced.failed(), &traced.layers);
        let j = Json::parse(&line).unwrap();
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(j.get(key).is_some(), "{key}");
        }
    }
}

#[test]
fn workloads_exercise_and_bypass_their_layers() {
    let open = run("openloop-knee", 9, true).layers;
    for name in [
        "trace.records",
        "trace.record_ns",
        "cache.access_ns",
        "cpu.mpki",
        "harness.execute_s",
    ] {
        assert_eq!(value(&open, name), 0.0, "openloop-knee bypasses {name}");
    }
    for (name, _) in LAYERS.iter().filter(|(n, _)| n.starts_with("core.")) {
        assert_eq!(value(&open, name), 0.0, "openloop-knee bypasses {name}");
    }
    for name in [
        "trace.arrival_ns",
        "memctrl.tick_ns",
        "dram.issue_ns",
        "sim.backlog_peak",
    ] {
        assert!(value(&open, name) > 0.0, "openloop-knee exercises {name}");
    }

    let closed = run("closed-paper", 9, true).layers;
    for (name, _) in LAYERS
        .iter()
        .filter(|(n, _)| n.starts_with("harness.") || n.starts_with("stats."))
    {
        assert_eq!(value(&closed, name), 0.0, "closed-paper bypasses {name}");
    }
    for name in [
        "trace.records",
        "cache.access_ns",
        "memctrl.tick_ns",
        "core.generate_ns",
        "sim.events",
    ] {
        assert!(value(&closed, name) > 0.0, "closed-paper exercises {name}");
    }

    let sweep = run("sweep-grid", 9, true).layers;
    for name in [
        "harness.execute_s",
        "harness.appends",
        "harness.store_bytes",
        "stats.json_parse_ns",
    ] {
        assert!(value(&sweep, name) > 0.0, "sweep-grid exercises {name}");
    }
    assert_eq!(value(&sweep, "harness.cache_hit_frac"), 1.0);
    assert_eq!(value(&sweep, "harness.failed"), 0.0);
}

#[test]
fn rop_jobs_drive_the_core_and_baseline_jobs_bypass_it() {
    let scale = Scale {
        closed_instr: 1_500_000,
        ..Scale::tiny()
    };
    let jobs = plan::closed_jobs(1, scale);
    // WL1 as Baseline-RP and ROP-64: its 4-rank run outlasts ROP's
    // training phase.
    let pair = &jobs[jobs.len() - 2..];
    let (obs, _) = direct::observe(pair, &Tracer::new(false));
    let layer = |o: &[direct::JobObs], name: &str| {
        let mut set = zero_layers();
        direct_counters(&mut set, o);
        value(&set, name)
    };
    for name in [
        "core.sram_lookups",
        "core.prefetches",
        "core.prefetch_decisions",
    ] {
        assert_eq!(layer(&obs[..1], name), 0.0, "Baseline-RP bypasses {name}");
        assert!(layer(&obs[1..], name) > 0.0, "ROP-64 exercises {name}");
    }
}

#[test]
fn the_knee_load_refuses_more_enqueues_than_the_load_below_it() {
    let jobs = plan::open_jobs(1);
    let (obs, _) = direct::observe(&jobs, &Tracer::new(false));
    let (knee, below): (Vec<_>, Vec<_>) = jobs.iter().zip(obs).partition(|(j, _)| plan::is_knee(j));
    let refused = |part: Vec<(&rop_sim_system::SweepJob, direct::JobObs)>| {
        let obs: Vec<direct::JobObs> = part.into_iter().map(|(_, o)| o).collect();
        let mut set = zero_layers();
        direct_counters(&mut set, &obs);
        value(&set, "memctrl.enqueue_refused_frac")
    };
    let (k, b) = (refused(knee), refused(below));
    assert!(k > b, "knee {k} vs below-knee {b}");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_rop-perfbench");
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--workload", "sweep-grid", "--seed", "x"],
        vec!["--workload", "sweep-grid", "--trace", "2"],
    ] {
        let out = Command::new(bin).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
