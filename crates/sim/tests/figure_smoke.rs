//! Smoke tests: every `experiments/*` figure renders end-to-end under
//! [`RunSpec::quick`]. Subset-capable experiments run on reduced
//! benchmark/mix/size sets so the whole file stays test-suite friendly;
//! the assertions check table structure and row presence, not numbers
//! (the statistical claims live in the unit/property tests).

use rop_sim_system::experiments::{
    ablate_drain, ablate_table, ablate_throttle, ablate_window, run_analysis, run_fgr_sweep,
    run_llc_sweep_with, run_per_bank_study, run_policy_comparison, run_singlecore_on,
};
use rop_sim_system::runner::{LocalExecutor, RunSpec};
use rop_trace::{Benchmark, WORKLOAD_MIXES};

fn spec() -> RunSpec {
    RunSpec::quick()
}

#[test]
fn fig7_fig8_fig9_render_from_quick_run() {
    let benchmarks = [Benchmark::Lbm, Benchmark::Bzip2];
    let res = run_singlecore_on(&benchmarks, spec());
    for (name, fig) in [
        ("fig7", res.render_fig7()),
        ("fig8", res.render_fig8()),
        ("fig9", res.render_fig9()),
    ] {
        assert!(fig.contains("lbm"), "{name} missing lbm row:\n{fig}");
        assert!(fig.contains("bzip2"), "{name} missing bzip2 row:\n{fig}");
        assert!(
            fig.lines().count() >= benchmarks.len() + 2,
            "{name}:\n{fig}"
        );
    }
}

#[test]
fn fig10_fig11_render_from_quick_run() {
    let mixes = &WORKLOAD_MIXES[..1];
    let res = run_llc_sweep_with(&[4], mixes, spec(), &LocalExecutor);
    assert_eq!(res.per_size.len(), 1);
    let fig10 = res.per_size[0].render_fig10();
    let fig11 = res.per_size[0].render_fig11();
    assert!(fig10.contains(mixes[0].name), "{fig10}");
    assert!(fig11.contains(mixes[0].name), "{fig11}");
    // Weighted speedups are positive once real runs back the rows.
    assert!(res.per_size[0].rows[0].ws.iter().all(|&w| w > 0.0));
}

#[test]
fn fig12_fig13_fig14_render_from_quick_run() {
    let mixes = &WORKLOAD_MIXES[..1];
    let sizes = [1usize, 2];
    let res = run_llc_sweep_with(&sizes, mixes, spec(), &LocalExecutor);
    assert_eq!(res.per_size.len(), sizes.len());
    for (name, fig) in [
        ("fig12", res.render_fig12()),
        ("fig13", res.render_fig13()),
        ("fig14", res.render_fig14()),
    ] {
        for size in sizes {
            assert!(fig.contains(&format!("{size}MB")), "{name}:\n{fig}");
        }
        assert!(fig.contains(mixes[0].name), "{name}:\n{fig}");
    }
}

#[test]
fn analysis_figures_render_from_quick_run() {
    let res = run_analysis(spec());
    for (name, fig) in [
        ("fig1", res.render_fig1()),
        ("fig2", res.render_fig2()),
        ("fig3", res.render_fig3()),
        ("fig4", res.render_fig4()),
        ("table1", res.render_table1()),
    ] {
        assert!(fig.contains("lbm"), "{name} missing lbm row:\n{fig}");
        assert!(fig.lines().count() > 3, "{name} suspiciously short:\n{fig}");
    }
}

#[test]
fn ablation_tables_render_from_quick_run() {
    for (name, table) in [
        ("window", ablate_window(spec()).render()),
        ("throttle", ablate_throttle(spec()).render()),
        ("drain", ablate_drain(spec()).render()),
        ("table", ablate_table(spec()).render()),
    ] {
        assert!(table.contains("Ablation"), "{name}:\n{table}");
        assert!(table.contains("libquantum"), "{name}:\n{table}");
        assert!(table.contains("lbm"), "{name}:\n{table}");
    }
}

#[test]
fn extension_studies_render_from_quick_run() {
    let policies = run_policy_comparison(spec(), &LocalExecutor).render();
    assert!(policies.contains("libquantum"), "{policies}");
    let fgr = run_fgr_sweep(spec(), &LocalExecutor).render();
    assert!(fgr.contains("libquantum"), "{fgr}");
    let per_bank = run_per_bank_study(spec(), &LocalExecutor).render();
    assert!(per_bank.contains("libquantum"), "{per_bank}");
}
