//! Table 3 and Figures 7–9: speedup and sampling error of every method on
//! every suite.

use crate::harness::{aggregate, eval_method_on_sources, ExperimentOptions, MethodKind};
use crate::report::{fnum, write_result, Table};
use gpu_workload::SuiteKind;
use stem_core::eval::EvalSummary;

/// Per-(method, workload) outcome used by Figures 7–9.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodWorkload {
    /// Method label.
    pub method: String,
    /// Workload name.
    pub workload: String,
    /// Suite the workload belongs to.
    pub suite: SuiteKind,
    /// Harmonic-mean speedup over reps.
    pub speedup: f64,
    /// Arithmetic-mean error (%) over reps.
    pub error_pct: f64,
}

/// One Table 3 cell block: a method's suite-level aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Method label.
    pub method: String,
    /// Suite.
    pub suite: SuiteKind,
    /// Harmonic-mean speedup across workloads, or `None` for N/A cells.
    pub speedup: Option<f64>,
    /// Arithmetic-mean error (%) across workloads, or `None` for N/A.
    pub error_pct: Option<f64>,
}

/// Runs all methods over one suite, honoring Table 3's HuggingFace
/// feasibility (PKA/Sieve/Photon are N/A there).
pub fn run_suite(
    suite: SuiteKind,
    options: &ExperimentOptions,
) -> (Vec<MethodWorkload>, Vec<Table3Row>) {
    // Deferred sources: each evaluation materializes one workload at a
    // time, so the paper-scale HuggingFace suite never sits fully
    // resident. Content (and every summary) is bit-identical to
    // evaluating `options.suite(suite)`.
    let sources = options.suite_sources(suite);
    let mut per_workload = Vec::new();
    let mut rows = Vec::new();
    for method in MethodKind::TABLE3 {
        if suite == SuiteKind::Huggingface && !method.feasible_on_huggingface() {
            rows.push(Table3Row {
                method: method.label().to_string(),
                suite,
                speedup: None,
                error_pct: None,
            });
            continue;
        }
        let summaries: Vec<EvalSummary> = eval_method_on_sources(method, &sources, options);
        for s in &summaries {
            per_workload.push(MethodWorkload {
                method: method.label().to_string(),
                workload: s.workload.clone(),
                suite,
                speedup: s.harmonic_speedup,
                error_pct: s.mean_error_pct,
            });
        }
        let (speedup, error) = aggregate(&summaries);
        rows.push(Table3Row {
            method: method.label().to_string(),
            suite,
            speedup: Some(speedup),
            error_pct: Some(error),
        });
    }
    (per_workload, rows)
}

/// Reproduces Table 3 (average speedup and error of the 5 methods on the 3
/// suites) and emits the per-workload data behind Figures 7–9.
pub fn table3(options: &ExperimentOptions) -> (Vec<MethodWorkload>, Vec<Table3Row>) {
    let mut all_per_workload = Vec::new();
    let mut all_rows = Vec::new();
    for suite in [SuiteKind::Rodinia, SuiteKind::Casio, SuiteKind::Huggingface] {
        let (pw, rows) = run_suite(suite, options);
        all_per_workload.extend(pw);
        all_rows.extend(rows);
    }

    let mut t = Table::new(&[
        "method",
        "rodinia_speedup",
        "rodinia_err%",
        "casio_speedup",
        "casio_err%",
        "hf_speedup",
        "hf_err%",
    ]);
    for method in MethodKind::TABLE3 {
        let cell = |suite: SuiteKind, err: bool| -> String {
            all_rows
                .iter()
                .find(|r| r.suite == suite && r.method == method.label())
                .map(|r| {
                    let v = if err { r.error_pct } else { r.speedup };
                    v.map_or("N/A".to_string(), fnum)
                })
                .unwrap_or_else(|| "N/A".to_string())
        };
        t.row(vec![
            method.label().to_string(),
            cell(SuiteKind::Rodinia, false),
            cell(SuiteKind::Rodinia, true),
            cell(SuiteKind::Casio, false),
            cell(SuiteKind::Casio, true),
            cell(SuiteKind::Huggingface, false),
            cell(SuiteKind::Huggingface, true),
        ]);
    }
    println!(
        "Table 3 — average speedup (x) and error (%)\n{}",
        t.render()
    );
    write_result("table3.csv", &t.to_csv());

    // Per-workload data for Figures 7-9.
    let mut csv = String::from("method,workload,suite,speedup,error_pct\n");
    for r in &all_per_workload {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            r.method, r.workload, r.suite, r.speedup, r.error_pct
        ));
    }
    write_result("fig7_fig8_fig9_per_workload.csv", &csv);
    (all_per_workload, all_rows)
}

/// Figure 7 (per-workload speedups, log scale in the paper) and Figure 8
/// (per-workload errors) for Rodinia + CASIO, as printed tables.
pub fn fig7_fig8(options: &ExperimentOptions) -> Vec<MethodWorkload> {
    let mut data = Vec::new();
    for suite in [SuiteKind::Rodinia, SuiteKind::Casio] {
        let (pw, _) = run_suite(suite, options);
        data.extend(pw);
    }
    for (title, err) in [
        ("Figure 7 — speedup (x)", false),
        ("Figure 8 — error (%)", true),
    ] {
        let mut workloads: Vec<&str> = data.iter().map(|d| d.workload.as_str()).collect();
        workloads.dedup();
        let mut t = Table::new(&["workload", "PKA", "Sieve", "Photon", "STEM"]);
        let mut seen = std::collections::BTreeSet::new();
        for w in workloads {
            if !seen.insert(w.to_string()) {
                continue;
            }
            let cell = |m: &str| -> String {
                data.iter()
                    .find(|d| d.workload == w && d.method == m)
                    .map(|d| fnum(if err { d.error_pct } else { d.speedup }))
                    .unwrap_or_else(|| "-".to_string())
            };
            t.row(vec![
                w.to_string(),
                cell("PKA"),
                cell("Sieve"),
                cell("Photon"),
                cell("STEM"),
            ]);
        }
        println!("{title}\n{}", t.render());
        let name = if err { "fig8.csv" } else { "fig7.csv" };
        write_result(name, &t.to_csv());
    }
    data
}

/// Figure 9: the speedup-vs-error scatter for CASIO and HuggingFace.
pub fn fig9(options: &ExperimentOptions) -> Vec<MethodWorkload> {
    let mut data = Vec::new();
    for suite in [SuiteKind::Casio, SuiteKind::Huggingface] {
        let (pw, _) = run_suite(suite, options);
        data.extend(pw);
    }
    let mut t = Table::new(&["suite", "method", "workload", "speedup", "error_pct"]);
    for d in &data {
        t.row(vec![
            d.suite.to_string(),
            d.method.clone(),
            d.workload.clone(),
            fnum(d.speedup),
            fnum(d.error_pct),
        ]);
    }
    println!("Figure 9 — speedup vs error scatter\n{}", t.render());
    write_result("fig9.csv", &t.to_csv());
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The core shape claim of the paper, checked on a reduced setting:
    /// STEM's error is far below every baseline's on CASIO, while its
    /// speedup stays large.
    #[test]
    fn casio_shape_matches_paper() {
        let mut opts = ExperimentOptions::fast();
        opts.reps = 2;
        let (_, rows) = run_suite(SuiteKind::Casio, &opts);
        let get = |m: &str| rows.iter().find(|r| r.method == m).expect("row present");
        let stem = get("STEM");
        let random = get("Random");
        let pka = get("PKA");
        let stem_err = stem.error_pct.expect("stem ran");
        assert!(stem_err < 2.0, "STEM error {stem_err}");
        assert!(
            random.error_pct.expect("random ran") > 5.0 * stem_err,
            "random {:?} vs stem {stem_err}",
            random.error_pct
        );
        assert!(
            pka.error_pct.expect("pka ran") > 5.0 * stem_err,
            "pka {:?} vs stem {stem_err}",
            pka.error_pct
        );
        assert!(stem.speedup.expect("stem ran") > 10.0);
    }
}
