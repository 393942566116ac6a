//! Table 5: profiling overhead of the four back-ends on the three suites.

use crate::harness::ExperimentOptions;
use crate::report::{fnum, write_result, Table};
use gpu_profile::OverheadModel;
use gpu_sim::HardwareRunner;
use gpu_workload::SuiteKind;
use stem_baselines::PhotonSampler;

/// One Table 5 cell.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadCell {
    /// Profiling back-end (method).
    pub profiler: String,
    /// Suite.
    pub suite: SuiteKind,
    /// Overhead as x original wall time; `None` marks the paper's N/A cells
    /// (infeasible at HuggingFace scale).
    pub factor: Option<f64>,
    /// For N/A cells: the modelled instrumented time in days.
    pub estimated_days: Option<f64>,
}

/// Reproduces Table 5: per-profiler overhead factors. PKA's NCU, Sieve's
/// NVBit and Photon's BBV processing are computed on Rodinia and CASIO and
/// reported as N/A (with modelled days) on HuggingFace, as in the paper.
pub fn table5(options: &ExperimentOptions) -> Vec<OverheadCell> {
    let model = OverheadModel::default();
    let hw = HardwareRunner::new(options.sim_config.clone(), options.seed);
    let mut cells = Vec::new();

    for suite in [SuiteKind::Rodinia, SuiteKind::Casio, SuiteKind::Huggingface] {
        let workloads = options.suite(suite);
        // Suite-level factor: total instrumented time over total base time,
        // so a few millisecond-scale workloads cannot dominate the ratio.
        let mut base_total = 0.0;
        let mut nsys_s = 0.0;
        let mut ncu_s = 0.0;
        let mut nvbit_s = 0.0;
        let mut bbv_s = 0.0;
        for w in &workloads {
            let measured: f64 = hw.measure_all(w).iter().sum();
            let base_s = hw.config().cycles_to_seconds(measured);
            let n = w.num_invocations() as u64;
            let instr = w.total_instructions();
            base_total += base_s;
            nsys_s += model.nsys(base_s, n).instrumented_s;
            ncu_s += model.ncu(base_s, n).instrumented_s;
            nvbit_s += model.nvbit(base_s, instr, n).instrumented_s;
            if suite == SuiteKind::Huggingface {
                // Photon's comparison bill at HF scale is modelled, not run:
                // assume the table grows to ~1000 candidates of ~100 dims.
                let ops = n as f64 * 1000.0 * 100.0;
                bbv_s += model.bbv(base_s, instr, ops).instrumented_s;
            } else {
                let analysis = PhotonSampler::new().analyze(w);
                bbv_s += model
                    .bbv(base_s, instr, analysis.compare_ops)
                    .instrumented_s;
            }
        }
        let n_wl = workloads.len() as f64;
        let feasible = suite != SuiteKind::Huggingface;
        cells.push(OverheadCell {
            profiler: "STEM (NSYS)".to_string(),
            suite,
            factor: Some(nsys_s / base_total),
            estimated_days: None,
        });
        cells.push(OverheadCell {
            profiler: "PKA (NCU)".to_string(),
            suite,
            factor: feasible.then(|| ncu_s / base_total),
            estimated_days: (!feasible).then(|| ncu_s / n_wl / 86_400.0),
        });
        cells.push(OverheadCell {
            profiler: "Sieve (NVBit)".to_string(),
            suite,
            factor: feasible.then(|| nvbit_s / base_total),
            estimated_days: (!feasible).then(|| nvbit_s / n_wl / 86_400.0),
        });
        cells.push(OverheadCell {
            profiler: "Photon (BBV)".to_string(),
            suite,
            factor: feasible.then(|| bbv_s / base_total),
            estimated_days: (!feasible).then(|| bbv_s / n_wl / 86_400.0),
        });
    }

    let mut t = Table::new(&["profiler", "rodinia", "casio", "huggingface"]);
    for profiler in ["PKA (NCU)", "Sieve (NVBit)", "Photon (BBV)", "STEM (NSYS)"] {
        let cell = |suite: SuiteKind| -> String {
            let c = cells
                .iter()
                .find(|c| c.suite == suite && c.profiler == profiler)
                .expect("cell computed");
            match (c.factor, c.estimated_days) {
                (Some(f), _) => format!("{}x", fnum(f)),
                (None, Some(d)) => format!("N/A (~{} days)", fnum(d)),
                (None, None) => "N/A".to_string(),
            }
        };
        t.row(vec![
            profiler.to_string(),
            cell(SuiteKind::Rodinia),
            cell(SuiteKind::Casio),
            cell(SuiteKind::Huggingface),
        ]);
    }
    println!(
        "Table 5 — profiling overhead (x original wall time)\n{}",
        t.render()
    );
    write_result("table5.csv", &t.to_csv());
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_ordering_matches_paper() {
        let opts = ExperimentOptions::fast();
        let cells = table5(&opts);
        let get = |p: &str, s: SuiteKind| -> f64 {
            cells
                .iter()
                .find(|c| c.profiler == p && c.suite == s)
                .and_then(|c| c.factor)
                .expect("feasible cell")
        };
        // NSYS is the cheapest everywhere.
        for suite in [SuiteKind::Rodinia, SuiteKind::Casio] {
            let nsys = get("STEM (NSYS)", suite);
            for other in ["PKA (NCU)", "Sieve (NVBit)", "Photon (BBV)"] {
                assert!(
                    nsys < get(other, suite),
                    "{other} should cost more than NSYS on {suite}"
                );
            }
        }
        // NCU explodes on CASIO (paper: 3704x vs Rodinia's 35x).
        assert!(get("PKA (NCU)", SuiteKind::Casio) > 5.0 * get("PKA (NCU)", SuiteKind::Rodinia));
        // HuggingFace: only NSYS feasible, small factor.
        let hf_nsys = get("STEM (NSYS)", SuiteKind::Huggingface);
        assert!(hf_nsys < 20.0, "hf nsys {hf_nsys}");
        let hf_ncu = cells
            .iter()
            .find(|c| c.profiler == "PKA (NCU)" && c.suite == SuiteKind::Huggingface)
            .expect("cell");
        assert!(hf_ncu.factor.is_none());
        assert!(hf_ncu.estimated_days.expect("estimate") > 0.1);
    }
}
