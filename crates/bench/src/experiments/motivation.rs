//! Table 2 (suite inventory) and Figures 1–2 (runtime heterogeneity).

use crate::harness::{ground_truth, ExperimentOptions};
use crate::report::{fnum, write_result, Table};
use gpu_sim::Simulator;
use gpu_workload::{SuiteKind, Workload};
use stem_stats::histogram::Histogram;
use stem_stats::Summary;

/// One Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Suite name.
    pub suite: String,
    /// Number of workloads.
    pub workloads: usize,
    /// Average execution time in seconds (on the options' sim config).
    pub avg_exec_s: f64,
    /// Average kernel calls per workload.
    pub avg_calls: f64,
}

/// Reproduces Table 2: workload counts, average execution time and average
/// kernel-call counts per suite.
pub fn table2(options: &ExperimentOptions) -> Vec<SuiteRow> {
    let sim = options.simulator();
    let mut rows = Vec::new();
    for kind in [SuiteKind::Rodinia, SuiteKind::Casio, SuiteKind::Huggingface] {
        let workloads = options.suite(kind);
        let mut total_s = 0.0;
        let mut total_calls = 0usize;
        for w in &workloads {
            total_s += sim.config().cycles_to_seconds(ground_truth(&sim, w));
            total_calls += w.num_invocations();
        }
        rows.push(SuiteRow {
            suite: kind.to_string(),
            workloads: workloads.len(),
            avg_exec_s: total_s / workloads.len() as f64,
            avg_calls: total_calls as f64 / workloads.len() as f64,
        });
    }

    let mut t = Table::new(&["suite", "workloads", "avg_exec_s", "avg_kernel_calls"]);
    for r in &rows {
        t.row(vec![
            r.suite.clone(),
            r.workloads.to_string(),
            fnum(r.avg_exec_s),
            fnum(r.avg_calls),
        ]);
    }
    println!("Table 2 — workload inventory\n{}", t.render());
    write_result("table2.csv", &t.to_csv());
    rows
}

/// One kernel's heterogeneity diagnostics (drives Figures 1 and 2).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDiag {
    /// Workload the kernel came from.
    pub workload: String,
    /// Kernel name.
    pub kernel: String,
    /// Number of invocations.
    pub calls: usize,
    /// CoV of execution times.
    pub cov: f64,
    /// Histogram peak count (>= 20% of the tallest bin).
    pub peaks: usize,
}

/// Execution-time histograms of the Figure 1 kernels (`bn_fw_inf`,
/// `sgemm_128x64`, `max_pool`, `winograd`) from a CASIO workload, printed
/// as ASCII, plus the per-kernel diagnostics.
pub fn fig1(options: &ExperimentOptions) -> Vec<KernelDiag> {
    let casio = options.suite(SuiteKind::Casio);
    let w = casio
        .iter()
        .find(|w| w.name() == "resnet50_infer")
        .expect("resnet50_infer exists");
    let sim = options.simulator();
    let targets = [
        "bn_fw_inf_CUDNN",
        "sgemm_128x64_nn",
        "max_pool_fw_4d",
        "winograd_fwd_4x4",
    ];
    let mut diags = Vec::new();
    let mut csv = String::from("workload,kernel,calls,cov,peaks\n");
    for target in targets {
        let diag = kernel_diag(w, &sim, target, true);
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            diag.workload, diag.kernel, diag.calls, diag.cov, diag.peaks
        ));
        diags.push(diag);
    }
    write_result("fig1.csv", &csv);
    diags
}

/// Figure 2: the CoV-vs-peaks quadrant over every kernel of every CASIO
/// workload, demonstrating that both wide variability and multiple peaks
/// occur (and co-occur).
pub fn fig2(options: &ExperimentOptions) -> Vec<KernelDiag> {
    let casio = options.suite(SuiteKind::Casio);
    let sim = options.simulator();
    let mut diags = Vec::new();
    for w in &casio {
        for k in w.kernels() {
            diags.push(kernel_diag(w, &sim, &k.name, false));
        }
    }
    let mut t = Table::new(&["workload", "kernel", "calls", "cov", "peaks"]);
    for d in &diags {
        t.row(vec![
            d.workload.clone(),
            d.kernel.clone(),
            d.calls.to_string(),
            fnum(d.cov),
            d.peaks.to_string(),
        ]);
    }
    println!("Figure 2 — kernel heterogeneity quadrant\n{}", t.render());
    write_result("fig2.csv", &t.to_csv());
    diags
}

fn kernel_diag(w: &Workload, sim: &Simulator, kernel_name: &str, print: bool) -> KernelDiag {
    let kernel_idx = w
        .kernels()
        .iter()
        .position(|k| k.name == kernel_name)
        .unwrap_or_else(|| panic!("kernel {kernel_name} not found in {}", w.name()));
    let times: Vec<f64> = w
        .invocations()
        .filter(|inv| inv.kernel.index() == kernel_idx)
        .map(|inv| sim.cycles(w, &inv))
        .collect();
    assert!(!times.is_empty(), "kernel {kernel_name} never invoked");
    let summary: Summary = times.iter().copied().collect();
    let hist = Histogram::from_values(&times, 48);
    if print {
        println!(
            "Figure 1 — {kernel_name} ({} calls, CoV {:.3}, {} peaks)",
            times.len(),
            summary.cov(),
            hist.peak_count(0.2)
        );
        println!("{}", hist.to_ascii(48));
    }
    KernelDiag {
        workload: w.name().to_string(),
        kernel: kernel_name.to_string(),
        calls: times.len(),
        cov: summary.cov(),
        peaks: hist.peak_count(0.2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExperimentOptions {
        ExperimentOptions::fast()
    }

    #[test]
    fn table2_shape() {
        let rows = table2(&opts());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].workloads, 13); // Rodinia
        assert_eq!(rows[1].workloads, 11); // CASIO
        assert_eq!(rows[2].workloads, 6); // HuggingFace
                                          // CASIO has far more calls than Rodinia. (At the paper's scale the
                                          // HuggingFace suite dwarfs CASIO too; the fast test scale shrinks
                                          // it, so only a magnitude check is meaningful here.)
        assert!(rows[1].avg_calls > 10.0 * rows[0].avg_calls);
        assert!(rows[2].avg_calls > 10_000.0);
    }

    #[test]
    fn fig1_shows_heterogeneity() {
        let diags = fig1(&opts());
        let bn = diags
            .iter()
            .find(|d| d.kernel.starts_with("bn_fw"))
            .expect("bn");
        assert!(bn.peaks >= 2, "bn peaks = {}", bn.peaks);
        let pool = diags
            .iter()
            .find(|d| d.kernel.starts_with("max_pool"))
            .expect("pool");
        assert!(pool.cov > 0.15, "pool CoV = {}", pool.cov);
        let gemm = diags
            .iter()
            .find(|d| d.kernel.starts_with("sgemm"))
            .expect("gemm");
        assert!(gemm.peaks >= 2, "gemm peaks = {}", gemm.peaks);
    }
}
