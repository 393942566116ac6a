//! Extension experiments beyond the paper's evaluation: node sampling on
//! multi-GPU execution traces (the Sec. 6.2 future-work direction).

use crate::harness::ExperimentOptions;
use crate::harness::{build_sampler, MethodKind};
use crate::report::{fnum, write_result, Table};
use gpu_profile::TraceGenModel;
use gpu_sim::multi_gpu::ClusterConfig;
use gpu_sim::EnergyModel;
use gpu_workload::chakra::data_parallel_training;
use gpu_workload::SuiteKind;
use stem_core::et::{evaluate_trace_sampling, EtReport};
use stem_core::intra::{evaluate_intra_kernel, IntraReport};

/// One multi-GPU sampling row.
#[derive(Debug, Clone, PartialEq)]
pub struct ChakraRow {
    /// GPU count.
    pub num_gpus: u8,
    /// The sampling report.
    pub report: EtReport,
}

/// Runs node sampling on data-parallel training traces of growing GPU
/// counts and reports device-time and makespan estimation errors.
pub fn ext_chakra(options: &ExperimentOptions) -> Vec<ChakraRow> {
    let cluster = ClusterConfig::h100_nvlink();
    let mut rows = Vec::new();
    for num_gpus in [1u8, 2, 4, 8] {
        let trace = data_parallel_training("ddp", num_gpus, 24, 40, options.seed);
        let report = evaluate_trace_sampling(&trace, &cluster, &options.stem_config, options.seed);
        rows.push(ChakraRow { num_gpus, report });
    }
    let mut t = Table::new(&[
        "gpus",
        "nodes",
        "simulated",
        "node_speedup",
        "total_err%",
        "makespan_err%",
    ]);
    for r in &rows {
        t.row(vec![
            r.num_gpus.to_string(),
            r.report.total_nodes.to_string(),
            r.report.simulated_nodes.to_string(),
            fnum(r.report.node_speedup()),
            fnum(r.report.total_error() * 100.0),
            fnum(r.report.makespan_error() * 100.0),
        ]);
    }
    println!(
        "Extension (Sec. 6.2) — node sampling on multi-GPU execution traces\n{}",
        t.render()
    );
    write_result("ext_chakra.csv", &t.to_csv());
    rows
}

/// One intra-kernel sampling row.
#[derive(Debug, Clone, PartialEq)]
pub struct IntraRow {
    /// Workload name.
    pub workload: String,
    /// The wave-sampling report.
    pub report: IntraReport,
}

/// Runs wave-level (intra-kernel) sampling over the Rodinia suite — the
/// few-calls/long-kernels regime where kernel-level sampling alone yields
/// little speedup (Sec. 7.3's orthogonal axis).
pub fn ext_intra(options: &ExperimentOptions) -> Vec<IntraRow> {
    let sim = options.simulator();
    let mut rows = Vec::new();
    for w in options.suite(SuiteKind::Rodinia) {
        let report = evaluate_intra_kernel(&w, &sim, &options.stem_config, options.seed);
        rows.push(IntraRow {
            workload: w.name().to_string(),
            report,
        });
    }
    let mut t = Table::new(&["workload", "waves", "simulated", "wave_speedup", "error%"]);
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            r.report.total_waves.to_string(),
            r.report.simulated_waves.to_string(),
            fnum(r.report.wave_speedup()),
            fnum(r.report.error() * 100.0),
        ]);
    }
    println!(
        "Extension (Sec. 7.3) — intra-kernel (wave-level) sampling, Rodinia\n{}",
        t.render()
    );
    write_result("ext_intra.csv", &t.to_csv());
    rows
}

/// One trace-generation row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenRow {
    /// Workload name.
    pub workload: String,
    /// Full-trace bytes.
    pub full_gib: f64,
    /// Sampled-trace bytes.
    pub sampled_gib: f64,
    /// Disk reduction factor.
    pub bytes_reduction: f64,
    /// Capture-time reduction factor.
    pub time_reduction: f64,
}

/// Quantifies the Fig. 5 pipeline saving: traces are generated only for
/// the kernels STEM sampled, instead of the whole workload.
pub fn ext_tracegen(options: &ExperimentOptions) -> Vec<TraceGenRow> {
    let model = TraceGenModel::default();
    let mut rows = Vec::new();
    for w in options.suite(SuiteKind::Casio) {
        let plan = build_sampler(MethodKind::Stem, &w, &options.stem_config).plan(&w, options.seed);
        let sampled: Vec<usize> = plan.samples().iter().map(|s| s.index).collect();
        let report = model.selective(&w, &sampled);
        rows.push(TraceGenRow {
            workload: w.name().to_string(),
            full_gib: report.full_bytes / (1u64 << 30) as f64,
            sampled_gib: report.sampled_bytes / (1u64 << 30) as f64,
            bytes_reduction: report.bytes_reduction(),
            time_reduction: report.time_reduction(),
        });
    }
    let mut t = Table::new(&[
        "workload",
        "full_trace_GiB",
        "sampled_trace_GiB",
        "disk_reduction",
        "time_reduction",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            fnum(r.full_gib),
            fnum(r.sampled_gib),
            fnum(r.bytes_reduction),
            fnum(r.time_reduction),
        ]);
    }
    println!(
        "Extension (Fig. 5) — selective trace generation for sampled kernels, CASIO\n{}",
        t.render()
    );
    write_result("ext_tracegen.csv", &t.to_csv());
    rows
}

/// One energy-estimation row.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Workload name.
    pub workload: String,
    /// Full-simulation energy, joules.
    pub full_j: f64,
    /// Sampled estimate, joules.
    pub estimated_j: f64,
    /// Relative error, percent.
    pub error_pct: f64,
}

/// Demonstrates sampled *energy* estimation (the intro's power/energy use
/// case): STEM's plan estimates total energy through the same weighted sum
/// it uses for cycles.
pub fn ext_energy(options: &ExperimentOptions) -> Vec<EnergyRow> {
    let sim = options.simulator();
    let model = EnergyModel::default();
    let mut rows = Vec::new();
    for w in options.suite(SuiteKind::Casio) {
        let plan = build_sampler(MethodKind::Stem, &w, &options.stem_config).plan(&w, options.seed);
        let full = model.full_energy(&w, &sim);
        let est = model.sampled_energy(&w, plan.samples(), &sim);
        rows.push(EnergyRow {
            workload: w.name().to_string(),
            full_j: full,
            estimated_j: est,
            error_pct: (est - full).abs() / full * 100.0,
        });
    }
    let mut t = Table::new(&["workload", "full_J", "estimated_J", "error%"]);
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            fnum(r.full_j),
            fnum(r.estimated_j),
            fnum(r.error_pct),
        ]);
    }
    println!(
        "Extension — sampled energy estimation (CASIO)\n{}",
        t.render()
    );
    write_result("ext_energy.csv", &t.to_csv());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_estimates_bounded() {
        let opts = ExperimentOptions::fast();
        let rows = ext_energy(&opts);
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(
                r.error_pct < 6.0,
                "{}: energy error {}%",
                r.workload,
                r.error_pct
            );
        }
    }

    #[test]
    fn tracegen_savings_are_large() {
        let opts = ExperimentOptions::fast();
        let rows = ext_tracegen(&opts);
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(
                r.bytes_reduction > 20.0,
                "{}: disk reduction only {}x",
                r.workload,
                r.bytes_reduction
            );
            assert!(r.time_reduction > 20.0);
        }
    }

    #[test]
    fn intra_errors_bounded() {
        let opts = ExperimentOptions::fast();
        let rows = ext_intra(&opts);
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!(
                r.report.error() < 0.06,
                "{}: intra error {}",
                r.workload,
                r.report.error()
            );
            assert!(r.report.wave_speedup() >= 1.0);
        }
    }

    #[test]
    fn chakra_errors_bounded_at_every_scale() {
        let opts = ExperimentOptions::fast();
        let rows = ext_chakra(&opts);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.report.total_error() < 0.05,
                "{} GPUs: total error {}",
                r.num_gpus,
                r.report.total_error()
            );
            assert!(
                r.report.makespan_error() < 0.06,
                "{} GPUs: makespan error {}",
                r.num_gpus,
                r.report.makespan_error()
            );
            assert!(r.report.node_speedup() > 20.0);
        }
    }
}
