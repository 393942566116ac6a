//! Ablations: the Sec. 3.3 KKT-vs-per-cluster claim, the ROOT on/off
//! contribution, and the Sec. 6.2 L2-flush warmup sensitivity.

use crate::harness::{build_sampler, ground_truth, ExperimentOptions, MethodKind};
use crate::report::{fnum, write_result, Table};
use gpu_sim::exec::SimOptions;
use gpu_sim::Simulator;
use gpu_workload::SuiteKind;
use stem_core::eval::arithmetic_mean;
use stem_core::sampler::KernelSampler;
use stem_core::stem::Sizing;
use stem_core::StemRootSampler;

/// One KKT-ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct KktRow {
    /// Workload name.
    pub workload: String,
    /// Samples with joint KKT sizing.
    pub joint_samples: usize,
    /// Samples with per-cluster Eq. (3) sizing.
    pub per_cluster_samples: usize,
    /// Reduction factor.
    pub ratio: f64,
}

/// Sec. 3.3's claim: joint KKT sizing cuts the sample count 2–3x versus
/// applying Eq. (3) per cluster, at the same bound.
///
/// Measured on kernel-name clusters (ROOT disabled): once ROOT has split
/// every cluster down to a handful of samples, both sizings floor at
/// `m = 1` and the comparison degenerates — the joint optimization's
/// advantage lives at the granularity the paper's Sec. 3.3 discusses.
pub fn ablation_kkt(options: &ExperimentOptions) -> Vec<KktRow> {
    let workloads = options.suite(SuiteKind::Casio);
    let joint = StemRootSampler::new(options.stem_config.clone()).without_root();
    let per = StemRootSampler::new(options.stem_config.clone())
        .without_root()
        .with_sizing(Sizing::PerCluster);
    let mut rows = Vec::new();
    for w in &workloads {
        let j = joint.plan(w, options.seed).num_samples();
        let p = per.plan(w, options.seed).num_samples();
        rows.push(KktRow {
            workload: w.name().to_string(),
            joint_samples: j,
            per_cluster_samples: p,
            ratio: p as f64 / j as f64,
        });
    }
    let mut t = Table::new(&["workload", "joint_kkt", "per_cluster", "reduction"]);
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            r.joint_samples.to_string(),
            r.per_cluster_samples.to_string(),
            fnum(r.ratio),
        ]);
    }
    let avg = arithmetic_mean(&rows.iter().map(|r| r.ratio).collect::<Vec<_>>());
    println!(
        "Ablation (Sec. 3.3) — KKT joint sizing vs per-cluster Eq. 3 (avg {:.2}x fewer samples)\n{}",
        avg,
        t.render()
    );
    write_result("ablation_kkt.csv", &t.to_csv());
    rows
}

/// One ROOT-ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct RootRow {
    /// Workload name.
    pub workload: String,
    /// Sampled-simulation time proxy (sum of sampled cycles) with ROOT.
    pub with_root_cycles: f64,
    /// Without ROOT (one cluster per kernel name).
    pub without_root_cycles: f64,
    /// Error (%) with ROOT.
    pub with_root_error_pct: f64,
    /// Error (%) without ROOT.
    pub without_root_error_pct: f64,
}

/// ROOT's contribution: hierarchical splitting reduces sampled simulation
/// time on multi-peak workloads at equal (bounded) error.
pub fn ablation_root(options: &ExperimentOptions) -> Vec<RootRow> {
    let workloads = options.suite(SuiteKind::Casio);
    let sim = options.simulator();
    let with_root = StemRootSampler::new(options.stem_config.clone());
    let without = StemRootSampler::new(options.stem_config.clone()).without_root();
    let mut rows = Vec::new();
    for w in &workloads {
        let full = ground_truth(&sim, w);
        let a = sim.run_sampled(w, with_root.plan(w, options.seed).samples());
        let b = sim.run_sampled(w, without.plan(w, options.seed).samples());
        rows.push(RootRow {
            workload: w.name().to_string(),
            with_root_cycles: a.simulated_cycles,
            without_root_cycles: b.simulated_cycles,
            with_root_error_pct: a.error(full) * 100.0,
            without_root_error_pct: b.error(full) * 100.0,
        });
    }
    let mut t = Table::new(&[
        "workload",
        "root_cycles",
        "flat_cycles",
        "savings",
        "root_err%",
        "flat_err%",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            format!("{:.3e}", r.with_root_cycles),
            format!("{:.3e}", r.without_root_cycles),
            fnum(r.without_root_cycles / r.with_root_cycles),
            fnum(r.with_root_error_pct),
            fnum(r.without_root_error_pct),
        ]);
    }
    println!(
        "Ablation — ROOT hierarchical clustering on/off\n{}",
        t.render()
    );
    write_result("ablation_root.csv", &t.to_csv());
    rows
}

/// One flush-ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushRow {
    /// Suite the row aggregates.
    pub suite: SuiteKind,
    /// Method label.
    pub method: String,
    /// Mean error (%) with normal inter-kernel cache residency.
    pub normal_error_pct: f64,
    /// Mean error (%) with an L2 flush between every kernel.
    pub flushed_error_pct: f64,
    /// Mean error (%) with flush + the Sec. 6.2 warmup-kernel strategy.
    pub warmup_error_pct: f64,
}

/// Sec. 6.2's extreme-case warmup experiment: flush the L2 between every
/// kernel and measure how much each method's error moves (the paper: STEM
/// +0.70% on Rodinia, +0.07% on CASIO; PKA 0.92%, Sieve 4.08%, Photon
/// 0.61% on Rodinia). Run on both suites: CASIO's producer-consumer
/// kernels are where inter-kernel residency actually exists.
pub fn ablation_flush(options: &ExperimentOptions) -> Vec<FlushRow> {
    let normal_sim = options.simulator();
    let flush_sim = Simulator::with_options(
        options.sim_config.clone(),
        SimOptions {
            flush_l2_between_kernels: true,
            ..SimOptions::default()
        },
    );
    let warmup_sim = Simulator::with_options(
        options.sim_config.clone(),
        SimOptions {
            flush_l2_between_kernels: true,
            warmup_kernels: true,
        },
    );
    let mut rows = Vec::new();
    for suite in [SuiteKind::Rodinia, SuiteKind::Casio] {
        let workloads = options.suite(suite);
        for method in [
            MethodKind::Pka,
            MethodKind::Sieve,
            MethodKind::Photon,
            MethodKind::Stem,
        ] {
            let mut normal_err = Vec::new();
            let mut flush_err = Vec::new();
            let mut warmup_err = Vec::new();
            for w in &workloads {
                let plan = build_sampler(method, w, &options.stem_config).plan(w, options.seed);
                let full_n = ground_truth(&normal_sim, w);
                let full_f = ground_truth(&flush_sim, w);
                normal_err.push(normal_sim.run_sampled(w, plan.samples()).error(full_n) * 100.0);
                flush_err.push(flush_sim.run_sampled(w, plan.samples()).error(full_f) * 100.0);
                // The warmup strategy only changes the *sampled* run (full
                // simulation keeps real inter-kernel state); its estimate is
                // judged against the normal-residency ground truth.
                warmup_err.push(warmup_sim.run_sampled(w, plan.samples()).error(full_n) * 100.0);
            }
            rows.push(FlushRow {
                suite,
                method: method.label().to_string(),
                normal_error_pct: arithmetic_mean(&normal_err),
                flushed_error_pct: arithmetic_mean(&flush_err),
                warmup_error_pct: arithmetic_mean(&warmup_err),
            });
        }
    }
    let mut t = Table::new(&[
        "suite",
        "method",
        "normal_err%",
        "flushed_err%",
        "delta",
        "flush+warmup_err%",
    ]);
    for r in &rows {
        t.row(vec![
            r.suite.to_string(),
            r.method.clone(),
            fnum(r.normal_error_pct),
            fnum(r.flushed_error_pct),
            fnum(r.flushed_error_pct - r.normal_error_pct),
            fnum(r.warmup_error_pct),
        ]);
    }
    println!(
        "Ablation (Sec. 6.2) — L2 flush between kernels\n{}",
        t.render()
    );
    write_result("ablation_flush.csv", &t.to_csv());
    rows
}

/// One small-sample-correction row.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallSampleRow {
    /// Workload name.
    pub workload: String,
    /// Samples drawn with the plain z-based sizing.
    pub z_samples: usize,
    /// Samples drawn with the Student-t correction.
    pub t_samples: usize,
    /// Fraction of repetitions whose error stayed within the bound (z).
    pub z_coverage: f64,
    /// Fraction of repetitions whose error stayed within the bound (t).
    pub t_coverage: f64,
}

/// Stress-tests the CLT's m >= 30 rule of thumb (Sec. 3.2): at a loose
/// error bound ROOT's clusters receive single-digit sample sizes, where
/// the normal critical value is anticonservative. The Student-t correction
/// (`StemConfig::with_small_sample_correction`) inflates those sizes and
/// improves the bound's empirical coverage.
pub fn ablation_smallsample(options: &ExperimentOptions) -> Vec<SmallSampleRow> {
    let sim = options.simulator();
    // Loose bound => small per-cluster samples => the regime under test.
    let loose = options.stem_config.clone().with_epsilon(0.20);
    let z_sampler = StemRootSampler::new(loose.clone());
    let t_sampler = StemRootSampler::new(loose.clone().with_small_sample_correction());
    let reps = (options.reps * 3).max(12);
    let mut rows = Vec::new();
    for w in options.suite(SuiteKind::Rodinia) {
        let full = ground_truth(&sim, &w);
        let mut cover = [0usize; 2];
        let mut samples = [0usize; 2];
        for (vi, sampler) in [&z_sampler, &t_sampler].into_iter().enumerate() {
            for r in 0..reps {
                let plan = sampler.plan(&w, options.seed.wrapping_add(r as u64));
                samples[vi] = plan.num_samples();
                let run = sim.run_sampled(&w, plan.samples());
                if run.error(full) <= loose.epsilon {
                    cover[vi] += 1;
                }
            }
        }
        rows.push(SmallSampleRow {
            workload: w.name().to_string(),
            z_samples: samples[0],
            t_samples: samples[1],
            z_coverage: cover[0] as f64 / reps as f64,
            t_coverage: cover[1] as f64 / reps as f64,
        });
    }
    let mut t = Table::new(&[
        "workload",
        "z_samples",
        "t_samples",
        "z_coverage",
        "t_coverage",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            r.z_samples.to_string(),
            r.t_samples.to_string(),
            fnum(r.z_coverage),
            fnum(r.t_coverage),
        ]);
    }
    println!(
        "Ablation — Student-t small-sample correction at eps = 20% (target coverage 0.95)\n{}",
        t.render()
    );
    write_result("ablation_smallsample.csv", &t.to_csv());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_correction_adds_samples_and_never_hurts_coverage() {
        let mut opts = ExperimentOptions::fast();
        opts.reps = 4;
        let rows = ablation_smallsample(&opts);
        let mut any_growth = false;
        let mut z_cov = 0.0;
        let mut t_cov = 0.0;
        for r in &rows {
            assert!(
                r.t_samples >= r.z_samples,
                "{}: t shrank samples",
                r.workload
            );
            any_growth |= r.t_samples > r.z_samples;
            z_cov += r.z_coverage;
            t_cov += r.t_coverage;
        }
        assert!(any_growth, "correction never engaged");
        assert!(
            t_cov >= z_cov - 1e-9,
            "t coverage {t_cov} below z coverage {z_cov}"
        );
    }

    #[test]
    fn kkt_reduces_samples() {
        let opts = ExperimentOptions::fast();
        let rows = ablation_kkt(&opts);
        let avg = arithmetic_mean(&rows.iter().map(|r| r.ratio).collect::<Vec<_>>());
        // The paper reports 2-3x on its suite; our synthetic CASIO's time
        // is more concentrated in a few clusters, which caps the joint
        // optimization's advantage — the direction is what matters.
        assert!(avg > 1.2, "KKT reduction only {avg}x");
        for r in &rows {
            assert!(
                r.ratio >= 1.0,
                "{}: joint must not need more samples",
                r.workload
            );
        }
    }

    #[test]
    fn root_saves_simulation_time_within_bound() {
        let opts = ExperimentOptions::fast();
        let rows = ablation_root(&opts);
        let savings: Vec<f64> = rows
            .iter()
            .map(|r| r.without_root_cycles / r.with_root_cycles)
            .collect();
        let avg = arithmetic_mean(&savings);
        assert!(avg > 1.0, "ROOT should save simulated cycles, avg {avg}");
        for r in &rows {
            assert!(
                r.with_root_error_pct < 6.0,
                "{}: ROOT error {}",
                r.workload,
                r.with_root_error_pct
            );
        }
    }

    #[test]
    fn flush_barely_moves_stem() {
        let opts = ExperimentOptions::fast();
        let rows = ablation_flush(&opts);
        for suite in [SuiteKind::Rodinia, SuiteKind::Casio] {
            let stem = rows
                .iter()
                .find(|r| r.method == "STEM" && r.suite == suite)
                .expect("stem row");
            let delta = (stem.flushed_error_pct - stem.normal_error_pct).abs();
            assert!(delta < 3.0, "STEM flush delta {delta} on {suite}");
            assert!(stem.flushed_error_pct < 6.0);
        }
    }
}
