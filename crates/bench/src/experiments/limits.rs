//! Figure 10 (kernels grouped as "identical" by prior methods) and
//! Figure 11 (the error-bound sweep).

use crate::harness::{aggregate, eval_method_on_suite, ExperimentOptions, MethodKind};
use crate::report::{fnum, write_result, Table};
use gpu_workload::SuiteKind;
use stem_baselines::{PhotonSampler, PkaSampler};
use stem_core::sampler::KernelSampler;
use stem_stats::histogram::Histogram;
use stem_stats::Summary;

/// One "identical" group's execution-time spread (Figure 10).
#[derive(Debug, Clone, PartialEq)]
pub struct IdenticalGroup {
    /// Which method grouped these kernels.
    pub method: String,
    /// Group index (cluster / representative id).
    pub group: usize,
    /// Number of invocations grouped together.
    pub size: usize,
    /// Min execution time (cycles) in the group.
    pub min: f64,
    /// Max execution time (cycles) in the group.
    pub max: f64,
    /// CoV of execution times within the group.
    pub cov: f64,
    /// Histogram peak count within the group.
    pub peaks: usize,
}

/// Reproduces Figure 10 on the DLRM workload: groups PKA and Photon call
/// "identical" actually span wide multi-peak time ranges.
pub fn fig10(options: &ExperimentOptions) -> Vec<IdenticalGroup> {
    let casio = options.suite(SuiteKind::Casio);
    let w = casio
        .iter()
        .find(|w| w.name() == "dlrm_infer")
        .expect("dlrm_infer exists");
    let sim = options.simulator();
    let times: Vec<f64> = w.invocations().map(|inv| sim.cycles(w, &inv)).collect();

    let mut groups = Vec::new();
    // PKA: cluster membership via its plan's weights is lossy; instead we
    // recompute its grouping the way the plan does — one cluster per
    // representative, membership by matching weights is not recoverable, so
    // we use the sampler's behaviour: invocations with identical feature
    // vectors form the clusters (PKA's k-sweep merges some of them, making
    // the real groups even coarser — this is therefore a *lower bound* on
    // the spread PKA ignores).
    let plan = PkaSampler::new().plan(w, 0);
    for (g, cluster) in plan.clusters().iter().enumerate() {
        // Gather the invocations of this cluster's kernel.
        let members: Vec<usize> = w
            .invocations()
            .enumerate()
            .filter(|(_, inv)| w.kernel_of(inv).name == cluster.kernel)
            .map(|(i, _)| i)
            .collect();
        groups.push(group_diag("PKA", g, &members, &times));
    }
    // Photon: each representative's matched set is a group.
    let analysis = PhotonSampler::new().analyze(w);
    for (g, s) in analysis.plan.samples().iter().enumerate() {
        if s.weight < 50.0 {
            continue; // only show substantial groups, like the figure
        }
        // Membership is not retained by the plan; approximate with the
        // representative's kernel-and-context set.
        let rep = &w.invocation(s.index);
        let members: Vec<usize> = w
            .invocations()
            .enumerate()
            .filter(|(_, inv)| inv.kernel == rep.kernel && inv.context == rep.context)
            .map(|(i, _)| i)
            .collect();
        groups.push(group_diag("Photon", g, &members, &times));
    }

    let mut t = Table::new(&["method", "group", "size", "min", "max", "cov", "peaks"]);
    for g in &groups {
        t.row(vec![
            g.method.clone(),
            g.group.to_string(),
            g.size.to_string(),
            fnum(g.min),
            fnum(g.max),
            fnum(g.cov),
            g.peaks.to_string(),
        ]);
    }
    println!(
        "Figure 10 — spread of kernels treated as identical (DLRM)\n{}",
        t.render()
    );
    write_result("fig10.csv", &t.to_csv());
    groups
}

fn group_diag(method: &str, group: usize, members: &[usize], times: &[f64]) -> IdenticalGroup {
    assert!(!members.is_empty(), "empty identical group");
    let vals: Vec<f64> = members.iter().map(|&i| times[i]).collect();
    let s: Summary = vals.iter().copied().collect();
    let peaks = if vals.len() >= 8 {
        Histogram::from_values(&vals, 32).peak_count(0.2)
    } else {
        1
    };
    IdenticalGroup {
        method: method.to_string(),
        group,
        size: members.len(),
        min: s.min(),
        max: s.max(),
        cov: s.cov(),
        peaks,
    }
}

/// One epsilon-sweep point (Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The error bound used.
    pub epsilon: f64,
    /// CASIO harmonic-mean speedup.
    pub speedup: f64,
    /// CASIO arithmetic-mean error (%).
    pub error_pct: f64,
}

/// Reproduces Figure 11: STEM's speedup/error across error bounds
/// `eps in {3%, 5%, 10%, 25%}` on the CASIO suite.
pub fn fig11(options: &ExperimentOptions) -> Vec<SweepPoint> {
    let workloads = options.suite(SuiteKind::Casio);
    let mut points = Vec::new();
    for eps in [0.03, 0.05, 0.10, 0.25] {
        let mut opts = options.clone();
        opts.stem_config = opts.stem_config.with_epsilon(eps);
        let summaries = eval_method_on_suite(MethodKind::Stem, &workloads, &opts);
        let (speedup, error) = aggregate(&summaries);
        points.push(SweepPoint {
            epsilon: eps,
            speedup,
            error_pct: error,
        });
    }
    let mut t = Table::new(&["epsilon", "speedup", "error_pct"]);
    for p in &points {
        t.row(vec![fnum(p.epsilon), fnum(p.speedup), fnum(p.error_pct)]);
    }
    println!("Figure 11 — error-bound sweep (CASIO)\n{}", t.render());
    write_result("fig11.csv", &t.to_csv());
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_groups_span_wide_ranges() {
        let opts = ExperimentOptions::fast();
        let groups = fig10(&opts);
        assert!(!groups.is_empty());
        // At least one PKA group must span a wide (>2x) time range — the
        // figure's point.
        let wide = groups
            .iter()
            .filter(|g| g.method == "PKA")
            .any(|g| g.max / g.min > 2.0);
        assert!(wide, "no wide PKA group found: {groups:?}");
    }

    #[test]
    fn fig11_monotone_tradeoff() {
        let mut opts = ExperimentOptions::fast();
        opts.reps = 2;
        let points = fig11(&opts);
        assert_eq!(points.len(), 4);
        // Speedup grows with epsilon.
        for pair in points.windows(2) {
            assert!(
                pair[1].speedup > pair[0].speedup,
                "speedup not monotone: {points:?}"
            );
        }
        // Error stays below each bound.
        for p in &points {
            assert!(
                p.error_pct / 100.0 <= p.epsilon,
                "error {} above bound {}",
                p.error_pct,
                p.epsilon
            );
        }
    }
}
