//! Ranked set sampling with repeated subsampling (after Ekman's CPU
//! simulation method, ported to GPU kernel-level sampling).
//!
//! The method needs no clustering: invocations are *ranked* by a cheap
//! static proxy (total dynamic instructions, known without running
//! anything), the ranked order is cut into `H` equal rank strata, and a
//! per-stratum budget proportional to stratum size is drawn with
//! replacement. Ranking by a correlate of execution time makes each
//! stratum internally homogeneous, which shrinks the stratified
//! estimator's variance relative to uniform sampling at the same budget.
//!
//! Its distinguishing feature is the error report: instead of a purely
//! analytic CLT bound, the whole stratified draw is repeated `R` times
//! with derived seeds, and the confidence interval is the *empirical*
//! spread (Student-t over the `R` subsample estimates) of the resulting
//! totals. That makes the interval an independent mechanism from STEM's
//! CLT/KKT prediction — the coverage calibration suite cross-checks the
//! two on every clean run.

use gpu_sim::WeightedSample;
use gpu_workload::Workload;
use stem_core::plan::{ClusterSummary, SamplingPlan};
use stem_core::rng::{RngExt, SeedableRng, StdRng};
use stem_core::sampler::KernelSampler;
use stem_stats::student_t::t_for_confidence;
use stem_stats::z_for_confidence;

use crate::stratum;

/// Seed-mixing constant for the RSS draw stream.
const RSS_SALT: u64 = 0xa55e_55ed;
/// Per-subsample seed stride (golden-ratio multiplier, the workspace's
/// usual stream splitter).
const SUBSAMPLE_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rank strata `H`.
const STRATA: usize = 12;
/// Repeated subsamples `R` behind the empirical CI.
const SUBSAMPLES: usize = 24;
/// Relative error target driving the total budget.
const EPSILON: f64 = 0.05;
/// Confidence level of the budget and of the reported interval.
const CONFIDENCE: f64 = 0.95;

/// Ranked set sampling with repeated subsampling.
///
/// # Example
///
/// ```
/// use gpu_workload::suites::rodinia_suite;
/// use stem_baselines::RssSampler;
/// use stem_core::sampler::KernelSampler;
///
/// let w = &rodinia_suite(1)[0];
/// let plan = RssSampler::new().plan(w, 0);
/// assert!(plan.num_samples() >= 1);
/// // The empirical subsampling CI is carried as the predicted error.
/// assert!(plan.predicted_error().is_finite());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RssSampler;

impl RssSampler {
    /// RSS with the paper-matched defaults: 12 rank strata, 24 repeated
    /// subsamples, a 5% error target at 95% confidence, profile times
    /// measured on the RTX 2080 profile rig.
    pub fn new() -> Self {
        RssSampler
    }

    /// Ranks invocations by the static proxy, cuts rank strata, sizes the
    /// budget, and performs all `R` stratified draws.
    fn plan_internals(&self, workload: &Workload, rep_seed: u64) -> RssInternals {
        let n = workload.num_invocations();
        assert!(n > 0, "cannot sample an empty workload");
        let times = stratum::profile_times(workload);

        // Rank by the free static proxy: per-invocation dynamic
        // instructions (kernel instructions x context work x call work).
        let proxy: Vec<f64> = workload
            .invocations()
            .map(|inv| {
                workload.kernel_of(&inv).total_instructions() as f64
                    * workload.context_of(&inv).work_scale
                    * inv.work_scale as f64
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| proxy[a].total_cmp(&proxy[b]).then(a.cmp(&b)));

        // Equal-size rank strata (the first n % H strata get one extra).
        let h_count = STRATA.min(n);
        let base = n / h_count;
        let extra = n % h_count;
        let mut strata: Vec<&[usize]> = Vec::with_capacity(h_count);
        let mut start = 0usize;
        for h in 0..h_count {
            let len = base + usize::from(h < extra);
            strata.push(&order[start..start + len]);
            start += len;
        }

        let stats: Vec<(f64, f64)> = strata
            .iter()
            .map(|members| {
                let vals: Vec<f64> = members.iter().map(|&i| times[i]).collect();
                stratum::mean_and_sigma(&vals)
            })
            .collect();
        let total_time: f64 = strata
            .iter()
            .zip(&stats)
            .map(|(members, &(mean, _))| members.len() as f64 * mean)
            .sum();

        // Budget from the proportional-allocation CLT: with m_h = m N_h/n,
        // Var(T) = (n/m) * sum N_h sigma_h^2, so meeting
        // z sqrt(Var) <= eps T needs m >= n z^2 sum N_h sigma_h^2 / (eps T)^2.
        let z = z_for_confidence(CONFIDENCE);
        let weighted_var: f64 = strata
            .iter()
            .zip(&stats)
            .map(|(members, &(_, sigma))| members.len() as f64 * sigma * sigma)
            .sum();
        let m_total = if total_time > 0.0 && weighted_var > 0.0 {
            let target = EPSILON * total_time;
            (n as f64 * z * z * weighted_var / (target * target)).ceil() as u64
        } else {
            h_count as u64
        }
        .clamp(h_count as u64, n as u64);

        let sizes: Vec<u64> = strata.iter().map(|m| m.len() as u64).collect();
        let alloc: Vec<u64> = stratum::proportional_allocation(&sizes, m_total)
            .iter()
            .zip(&sizes)
            .map(|(&m, &n_h)| m.min(n_h))
            .collect();

        // R repeated stratified subsamples. Subsample 0 doubles as the
        // plan's actual sample set; all R feed the empirical CI.
        let mut estimates = Vec::with_capacity(SUBSAMPLES);
        let mut samples = Vec::new();
        for r in 0..SUBSAMPLES {
            let mut rng = StdRng::seed_from_u64(
                rep_seed ^ RSS_SALT ^ (r as u64).wrapping_mul(SUBSAMPLE_STRIDE),
            );
            let mut total = 0.0;
            for (members, &m_h) in strata.iter().zip(&alloc) {
                let n_h = members.len();
                if m_h as usize >= n_h {
                    // Exact stratum: enumerate every member at weight 1.
                    for &i in members.iter() {
                        total += times[i];
                        if r == 0 {
                            samples.push(WeightedSample::new(i, 1.0));
                        }
                    }
                } else {
                    let weight = n_h as f64 / m_h as f64;
                    for _ in 0..m_h {
                        let i = members[rng.random_range(0..n_h)];
                        total += weight * times[i];
                        if r == 0 {
                            samples.push(WeightedSample::new(i, weight));
                        }
                    }
                }
            }
            estimates.push(total);
        }

        let summaries: Vec<ClusterSummary> = strata
            .iter()
            .zip(&stats)
            .zip(&alloc)
            .enumerate()
            .map(|(h, ((members, &(mean, sigma)), &m_h))| ClusterSummary {
                kernel: format!("rank{h:02}"),
                population: members.len() as u64,
                mean_time: mean,
                std_time: sigma,
                samples: m_h,
            })
            .collect();

        RssInternals {
            samples,
            summaries,
            estimates,
            analytic_fallback: {
                let var = n as f64 / m_total as f64 * weighted_var;
                if total_time > 0.0 {
                    z * var.sqrt() / total_time
                } else {
                    0.0
                }
            },
        }
    }
}

/// Everything one planning pass produces.
struct RssInternals {
    samples: Vec<WeightedSample>,
    summaries: Vec<ClusterSummary>,
    estimates: Vec<f64>,
    analytic_fallback: f64,
}

impl KernelSampler for RssSampler {
    fn name(&self) -> &'static str {
        "RSS"
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        let internals = self.plan_internals(workload, rep_seed);
        // Empirical CI: Student-t relative half-width over the R repeated
        // subsample totals (t, not z — R-1 degrees of freedom). Reported
        // conservatively as the widest of three mechanisms:
        //  * the empirical t spread — the method's headline interval;
        //  * the analytic CLT bound — with only R subsamples the
        //    empirical sigma itself is noisy, and understating the
        //    interval is the one failure mode a trustworthy bound must
        //    not have;
        //  * the worst observed subsample deviation from the subsample
        //    mean. The plan's sample set IS subsample 0, so this
        //    envelope guarantees the interval covers the very draw the
        //    estimate is built from even when the R totals are
        //    heavy-tailed and the t spread understates the tail.
        let mean = internals.estimates.iter().sum::<f64>() / internals.estimates.len() as f64;
        let spread = stratum::sample_sigma(&internals.estimates);
        let df = (internals.estimates.len() - 1) as f64;
        let empirical = if mean > 0.0 && df >= 1.0 {
            t_for_confidence(CONFIDENCE, df) * spread / mean
        } else {
            0.0
        };
        let envelope = if mean > 0.0 {
            internals
                .estimates
                .iter()
                .map(|&e| (e - mean).abs())
                .fold(0.0, f64::max)
                / mean
        } else {
            0.0
        };
        let predicted = empirical.max(internals.analytic_fallback).max(envelope);
        let predicted = if predicted.is_finite() && predicted >= 0.0 {
            predicted
        } else {
            0.0
        };
        SamplingPlan::new(
            self.name(),
            internals.samples,
            internals.summaries,
            predicted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use gpu_sim::Simulator;
    use gpu_workload::scenarios::longtail_skew;
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn deterministic_per_seed_and_varying_across_seeds() {
        let w = &rodinia_suite(3)[0];
        let s = RssSampler::new();
        assert_eq!(s.plan(w, 5), s.plan(w, 5));
        assert_ne!(s.plan(w, 5).samples(), s.plan(w, 6).samples());
    }

    #[test]
    fn estimator_lands_inside_its_own_interval_most_of_the_time() {
        let suite = rodinia_suite(3);
        let w = suite.iter().find(|w| w.name() == "srad").expect("srad");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let sampler = RssSampler::new();
        let mut covered = 0;
        let reps = 10;
        for r in 0..reps {
            let plan = sampler.plan(w, r);
            let est = sim.run_sampled(w, plan.samples()).estimated_total_cycles;
            if (est - full.total_cycles).abs() <= plan.predicted_error() * est {
                covered += 1;
            }
        }
        assert!(covered >= 8, "covered {covered}/{reps}");
    }

    #[test]
    fn weights_reconstruct_the_population() {
        let w = &rodinia_suite(3)[2];
        let plan = RssSampler::new().plan(w, 1);
        let total: f64 = plan.samples().iter().map(|s| s.weight).sum();
        assert!(
            (total - w.num_invocations() as f64).abs() < 1e-6,
            "total weight {total} vs population {}",
            w.num_invocations()
        );
    }

    #[test]
    fn longtail_degenerate_strata_stay_finite() {
        let w = longtail_skew(9).materialize();
        let plan = RssSampler::new().try_plan(&w, 2).expect("plan");
        assert!(plan.predicted_error().is_finite());
        assert!(plan.clusters().iter().all(|c| c.std_time.is_finite()));
        assert!(plan.num_samples() as u64 <= w.num_invocations() as u64);
    }

    #[test]
    fn tiny_workload_enumerates_exactly() {
        use gpu_workload::kernel::KernelClassBuilder;
        use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};
        let mut b = WorkloadBuilder::new("tiny", SuiteKind::Custom, 1);
        let k = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![RuntimeContext::neutral()],
        );
        for _ in 0..4 {
            b.invoke(k, 0, 1.0);
        }
        let w = b.build();
        let plan = RssSampler::new().plan(&w, 0);
        // Budget clamps to the population: every invocation at weight 1.
        assert_eq!(plan.num_samples(), 4);
        assert!(plan.samples().iter().all(|s| s.weight == 1.0));
    }
}
