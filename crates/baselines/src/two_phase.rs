//! Two-phase stratified sampling (after Ekman's two-phase CPU simulation
//! method, ported to GPU kernel-level sampling).
//!
//! Strata are kernel *names* — the cheapest static partition available.
//! Phase 1 draws a small pilot from every stratum to estimate each
//! stratum's execution-time variance; phase 2 spends the remaining budget
//! by Neyman allocation (`m_h ∝ N_h σ_h`), which is the variance-optimal
//! split the pilot makes computable. Strata whose pilot shows zero
//! variance get only the floor sample, and the total budget is sized so
//! the analytic CLT half-width meets the relative-error target.

use std::collections::BTreeMap;

use gpu_sim::WeightedSample;
use gpu_workload::Workload;
use stem_core::plan::{ClusterSummary, SamplingPlan};
use stem_core::rng::{RngExt, SeedableRng, StdRng};
use stem_core::sampler::KernelSampler;
use stem_stats::student_t::t_for_confidence;
use stem_stats::z_for_confidence;

use crate::stratum;

/// Seed-mixing constant for the two-phase draw stream.
const TWO_PHASE_SALT: u64 = 0x0002_fa5e;
/// Phase-1 pilot draws per stratum: large enough that heavy-tailed strata
/// (e.g. a 20%-burst mixture) land in the pilot with near certainty.
const PILOT: usize = 32;
/// Relative error target driving the phase-2 budget.
const EPSILON: f64 = 0.05;
/// Confidence level of the budget and of the reported interval.
const CONFIDENCE: f64 = 0.95;

/// Two-phase stratified sampler: pilot variance estimation, then Neyman
/// allocation.
///
/// # Example
///
/// ```
/// use gpu_workload::suites::rodinia_suite;
/// use stem_baselines::TwoPhaseSampler;
/// use stem_core::sampler::KernelSampler;
///
/// let w = &rodinia_suite(1)[0];
/// let plan = TwoPhaseSampler::new().plan(w, 0);
/// assert!(plan.num_samples() >= 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TwoPhaseSampler;

impl TwoPhaseSampler {
    /// Two-phase sampling with the paper-matched defaults: a 32-draw
    /// pilot per stratum, a 5% error target at 95% confidence, profile
    /// times measured on the RTX 2080 profile rig.
    pub fn new() -> Self {
        TwoPhaseSampler
    }
}

/// Upper confidence limit of a pilot sigma estimate. The sampling
/// variance of a variance estimate is `Var(s²) ≈ σ⁴ (κ − 1) / p` with
/// `κ` the stratum's kurtosis, so a `p`-draw pilot into a heavy-tailed
/// stratum (a 20%-burst mixture has κ well above the Gaussian 3) lands
/// low with real probability. Working from `s² (1 + z √((κ̂ − 1)/p))`
/// instead of `s²` keeps both the Neyman budget and the reported
/// interval honest; for near-Gaussian strata the inflation is modest.
fn pilot_sigma_upper(vals: &[f64], mean: f64, sigma: f64, z: f64) -> f64 {
    if sigma <= 0.0 || vals.is_empty() {
        return sigma;
    }
    let p = vals.len() as f64;
    let m4 = vals.iter().map(|&v| (v - mean).powi(4)).sum::<f64>() / p;
    let kurtosis = m4 / sigma.powi(4);
    let inflation = 1.0 + z * ((kurtosis - 1.0).max(0.0) / p).sqrt();
    sigma * inflation.sqrt()
}

impl KernelSampler for TwoPhaseSampler {
    fn name(&self) -> &'static str {
        "TwoPhase"
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        let n = workload.num_invocations();
        assert!(n > 0, "cannot sample an empty workload");
        let times = stratum::profile_times(workload);
        let groups: BTreeMap<&str, Vec<usize>> = workload.invocations_by_kernel_name();
        let mut rng = StdRng::seed_from_u64(rep_seed ^ TWO_PHASE_SALT);
        let z = z_for_confidence(CONFIDENCE);

        // Phase 1: pilot every stratum. Small strata are enumerated
        // outright (population sigma, exact); large strata get `pilot`
        // draws with replacement, and the sample sigma is inflated to its
        // kurtosis-aware upper confidence limit — a pilot into a bursty
        // mixture underestimates sigma often enough that sizing and
        // reporting from the point estimate loses coverage. The
        // degenerate-stratum guard in `stratum` keeps constant strata at
        // sigma exactly 0.
        let mut names = Vec::with_capacity(groups.len());
        let mut sizes = Vec::with_capacity(groups.len());
        let mut sigmas = Vec::with_capacity(groups.len());
        let mut means = Vec::with_capacity(groups.len());
        for (name, members) in &groups {
            let (mean, sigma) = if members.len() <= PILOT {
                let vals: Vec<f64> = members.iter().map(|&i| times[i]).collect();
                stratum::mean_and_sigma(&vals)
            } else {
                let vals: Vec<f64> = (0..PILOT)
                    .map(|_| times[members[rng.random_range(0..members.len())]])
                    .collect();
                let (mean, _) = stratum::mean_and_sigma(&vals);
                (
                    mean,
                    pilot_sigma_upper(&vals, mean, stratum::sample_sigma(&vals), z),
                )
            };
            names.push(*name);
            sizes.push(members.len() as u64);
            sigmas.push(sigma);
            means.push(mean);
        }

        // Phase-2 budget from the pilot: under Neyman allocation the CLT
        // half-width is z (Σ N_h σ_h) / (√m T̂), so the eps target needs
        // m ≥ (z Σ N_h σ_h / (eps T̂))².
        let t_hat: f64 = sizes
            .iter()
            .zip(&means)
            .map(|(&n_h, &mu)| n_h as f64 * mu)
            .sum();
        let weighted_sigma: f64 = sizes
            .iter()
            .zip(&sigmas)
            .map(|(&n_h, &s)| n_h as f64 * s)
            .sum();
        let m_total = if t_hat > 0.0 && weighted_sigma > 0.0 {
            let ratio = z * weighted_sigma / (EPSILON * t_hat);
            (ratio * ratio).ceil() as u64
        } else {
            groups.len() as u64
        }
        .clamp(groups.len() as u64, n as u64);

        let alloc: Vec<u64> = stratum::neyman_allocation(&sizes, &sigmas, m_total)
            .iter()
            .zip(&sizes)
            .map(|(&m, &n_h)| m.min(n_h))
            .collect();

        // Phase 2: stratified draw on the same seeded stream. Fully
        // allocated strata are enumerated exactly at weight 1.
        let mut samples = Vec::new();
        let mut summaries = Vec::with_capacity(groups.len());
        let mut variance = 0.0;
        for (h, (name, members)) in groups.iter().enumerate() {
            let n_h = members.len();
            let m_h = alloc[h];
            if m_h as usize >= n_h {
                for &i in members {
                    samples.push(WeightedSample::new(i, 1.0));
                }
            } else {
                let weight = n_h as f64 / m_h as f64;
                for _ in 0..m_h {
                    let i = members[rng.random_range(0..n_h)];
                    samples.push(WeightedSample::new(i, weight));
                }
                // Only sampled strata contribute estimator variance.
                variance += (n_h as f64 * sigmas[h]).powi(2) / m_h as f64;
            }
            summaries.push(ClusterSummary {
                kernel: (*name).to_string(),
                population: n_h as u64,
                mean_time: means[h],
                std_time: sigmas[h],
                samples: m_h,
            });
        }

        // The reported interval uses Student-t at the pilot's degrees of
        // freedom rather than z: the per-stratum sigmas behind it come
        // from a `pilot`-draw estimate, and the small-sample correction
        // keeps the bound honest (same rationale as the workspace's
        // small-sample ablation).
        let predicted = if t_hat > 0.0 {
            let t = t_for_confidence(CONFIDENCE, (PILOT - 1) as f64);
            let pe = t * variance.max(0.0).sqrt() / t_hat;
            if pe.is_finite() && pe >= 0.0 {
                pe
            } else {
                0.0
            }
        } else {
            0.0
        };
        SamplingPlan::new(self.name(), samples, summaries, predicted)
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
        let s = TwoPhaseSampler::new();
        assert_eq!(s.plan(w, 9), s.plan(w, 9));
        assert_ne!(s.plan(w, 9).samples(), s.plan(w, 10).samples());
    }

    #[test]
    fn every_kernel_stratum_is_represented() {
        let w = &rodinia_suite(3)[0];
        let plan = TwoPhaseSampler::new().plan(w, 0);
        let groups = w.invocations_by_kernel_name();
        for (name, members) in &groups {
            let hit = plan.samples().iter().any(|s| members.contains(&s.index));
            assert!(hit, "stratum {name} must receive at least one sample");
        }
        assert_eq!(plan.clusters().len(), groups.len());
    }

    #[test]
    fn estimator_lands_inside_its_own_interval_most_of_the_time() {
        let suite = rodinia_suite(3);
        let w = suite.iter().find(|w| w.name() == "srad").expect("srad");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let sampler = TwoPhaseSampler::new();
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
    fn longtail_singleton_strata_get_exact_enumeration() {
        let w = longtail_skew(9).materialize();
        let plan = TwoPhaseSampler::new().plan(&w, 2);
        assert!(plan.predicted_error().is_finite());
        let groups = w.invocations_by_kernel_name();
        for (name, members) in &groups {
            if members.len() == 1 {
                let s = plan
                    .samples()
                    .iter()
                    .find(|s| s.index == members[0])
                    .unwrap_or_else(|| panic!("singleton {name} missing"));
                assert_eq!(s.weight, 1.0, "singleton {name} is exact, not extrapolated");
            }
        }
    }

    #[test]
    fn budget_never_exceeds_population() {
        let w = longtail_skew(4).materialize();
        let plan = TwoPhaseSampler::new().plan(&w, 7);
        assert!(plan.num_samples() <= w.num_invocations());
        for c in plan.clusters() {
            assert!(c.samples <= c.population, "{}: {c:?}", c.kernel);
        }
    }
}
