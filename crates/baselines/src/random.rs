//! Uniform random kernel sampling.
//!
//! Each invocation is selected independently with probability `p`; the
//! estimator is the Horvitz–Thompson weighted sum (`weight = 1/p`). The
//! paper samples 10% on Rodinia and 0.1% on CASIO/HuggingFace (Table 3
//! footnote) and uses this as the only feasible baseline at HuggingFace
//! scale.

use gpu_sim::WeightedSample;
use gpu_workload::{SuiteKind, Workload};
use stem_core::plan::SamplingPlan;
use stem_core::rng::{RngExt, SeedableRng, StdRng};
use stem_core::sampler::KernelSampler;

/// Uniform random sampler with inclusion probability `p`.
///
/// # Example
///
/// ```
/// use gpu_workload::suites::rodinia_suite;
/// use stem_baselines::RandomSampler;
/// use stem_core::sampler::KernelSampler;
///
/// let w = &rodinia_suite(1)[0];
/// let plan = RandomSampler::new(0.10).plan(w, 0);
/// // Horvitz-Thompson weights: every sample counts for 1/p invocations.
/// assert!(plan.samples().iter().all(|s| s.weight == 10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSampler {
    mode: Mode,
}

/// How the inclusion probability is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// A fixed probability, whatever the workload.
    Fixed(f64),
    /// Resolve the paper's per-suite rate from each workload's suite tag
    /// at plan time.
    PerSuite,
}

impl RandomSampler {
    /// Creates a sampler with inclusion probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn new(probability: f64) -> Self {
        assert!(
            probability > 0.0 && probability <= 1.0,
            "inclusion probability must be in (0, 1], got {probability}"
        );
        RandomSampler {
            mode: Mode::Fixed(probability),
        }
    }

    /// The paper's per-suite rates: 10% for Rodinia, 0.1% for CASIO and
    /// HuggingFace (and for custom workloads).
    pub fn for_suite(suite: SuiteKind) -> Self {
        match suite {
            SuiteKind::Rodinia => RandomSampler::new(0.10),
            _ => RandomSampler::new(0.001),
        }
    }

    /// A sampler that resolves [`RandomSampler::for_suite`] from each
    /// workload's own suite tag at plan time — the form the sampler
    /// registry registers, since a registry constructor sees no workload.
    pub fn auto() -> Self {
        RandomSampler {
            mode: Mode::PerSuite,
        }
    }

    /// The configured inclusion probability.
    ///
    /// # Panics
    ///
    /// Panics for [`RandomSampler::auto`] samplers, whose probability is
    /// only known once a workload (hence a suite) is in hand.
    pub fn probability(&self) -> f64 {
        match self.mode {
            Mode::Fixed(p) => p,
            Mode::PerSuite => panic!("auto() sampler has no fixed probability"),
        }
    }
}

impl KernelSampler for RandomSampler {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        let n = workload.num_invocations();
        assert!(n > 0, "cannot sample an empty workload");
        let probability = match self.mode {
            Mode::Fixed(p) => p,
            Mode::PerSuite => Self::for_suite(workload.suite()).probability(),
        };
        let mut rng = StdRng::seed_from_u64(rep_seed ^ 0x5eed_5eed);
        let weight = 1.0 / probability;
        let mut samples: Vec<WeightedSample> = (0..n)
            .filter(|_| rng.random::<f64>() < probability)
            .map(|i| WeightedSample::new(i, weight))
            .collect();
        if samples.is_empty() {
            // Degenerate tiny-workload case: force one sample, weighted to
            // the population (keeps the estimator usable).
            let pick = rng.random_range(0..n);
            samples.push(WeightedSample::new(pick, n as f64));
        }
        SamplingPlan::new(self.name(), samples, vec![], 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, Simulator};
    use gpu_workload::suites::{casio_suite, rodinia_suite};

    #[test]
    fn sample_count_tracks_probability() {
        let suite = casio_suite(2);
        let w = &suite[0];
        let plan = RandomSampler::new(0.001).plan(w, 7);
        let expected = w.num_invocations() as f64 * 0.001;
        let got = plan.num_samples() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 5.0,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn estimator_is_unbiased_on_stationary_workload() {
        let suite = rodinia_suite(2);
        let w = suite.iter().find(|w| w.name() == "cfd").expect("cfd");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let sampler = RandomSampler::new(0.10);
        // Average estimate over reps approaches the truth.
        let mut est = 0.0;
        let reps = 20;
        for r in 0..reps {
            let plan = sampler.plan(w, r);
            est += sim.run_sampled(w, plan.samples()).estimated_total_cycles;
        }
        est /= reps as f64;
        let rel = (est - full.total_cycles).abs() / full.total_cycles;
        assert!(rel < 0.05, "bias {rel}");
    }

    #[test]
    fn suite_rates_match_paper() {
        assert_eq!(
            RandomSampler::for_suite(SuiteKind::Rodinia).probability(),
            0.10
        );
        assert_eq!(
            RandomSampler::for_suite(SuiteKind::Casio).probability(),
            0.001
        );
        assert_eq!(
            RandomSampler::for_suite(SuiteKind::Huggingface).probability(),
            0.001
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let suite = rodinia_suite(2);
        let w = &suite[0];
        let s = RandomSampler::new(0.1);
        assert_eq!(s.plan(w, 3), s.plan(w, 3));
        assert_ne!(s.plan(w, 3).samples(), s.plan(w, 4).samples());
    }

    #[test]
    fn tiny_workload_still_sampled() {
        let suite = rodinia_suite(2);
        let km = suite.iter().find(|w| w.name() == "kmeans").expect("kmeans");
        let plan = RandomSampler::new(0.001).plan(km, 1);
        assert!(plan.num_samples() >= 1);
    }

    #[test]
    fn auto_mode_matches_the_suite_rate() {
        let suite = rodinia_suite(2);
        let w = &suite[0];
        assert_eq!(
            RandomSampler::auto().plan(w, 5),
            RandomSampler::for_suite(SuiteKind::Rodinia).plan(w, 5)
        );
    }

    #[test]
    #[should_panic(expected = "no fixed probability")]
    fn auto_mode_has_no_fixed_probability() {
        RandomSampler::auto().probability();
    }

    #[test]
    #[should_panic(expected = "inclusion probability")]
    fn zero_probability_rejected() {
        RandomSampler::new(0.0);
    }
}
