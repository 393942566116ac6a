//! Configuration of the STEM+ROOT sampler.

use gpu_sim::GpuConfig;
use stem_stats::normal::z_for_confidence;

/// Hyperparameters of STEM+ROOT (paper Sec. 4, "Replication &
/// Hyperparameters": `epsilon = 0.05`, 95% confidence (`z = 1.96`), `k = 2`
/// for each of ROOT's splits).
#[derive(Debug, Clone, PartialEq)]
pub struct StemConfig {
    /// Desired upper bound on the theoretical sampling error (fraction).
    pub epsilon: f64,
    /// Two-sided confidence level for the bound.
    pub confidence: f64,
    /// Number of sub-clusters per ROOT split (the paper uses 2 and notes
    /// any value >= 2 works).
    pub k_split: usize,
    /// Clusters smaller than this are never split further.
    pub min_split_size: usize,
    /// Recursion depth cap (a safety net; real workloads terminate by the
    /// tau test long before this).
    pub max_depth: usize,
    /// Profiling machine (the paper profiles on an RTX 2080).
    pub profile_config: GpuConfig,
    /// Seed for profiling measurement noise.
    pub profile_seed: u64,
    /// Replace the normal critical value with Student's t (df = m - 1) for
    /// clusters whose sample size falls below the CLT's m >= 30 rule of
    /// thumb (Sec. 3.2). Off by default: the paper uses z = 1.96 throughout.
    pub small_sample_correction: bool,
}

impl StemConfig {
    /// The paper's evaluation settings.
    pub fn paper() -> Self {
        StemConfig {
            epsilon: 0.05,
            confidence: 0.95,
            k_split: 2,
            min_split_size: 8,
            max_depth: 32,
            profile_config: GpuConfig::rtx2080(),
            profile_seed: 0xC0FFEE,
            small_sample_correction: false,
        }
    }

    /// Returns a copy with a different error bound (the Fig. 11 sweep).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        self.epsilon = epsilon;
        self
    }

    /// Returns a copy profiling on a different machine (the Fig. 13
    /// H100-profile/H200-simulate experiment).
    pub fn with_profile_config(mut self, config: GpuConfig) -> Self {
        self.profile_config = config;
        self
    }

    /// Returns a copy with the Student-t small-sample correction enabled.
    pub fn with_small_sample_correction(mut self) -> Self {
        self.small_sample_correction = true;
        self
    }

    /// The standard score `z_{1-alpha/2}` for the configured confidence.
    pub fn z(&self) -> f64 {
        z_for_confidence(self.confidence)
    }

    /// Validates hyperparameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0, 1)"
        );
        assert!(
            self.confidence > 0.0 && self.confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        assert!(self.k_split >= 2, "k_split must be at least 2");
        assert!(
            self.min_split_size >= 2,
            "min_split_size must be at least 2"
        );
        assert!(self.max_depth >= 1, "max_depth must be at least 1");
        self.profile_config.validate();
    }
}

impl Default for StemConfig {
    fn default() -> Self {
        StemConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings() {
        let c = StemConfig::paper();
        c.validate();
        assert_eq!(c.epsilon, 0.05);
        assert_eq!(c.k_split, 2);
        assert!((c.z() - 1.96).abs() < 0.01);
    }

    #[test]
    fn epsilon_sweep_values_valid() {
        for eps in [0.03, 0.05, 0.10, 0.25] {
            StemConfig::paper().with_epsilon(eps).validate();
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn epsilon_one_rejected() {
        StemConfig::paper().with_epsilon(1.0);
    }

    #[test]
    fn profile_config_override() {
        let c = StemConfig::paper().with_profile_config(GpuConfig::h100());
        assert_eq!(c.profile_config.name, "h100");
    }
}
