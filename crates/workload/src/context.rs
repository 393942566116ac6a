//! Runtime contexts: why identical kernels behave differently.
//!
//! The paper observes (Sec. 2.1) that a kernel like `sgemm` launched with
//! identical code and geometry still shows multiple distinct performance
//! peaks and wide jitter, because each invocation operates on different
//! data (activations vs weights), from different levels of the memory
//! hierarchy, with different sparsity and alignment. We model each such
//! *usage* as a [`RuntimeContext`]: a set of multipliers on the kernel's
//! work, footprint and locality plus a jitter level. One context produces
//! one histogram peak; several contexts produce the multi-modal histograms
//! of Figure 1.

use crate::error::{WorkloadError, WorkloadErrorKind};

/// One runtime usage pattern of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeContext {
    /// Multiplies the kernel's per-thread instruction count.
    pub work_scale: f64,
    /// Multiplies the kernel's memory footprint.
    pub footprint_scale: f64,
    /// Multiplies the *effective* cache capacity seen by this usage —
    /// values above 1 model cache-friendly access (data resident in L2 from
    /// a producer kernel), below 1 model cache-hostile access (random
    /// embedding lookups).
    pub locality_boost: f64,
    /// Base coefficient of variation of multiplicative runtime jitter. The
    /// simulator scales this up for memory-bound kernels (their latency is
    /// at the mercy of DRAM contention) and down for compute-bound ones.
    pub jitter_cov: f64,
}

impl RuntimeContext {
    /// A neutral context: no scaling, mild jitter.
    pub fn neutral() -> Self {
        RuntimeContext {
            work_scale: 1.0,
            footprint_scale: 1.0,
            locality_boost: 1.0,
            jitter_cov: 0.02,
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if any scale is nonpositive or non-finite,
    /// or `jitter_cov` is outside `[0, 3]` (implausibly large jitter).
    pub fn try_validate(&self) -> Result<(), WorkloadError> {
        let fail = |message: String| Err(WorkloadError::new(WorkloadErrorKind::Context, message));
        if !(self.work_scale > 0.0 && self.work_scale.is_finite()) {
            return fail("work_scale must be positive".to_string());
        }
        if !(self.footprint_scale > 0.0 && self.footprint_scale.is_finite()) {
            return fail("footprint_scale must be positive".to_string());
        }
        if !(self.locality_boost > 0.0 && self.locality_boost.is_finite()) {
            return fail("locality_boost must be positive".to_string());
        }
        if !(0.0..=3.0).contains(&self.jitter_cov) {
            return fail(format!(
                "jitter_cov must be in [0, 3], got {}",
                self.jitter_cov
            ));
        }
        Ok(())
    }

    /// Panicking convenience wrapper over [`RuntimeContext::try_validate`].
    ///
    /// # Panics
    ///
    /// Panics on any violation [`RuntimeContext::try_validate`] reports.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Returns a copy with a different work scale.
    pub fn with_work(mut self, scale: f64) -> Self {
        self.work_scale = scale;
        self
    }

    /// Returns a copy with a different locality boost.
    pub fn with_locality(mut self, boost: f64) -> Self {
        self.locality_boost = boost;
        self
    }

    /// Returns a copy with a different footprint scale.
    pub fn with_footprint(mut self, scale: f64) -> Self {
        self.footprint_scale = scale;
        self
    }

    /// Returns a copy with a different jitter CoV.
    pub fn with_jitter(mut self, cov: f64) -> Self {
        self.jitter_cov = cov;
        self
    }
}

impl Default for RuntimeContext {
    fn default() -> Self {
        RuntimeContext::neutral()
    }
}

/// How invocations cycle through a kernel's contexts over the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextSchedule {
    /// Each invocation draws a context at random with the given weights
    /// (the common case for batched ML workloads).
    Weighted(Vec<f64>),
    /// Contexts are visited round-robin (layer-by-layer iteration).
    Cyclic,
    /// Explicit phases: `(context, count)` runs in order (prefill phase
    /// followed by decode phase, warmup followed by steady state, ...).
    Phased(Vec<(usize, usize)>),
}

impl ContextSchedule {
    /// Validates the schedule against the number of contexts it indexes.
    ///
    /// # Panics
    ///
    /// Panics if weights are not positive-summed and matching in length, or
    /// phase indices are out of range.
    pub fn validate(&self, num_contexts: usize) {
        match self {
            ContextSchedule::Weighted(weights) => {
                assert_eq!(
                    weights.len(),
                    num_contexts,
                    "one weight per context required"
                );
                assert!(
                    weights.iter().all(|&w| w >= 0.0),
                    "weights must be nonnegative"
                );
                assert!(
                    weights.iter().sum::<f64>() > 0.0,
                    "weights must not all be zero"
                );
            }
            ContextSchedule::Cyclic => {
                assert!(num_contexts > 0, "cyclic schedule needs contexts");
            }
            ContextSchedule::Phased(phases) => {
                assert!(!phases.is_empty(), "phased schedule needs phases");
                for &(ctx, count) in phases {
                    assert!(ctx < num_contexts, "phase context {ctx} out of range");
                    assert!(count > 0, "phase count must be positive");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_is_valid() {
        RuntimeContext::neutral().validate();
    }

    #[test]
    fn with_methods_chain() {
        let c = RuntimeContext::neutral()
            .with_work(2.0)
            .with_locality(0.5)
            .with_footprint(3.0)
            .with_jitter(0.4);
        c.validate();
        assert_eq!(c.work_scale, 2.0);
        assert_eq!(c.locality_boost, 0.5);
        assert_eq!(c.footprint_scale, 3.0);
        assert_eq!(c.jitter_cov, 0.4);
    }

    #[test]
    #[should_panic(expected = "work_scale must be positive")]
    fn zero_work_rejected() {
        RuntimeContext::neutral().with_work(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "jitter_cov must be in")]
    fn huge_jitter_rejected() {
        RuntimeContext::neutral().with_jitter(5.0).validate();
    }

    #[test]
    fn weighted_schedule_validation() {
        ContextSchedule::Weighted(vec![1.0, 2.0]).validate(2);
    }

    #[test]
    #[should_panic(expected = "one weight per context")]
    fn weighted_length_mismatch() {
        ContextSchedule::Weighted(vec![1.0]).validate(2);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_rejected() {
        ContextSchedule::Weighted(vec![0.0, 0.0]).validate(2);
    }

    #[test]
    fn phased_schedule_validation() {
        ContextSchedule::Phased(vec![(0, 10), (1, 5)]).validate(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn phased_out_of_range() {
        ContextSchedule::Phased(vec![(3, 10)]).validate(2);
    }
}
