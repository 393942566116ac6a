//! The sampling-method interface.

use crate::error::StemError;
use crate::plan::SamplingPlan;
use gpu_workload::Workload;

/// A kernel-level sampling method: given a workload (and whatever profile
/// data the method's construction baked in), produce a [`SamplingPlan`].
///
/// `rep_seed` varies across the experiment's repetitions (the paper repeats
/// every experiment 10 times and averages): it must drive all random draws
/// of the method (random sampling with replacement, k-means++ seeding, ...)
/// so that repetitions differ while everything stays reproducible.
///
/// Samplers must be `Send + Sync`: the evaluation pipeline plans
/// repetitions on `stem-par` worker threads, sharing the sampler by
/// reference. Plans stay deterministic regardless — every random draw is
/// keyed on `rep_seed`, never on thread identity.
pub trait KernelSampler: Send + Sync {
    /// Short method name as used in the paper's tables ("STEM", "PKA",
    /// "Sieve", "Photon", "Random").
    fn name(&self) -> &'static str;

    /// Builds a sampling plan for `workload`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on empty workloads; callers that cannot
    /// tolerate a panic should go through [`KernelSampler::try_plan`].
    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan;

    /// Fallible variant of [`KernelSampler::plan`]: rejects workloads with
    /// no invocations *before* dispatching to the implementation, so no
    /// sampler — built-in or user-supplied — can be panicked by an empty
    /// workload through this entry point. Supervised execution paths
    /// ([`crate::Pipeline::run_campaign`] and friends) plan through this
    /// method so degenerate inputs surface as typed errors, not retries.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::EmptyWorkload`] if the workload has no
    /// invocations.
    fn try_plan(&self, workload: &Workload, rep_seed: u64) -> Result<SamplingPlan, StemError> {
        if workload.num_invocations() == 0 {
            return Err(StemError::EmptyWorkload);
        }
        Ok(self.plan(workload, rep_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::WeightedSample;

    /// The trait is object safe (samplers are stored as `&dyn` in the
    /// experiment harness).
    #[test]
    fn object_safety() {
        struct Trivial;
        impl KernelSampler for Trivial {
            fn name(&self) -> &'static str {
                "trivial"
            }
            fn plan(&self, workload: &Workload, _rep_seed: u64) -> SamplingPlan {
                let n = workload.num_invocations() as f64;
                SamplingPlan::new(self.name(), vec![WeightedSample::new(0, n)], vec![], 0.0)
            }
        }
        let boxed: Box<dyn KernelSampler> = Box::new(Trivial);
        assert_eq!(boxed.name(), "trivial");
    }
}
