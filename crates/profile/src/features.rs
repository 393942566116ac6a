//! Nsight-Compute-style instruction-level feature vectors — PKA's kernel
//! signature (Table 1: "12 instr. level metrics").
//!
//! PKA's metrics are replay-collected *per-warp statistics*: instruction
//! mix fractions, efficiencies and launch properties. They are rates, not
//! totals, and they are **blind to two things** the paper exploits:
//!
//! 1. *data locality / cache residency* — two invocations differing only in
//!    which level of the hierarchy their data lives in are identical;
//! 2. *per-invocation work* — a Gaussian-elimination kernel whose executed
//!    instruction count shrinks toward zero keeps the same mix fractions,
//!    so all invocations land in one cluster and the first-chronological
//!    representative misestimates badly (the paper's heartwall 99.9% error).

use gpu_workload::{Invocation, Workload};

/// Number of PKA features.
pub const PKA_FEATURE_COUNT: usize = 12;

/// Collects 12 instruction-level metrics per invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureProfiler;

impl FeatureProfiler {
    /// Creates the profiler.
    pub fn new() -> Self {
        FeatureProfiler
    }

    /// The 12-dimensional feature vector of one invocation:
    /// `[fp32_frac, fp16_frac, int_frac, ldst_global_frac,
    /// ldst_shared_frac, branch_frac, special_frac, warp_efficiency,
    /// grid_dim, block_dim, shared_mem, regs_per_thread]`.
    pub fn features(&self, workload: &Workload, inv: &Invocation) -> [f64; PKA_FEATURE_COUNT] {
        let kernel = workload.kernel_of(inv);
        let mix = &kernel.mix;
        [
            mix.fp32,
            mix.fp16,
            mix.int_alu,
            mix.ldst_global,
            mix.ldst_shared,
            mix.branch,
            mix.special,
            1.0 - 0.6 * mix.branch,
            kernel.grid_dim as f64,
            kernel.block_dim as f64,
            kernel.shared_mem_per_cta as f64,
            kernel.regs_per_thread as f64,
        ]
    }

    /// Feature vectors for every invocation.
    pub fn profile(&self, workload: &Workload) -> Vec<[f64; PKA_FEATURE_COUNT]> {
        workload
            .invocations()
            .map(|inv| self.features(workload, &inv))
            .collect()
    }

    /// Z-score-normalizes a feature matrix per dimension (PKA normalizes
    /// before k-means). Constant dimensions become zero.
    ///
    /// # Panics
    ///
    /// Panics on an empty profile.
    pub fn normalize(features: &[[f64; PKA_FEATURE_COUNT]]) -> Vec<Vec<f64>> {
        assert!(!features.is_empty(), "cannot normalize an empty profile");
        let n = features.len() as f64;
        let mut mean = [0.0; PKA_FEATURE_COUNT];
        for f in features {
            for (m, v) in mean.iter_mut().zip(f) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = [0.0; PKA_FEATURE_COUNT];
        for f in features {
            for ((v, m), x) in var.iter_mut().zip(&mean).zip(f) {
                *v += (x - m) * (x - m);
            }
        }
        for v in &mut var {
            *v /= n;
        }
        features
            .iter()
            .map(|f| {
                f.iter()
                    .zip(mean.iter().zip(&var))
                    .map(|(x, (m, v))| if *v > 0.0 { (x - m) / v.sqrt() } else { 0.0 })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::kernel::{InstructionMix, KernelClassBuilder};
    use gpu_workload::suites::casio_suite;
    use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};

    #[test]
    fn feature_count_is_twelve() {
        let suite = casio_suite(1);
        let w = &suite[0];
        let f = FeatureProfiler::new().features(w, &w.invocation(0));
        assert_eq!(f.len(), PKA_FEATURE_COUNT);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn locality_only_contexts_are_invisible() {
        // Two invocations of one kernel whose contexts differ only in
        // locality produce identical feature vectors — PKA's blind spot.
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let id = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![
                RuntimeContext::neutral().with_locality(4.0),
                RuntimeContext::neutral().with_locality(0.2),
            ],
        );
        b.invoke(id, 0, 1.0);
        b.invoke(id, 1, 1.0);
        let w = b.build();
        let p = FeatureProfiler::new();
        assert_eq!(
            p.features(&w, &w.invocation(0)),
            p.features(&w, &w.invocation(1))
        );
    }

    #[test]
    fn work_differences_are_also_invisible() {
        // Rate-based metrics cannot see shrinking per-invocation work —
        // the root of PKA's heartwall/gaussian failures (Sec. 5.1).
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let id = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![RuntimeContext::neutral()],
        );
        b.invoke(id, 0, 1.0 / 1500.0);
        b.invoke(id, 0, 1.0);
        let w = b.build();
        let p = FeatureProfiler::new();
        assert_eq!(
            p.features(&w, &w.invocation(0)),
            p.features(&w, &w.invocation(1))
        );
    }

    #[test]
    fn different_kernels_are_visible() {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let a = b.add_kernel(
            KernelClassBuilder::new("a")
                .mix(InstructionMix::compute_bound())
                .build(),
            vec![RuntimeContext::neutral()],
        );
        let m = b.add_kernel(
            KernelClassBuilder::new("m")
                .mix(InstructionMix::memory_bound())
                .build(),
            vec![RuntimeContext::neutral()],
        );
        b.invoke(a, 0, 1.0);
        b.invoke(m, 0, 1.0);
        let w = b.build();
        let p = FeatureProfiler::new();
        assert_ne!(
            p.features(&w, &w.invocation(0)),
            p.features(&w, &w.invocation(1))
        );
    }

    #[test]
    fn normalize_zero_mean_unit_var() {
        let suite = casio_suite(1);
        let w = &suite[0];
        let p = FeatureProfiler::new();
        let raw: Vec<_> = p.profile(w).into_iter().take(500).collect();
        let norm = FeatureProfiler::normalize(&raw);
        let n = norm.len() as f64;
        for d in 0..PKA_FEATURE_COUNT {
            let mean: f64 = norm.iter().map(|f| f[d]).sum::<f64>() / n;
            assert!(mean.abs() < 1e-9, "dim {d} mean {mean}");
            let var: f64 = norm.iter().map(|f| f[d] * f[d]).sum::<f64>() / n;
            assert!(var < 1.01, "dim {d} var {var}");
        }
    }

    #[test]
    #[should_panic(expected = "empty profile")]
    fn normalize_rejects_empty() {
        FeatureProfiler::normalize(&[]);
    }
}
