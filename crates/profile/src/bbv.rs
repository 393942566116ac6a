//! Basic-block-vector profiling — Photon's kernel signature.
//!
//! Per invocation, the profiler reports how often each static basic block
//! executed. We derive this from the kernel's BBV template: block 0 is the
//! prologue (executes once per thread, work-independent), the remaining
//! blocks are loop bodies scaling with the invocation's work, plus a small
//! deterministic per-invocation perturbation (data-dependent branches).
//!
//! Like PKA's features, BBVs see *control flow* but not *data locality*:
//! two invocations with identical work but different cache residency have
//! near-identical BBVs — Photon's residual 9.85% CASIO error in the paper.

use gpu_workload::{Invocation, Workload};

/// Collects per-invocation basic-block vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BbvProfiler {
    /// Relative amplitude of the data-dependent perturbation.
    noise: NoiseLevel,
}

/// Perturbation amplitude (fixed small default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct NoiseLevel;

const NOISE_AMPLITUDE: f64 = 0.01;

impl BbvProfiler {
    /// Creates the profiler.
    pub fn new() -> Self {
        BbvProfiler::default()
    }

    /// The BBV of the invocation at stream position `index`.
    ///
    /// The vector length equals the kernel's static basic-block count, so
    /// BBVs are only comparable between invocations of the same kernel —
    /// which is how Photon uses them (it matches within kernel name).
    pub fn bbv(&self, workload: &Workload, inv: &Invocation, index: usize) -> Vec<f64> {
        let kernel = workload.kernel_of(inv);
        let ctx = workload.context_of(inv);
        let work = ctx.work_scale * inv.work_scale as f64;
        let threads = kernel.total_threads() as f64;
        kernel
            .bbv_template
            .iter()
            .enumerate()
            .map(|(j, &weight)| {
                let scale = if j == 0 { 1.0 } else { work };
                let u = unit_noise(index as u64, j as u64);
                threads * weight * scale * (1.0 + NOISE_AMPLITUDE * (2.0 * u - 1.0))
            })
            .collect()
    }

    /// Number of warps of the launch (Photon matches "similar BBV and
    /// #warps").
    pub fn num_warps(&self, workload: &Workload, inv: &Invocation) -> u64 {
        workload.kernel_of(inv).total_warps()
    }

    /// BBVs for every invocation, stream order.
    pub fn profile(&self, workload: &Workload) -> Vec<Vec<f64>> {
        workload
            .invocations()
            .enumerate()
            .map(|(i, inv)| self.bbv(workload, &inv, i))
            .collect()
    }
}

/// Deterministic uniform draw in [0, 1) from (index, block).
fn unit_noise(index: u64, block: u64) -> f64 {
    let z = stem_par::mix64(
        index
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(block.wrapping_mul(0xbf58476d1ce4e5b9)),
    );
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::kernel::KernelClassBuilder;
    use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};
    use stem_cluster_distance::bbv_similarity;

    /// Local copy of the BBV similarity to avoid a dependency edge (the
    /// real one lives in stem-cluster and is unit-tested there).
    mod stem_cluster_distance {
        pub fn bbv_similarity(a: &[f64], b: &[f64]) -> f64 {
            let sa: f64 = a.iter().sum();
            let sb: f64 = b.iter().sum();
            let dist: f64 = a.iter().zip(b).map(|(x, y)| (x / sa - y / sb).abs()).sum();
            1.0 - dist / 2.0
        }
    }

    fn two_context_workload(work_b: f64) -> Workload {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let id = b.add_kernel(
            KernelClassBuilder::new("k")
                .bbv(vec![1.0, 8.0, 4.0])
                .build(),
            vec![
                RuntimeContext::neutral(),
                RuntimeContext::neutral()
                    .with_work(work_b)
                    .with_locality(0.3),
            ],
        );
        b.invoke(id, 0, 1.0);
        b.invoke(id, 1, 1.0);
        b.build()
    }

    #[test]
    fn same_work_bbvs_are_similar() {
        // Contexts differing only in locality: BBVs nearly identical.
        let w = two_context_workload(1.0);
        let p = BbvProfiler::new();
        let a = p.bbv(&w, &w.invocation(0), 0);
        let b = p.bbv(&w, &w.invocation(1), 1);
        assert!(bbv_similarity(&a, &b) > 0.97);
    }

    #[test]
    fn different_work_bbvs_differ() {
        // Heavier loop bodies shift the relative block weights.
        let w = two_context_workload(50.0);
        let p = BbvProfiler::new();
        let a = p.bbv(&w, &w.invocation(0), 0);
        let b = p.bbv(&w, &w.invocation(1), 1);
        assert!(
            bbv_similarity(&a, &b) < 0.95,
            "sim = {}",
            bbv_similarity(&a, &b)
        );
    }

    #[test]
    fn bbv_deterministic() {
        let w = two_context_workload(2.0);
        let p = BbvProfiler::new();
        assert_eq!(
            p.bbv(&w, &w.invocation(0), 0),
            p.bbv(&w, &w.invocation(0), 0)
        );
    }

    #[test]
    fn bbv_length_is_static_block_count() {
        let w = two_context_workload(2.0);
        let p = BbvProfiler::new();
        assert_eq!(p.bbv(&w, &w.invocation(0), 0).len(), 3);
    }

    #[test]
    fn warps_constant_per_kernel() {
        let w = two_context_workload(9.0);
        let p = BbvProfiler::new();
        assert_eq!(
            p.num_warps(&w, &w.invocation(0)),
            p.num_warps(&w, &w.invocation(1))
        );
    }
}
