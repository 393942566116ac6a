//! Per-invocation microarchitectural metrics (the 13 of Sec. 5.5).
//!
//! Derived deterministically from the same timing model quantities the
//! cycle count uses, so a sampled estimate of these metrics carries exactly
//! the sampling error structure of Figure 14.

use crate::simulator::Simulator;
use gpu_workload::{Invocation, MetricKind, MetricVector, Workload};

impl Simulator {
    /// Computes the 13-metric vector for one invocation.
    pub fn metrics(&self, workload: &Workload, inv: &Invocation) -> MetricVector {
        let kernel = workload.kernel_of(inv);
        let ctx = workload.context_of(inv);
        let timing = self.timing(workload, inv);
        let work = ctx.work_scale * inv.work_scale as f64;
        let thread_instr = kernel.total_instructions() as f64 * work;
        let mix = &kernel.mix;

        // Memory transactions: 32-thread warps coalesce into ~4 transactions
        // for regular access; irregular kernels (branchy mixes) coalesce
        // worse.
        let coalescing = 4.0 + 12.0 * mix.branch;
        let global_accesses = thread_instr * mix.ldst_global / 32.0 * coalescing;
        let shared_accesses = thread_instr * mix.ldst_shared / 32.0 * coalescing;
        let gld = global_accesses * 0.7;
        let gst = global_accesses * 0.3;
        let sld = shared_accesses * 0.6;
        let sst = shared_accesses * 0.4;

        let l1_accesses = global_accesses;
        let l2_accesses = l1_accesses * (1.0 - timing.l1_hit);

        // Per-invocation data dependence: divergent inputs shift coalescing,
        // replay counts and hit rates a little between invocations of the
        // same kernel. Derived deterministically from the invocation's
        // jitter draw so a sampled estimate carries real (but small)
        // sampling variance — the structure Figure 14 validates.
        let (z_tx, z_hit) = metric_noise(inv.noise_z.to_bits());
        let tx = 1.0 + 0.05 * z_tx;
        let hit_shift = 0.01 * z_hit;
        let clamp01 = |v: f64| v.clamp(0.0, 1.0);

        let mut m = MetricVector::zero();
        m.set(MetricKind::GlobalLoadTransactions, gld * tx);
        m.set(MetricKind::GlobalStoreTransactions, gst * tx);
        m.set(MetricKind::SharedLoadTransactions, sld * tx);
        m.set(MetricKind::SharedStoreTransactions, sst * tx);
        m.set(MetricKind::L1Accesses, l1_accesses * tx);
        m.set(MetricKind::L1HitRate, clamp01(timing.l1_hit + hit_shift));
        m.set(MetricKind::L2Accesses, l2_accesses * tx);
        m.set(
            MetricKind::L2ReadHitRate,
            clamp01(timing.l2_hit + hit_shift),
        );
        m.set(MetricKind::DramReadBytes, timing.dram_bytes * 0.7 * tx);
        m.set(MetricKind::Fp16Ops, thread_instr * mix.fp16);
        m.set(MetricKind::Fp32Ops, thread_instr * mix.fp32);
        m.set(
            MetricKind::WarpExecutionEfficiency,
            clamp01(timing.warp_efficiency + hit_shift * 0.5),
        );
        m.set(
            MetricKind::BranchEfficiency,
            clamp01(1.0 - 0.5 * mix.branch + hit_shift * 0.5),
        );
        m
    }

    /// Aggregates metrics over the full workload: counts summed, rates
    /// cycle-weighted-averaged — the "full" bars of Figure 14.
    pub fn metrics_full(&self, workload: &Workload) -> MetricVector {
        let mut acc = MetricVector::zero();
        let mut total_w = 0.0;
        for inv in workload.invocations() {
            let m = self.metrics(workload, &inv);
            acc.accumulate(&m, 1.0);
            total_w += 1.0;
        }
        acc.finish_rates(total_w);
        acc
    }

    /// Aggregates metrics over a weighted sample — the "sampled" bars of
    /// Figure 14, using the same weighted-sum estimator as execution time
    /// (Sec. 5.5).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any index is out of range.
    pub fn metrics_sampled(
        &self,
        workload: &Workload,
        samples: &[crate::sampled::WeightedSample],
    ) -> MetricVector {
        assert!(!samples.is_empty(), "metric estimation needs samples");
        let mut acc = MetricVector::zero();
        let mut total_w = 0.0;
        for s in samples {
            let inv = &workload.invocation(s.index);
            let m = self.metrics(workload, inv);
            acc.accumulate(&m, s.weight);
            total_w += s.weight;
        }
        acc.finish_rates(total_w);
        acc
    }
}

/// Two weakly-correlated standard-normal-ish draws from the invocation's
/// jitter bits (splitmix64 + Box–Muller).
fn metric_noise(bits: u32) -> (f64, f64) {
    let mut z = (bits as u64).wrapping_mul(0x9e3779b97f4a7c15);
    let mut next = || {
        z = stem_par::mix64(z);
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let u1 = next().max(f64::MIN_POSITIVE);
    let u2 = next();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::sampled::WeightedSample;
    use gpu_workload::suites::rodinia_suite;
    use gpu_workload::METRIC_COUNT;

    #[test]
    fn metrics_are_finite_and_rates_bounded() {
        let w = &rodinia_suite(4)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let m = sim.metrics(w, &w.invocation(0));
        for kind in MetricKind::ALL {
            let v = m.get(kind);
            assert!(v.is_finite() && v >= 0.0, "{kind} = {v}");
            if kind.is_rate() {
                assert!(v <= 1.0, "{kind} = {v}");
            }
        }
        assert_eq!(m.0.len(), METRIC_COUNT);
    }

    #[test]
    fn full_sampling_reproduces_full_metrics() {
        let w = &rodinia_suite(4)[2];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.metrics_full(w);
        let samples: Vec<WeightedSample> = (0..w.num_invocations())
            .map(|i| WeightedSample::new(i, 1.0))
            .collect();
        let sampled = sim.metrics_sampled(w, &samples);
        for kind in MetricKind::ALL {
            let (f, s) = (full.get(kind), sampled.get(kind));
            let denom = f.abs().max(1e-12);
            assert!(
                (f - s).abs() / denom < 1e-9,
                "{kind}: full {f} vs sampled {s}"
            );
        }
    }

    #[test]
    fn compute_kernel_has_more_fp32_than_memory_kernel() {
        use gpu_workload::kernel::{InstructionMix, KernelClassBuilder};
        use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let c = b.add_kernel(
            KernelClassBuilder::new("c")
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
        b.invoke(c, 0, 1.0);
        b.invoke(m, 0, 1.0);
        let w = b.build();
        let sim = Simulator::new(GpuConfig::rtx2080());
        let mc = sim.metrics(&w, &w.invocation(0));
        let mm = sim.metrics(&w, &w.invocation(1));
        assert!(mc.get(MetricKind::Fp32Ops) > mm.get(MetricKind::Fp32Ops));
        assert!(
            mm.get(MetricKind::GlobalLoadTransactions) > mc.get(MetricKind::GlobalLoadTransactions)
        );
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_samples_rejected() {
        let w = &rodinia_suite(4)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        sim.metrics_sampled(w, &[]);
    }
}
