//! Sampled simulation: simulate only selected invocations and extrapolate
//! by weighted sum (Sec. 3.5).

use crate::simulator::Simulator;
use gpu_workload::Workload;
use stem_par::Parallelism;

/// One sampled invocation with the number of workload invocations it
/// represents (its extrapolation weight).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedSample {
    /// Index into the workload's invocation stream.
    pub index: usize,
    /// Extrapolation weight (`N_i / m_i` for cluster sampling, `1/p` for
    /// uniform sampling).
    pub weight: f64,
}

impl WeightedSample {
    /// Creates a sample.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive and finite.
    pub fn new(index: usize, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "sample weight must be positive and finite, got {weight}"
        );
        WeightedSample { index, weight }
    }
}

/// Result of a sampled simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledRun {
    /// Weighted-sum estimate of the full workload's total cycles
    /// (`t_total` of Eq. (1)).
    pub estimated_total_cycles: f64,
    /// Cycles actually simulated (the cost of the sampled simulation; the
    /// denominator of the paper's speedup metric).
    pub simulated_cycles: f64,
    /// Number of sampled invocations.
    pub num_samples: usize,
}

impl SampledRun {
    /// Speedup versus a full simulation of `full_total_cycles`
    /// (paper Sec. 4: ratio of full to sampled cycle counts).
    ///
    /// # Panics
    ///
    /// Panics if either cycle count is nonpositive.
    pub fn speedup(&self, full_total_cycles: f64) -> f64 {
        assert!(full_total_cycles > 0.0, "full cycles must be positive");
        assert!(
            self.simulated_cycles > 0.0,
            "sampled cycles must be positive"
        );
        full_total_cycles / self.simulated_cycles
    }

    /// Sampling error versus ground truth, as a fraction (Eq. (1) without
    /// the x100).
    ///
    /// # Panics
    ///
    /// Panics if `full_total_cycles` is nonpositive.
    pub fn error(&self, full_total_cycles: f64) -> f64 {
        assert!(full_total_cycles > 0.0, "full cycles must be positive");
        (self.estimated_total_cycles - full_total_cycles).abs() / full_total_cycles
    }
}

impl Simulator {
    /// Runs a sampled simulation: simulates exactly the invocations in
    /// `samples` and forms the weighted-sum estimate.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any index is out of range.
    ///
    /// This is [`Simulator::run_sampled_cached`], serial, without a shared
    /// cache: the deterministic core is computed once per invocation group
    /// the sample set touches, and each sample then costs one jitter `exp`.
    /// The accumulation order over `samples` is unchanged, so the result is
    /// bit-identical to the per-invocation reference
    /// ([`crate::simulator::reference::run_sampled`]).
    pub fn run_sampled(&self, workload: &Workload, samples: &[WeightedSample]) -> SampledRun {
        self.run_sampled_with(workload, samples, Parallelism::serial(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn sampling_everything_with_unit_weights_is_exact() {
        let w = &rodinia_suite(1)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let samples: Vec<WeightedSample> = (0..w.num_invocations())
            .map(|i| WeightedSample::new(i, 1.0))
            .collect();
        let run = sim.run_sampled(w, &samples);
        assert!((run.estimated_total_cycles - full.total_cycles).abs() < 1e-6 * full.total_cycles);
        assert!(run.error(full.total_cycles) < 1e-9);
        assert!((run.speedup(full.total_cycles) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_sampling_with_weight_two() {
        let w = &rodinia_suite(1)[3]; // cfd: homogeneous repeated kernels
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let samples: Vec<WeightedSample> = (0..w.num_invocations())
            .step_by(2)
            .map(|i| WeightedSample::new(i, 2.0))
            .collect();
        let run = sim.run_sampled(w, &samples);
        // Every-other-invocation sampling of a stationary stream is close.
        assert!(run.error(full.total_cycles) < 0.05);
        let speedup = run.speedup(full.total_cycles);
        assert!(speedup > 1.5 && speedup < 2.5, "speedup = {speedup}");
    }

    #[test]
    fn speedup_reflects_cycles_not_count() {
        let suite = rodinia_suite(1);
        let h = suite
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("heartwall");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(h);
        // Sampling only the tiny first kernel gives an enormous "speedup"
        // (and an enormous error) — exactly the PKA/Sieve failure mode.
        let run = sim.run_sampled(h, &[WeightedSample::new(0, h.num_invocations() as f64)]);
        assert!(run.speedup(full.total_cycles) > 1000.0);
        assert!(run.error(full.total_cycles) > 0.99);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_samples_rejected() {
        let w = &rodinia_suite(1)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        sim.run_sampled(w, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let w = &rodinia_suite(1)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        sim.run_sampled(w, &[WeightedSample::new(usize::MAX, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bad_weight_rejected() {
        WeightedSample::new(0, f64::NAN);
    }
}
