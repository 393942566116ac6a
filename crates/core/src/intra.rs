//! Intra-kernel (wave-level) sampling — the orthogonal dimension of
//! Sec. 7.3, combinable with kernel-level STEM for workloads with few,
//! long kernels (the Rodinia regime where kernel-level sampling alone
//! yields little speedup).
//!
//! A kernel launch with many waves executes the same code over successive
//! CTA batches; after the first waves its behaviour stabilizes. STEM's
//! machinery applies unchanged one level down: treat an invocation's waves
//! as the population, use Eq. (3) on the profiled wave times to size the
//! sample, estimate the invocation as `launch + num_waves * mean(sampled
//! waves)`.

use crate::config::StemConfig;
use crate::rng::{RngExt, SeedableRng, StdRng};
use gpu_sim::Simulator;
use gpu_workload::Workload;
use stem_stats::clt::sample_size;
use stem_stats::Summary;

/// Outcome of intra-kernel sampling on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct IntraReport {
    /// Total waves across all invocations.
    pub total_waves: u64,
    /// Waves actually simulated.
    pub simulated_waves: u64,
    /// Ground-truth total cycles.
    pub true_total: f64,
    /// Estimated total cycles.
    pub estimated_total: f64,
}

impl IntraReport {
    /// Relative estimation error.
    pub fn error(&self) -> f64 {
        (self.estimated_total - self.true_total).abs() / self.true_total
    }

    /// Wave-level speedup (waves simulated vs total).
    pub fn wave_speedup(&self) -> f64 {
        self.total_waves as f64 / self.simulated_waves.max(1) as f64
    }
}

/// Applies wave-level sampling to *every* invocation of the workload:
/// profiles each invocation's waves, sizes a wave sample via Eq. (3) at the
/// config's bound, and estimates each invocation from its sampled waves.
///
/// This is the orthogonal axis to kernel-level sampling: here every
/// invocation is visited (no kernel-level reduction), but long launches are
/// only partially simulated. Combining both (kernel-level selection of
/// invocations, wave-level truncation of the selected ones) multiplies the
/// savings; [`evaluate_intra_kernel`] quantifies the wave axis alone.
///
/// # Panics
///
/// Panics if the workload is empty.
pub fn evaluate_intra_kernel(
    workload: &Workload,
    sim: &Simulator,
    config: &StemConfig,
    seed: u64,
) -> IntraReport {
    assert!(
        workload.num_invocations() > 0,
        "cannot sample an empty workload"
    );
    let z = config.z();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7a_4a7e);

    let mut total_waves = 0u64;
    let mut simulated_waves = 0u64;
    let mut true_total = 0.0;
    let mut estimated_total = 0.0;
    for inv in workload.invocations() {
        let profile = sim.wave_profile(workload, &inv);
        let n = profile.num_waves();
        total_waves += n as u64;
        true_total += profile.total();

        if n <= 2 {
            // Nothing to truncate: simulate the launch exactly.
            simulated_waves += n as u64;
            estimated_total += profile.total();
            continue;
        }

        // The tail wave is structurally different (partially filled) and
        // there is exactly one of it: always simulate it. Sample from the
        // statistically homogeneous full waves.
        let full = &profile.wave_cycles[..n - 1];
        let tail = profile.wave_cycles[n - 1];
        let s: Summary = full.iter().copied().collect();
        let m = if s.population_std_dev() == 0.0 {
            1
        } else {
            sample_size(s.mean(), s.population_std_dev(), config.epsilon, z).min(full.len() as u64)
                as usize
        };
        simulated_waves += m as u64 + 1; // sampled full waves + the tail
        let mean = if m == full.len() {
            s.mean()
        } else {
            // Random waves with replacement (i.i.d. for the CLT).
            let mut sum = 0.0;
            for _ in 0..m {
                sum += full[rng.random_range(0..full.len())];
            }
            sum / m as f64
        };
        estimated_total += profile.launch_cycles + full.len() as f64 * mean + tail;
    }
    IntraReport {
        total_waves,
        simulated_waves,
        true_total,
        estimated_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn long_kernels_sampled_accurately_with_wave_speedup() {
        // The few-calls/long-kernels case the paper says intra-kernel
        // sampling complements: a handful of launches, each dozens of waves.
        use gpu_workload::kernel::KernelClassBuilder;
        use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};
        let mut b = WorkloadBuilder::new("long", SuiteKind::Custom, 3);
        let id = b.add_kernel(
            KernelClassBuilder::new("mega")
                .geometry(12_000, 256)
                .resources(64, 16 * 1024)
                .instructions(40_000)
                .build(),
            vec![RuntimeContext::neutral().with_jitter(0.06)],
        );
        for _ in 0..16 {
            b.invoke(id, 0, 1.0);
        }
        let w = b.build();
        let sim = Simulator::new(GpuConfig::rtx2080());
        let report = evaluate_intra_kernel(&w, &sim, &StemConfig::paper(), 1);
        assert!(report.error() < 0.05, "error {}", report.error());
        assert!(
            report.wave_speedup() > 2.0,
            "wave speedup {}",
            report.wave_speedup()
        );
    }

    #[test]
    fn estimate_matches_truth_on_stable_workload() {
        let suite = rodinia_suite(61);
        let w = suite.iter().find(|w| w.name() == "cfd").expect("cfd");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let report = evaluate_intra_kernel(w, &sim, &StemConfig::paper(), 2);
        assert!(report.error() < 0.05, "error {}", report.error());
        assert!(report.true_total > 0.0 && report.estimated_total > 0.0);
    }

    #[test]
    fn deterministic() {
        let suite = rodinia_suite(61);
        let w = &suite[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let cfg = StemConfig::paper();
        assert_eq!(
            evaluate_intra_kernel(w, &sim, &cfg, 5),
            evaluate_intra_kernel(w, &sim, &cfg, 5)
        );
    }
}
