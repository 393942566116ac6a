//! Wave-level decomposition of a kernel launch.
//!
//! A launch with more CTAs than fit on the machine executes in *waves*.
//! Intra-kernel sampling (TBPoint, PKA and Photon all carry a variant; the
//! paper's Sec. 7.3 notes it is orthogonal to kernel-level sampling and
//! applicable "with few kernel calls or long-running kernels") estimates a
//! long kernel's time from a subset of its waves. This module exposes the
//! per-wave durations of an invocation, consistent with the kernel total:
//! the waves sum exactly to the invocation's cycles (minus the one-time
//! launch overhead, which is reported separately).

use crate::simulator::Simulator;
use gpu_workload::{Invocation, Workload};

/// Per-wave timing of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveProfile {
    /// One-time launch overhead (cycles), outside any wave.
    pub launch_cycles: f64,
    /// Duration of each wave; sums to the invocation total minus launch.
    pub wave_cycles: Vec<f64>,
}

impl WaveProfile {
    /// Total cycles of the invocation (launch + all waves).
    pub fn total(&self) -> f64 {
        self.launch_cycles + self.wave_cycles.iter().sum::<f64>()
    }

    /// Number of waves.
    pub fn num_waves(&self) -> usize {
        self.wave_cycles.len()
    }
}

impl Simulator {
    /// Decomposes an invocation into per-wave durations.
    ///
    /// Wave-to-wave variation is deterministic in `(invocation, wave
    /// index)`: tail waves are partially filled (shorter), and waves carry
    /// small jitter around the mean — the structure intra-kernel samplers
    /// exploit ("stable runtime behaviour" after the first waves).
    pub fn wave_profile(&self, workload: &Workload, inv: &Invocation) -> WaveProfile {
        let timing = self.timing(workload, inv);
        let kernel = workload.kernel_of(inv);
        let waves = timing.occupancy.waves.max(1) as usize;
        let launch_cycles = self.config().launch_overhead_cycles;
        let body = (timing.cycles - launch_cycles).max(1.0);

        if waves == 1 {
            return WaveProfile {
                launch_cycles,
                wave_cycles: vec![body],
            };
        }

        // The last wave covers only the leftover CTAs.
        let slots = timing.occupancy.ctas_per_sm as u64 * self.config().num_sms as u64;
        let full_waves = waves - 1;
        let tail_ctas = kernel.grid_dim as u64 - full_waves as u64 * slots;
        let tail_fraction = (tail_ctas as f64 / slots as f64).clamp(0.05, 1.0);

        // Raw weights: full waves with ±3% deterministic jitter, tail wave
        // scaled by its occupancy.
        let mut weights: Vec<f64> = (0..full_waves)
            .map(|w| 1.0 + 0.03 * wave_noise(inv.noise_z.to_bits(), w as u64))
            .collect();
        weights
            .push(tail_fraction * (1.0 + 0.03 * wave_noise(inv.noise_z.to_bits(), waves as u64)));
        let sum: f64 = weights.iter().sum();
        let wave_cycles = weights.into_iter().map(|w| body * w / sum).collect();
        WaveProfile {
            launch_cycles,
            wave_cycles,
        }
    }
}

/// Deterministic draw in [-1, 1] from (invocation bits, wave index).
fn wave_noise(bits: u32, wave: u64) -> f64 {
    let z = stem_par::split_seed(bits as u64, wave);
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use gpu_workload::kernel::KernelClassBuilder;
    use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};

    fn long_kernel_workload() -> Workload {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let id = b.add_kernel(
            KernelClassBuilder::new("long")
                .geometry(4000, 1024) // many waves: 1 CTA/SM by threads
                .resources(32, 0)
                .instructions(50_000)
                .build(),
            vec![RuntimeContext::neutral().with_jitter(0.05)],
        );
        b.invoke(id, 0, 1.0);
        b.build()
    }

    #[test]
    fn waves_sum_to_invocation_total() {
        let w = long_kernel_workload();
        let sim = Simulator::new(GpuConfig::rtx2080());
        let inv = &w.invocation(0);
        let profile = sim.wave_profile(&w, inv);
        let total = sim.cycles(&w, inv);
        assert!(
            (profile.total() - total).abs() < 1e-6 * total,
            "waves {} vs total {total}",
            profile.total()
        );
        assert!(profile.num_waves() > 10);
    }

    #[test]
    fn single_wave_kernel() {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let id = b.add_kernel(
            KernelClassBuilder::new("small").geometry(8, 128).build(),
            vec![RuntimeContext::neutral()],
        );
        b.invoke(id, 0, 1.0);
        let w = b.build();
        let sim = Simulator::new(GpuConfig::rtx2080());
        let profile = sim.wave_profile(&w, &w.invocation(0));
        assert_eq!(profile.num_waves(), 1);
    }

    #[test]
    fn full_waves_are_similar_tail_shorter_or_equal() {
        let w = long_kernel_workload();
        let sim = Simulator::new(GpuConfig::rtx2080());
        let profile = sim.wave_profile(&w, &w.invocation(0));
        let full = &profile.wave_cycles[..profile.num_waves() - 1];
        let mean = full.iter().sum::<f64>() / full.len() as f64;
        for &c in full {
            assert!((c - mean).abs() / mean < 0.05, "full waves stable");
        }
        let tail = *profile.wave_cycles.last().expect("has waves");
        assert!(tail <= mean * 1.05);
    }

    #[test]
    fn deterministic() {
        let w = long_kernel_workload();
        let sim = Simulator::new(GpuConfig::rtx2080());
        let inv = &w.invocation(0);
        assert_eq!(sim.wave_profile(&w, inv), sim.wave_profile(&w, inv));
    }
}
