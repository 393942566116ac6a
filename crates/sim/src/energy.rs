//! Per-kernel energy estimation.
//!
//! The paper's introduction lists power and energy estimation among the
//! uses of cycle-level simulation. The same weighted-sum extrapolation that
//! estimates total cycles estimates total energy, so a sampled simulation
//! can stand in for a full one there too. This module adds an
//! activity-based energy model on top of the timing model: per-operation
//! dynamic energy (by instruction class), per-byte memory-hierarchy energy,
//! and leakage/static power integrated over the kernel's runtime.

use crate::config::GpuConfig;
use crate::sampled::WeightedSample;
use crate::simulator::Simulator;
use gpu_workload::{Invocation, Workload};

/// Activity-based energy coefficients (picojoules per event, watts for
/// static power). Defaults are in the range published for recent NVIDIA
/// parts (integer ops cheapest, FP32 a few pJ, DRAM tens of pJ per byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per FP32 operation (pJ).
    pub pj_per_fp32: f64,
    /// Energy per FP16/tensor operation (pJ).
    pub pj_per_fp16: f64,
    /// Energy per integer/branch/special operation (pJ).
    pub pj_per_int: f64,
    /// Energy per load/store instruction issued (pJ, pipeline only).
    pub pj_per_ldst: f64,
    /// Energy per byte served from L2 (pJ/B).
    pub pj_per_l2_byte: f64,
    /// Energy per byte served from DRAM (pJ/B).
    pub pj_per_dram_byte: f64,
    /// Static (leakage + idle) power of the whole GPU (W).
    pub static_watts: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            pj_per_fp32: 1.5,
            pj_per_fp16: 0.8,
            pj_per_int: 0.8,
            pj_per_ldst: 2.0,
            pj_per_l2_byte: 8.0,
            pj_per_dram_byte: 25.0,
            static_watts: 60.0,
        }
    }
}

impl EnergyModel {
    /// Validates coefficient ranges.
    ///
    /// # Panics
    ///
    /// Panics on negative coefficients.
    pub fn validate(&self) {
        for (name, v) in [
            ("fp32", self.pj_per_fp32),
            ("fp16", self.pj_per_fp16),
            ("int", self.pj_per_int),
            ("ldst", self.pj_per_ldst),
            ("l2", self.pj_per_l2_byte),
            ("dram", self.pj_per_dram_byte),
            ("static", self.static_watts),
        ] {
            assert!(v >= 0.0, "energy coefficient {name} must be nonnegative");
        }
    }

    /// Energy of one invocation in joules, given its timing on `config`.
    pub fn invocation_energy(&self, workload: &Workload, inv: &Invocation, sim: &Simulator) -> f64 {
        let kernel = workload.kernel_of(inv);
        let ctx = workload.context_of(inv);
        let timing = sim.timing(workload, inv);
        let work = ctx.work_scale * inv.work_scale as f64;
        let instr = kernel.total_instructions() as f64 * work;
        let mix = &kernel.mix;

        let compute_pj = instr
            * (mix.fp32 * self.pj_per_fp32
                + mix.fp16 * self.pj_per_fp16
                + (mix.int_alu + mix.branch + mix.special) * self.pj_per_int
                + (mix.ldst_global + mix.ldst_shared) * self.pj_per_ldst);
        // L2 serves whatever missed L1 (including what then misses to DRAM).
        let l2_bytes = timing.access_bytes * (1.0 - timing.l1_hit);
        let memory_pj = l2_bytes * self.pj_per_l2_byte + timing.dram_bytes * self.pj_per_dram_byte;
        let seconds = seconds_of(sim.config(), timing.cycles);
        let static_j = self.static_watts * seconds;
        (compute_pj + memory_pj) * 1e-12 + static_j
    }

    /// Total energy of a full run, joules.
    pub fn full_energy(&self, workload: &Workload, sim: &Simulator) -> f64 {
        workload
            .invocations()
            .map(|inv| self.invocation_energy(workload, &inv, sim))
            .sum()
    }

    /// Weighted-sum energy estimate from a sampling plan, joules.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any index is out of range.
    pub fn sampled_energy(
        &self,
        workload: &Workload,
        samples: &[WeightedSample],
        sim: &Simulator,
    ) -> f64 {
        assert!(!samples.is_empty(), "energy estimation needs samples");
        samples
            .iter()
            .map(|s| {
                let inv = &workload.invocation(s.index);
                s.weight * self.invocation_energy(workload, inv, sim)
            })
            .sum()
    }
}

fn seconds_of(config: &GpuConfig, cycles: f64) -> f64 {
    config.cycles_to_seconds(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use gpu_workload::kernel::{InstructionMix, KernelClassBuilder};
    use gpu_workload::suites::rodinia_suite;
    use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};

    #[test]
    fn energy_positive_and_finite() {
        let w = &rodinia_suite(91)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let e = EnergyModel::default().full_energy(w, &sim);
        assert!(e.is_finite() && e > 0.0);
    }

    #[test]
    fn full_sampling_is_exact() {
        let w = &rodinia_suite(91)[2];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let m = EnergyModel::default();
        let full = m.full_energy(w, &sim);
        let samples: Vec<WeightedSample> = (0..w.num_invocations())
            .map(|i| WeightedSample::new(i, 1.0))
            .collect();
        let est = m.sampled_energy(w, &samples, &sim);
        assert!((full - est).abs() < 1e-9 * full);
    }

    #[test]
    fn memory_bound_kernel_spends_more_on_dram() {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let mem = b.add_kernel(
            KernelClassBuilder::new("mem")
                .geometry(512, 256)
                .instructions(2_000)
                .mix(InstructionMix::memory_bound())
                .memory(512 << 20, 1.0)
                .build(),
            vec![RuntimeContext::neutral().with_locality(0.3)],
        );
        let comp = b.add_kernel(
            KernelClassBuilder::new("comp")
                .geometry(512, 256)
                .instructions(2_000)
                .mix(InstructionMix::compute_bound())
                .memory(8 << 20, 24.0)
                .build(),
            vec![RuntimeContext::neutral()],
        );
        b.invoke(mem, 0, 1.0);
        b.invoke(comp, 0, 1.0);
        let w = b.build();
        let sim = Simulator::new(GpuConfig::rtx2080());
        let m = EnergyModel::default();
        let e_mem = m.invocation_energy(&w, &w.invocation(0), &sim);
        let e_comp = m.invocation_energy(&w, &w.invocation(1), &sim);
        // Same instruction count, but the memory-bound kernel pays DRAM
        // energy and longer static integration.
        assert!(e_mem > e_comp, "mem {e_mem} vs comp {e_comp}");
    }

    #[test]
    fn zeroed_model_only_counts_nothing() {
        let w = &rodinia_suite(91)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let zero = EnergyModel {
            pj_per_fp32: 0.0,
            pj_per_fp16: 0.0,
            pj_per_int: 0.0,
            pj_per_ldst: 0.0,
            pj_per_l2_byte: 0.0,
            pj_per_dram_byte: 0.0,
            static_watts: 0.0,
        };
        zero.validate();
        assert_eq!(zero.full_energy(w, &sim), 0.0);
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empty_samples_rejected() {
        let w = &rodinia_suite(91)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        EnergyModel::default().sampled_energy(w, &[], &sim);
    }
}
