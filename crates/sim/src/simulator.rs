//! Full-workload simulation: ground truth for every experiment.
//!
//! Since the hot-path overhaul, full runs are "group-precompute + stream
//! jitter": the deterministic timing core is computed once per distinct
//! `(kernel, context, work_scale)` group ([`Workload::num_invocation_groups`])
//! and each invocation then costs one `exp`. The pre-split per-invocation
//! code is kept in [`reference`] and pinned bit-identical by
//! `tests/hotpath_equivalence.rs`.

use crate::config::GpuConfig;
use crate::exec::{
    deterministic_of_invocation, time_invocation, DeterministicTiming, KernelTiming, SimOptions,
};
use gpu_workload::{Invocation, Workload};

/// A kernel-level GPU simulator bound to one configuration.
///
/// # Example
///
/// ```
/// use gpu_sim::{GpuConfig, Simulator};
/// use gpu_workload::suites::rodinia_suite;
///
/// let workload = &rodinia_suite(7)[0];
/// let sim = Simulator::new(GpuConfig::rtx2080());
/// let run = sim.run_full(workload);
/// assert!(run.total_cycles > 0.0);
/// assert_eq!(run.per_invocation.len(), workload.num_invocations());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Simulator {
    config: GpuConfig,
    options: SimOptions,
}

/// Result of simulating every invocation of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FullRun {
    /// Sum of all per-invocation cycle counts — the ground truth `t*` of
    /// Eq. (1).
    pub total_cycles: f64,
    /// Cycle count of each invocation in stream order.
    pub per_invocation: Vec<f64>,
}

impl Simulator {
    /// Creates a simulator with default options.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation.
    pub fn new(config: GpuConfig) -> Self {
        config.validate();
        Simulator {
            config,
            options: SimOptions::default(),
        }
    }

    /// Creates a simulator with explicit options (e.g. the L2-flush
    /// warmup-sensitivity mode of Sec. 6.2).
    pub fn with_options(config: GpuConfig, options: SimOptions) -> Self {
        config.validate();
        Simulator { config, options }
    }

    /// The bound configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The simulation options.
    pub fn options(&self) -> SimOptions {
        self.options
    }

    /// Full timing breakdown of one invocation.
    pub fn timing(&self, workload: &Workload, inv: &Invocation) -> KernelTiming {
        time_invocation(workload, inv, &self.config, self.options)
    }

    /// Cycle count of one invocation.
    pub fn cycles(&self, workload: &Workload, inv: &Invocation) -> f64 {
        self.timing(workload, inv).cycles
    }

    /// Deterministic timing core of every invocation group, in group order
    /// (one full model evaluation per distinct `(kernel, context,
    /// work_scale)` triple), spread across `par` threads; groups are
    /// independent, so the result is identical at any thread count.
    pub fn group_timings_par(
        &self,
        workload: &Workload,
        par: stem_par::Parallelism,
    ) -> Vec<DeterministicTiming> {
        stem_par::par_map_range(par, workload.num_invocation_groups(), |g| {
            self.group_core(workload, g as u32)
        })
    }

    /// The deterministic timing core of invocation group `g`, evaluated at
    /// the group's representative.
    pub(crate) fn group_core(&self, workload: &Workload, g: u32) -> DeterministicTiming {
        let rep = workload.invocation(workload.group_representative(g));
        deterministic_of_invocation(workload, &rep, &self.config, self.options)
    }

    /// Simulates every invocation (the "full simulation" the paper treats
    /// as prohibitively expensive on real infrastructure — cheap here, which
    /// is what lets us measure true sampling error).
    ///
    /// Internally grouped: the deterministic core runs once per invocation
    /// group, then each invocation applies its own jitter draw — bit-identical
    /// to the per-invocation reference path because the floating-point
    /// expressions are unchanged, only de-duplicated.
    pub fn run_full(&self, workload: &Workload) -> FullRun {
        self.run_full_par(workload, stem_par::Parallelism::serial())
    }

    /// [`Simulator::run_full`] with the group precompute and the
    /// per-invocation jitter map spread across `par` threads.
    /// Per-invocation order and the left-to-right total-cycles sum are
    /// preserved, so the result is bit-identical to the serial run at every
    /// thread count.
    pub fn run_full_par(&self, workload: &Workload, par: stem_par::Parallelism) -> FullRun {
        let rows = workload.rows();
        let per_invocation = stem_par::par_map_grouped(
            par,
            workload.num_invocation_groups(),
            |g| self.group_core(workload, g as u32),
            rows.len(),
            |i, groups: &[DeterministicTiming]| {
                let row = rows[i];
                groups[row.group as usize].jittered_cycles(row.noise_z() as f64)
            },
        );
        let total_cycles = per_invocation.iter().sum();
        FullRun {
            total_cycles,
            per_invocation,
        }
    }
}

/// The pre-overhaul per-invocation slow paths, kept as the executable
/// specification the grouped fast paths are pinned against (the workspace
/// integration suite `tests/hotpath_equivalence.rs` asserts bitwise
/// equality; dependency-crate `#[cfg(test)]` items are invisible to
/// workspace-level tests, hence `#[doc(hidden)] pub`).
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Per-invocation [`Simulator::run_full`]: runs the full analytic model
    /// for every invocation.
    pub fn run_full(sim: &Simulator, workload: &Workload) -> FullRun {
        let per_invocation: Vec<f64> = workload
            .invocations()
            .map(|inv| sim.cycles(workload, &inv))
            .collect();
        let total_cycles = per_invocation.iter().sum();
        FullRun {
            total_cycles,
            per_invocation,
        }
    }

    /// Per-invocation `Simulator::run_sampled`: full model per sample.
    pub fn run_sampled(
        sim: &Simulator,
        workload: &Workload,
        samples: &[crate::sampled::WeightedSample],
    ) -> crate::sampled::SampledRun {
        assert!(!samples.is_empty(), "sampled simulation needs samples");
        let n = workload.num_invocations();
        let mut estimated = 0.0;
        let mut simulated = 0.0;
        for s in samples {
            assert!(s.index < n, "sample index {} out of range", s.index);
            let timing = sim.timing(workload, &workload.invocation(s.index));
            estimated += s.weight * timing.cycles;
            simulated += timing.cycles + timing.warmup_cycles;
        }
        crate::sampled::SampledRun {
            estimated_total_cycles: estimated,
            simulated_cycles: simulated,
            num_samples: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::suites::{casio_suite, rodinia_suite};

    #[test]
    fn full_run_is_sum_of_parts() {
        let w = &rodinia_suite(3)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let run = sim.run_full(w);
        let sum: f64 = run.per_invocation.iter().sum();
        assert!((run.total_cycles - sum).abs() < 1e-6 * run.total_cycles);
        assert!(run.per_invocation.iter().all(|&c| c > 0.0 && c.is_finite()));
    }

    #[test]
    fn parallel_full_run_is_bit_identical() {
        let w = &rodinia_suite(3)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let serial = sim.run_full(w);
        for threads in [1usize, 2, 3, 8] {
            let par = sim.run_full_par(w, stem_par::Parallelism::with_threads(threads));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let w = &rodinia_suite(3)[2];
        let sim = Simulator::new(GpuConfig::rtx2080());
        assert_eq!(sim.run_full(w), sim.run_full(w));
    }

    #[test]
    fn heartwall_first_call_is_tiny() {
        let suite = rodinia_suite(3);
        let h = suite
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("heartwall");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let run = sim.run_full(h);
        // The paper: sampling only the first kernel underestimates total
        // time with ~99.9% error.
        let first_estimate = run.per_invocation[0] * run.per_invocation.len() as f64;
        let err = (first_estimate - run.total_cycles).abs() / run.total_cycles;
        assert!(err > 0.99, "first-chronological error = {err}");
    }

    #[test]
    fn same_kernel_same_context_times_cluster_tightly() {
        // A stable CASIO kernel's per-context times have small CoV.
        let suite = casio_suite(3);
        let w = suite
            .iter()
            .find(|w| w.name() == "bert_infer")
            .expect("bert");
        let sim = Simulator::new(GpuConfig::rtx2080());
        // gelu_fwd is a stable elementwise kernel with one context.
        let gelu = w
            .kernels()
            .iter()
            .position(|k| k.name == "gelu_fwd")
            .expect("gelu");
        let times: Vec<f64> = w
            .invocations()
            .filter(|inv| inv.kernel.index() == gelu)
            .take(2000)
            .map(|inv| sim.cycles(w, &inv))
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
        let cov = var.sqrt() / mean;
        assert!(cov < 0.1, "gelu CoV = {cov}");
    }

    #[test]
    fn multi_context_kernel_is_multimodal() {
        let suite = casio_suite(3);
        let w = suite
            .iter()
            .find(|w| w.name() == "resnet50_infer")
            .expect("resnet");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let bn = w
            .kernels()
            .iter()
            .position(|k| k.name.starts_with("bn_fw_inf"))
            .expect("bn");
        let times: Vec<f64> = w
            .invocations()
            .filter(|inv| inv.kernel.index() == bn)
            .take(5000)
            .map(|inv| sim.cycles(w, &inv))
            .collect();
        let h = stem_stats_histogram(&times);
        assert!(h >= 2, "expected multi-peak bn histogram, got {h} peaks");
    }

    /// Tiny local peak counter (avoids a cyclic dev-dependency on
    /// stem-stats): counts maxima above 20% of the tallest bin.
    fn stem_stats_histogram(times: &[f64]) -> usize {
        let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let bins = 64usize;
        let mut counts = vec![0u64; bins];
        for &t in times {
            let idx = (((t - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let max = *counts.iter().max().expect("nonempty") as f64;
        let mut peaks = 0;
        for i in 0..bins {
            let c = counts[i] as f64;
            if c < 0.2 * max {
                continue;
            }
            let left = if i == 0 { 0.0 } else { counts[i - 1] as f64 };
            let right = if i + 1 == bins {
                0.0
            } else {
                counts[i + 1] as f64
            };
            if c >= left && c > right {
                peaks += 1;
            }
        }
        peaks
    }
}
