//! Photon — fine-grained sampled GPU simulation (Liu, Sun & Carlson,
//! MICRO '23), kernel-level component.
//!
//! Photon processes the invocation stream online: each invocation's
//! basic-block vector is compared against the BBVs of previously simulated
//! invocations of the same kernel. A match above the 95% similarity
//! threshold (with equal #warps) reuses the matched invocation's result;
//! a miss simulates the invocation and adds it to the table.
//!
//! The comparison bill — `O(N·S·d)` scalar operations, trending to
//! `O(N²·d)` when kernels keep failing to match — is counted and exposed
//! for the Table 5 overhead model.

use gpu_profile::BbvProfiler;
use gpu_sim::WeightedSample;
use gpu_workload::Workload;
use std::collections::HashMap;
use stem_cluster::distance::bbv_magnitude_similarity;
use stem_core::plan::{ClusterSummary, SamplingPlan};
use stem_core::sampler::KernelSampler;

/// The Photon baseline sampler.
///
/// # Example
///
/// ```
/// use gpu_workload::suites::rodinia_suite;
/// use stem_baselines::PhotonSampler;
///
/// let w = &rodinia_suite(1)[0];
/// let analysis = PhotonSampler::new().analyze(w);
/// // Far fewer kernels simulated than invoked, cost accounted.
/// assert!(analysis.simulated < w.num_invocations());
/// assert!(analysis.compare_ops > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhotonSampler;

/// Photon's published BBV similarity threshold: a later invocation at or
/// above it (with equal #warps) reuses the matched one's result.
const THRESHOLD: f64 = 0.95;

/// Photon's full analysis: the plan plus cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PhotonAnalysis {
    /// The resulting sampling plan.
    pub plan: SamplingPlan,
    /// Scalar BBV-comparison operations performed (for Table 5).
    pub compare_ops: f64,
    /// Number of invocations that had to be simulated (table size).
    pub simulated: usize,
}

impl PhotonSampler {
    /// Creates Photon with its published 95% similarity threshold.
    pub fn new() -> Self {
        PhotonSampler
    }

    /// Runs the online matching pass, returning the plan and cost counters.
    ///
    /// # Panics
    ///
    /// Panics on an empty workload.
    pub fn analyze(&self, workload: &Workload) -> PhotonAnalysis {
        assert!(
            workload.num_invocations() > 0,
            "cannot sample an empty workload"
        );
        let profiler = BbvProfiler::new();
        // Per kernel: indices into `reps` of already-simulated invocations.
        let mut tables: HashMap<u32, Vec<usize>> = HashMap::new();
        // Simulated invocations: (invocation index, bbv, warps, match count).
        struct Rep {
            index: usize,
            bbv: Vec<f64>,
            warps: u64,
            matched: f64,
        }
        let mut reps: Vec<Rep> = Vec::new();
        let mut compare_ops = 0.0;

        for (i, inv) in workload.invocations().enumerate() {
            let bbv = profiler.bbv(workload, &inv, i);
            let warps = profiler.num_warps(workload, &inv);
            let table = tables.entry(inv.kernel.0).or_default();
            let mut best: Option<(usize, f64)> = None;
            for &r in table.iter() {
                let rep = &reps[r];
                if rep.warps != warps {
                    continue;
                }
                compare_ops += bbv.len() as f64;
                let sim = bbv_magnitude_similarity(&bbv, &rep.bbv);
                if best.is_none_or(|(_, s)| sim > s) {
                    best = Some((r, sim));
                }
            }
            match best {
                Some((r, sim)) if sim >= THRESHOLD => {
                    reps[r].matched += 1.0;
                }
                _ => {
                    table.push(reps.len());
                    reps.push(Rep {
                        index: i,
                        bbv,
                        warps,
                        matched: 1.0,
                    });
                }
            }
        }

        let simulated = reps.len();
        let mut samples = Vec::with_capacity(simulated);
        let mut summaries = Vec::with_capacity(simulated);
        for rep in &reps {
            samples.push(WeightedSample::new(rep.index, rep.matched));
            summaries.push(ClusterSummary {
                kernel: workload
                    .kernel_of(&workload.invocation(rep.index))
                    .name
                    .clone(),
                population: rep.matched as u64,
                mean_time: 0.0,
                std_time: 0.0,
                samples: 1,
            });
        }
        PhotonAnalysis {
            plan: SamplingPlan::new("Photon", samples, summaries, 0.0),
            compare_ops,
            simulated,
        }
    }
}

impl KernelSampler for PhotonSampler {
    fn name(&self) -> &'static str {
        "Photon"
    }

    fn plan(&self, workload: &Workload, _rep_seed: u64) -> SamplingPlan {
        // Photon is deterministic: the online pass has no random choices.
        self.analyze(workload).plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, Simulator};
    use gpu_workload::suites::{casio_suite, rodinia_suite};

    #[test]
    fn weights_cover_population() {
        let suite = rodinia_suite(41);
        let w = &suite[0];
        let plan = PhotonSampler::new().plan(w, 0);
        let total: f64 = plan.samples().iter().map(|s| s.weight).sum();
        assert_eq!(total, w.num_invocations() as f64);
    }

    #[test]
    fn distinguishes_work_levels_on_gaussian() {
        // Shrinking work shifts relative BBV weights, so Photon keeps
        // simulating as the kernel shrinks — moderate table, good accuracy.
        let suite = rodinia_suite(41);
        let g = suite
            .iter()
            .find(|w| w.name() == "gaussian")
            .expect("gaussian");
        let analysis = PhotonSampler::new().analyze(g);
        assert!(
            analysis.simulated > 10,
            "expected many simulated kernels, got {}",
            analysis.simulated
        );
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(g);
        let run = sim.run_sampled(g, analysis.plan.samples());
        assert!(run.error(full.total_cycles) < 0.15);
    }

    #[test]
    fn blind_to_locality_contexts() {
        // dlrm's embedding peaks differ by locality, not control flow:
        // Photon matches them together and inherits their spread as error.
        let suite = casio_suite(41);
        let d = suite
            .iter()
            .find(|w| w.name() == "dlrm_infer")
            .expect("dlrm");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(d);
        let analysis = PhotonSampler::new().analyze(d);
        let run = sim.run_sampled(d, analysis.plan.samples());
        let err = run.error(full.total_cycles);
        assert!(err > 0.005, "photon should retain visible error, got {err}");
        // And its speedup is large (few simulated kernels).
        assert!(run.speedup(full.total_cycles) > 20.0);
    }

    #[test]
    fn compare_ops_grow_with_stream_length() {
        let suite = casio_suite(41);
        let w = suite
            .iter()
            .find(|w| w.name() == "bert_infer")
            .expect("bert");
        let analysis = PhotonSampler::new().analyze(w);
        assert!(analysis.compare_ops > w.num_invocations() as f64);
    }

    #[test]
    fn deterministic() {
        let suite = rodinia_suite(41);
        let w = &suite[2];
        let p = PhotonSampler::new();
        assert_eq!(p.plan(w, 1), p.plan(w, 999));
    }
}
