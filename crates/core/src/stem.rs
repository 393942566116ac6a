//! The STEM+ROOT sampler: profile → ROOT clustering → KKT sample sizing →
//! random sampling with replacement. Profile and clustering are memoized
//! per workload in a byte-bounded [`stem_par::Memo`] (see `cluster_memo`).

use crate::config::StemConfig;
use crate::degrade::inflate_cluster_stats;
use crate::error::StemError;
use crate::plan::{ClusterSummary, SamplingPlan};
use crate::rng::{RngExt, SeedableRng, StdRng};
use crate::root::{cluster_kernels, cluster_workload_par, KernelCluster};
use crate::sampler::KernelSampler;
use gpu_profile::validate::reconstructed_times;
use gpu_profile::{DataQualityReport, ExecTimeProfiler, TraceRecord, TraceValidator};
use gpu_sim::WeightedSample;
use gpu_workload::Workload;
use std::borrow::Cow;
use std::convert::Infallible;
use std::sync::Arc;
use stem_par::{Memo, Parallelism};
use stem_stats::kkt::{per_cluster_sample_sizes, solve_sample_sizes};

/// Bytes of clusterings the planning memo keeps before it evicts: its
/// entries' members and cluster records. 64 MiB holds every Rodinia and
/// CASIO workload at once (about 2.4 MiB together) with room for large
/// HuggingFace ones.
const CLUSTER_MEMO_BYTES: usize = 64 << 20;

/// A memo of profile → ROOT clusterings, keyed by workload content
/// fingerprint. The profile (fixed `profile_seed`) and the clustering are
/// independent of the per-rep sampling seed, so every repetition of a
/// workload, and every later plan of it by a long-lived sampler, reuses
/// one deterministic computation, bit-identical to recomputation. The
/// budget is the bytes the clusterings hold ([`entry_bytes`]), and the
/// newest entry is kept however large, so a campaign's reps reuse the
/// clustering they just computed; a sampler that cycles over more
/// workloads than the budget holds recomputes each on every visit.
fn cluster_memo(budget: usize) -> Memo<u64, Arc<Vec<KernelCluster>>> {
    Memo::new(budget, |clusters| entry_bytes(clusters))
}

/// The bytes one memo entry holds: its cluster records and their members.
fn entry_bytes(clusters: &[KernelCluster]) -> usize {
    clusters
        .iter()
        .map(|c| size_of::<KernelCluster>() + size_of_val(c.members.as_slice()))
        .sum()
}

/// How sample sizes are assigned across clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// The joint KKT optimization of Eq. (6) — the full STEM.
    JointKkt,
    /// Independent Eq. (3) per cluster — the paper's Sec. 3.3 foil, which
    /// costs 2–3x more samples (kept for the ablation harness).
    PerCluster,
}

/// The paper's sampler. See the crate-level example.
#[derive(Debug)]
pub struct StemRootSampler {
    config: StemConfig,
    profiler: ExecTimeProfiler,
    sizing: Sizing,
    enable_root: bool,
    /// Fingerprint-keyed profile+clustering memo (see [`cluster_memo`]).
    memo: Memo<u64, Arc<Vec<KernelCluster>>>,
    /// Thread budget for profiling and ROOT clustering. Defaults to
    /// serial: the evaluation pipeline already parallelizes across
    /// repetitions, so nested parallelism would only oversubscribe;
    /// standalone users opt in via
    /// [`StemRootSampler::with_parallelism`].
    parallelism: Parallelism,
}

impl StemRootSampler {
    /// Creates the sampler with the full STEM+ROOT pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn new(config: StemConfig) -> Self {
        config.validate();
        let profiler = ExecTimeProfiler::new(config.profile_config.clone(), config.profile_seed);
        StemRootSampler {
            config,
            profiler,
            sizing: Sizing::JointKkt,
            enable_root: true,
            memo: cluster_memo(CLUSTER_MEMO_BYTES),
            parallelism: Parallelism::serial(),
        }
    }

    /// Spreads profiling and ROOT clustering across `par` threads. Plans
    /// are bit-identical at every thread count (per-invocation noise and
    /// per-kernel splitting are index-keyed; the sampling RNG stays a
    /// single serial stream).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Switches to per-cluster Eq. (3) sizing (ablation).
    pub fn with_sizing(mut self, sizing: Sizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Disables ROOT's hierarchical splitting: one cluster per kernel name
    /// (ablation isolating ROOT's contribution).
    pub fn without_root(mut self) -> Self {
        self.enable_root = false;
        // Clusterings memoized with ROOT enabled are stale now.
        self.memo = cluster_memo(CLUSTER_MEMO_BYTES);
        self
    }

    /// Bounds the planning memo at `bytes` (tests exercise eviction).
    #[cfg(test)]
    fn with_memo_budget(mut self, bytes: usize) -> Self {
        self.memo = cluster_memo(bytes);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &StemConfig {
        &self.config
    }

    /// Runs ROOT only, returning the leaf clusters (for diagnostics and
    /// figures).
    pub fn clusters(&self, workload: &Workload) -> Vec<KernelCluster> {
        self.cached_clusters(workload).as_ref().clone()
    }

    /// Profile + clustering through the memo. Both stages depend only on
    /// the workload content and the sampler's own (profile seed, config,
    /// `enable_root`) state — never on the per-rep seed — so repetitions
    /// share one computation. External-times planners bypass this
    /// deliberately: caller-supplied profiles are not keyed by the
    /// workload fingerprint.
    ///
    /// ROOT gathers each kernel's times straight from the profiler's
    /// measurements, one kernel at a time, so no stream-order time vector
    /// or whole-workload profile is built.
    fn cached_clusters(&self, workload: &Workload) -> Arc<Vec<KernelCluster>> {
        let Ok(clusters) = self.memo.get_or_compute(workload.fingerprint(), || {
            let measurements = self.profiler.measurements(workload, self.parallelism);
            Ok::<_, Infallible>(Arc::new(cluster_kernels(
                workload,
                |i| measurements.time(i),
                &self.root_config(),
                self.parallelism,
            )))
        });
        clusters
    }

    /// Builds a plan from an *externally supplied* execution-time profile
    /// — the entry point for users who bring real profiler output (e.g. an
    /// Nsight Systems CSV parsed with [`gpu_profile::csv`]) instead of the
    /// built-in hardware model. `times[i]` must be the measured execution
    /// time of invocation `i`, in any consistent unit.
    ///
    /// External profiles are ingested data, so this path never panics:
    /// malformed input surfaces as a typed [`StemError`] the caller can
    /// match on.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::EmptyWorkload`],
    /// [`StemError::ProfileLengthMismatch`] if `times` is not one entry per
    /// invocation, or [`StemError::BadTime`] at the first nonpositive or
    /// non-finite entry.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), stem_core::StemError> {
    /// use gpu_workload::suites::rodinia_suite;
    /// use stem_core::{StemConfig, StemRootSampler};
    ///
    /// let workload = &rodinia_suite(1)[0];
    /// // Stand-in for times parsed from a real profiler trace:
    /// let times: Vec<f64> = (0..workload.num_invocations())
    ///     .map(|i| 100.0 + (i % 7) as f64)
    ///     .collect();
    /// let sampler = StemRootSampler::new(StemConfig::default());
    /// let plan = sampler.plan_from_times(workload, &times, 0)?;
    /// assert!(plan.num_samples() > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn plan_from_times(
        &self,
        workload: &Workload,
        times: &[f64],
        rep_seed: u64,
    ) -> Result<SamplingPlan, StemError> {
        self.try_plan_degraded(workload, times, rep_seed, 0.0)
    }

    /// Like [`StemRootSampler::plan_from_times`], but widens every
    /// cluster's standard deviation by `degraded_fraction` (see
    /// [`crate::degrade::inflate_std`]) before sample sizing, so plans
    /// built from repaired traces buy their error bound back with more
    /// samples. A fraction of zero plans exactly like the clean path.
    ///
    /// # Errors
    ///
    /// Same as [`StemRootSampler::plan_from_times`].
    pub fn try_plan_degraded(
        &self,
        workload: &Workload,
        times: &[f64],
        rep_seed: u64,
        degraded_fraction: f64,
    ) -> Result<SamplingPlan, StemError> {
        if workload.num_invocations() == 0 {
            return Err(StemError::EmptyWorkload);
        }
        if times.len() != workload.num_invocations() {
            return Err(StemError::ProfileLengthMismatch {
                expected: workload.num_invocations(),
                got: times.len(),
            });
        }
        if let Some((index, &value)) = times
            .iter()
            .enumerate()
            .find(|(_, t)| !(**t > 0.0 && t.is_finite()))
        {
            return Err(StemError::BadTime { index, value });
        }
        Ok(self.plan_inner_degraded(workload, times, rep_seed, degraded_fraction))
    }

    /// Builds a plan from a raw, possibly damaged execution trace: runs
    /// [`TraceValidator`] (repair what can be repaired, quarantine the
    /// rest), reconstructs one time per invocation, inflates the error
    /// model by the degraded fraction, and returns the plan together with
    /// the [`DataQualityReport`] describing what the validator found.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::Validation`] when nothing usable survives
    /// validation, plus everything
    /// [`StemRootSampler::plan_from_times`] reports.
    pub fn plan_from_trace(
        &self,
        workload: &Workload,
        records: &[TraceRecord],
        rep_seed: u64,
    ) -> Result<(SamplingPlan, DataQualityReport), StemError> {
        if workload.num_invocations() == 0 {
            return Err(StemError::EmptyWorkload);
        }
        let expected = workload.num_invocations() as u64;
        let validator = TraceValidator::new().with_expected_len(expected);
        let (clean, report) = validator.validate(records)?;
        let times = reconstructed_times(&clean, expected);
        let plan =
            self.try_plan_degraded(workload, &times, rep_seed, report.degraded_fraction())?;
        Ok((plan, report))
    }

    /// The config ROOT runs with: the sampler's own, or, without ROOT, one
    /// that never splits (one cluster per kernel name).
    fn root_config(&self) -> Cow<'_, StemConfig> {
        if self.enable_root {
            Cow::Borrowed(&self.config)
        } else {
            let mut cfg = self.config.clone();
            cfg.max_depth = 1;
            cfg.min_split_size = usize::MAX;
            Cow::Owned(cfg)
        }
    }
}

/// The memo is an identity-free performance artifact; a clone starts
/// cold so builder-style reconfiguration of the copy can never observe
/// clusterings computed under the original's settings.
impl Clone for StemRootSampler {
    fn clone(&self) -> Self {
        StemRootSampler {
            config: self.config.clone(),
            profiler: self.profiler.clone(),
            sizing: self.sizing,
            enable_root: self.enable_root,
            memo: cluster_memo(CLUSTER_MEMO_BYTES),
            parallelism: self.parallelism,
        }
    }
}

impl KernelSampler for StemRootSampler {
    fn name(&self) -> &'static str {
        "STEM"
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        assert!(
            workload.num_invocations() > 0,
            "cannot sample an empty workload"
        );
        let clusters = self.cached_clusters(workload);
        self.plan_from_clusters(workload, &clusters, rep_seed, 0.0)
    }
}

impl StemRootSampler {
    fn plan_inner_degraded(
        &self,
        workload: &Workload,
        times: &[f64],
        rep_seed: u64,
        degraded_fraction: f64,
    ) -> SamplingPlan {
        let clusters = cluster_workload_par(workload, times, &self.root_config(), self.parallelism);
        self.plan_from_clusters(workload, &clusters, rep_seed, degraded_fraction)
    }

    /// Sizing + selection from an already-built clustering. Only this
    /// stage consumes `rep_seed`, which is what makes the clustering
    /// memoizable across repetitions.
    fn plan_from_clusters(
        &self,
        workload: &Workload,
        clusters: &[KernelCluster],
        rep_seed: u64,
        degraded_fraction: f64,
    ) -> SamplingPlan {
        let measured: Vec<_> = clusters.iter().map(|c| c.stat).collect();
        // Sizing runs against the inflated statistics; the plan's cluster
        // summaries keep the measured ones (they describe the data, not
        // the safety margin).
        let stats = inflate_cluster_stats(&measured, degraded_fraction);
        let eps = self.config.epsilon;
        let z = self.config.z();

        let (mut sizes, predicted_error) = match self.sizing {
            Sizing::JointKkt => {
                let sol = solve_sample_sizes(&stats, eps, z);
                (sol.sizes, sol.predicted_error)
            }
            Sizing::PerCluster => {
                let sizes = per_cluster_sample_sizes(&stats, eps, z);
                let e = stem_stats::bound::theoretical_error(&stats, &sizes, z);
                (sizes, e)
            }
        };

        if self.config.small_sample_correction {
            apply_small_sample_correction(&mut sizes, &stats, self.config.confidence, z);
        }

        let mut rng = StdRng::seed_from_u64(rep_seed ^ self.config.profile_seed.rotate_left(17));
        let mut samples = Vec::new();
        let mut summaries = Vec::with_capacity(clusters.len());
        for (cluster, &m) in clusters.iter().zip(&sizes) {
            let n = cluster.members.len();
            let m = (m as usize).clamp(1, n.max(1));
            let weight = n as f64 / m as f64;
            if m == n {
                // Fully simulated: take every member once, exactly.
                for &idx in &cluster.members {
                    samples.push(WeightedSample::new(idx as usize, 1.0));
                }
            } else {
                // Random sampling with replacement (i.i.d. for the CLT).
                for _ in 0..m {
                    let pick = cluster.members[rng.random_range(0..n)];
                    samples.push(WeightedSample::new(pick as usize, weight));
                }
            }
            summaries.push(ClusterSummary {
                kernel: workload.kernels()[cluster.kernel.index()].name.clone(),
                population: n as u64,
                mean_time: cluster.stat.mean,
                std_time: cluster.stat.std_dev,
                samples: m as u64,
            });
        }

        SamplingPlan::new(self.name(), samples, summaries, predicted_error)
    }
}

/// Inflates sample sizes of small clusters using Student's t critical
/// value (df = m - 1) in place of z, by fixed-point iteration:
/// `m' = ceil(m * (t/z)^2)` until stable. The CLT's normal interval is
/// anticonservative below ~30 samples (the Sec. 3.2 rule-of-thumb caveat);
/// this makes the bound honest there. Sizes of 1 (no degrees of freedom)
/// and fully-simulated clusters (exact) are untouched.
fn apply_small_sample_correction(
    sizes: &mut [u64],
    stats: &[stem_stats::kkt::ClusterStat],
    confidence: f64,
    z: f64,
) {
    for (m, stat) in sizes.iter_mut().zip(stats) {
        if *m < 2 || *m >= 30 || *m >= stat.n {
            continue;
        }
        // The z-based size satisfies m_base ~ (z * cov / eps)^2; the
        // t-based requirement is m >= (t_{m-1} * cov / eps)^2
        // = m_base * (t_{m-1} / z)^2. Scan upward for the smallest such m
        // (the right side shrinks as m grows, so this terminates).
        let m_base = *m as f64;
        let mut candidate = *m;
        loop {
            let t = stem_stats::student_t::t_for_confidence(confidence, (candidate - 1) as f64);
            let required = m_base * (t / z).powi(2);
            if candidate as f64 >= required || candidate >= stat.n {
                break;
            }
            candidate += 1;
        }
        *m = candidate.min(stat.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, Simulator};
    use gpu_workload::suites::{casio_suite, rodinia_suite};

    fn sampler() -> StemRootSampler {
        StemRootSampler::new(StemConfig::paper())
    }

    #[test]
    fn adjacent_ulp_times_plan_without_panicking() {
        // Two values one ulp apart: the split midpoint rounds onto the
        // lower one, which once left ROOT an empty lower child.
        use gpu_workload::kernel::KernelClassBuilder;
        use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};
        let mut b = WorkloadBuilder::new("ulp", SuiteKind::Custom, 1);
        let k = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![RuntimeContext::neutral()],
        );
        for _ in 0..1000 {
            b.invoke(k, 0, 1.0);
        }
        let w = b.build();
        let (a, up) = (1000.0_f64, 1000.0_f64.next_up());
        let times: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { a } else { up }).collect();
        let plan = sampler()
            .plan_from_times(&w, &times, 7)
            .expect("adjacent-ulp times are valid profiles");
        assert!(plan.num_samples() >= 1);
    }

    #[test]
    fn plan_meets_bound_on_rodinia() {
        let suite = rodinia_suite(11);
        let sim = Simulator::new(GpuConfig::rtx2080());
        for w in suite.iter().take(4) {
            let full = sim.run_full(w);
            let plan = sampler().plan(w, 1);
            let run = sim.run_sampled(w, plan.samples());
            let err = run.error(full.total_cycles);
            assert!(
                err < 0.06,
                "{}: error {err} exceeds bound (predicted {})",
                w.name(),
                plan.predicted_error()
            );
        }
    }

    #[test]
    fn heartwall_handled() {
        // The PKA/Sieve killer: STEM must stay accurate.
        let suite = rodinia_suite(11);
        let h = suite
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("heartwall");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(h);
        let plan = sampler().plan(h, 3);
        let run = sim.run_sampled(h, plan.samples());
        assert!(run.error(full.total_cycles) < 0.05);
    }

    #[test]
    fn casio_error_is_near_zero_with_large_speedup() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "resnet50_infer")
            .expect("resnet");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let plan = sampler().plan(w, 5);
        let run = sim.run_sampled(w, plan.samples());
        let err = run.error(full.total_cycles);
        let speedup = run.speedup(full.total_cycles);
        assert!(err < 0.02, "error {err}");
        assert!(speedup > 10.0, "speedup {speedup}");
    }

    #[test]
    fn multi_peak_kernels_get_multiple_clusters() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "resnet50_infer")
            .expect("resnet");
        let s = sampler();
        let clusters = s.clusters(w);
        let bn_clusters = clusters
            .iter()
            .filter(|c| w.kernels()[c.kernel.index()].name.starts_with("bn_fw_inf"))
            .count();
        assert!(bn_clusters >= 2, "bn split into {bn_clusters} clusters");
    }

    #[test]
    fn kkt_sizing_uses_fewer_samples_than_per_cluster() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "bert_infer")
            .expect("bert");
        let joint = sampler().plan(w, 1).num_samples();
        let per = sampler()
            .with_sizing(Sizing::PerCluster)
            .plan(w, 1)
            .num_samples();
        // The joint KKT optimum never needs more samples than per-cluster
        // sizing (up to integer rounding); the exact ratio depends on the
        // sample draw. 1.3 under the old `rand` stream, 1.27 under
        // `stem-core::rng` — assert the seed-robust margin.
        assert!(
            per as f64 / joint as f64 > 1.1,
            "per-cluster {per} vs joint {joint}"
        );
    }

    #[test]
    fn without_root_has_one_cluster_per_kernel() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "resnet50_infer")
            .expect("resnet");
        let s = sampler().without_root();
        let clusters = s.clusters(w);
        assert_eq!(clusters.len(), w.kernels().len());
    }

    #[test]
    fn root_reduces_samples_on_multimodal_workloads() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "resnet50_infer")
            .expect("resnet");
        let with_root = sampler().plan(w, 2).num_samples();
        let without = sampler().without_root().plan(w, 2).num_samples();
        assert!(with_root < without, "root {with_root} vs flat {without}");
    }

    #[test]
    fn small_sample_correction_never_reduces_samples() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "bert_infer")
            .expect("bert");
        let base = sampler().plan(w, 1);
        let corrected =
            StemRootSampler::new(StemConfig::paper().with_small_sample_correction()).plan(w, 1);
        assert!(corrected.num_samples() >= base.num_samples());
        // Per-cluster: corrected sizes dominate the base sizes.
        for (b, c) in base.clusters().iter().zip(corrected.clusters()) {
            assert!(
                c.samples >= b.samples,
                "{}: {} < {}",
                b.kernel,
                c.samples,
                b.samples
            );
        }
        // Sizes already exact (m == N) or singleton stay put.
        for (b, c) in base.clusters().iter().zip(corrected.clusters()) {
            if b.samples == 1 || b.samples >= b.population {
                assert_eq!(b.samples, c.samples);
            }
        }
    }

    #[test]
    fn small_sample_correction_stays_within_bound() {
        let suite = rodinia_suite(11);
        let w = &suite[3];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let s = StemRootSampler::new(StemConfig::paper().with_small_sample_correction());
        let run = sim.run_sampled(w, s.plan(w, 1).samples());
        assert!(run.error(full.total_cycles) < 0.05);
    }

    #[test]
    fn parallel_planning_is_bit_identical() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "resnet50_infer")
            .expect("resnet");
        let serial = sampler().plan(w, 4);
        let serial_clusters = sampler().clusters(w);
        for threads in [1usize, 2, 3, 8] {
            let s = sampler().with_parallelism(Parallelism::with_threads(threads));
            assert_eq!(s.plan(w, 4), serial, "plan differs at threads = {threads}");
            assert_eq!(
                s.clusters(w),
                serial_clusters,
                "clusters differ at threads = {threads}"
            );
        }
    }

    #[test]
    fn reps_differ_but_are_deterministic() {
        let suite = rodinia_suite(11);
        let w = &suite[0];
        let s = sampler();
        let a = s.plan(w, 1);
        let b = s.plan(w, 2);
        let a2 = s.plan(w, 1);
        assert_eq!(a, a2);
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn memoized_plans_match_uncached_paths() {
        let suite = casio_suite(11);
        let w = suite
            .iter()
            .find(|w| w.name() == "bert_infer")
            .expect("bert");
        let s = sampler();
        let warm = s.plan(w, 7);
        // Second call is served from the memo; a fresh sampler recomputes.
        assert_eq!(warm, s.plan(w, 7));
        assert_eq!(warm, sampler().plan(w, 7));
        // The external-times planner (never cached) fed the same internal
        // profile must agree bit-for-bit.
        let cfg = StemConfig::paper();
        let profiler = ExecTimeProfiler::new(cfg.profile_config.clone(), cfg.profile_seed);
        let times = profiler.profile_par(w, Parallelism::serial());
        assert_eq!(warm, s.plan_from_times(w, &times, 7).expect("plan"));
        // Reconfiguring a clone must not observe the warm memo.
        let flat = s.clone().without_root();
        assert_eq!(flat.clusters(w).len(), w.kernels().len());
    }

    #[test]
    fn weights_reconstruct_population() {
        let suite = rodinia_suite(11);
        let w = &suite[2];
        let plan = sampler().plan(w, 1);
        let total = plan.total_weight();
        let n = w.num_invocations() as f64;
        assert!(
            (total - n).abs() / n < 1e-9,
            "total weight {total} vs population {n}"
        );
    }

    #[test]
    fn a_cycle_over_every_rodinia_and_casio_workload_profiles_each_once() {
        let suite: Vec<Workload> = rodinia_suite(11)
            .into_iter()
            .chain(casio_suite(11))
            .collect();
        assert_eq!(suite.len(), 24);
        let s = sampler();
        let mut first = Vec::new();
        for cycle in 0..3u64 {
            for (i, w) in suite.iter().enumerate() {
                let plan = s.plan(w, cycle);
                if cycle == 0 {
                    first.push(plan);
                } else if cycle == 2 {
                    assert_eq!(s.plan(w, 0), first[i], "{}", w.name());
                }
            }
        }
        assert_eq!(
            s.memo.misses(),
            suite.len() as u64,
            "each workload profiled once"
        );
        assert_eq!(s.memo.evictions(), 0, "the suites fit the memo budget");
    }

    #[test]
    fn a_one_entry_memo_plans_like_a_fresh_sampler() {
        let rodinia = rodinia_suite(11);
        let casio = casio_suite(11);
        let visits = [
            &rodinia[0],
            &rodinia[0],
            &casio[3],
            &rodinia[2],
            &rodinia[0],
            &casio[3],
        ];
        let s = sampler().with_memo_budget(1);
        for (seed, w) in visits.iter().enumerate() {
            let seed = seed as u64;
            assert_eq!(s.plan(w, seed), sampler().plan(w, seed), "{}", w.name());
            // The newest entry always stays: a repeat reuses it.
            assert_eq!(s.plan(w, seed + 100), sampler().plan(w, seed + 100));
        }
        // Every change of workload evicted the one before.
        assert_eq!(s.memo.misses(), visits.len() as u64 - 1);
        assert_eq!(s.memo.len(), 1);
    }
}
