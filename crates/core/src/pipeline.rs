//! The end-to-end sampled-simulation pipeline of Fig. 5: profile → sample →
//! simulate → report.

use crate::degrade::RecoveryPolicy;
use crate::error::StemError;
use crate::eval::{rep_seed, EvalResult, EvalSummary};
use crate::plan::SamplingPlan;
use crate::sampler::KernelSampler;
use crate::stem::StemRootSampler;
use gpu_profile::validate::reconstructed_times;
use gpu_profile::{DataQualityReport, ExecFaultPlan, TraceRecord, TraceValidator};
use gpu_sim::{FullRun, SimCache, Simulator};
use gpu_workload::Workload;
use std::convert::Infallible;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use stem_par::{Parallelism, Supervisor};
use stem_storage::{RealFs, Storage};

/// Convenience driver binding a target simulator and experiment settings.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), stem_core::StemError> {
/// use gpu_sim::{GpuConfig, Simulator};
/// use gpu_workload::suites::rodinia_suite;
/// use stem_core::{Pipeline, StemConfig, StemRootSampler};
///
/// let sim = Simulator::new(GpuConfig::rtx2080());
/// let pipeline = Pipeline::new(sim).with_reps(3)?;
/// let sampler = StemRootSampler::new(StemConfig::default());
/// let summary = pipeline.run(&sampler, &rodinia_suite(7)[0]);
/// assert!(summary.mean_error_pct < 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) sim: Simulator,
    pub(crate) reps: u32,
    pub(crate) base_seed: u64,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) parallelism: Parallelism,
    pub(crate) supervisor: Supervisor,
    pub(crate) exec_faults: Option<ExecFaultPlan>,
    pub(crate) shared_cache: Option<Arc<SimCache>>,
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    pub(crate) storage: Arc<dyn Storage>,
}

impl Pipeline {
    /// Creates a pipeline targeting `sim`, with the paper's 10 repetitions,
    /// the repair-and-degrade recovery policy, and the environment's thread
    /// budget (`STEM_THREADS`, else `available_parallelism()`). Results
    /// are bit-identical at every thread count; `STEM_THREADS=1` runs the
    /// plain serial code path.
    pub fn new(sim: Simulator) -> Self {
        Pipeline {
            sim,
            reps: 10,
            base_seed: 1,
            recovery: RecoveryPolicy::default(),
            parallelism: Parallelism::from_env(),
            supervisor: Supervisor::new(),
            exec_faults: None,
            shared_cache: None,
            cancel: None,
            storage: Arc::new(RealFs),
        }
    }

    /// Overrides the repetition count.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] if `reps == 0` — at least one
    /// repetition required.
    pub fn with_reps(mut self, reps: u32) -> Result<Self, StemError> {
        if reps == 0 {
            return Err(StemError::InvalidConfig(
                "at least one repetition required".to_string(),
            ));
        }
        self.reps = reps;
        Ok(self)
    }

    /// Overrides the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides how [`Pipeline::run_from_profile`] responds to traces
    /// that needed repair.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Overrides the thread budget (ground-truth simulation and the
    /// repetition loop both use it).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Overrides the worker supervisor (retry budget and soft deadline)
    /// used by the supervised execution paths
    /// ([`Pipeline::run_from_profile`], [`Pipeline::run_campaign`],
    /// [`Pipeline::resume_from`]).
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Installs a runtime fault plan — injected worker panics, stalls,
    /// and simulated process kills — for chaos testing the supervised
    /// execution paths. Faults derive from `(plan seed, task index)`, so
    /// they replay identically at every thread count.
    pub fn with_exec_faults(mut self, faults: ExecFaultPlan) -> Self {
        self.exec_faults = Some(faults);
        self
    }

    /// Shares a caller-owned memo cache across pipeline runs. Cache hits
    /// return pure, bit-identical timing values, so sharing one cache
    /// between campaigns (or tenants of a long-lived service) is sound:
    /// results never depend on who warmed an entry. Without this, each
    /// run ([`Pipeline::run`], [`Pipeline::run_from_profile`], a campaign)
    /// builds a private cold cache.
    pub fn with_shared_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Installs a cooperative cancellation flag checked between campaign
    /// units. When the flag is raised, no new `(workload, rep)` unit is
    /// admitted and the campaign returns [`StemError::Interrupted`] with
    /// the completed-unit count; the snapshot keeps everything finished so
    /// far, and [`Pipeline::resume_from`] continues bit-identically.
    pub fn with_cancel_flag(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Overrides the [`Storage`] behind every durable write this
    /// pipeline performs (campaign snapshots). Defaults to the real
    /// filesystem ([`RealFs`]); the chaos crate's `FaultFs` plugs in
    /// here to drive the crash-point explorer and storage fault sweeps.
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Ground-truth total `t*` of Eq. (1) via [`gpu_sim::workload_total`],
    /// the in-memory group fold: one deterministic core per invocation
    /// group, then every invocation's jittered cycles summed in stream
    /// order, with no per-invocation vector. Bit-identical to
    /// `run_full(workload).total_cycles` at every thread count. Every
    /// evaluation path ([`Pipeline::run`], [`Pipeline::run_from_profile`],
    /// the campaigns) takes its ground truth from this fold.
    ///
    /// # Errors
    ///
    /// [`StemError::GroundTruth`] if the fold rejects the workload: a work
    /// scale that is not finite-positive, or content that no longer
    /// matches the workload's fingerprint (only reachable for a workload
    /// whose invocations escape construction validation).
    pub fn ground_truth_total(&self, workload: &Workload) -> Result<f64, StemError> {
        self.ground_truth_total_on(workload, self.parallelism, &self.memo_cache())
    }

    /// [`Pipeline::ground_truth_total`] on an explicit thread budget (a
    /// campaign folds each total inside one serial unit), read through
    /// `cache`'s totals memo: a pipeline with a shared cache folds each
    /// workload once.
    pub(crate) fn ground_truth_total_on(
        &self,
        workload: &Workload,
        par: Parallelism,
        cache: &SimCache,
    ) -> Result<f64, StemError> {
        self.sim
            .workload_total_cached(workload, par, cache)
            .map_err(|e| StemError::GroundTruth(e.to_string()))
    }

    /// Runs the whole pipeline for one sampler on one workload: the ground
    /// truth from [`Pipeline::ground_truth_total`], then the pipeline's
    /// repetitions across its thread budget, folded into one summary.
    ///
    /// # Panics
    ///
    /// Panics with the fold's typed message if
    /// [`Pipeline::ground_truth_total`] rejects the workload (for example
    /// a work scale that is not finite-positive);
    /// [`Pipeline::run_campaign`] returns the same failure as
    /// [`StemError::GroundTruth`]. Also panics wherever the sampler's
    /// [`KernelSampler::plan`] does.
    pub fn run(&self, sampler: &dyn KernelSampler, workload: &Workload) -> EvalSummary {
        let cache = self.memo_cache();
        match self.ground_truth_total_on(workload, self.parallelism, &cache) {
            Ok(full_total) => self.run_total(sampler, workload, full_total, &cache),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Pipeline::run`] against a precomputed [`FullRun`]'s total instead
    /// of the in-memory fold. Kept because perfbench's `serve_jobs` oracle
    /// compiles against it; new code should call [`Pipeline::run`].
    pub fn run_against(
        &self,
        sampler: &dyn KernelSampler,
        workload: &Workload,
        full: &FullRun,
    ) -> EvalSummary {
        self.run_total(sampler, workload, full.total_cycles, &self.memo_cache())
    }

    /// The unsupervised rep loop behind [`Pipeline::run`]: reps run on
    /// the `stem-par` pool and fold in rep order, so the summary is
    /// bit-identical at every thread count.
    fn run_total(
        &self,
        sampler: &dyn KernelSampler,
        workload: &Workload,
        full_total: f64,
        cache: &SimCache,
    ) -> EvalSummary {
        let results = stem_par::par_map_range(self.parallelism, self.reps as usize, |rep| {
            let Ok(result) = self.rep_unit(
                sampler.name(),
                workload,
                full_total,
                cache,
                rep as u64,
                |seed| Ok::<_, Infallible>(sampler.plan(workload, seed)),
            );
            result
        });
        EvalSummary::fold(sampler.name(), workload.name(), results)
    }

    /// One repetition, the unit body every evaluation driver runs: plan
    /// with the rep's seed ([`rep_seed`]), simulate the plan's samples
    /// through `cache`, and score the estimate against `full_total`.
    /// Depends on the rep index only, so a retried or resumed rep
    /// recomputes the same bits.
    pub(crate) fn rep_unit<E>(
        &self,
        method: &str,
        workload: &Workload,
        full_total: f64,
        cache: &SimCache,
        rep: u64,
        plan: impl FnOnce(u64) -> Result<SamplingPlan, E>,
    ) -> Result<EvalResult, E> {
        let plan = plan(rep_seed(self.base_seed, rep))?;
        let run =
            self.sim
                .run_sampled_cached(workload, plan.samples(), Parallelism::serial(), cache);
        Ok(EvalResult {
            method: method.to_string(),
            workload: workload.name().to_string(),
            error_pct: run.error(full_total) * 100.0,
            speedup: run.speedup(full_total),
            num_samples: plan.num_samples(),
            predicted_error_pct: plan.predicted_error() * 100.0,
        })
    }

    /// The memo cache one run's reps share: the caller's cache if one was
    /// set ([`Pipeline::with_shared_cache`]), else a private cold one.
    pub(crate) fn memo_cache(&self) -> Arc<SimCache> {
        self.shared_cache
            .clone()
            .unwrap_or_else(|| Arc::new(SimCache::new()))
    }

    /// Runs the pipeline from an *externally ingested* execution trace
    /// instead of the built-in profiler — the chaos-hardened entry point.
    ///
    /// The trace is first passed through [`TraceValidator`]: duplicates
    /// are dropped, out-of-order records re-sorted, corrupt times repaired
    /// from interval evidence or median-imputed, and gaps counted. Under
    /// [`RecoveryPolicy::FailFast`] any detected fault aborts the run;
    /// under [`RecoveryPolicy::RepairAndDegrade`] (the default) the
    /// sampler plans from the repaired trace with its error model widened
    /// by the degraded fraction, so the reported bound stays honest. The
    /// quality report is returned alongside the evaluation so callers can
    /// audit what the validator did.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::EmptyWorkload`], [`StemError::Validation`]
    /// when nothing usable survives validation,
    /// [`StemError::DegradedTrace`] under fail-fast with a damaged trace,
    /// or any planning error from
    /// [`StemRootSampler::try_plan_degraded`].
    pub fn run_from_profile(
        &self,
        sampler: &StemRootSampler,
        workload: &Workload,
        records: &[TraceRecord],
    ) -> Result<(EvalSummary, DataQualityReport), StemError> {
        if workload.num_invocations() == 0 {
            return Err(StemError::EmptyWorkload);
        }
        let expected = workload.num_invocations() as u64;
        let validator = TraceValidator::new().with_expected_len(expected);
        let (clean, report) = validator.validate(records)?;
        self.run_validated(sampler, workload, &clean, report)
    }

    /// Like [`Pipeline::run_from_profile`], but ingests the trace as a CSV
    /// document (`index,start,time` or `index,time` header), so even
    /// row-level damage — ragged rows, unparsable cells — flows through
    /// the same validate → repair → degrade path.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::run_from_profile`].
    pub fn run_from_csv(
        &self,
        sampler: &StemRootSampler,
        workload: &Workload,
        csv: &str,
    ) -> Result<(EvalSummary, DataQualityReport), StemError> {
        if workload.num_invocations() == 0 {
            return Err(StemError::EmptyWorkload);
        }
        let expected = workload.num_invocations() as u64;
        let validator = TraceValidator::new().with_expected_len(expected);
        let (clean, report) = validator.validate_csv(csv)?;
        self.run_validated(sampler, workload, &clean, report)
    }

    fn run_validated(
        &self,
        sampler: &StemRootSampler,
        workload: &Workload,
        clean: &[TraceRecord],
        report: DataQualityReport,
    ) -> Result<(EvalSummary, DataQualityReport), StemError> {
        if self.recovery == RecoveryPolicy::FailFast && !report.is_clean() {
            return Err(StemError::DegradedTrace(Box::new(report)));
        }
        let expected = workload.num_invocations() as u64;
        let times = reconstructed_times(clean, expected);
        let degraded = report.degraded_fraction();

        let cache = self.memo_cache();
        let full_total = self.ground_truth_total_on(workload, self.parallelism, &cache)?;
        // Repetitions run on supervised worker threads: a panicking rep is
        // retried within the supervisor's budget (a retry recomputes the
        // same bits — randomness is index-derived), and any planning
        // failure is reported for the *lowest failing rep* — so success
        // and error behavior match the serial loop.
        let (outcomes, _exec_log) = stem_par::supervised_map_range(
            self.parallelism,
            self.reps as usize,
            &self.supervisor,
            |ctx| -> Result<EvalResult, StemError> {
                if let Some(faults) = &self.exec_faults {
                    faults.inject(ctx.index as u64, ctx.attempt);
                }
                self.rep_unit(
                    sampler.name(),
                    workload,
                    full_total,
                    &cache,
                    ctx.index as u64,
                    |seed| sampler.try_plan_degraded(workload, &times, seed, degraded),
                )
            },
        )
        .map_err(StemError::TaskFailure)?;
        let results = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        let summary = EvalSummary::fold(sampler.name(), workload.name(), results);
        Ok((summary, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StemConfig;
    use crate::stem::StemRootSampler;
    use gpu_profile::ExecTimeProfiler;
    use gpu_sim::{simulator, GpuConfig};
    use gpu_workload::kernel::KernelClassBuilder;
    use gpu_workload::suites::rodinia_suite;
    use gpu_workload::{Invocation, KernelId, RuntimeContext, SuiteKind};

    fn pipeline(reps: u32) -> Pipeline {
        Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(reps)
            .expect("positive reps")
    }

    #[test]
    fn run_aggregates_reps_and_matches_a_full_run_oracle() {
        let suite = rodinia_suite(17);
        let w = &suite[2];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let full = simulator::reference::run_full(&Simulator::new(GpuConfig::rtx2080()), w);
        for threads in [1usize, 4] {
            let p = pipeline(3).with_parallelism(Parallelism::with_threads(threads));
            let summary = p.run(&sampler, w);
            assert_eq!(summary.results.len(), 3);
            assert_eq!(summary.method, "STEM");
            assert!(summary.mean_error_pct < 6.0);
            assert!(summary.harmonic_speedup >= 1.0);
            assert_eq!(
                p.run_against(&sampler, w, &full),
                summary,
                "{threads} threads"
            );
            let total = p.ground_truth_total(w).expect("valid workload folds");
            assert_eq!(total.to_bits(), full.total_cycles.to_bits());
        }
    }

    /// Two one-context kernels and one bad row: a NaN work scale that
    /// bypassed `Invocation::with_work`'s assert, as a damaged stream would.
    fn nan_work_scale_workload() -> Workload {
        let row = |kernel: u32, work_scale: f32, noise_z: f32| Invocation {
            kernel: KernelId(kernel),
            context: 0,
            work_scale,
            noise_z,
        };
        Workload::new(
            "hand",
            SuiteKind::Custom,
            vec![
                KernelClassBuilder::new("a").build(),
                KernelClassBuilder::new("b").build(),
            ],
            vec![
                vec![RuntimeContext::neutral()],
                vec![RuntimeContext::neutral()],
            ],
            vec![
                row(0, 1.0, 0.1),
                row(1, 2.0, 0.2),
                row(1, f32::NAN, 0.3),
                row(0, 1.0, 0.4),
            ],
        )
    }

    #[test]
    #[should_panic(expected = "work scale NaN not finite-positive")]
    fn run_panics_up_front_with_the_folds_message() {
        let sampler = StemRootSampler::new(StemConfig::paper());
        pipeline(2).run(&sampler, &nan_work_scale_workload());
    }

    #[test]
    fn campaign_reports_a_rejected_ground_truth_as_typed() {
        let dir = std::env::temp_dir().join(format!("stem-pipeline-nan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let sampler = StemRootSampler::new(StemConfig::paper());
        let e = pipeline(2)
            .run_campaign(&sampler, &[nan_work_scale_workload()], &dir.join("snap"))
            .expect_err("NaN work scale");
        let _ = std::fs::remove_dir_all(&dir);
        match e {
            StemError::GroundTruth(msg) => {
                assert!(msg.contains("work scale NaN not finite-positive"), "{msg}");
            }
            other => panic!("wanted GroundTruth, got {other}"),
        }
    }

    #[test]
    fn zero_reps_rejected() {
        let e = Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(0)
            .expect_err("zero reps");
        assert!(e.to_string().contains("at least one repetition"));
        assert!(matches!(e, StemError::InvalidConfig(_)));
    }

    #[test]
    fn clean_trace_runs_and_reports_clean() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 3).profile(w);
        let records = TraceRecord::sequence(&times);
        let (summary, report) = pipeline(2)
            .run_from_profile(&sampler, w, &records)
            .expect("clean trace");
        assert!(report.is_clean());
        assert_eq!(summary.results.len(), 2);
        assert!(summary.mean_error_pct < 6.0);
    }

    #[test]
    fn fail_fast_refuses_damaged_trace() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 3).profile(w);
        let mut records = TraceRecord::sequence(&times);
        records.truncate(records.len() / 2);
        let e = pipeline(2)
            .with_recovery(RecoveryPolicy::FailFast)
            .run_from_profile(&sampler, w, &records)
            .expect_err("damaged trace");
        match e {
            StemError::DegradedTrace(report) => assert!(!report.is_clean()),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn repair_and_degrade_completes_on_damaged_trace() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 3).profile(w);
        let mut records = TraceRecord::sequence(&times);
        records.truncate(records.len() / 2);
        let (summary, report) = pipeline(2)
            .run_from_profile(&sampler, w, &records)
            .expect("repairable trace");
        assert!(!report.is_clean());
        assert!(report.truncated_tail > 0);
        // The estimator re-simulates true values, so even a half trace
        // keeps the error bounded once degradation inflates the model.
        assert!(summary.mean_error_pct < 25.0, "{}", summary.mean_error_pct);
    }

    #[test]
    fn empty_workload_is_typed_error() {
        let suite = rodinia_suite(17);
        let w = &suite[1];
        let sampler = StemRootSampler::new(StemConfig::paper());
        let e = pipeline(1)
            .run_from_profile(&sampler, w, &[])
            .expect_err("empty trace");
        assert!(matches!(e, StemError::Validation(_)));
    }
}
