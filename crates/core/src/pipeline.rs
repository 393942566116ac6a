//! The end-to-end sampled-simulation pipeline of Fig. 5: profile → sample →
//! simulate → report.

use crate::degrade::RecoveryPolicy;
use crate::error::StemError;
use crate::eval::{evaluate_par, evaluate_total_par, EvalResult, EvalSummary, StreamingAggregate};
use crate::sampler::KernelSampler;
use crate::stem::StemRootSampler;
use gpu_profile::validate::reconstructed_times;
use gpu_profile::{DataQualityReport, ExecFaultPlan, TraceRecord, TraceValidator};
use gpu_sim::{FullRun, SimCache, Simulator};
use gpu_workload::Workload;
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
    /// campaign run builds a private cold cache.
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

    /// The storage behind this pipeline's durable writes.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// The thread budget in effect.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The worker supervisor in effect.
    pub fn supervisor(&self) -> Supervisor {
        self.supervisor
    }

    /// The recovery policy in effect.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The target simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Ground-truth full simulation (exposed so callers can reuse it across
    /// methods — it is by far the most expensive step). Materializes the
    /// per-invocation cycle vector; when only the total is needed, prefer
    /// [`Pipeline::ground_truth_total`], which streams blocks instead.
    pub fn full_run(&self, workload: &Workload) -> FullRun {
        self.sim.run_full_par(workload, self.parallelism)
    }

    /// Ground-truth total via [`gpu_sim::workload_total`], the in-memory
    /// group fold — bit-identical to [`Pipeline::full_run`]'s
    /// `total_cycles` at every thread count, without ever materializing a
    /// per-invocation vector. The campaign paths compute their totals
    /// this way.
    ///
    /// # Errors
    ///
    /// [`StemError::GroundTruth`] if the block stream is rejected (only
    /// reachable for a workload whose invocations escape construction
    /// validation).
    pub fn ground_truth_total(&self, workload: &Workload) -> Result<f64, StemError> {
        gpu_sim::workload_total(
            &self.sim,
            self.parallelism,
            workload,
            gpu_workload::DEFAULT_BLOCK_LEN,
            gpu_sim::DEFAULT_CHANNEL_BLOCKS,
        )
        .map(|t| t.total_cycles)
        .map_err(|e| StemError::GroundTruth(e.to_string()))
    }

    /// Runs the whole pipeline for one sampler on one workload.
    pub fn run(&self, sampler: &dyn KernelSampler, workload: &Workload) -> EvalSummary {
        let full = self.full_run(workload);
        self.run_against(sampler, workload, &full)
    }

    /// [`Pipeline::run`] with the ground truth folded by
    /// [`Pipeline::ground_truth_total`]. Identical arithmetic — the
    /// summary is bit-identical to [`Pipeline::run`] — but no
    /// per-invocation cycle vector is ever built, so this is the
    /// paper-scale entry point.
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::ground_truth_total`].
    pub fn run_streamed(
        &self,
        sampler: &dyn KernelSampler,
        workload: &Workload,
    ) -> Result<EvalSummary, StemError> {
        let full_total = self.ground_truth_total(workload)?;
        Ok(evaluate_total_par(
            sampler,
            workload,
            &self.sim,
            full_total,
            self.reps,
            self.base_seed,
            self.parallelism,
        ))
    }

    /// Runs against a precomputed full run.
    pub fn run_against(
        &self,
        sampler: &dyn KernelSampler,
        workload: &Workload,
        full: &FullRun,
    ) -> EvalSummary {
        evaluate_par(
            sampler,
            workload,
            &self.sim,
            full,
            self.reps,
            self.base_seed,
            self.parallelism,
        )
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

        let full = self.full_run(workload);
        // Repetitions run on supervised worker threads: seeds derive from
        // the rep index, reps share a memo cache of pure timing results,
        // a panicking rep is retried within the supervisor's budget (a
        // retry recomputes the same bits — randomness is index-derived),
        // and any planning failure is reported for the *lowest failing
        // rep* — so success and error behavior match the serial loop.
        let local_cache;
        let cache: &SimCache = match &self.shared_cache {
            Some(shared) => shared,
            None => {
                local_cache = SimCache::new();
                &local_cache
            }
        };
        let (outcomes, _exec_log) = stem_par::supervised_map_range(
            self.parallelism,
            self.reps as usize,
            &self.supervisor,
            |ctx| -> Result<EvalResult, StemError> {
                if let Some(faults) = &self.exec_faults {
                    faults.inject(ctx.index as u64, ctx.attempt);
                }
                let seed = self
                    .base_seed
                    .wrapping_add(ctx.index as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15);
                let plan = sampler.try_plan_degraded(workload, &times, seed, degraded)?;
                let run = self.sim.run_sampled_cached(
                    workload,
                    plan.samples(),
                    Parallelism::serial(),
                    cache,
                );
                Ok(EvalResult {
                    method: plan.method().to_string(),
                    workload: workload.name().to_string(),
                    error_pct: run.error(full.total_cycles) * 100.0,
                    speedup: run.speedup(full.total_cycles),
                    num_samples: plan.num_samples(),
                    predicted_error_pct: plan.predicted_error() * 100.0,
                })
            },
        )
        .map_err(StemError::TaskFailure)?;
        // Stream every rep through the fold once; aggregation order is the
        // rep index order, bit-identical to the old collect-then-mean pass.
        let mut results = Vec::with_capacity(self.reps as usize);
        let mut agg = StreamingAggregate::new();
        for outcome in outcomes {
            let result = outcome?;
            agg.push(result.error_pct, result.speedup);
            results.push(result);
        }
        let summary = EvalSummary {
            method: sampler.name().to_string(),
            workload: workload.name().to_string(),
            mean_error_pct: agg.mean_error_pct(),
            harmonic_speedup: agg.harmonic_speedup(),
            results,
        };
        Ok((summary, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StemConfig;
    use crate::stem::StemRootSampler;
    use gpu_profile::ExecTimeProfiler;
    use gpu_sim::GpuConfig;
    use gpu_workload::suites::rodinia_suite;

    fn pipeline(reps: u32) -> Pipeline {
        Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(reps)
            .expect("positive reps")
    }

    #[test]
    fn full_run_reused_across_methods() {
        let suite = rodinia_suite(17);
        let w = &suite[0];
        let pipeline = pipeline(2);
        let full = pipeline.full_run(w);
        let sampler = StemRootSampler::new(StemConfig::paper());
        let a = pipeline.run_against(&sampler, w, &full);
        let b = pipeline.run(&sampler, w);
        assert_eq!(a, b);
    }

    #[test]
    fn streamed_run_is_bit_identical_to_in_memory_run() {
        let suite = rodinia_suite(17);
        let w = &suite[2];
        let sampler = StemRootSampler::new(StemConfig::paper());
        for threads in [1usize, 4] {
            let p = pipeline(2).with_parallelism(Parallelism::with_threads(threads));
            let reference = p.run(&sampler, w);
            let streamed = p.run_streamed(&sampler, w).expect("valid workload streams");
            assert_eq!(streamed, reference, "{threads} threads");
            let total = p.ground_truth_total(w).expect("valid workload streams");
            assert_eq!(total.to_bits(), p.full_run(w).total_cycles.to_bits());
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
