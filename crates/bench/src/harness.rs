//! Shared experiment machinery: method roster, per-workload tuning, suite
//! evaluation loops.

use gpu_sim::{GpuConfig, Simulator};
use gpu_workload::suites::{
    casio_sources, casio_suite, huggingface_sources, huggingface_suite, rodinia_sources,
    rodinia_suite, HuggingfaceScale,
};
use gpu_workload::{SuiteKind, Workload, WorkloadSource};
use stem_baselines::{
    PhotonSampler, PkaSampler, RandomSampler, RssSampler, SieveSampler, TbPointSampler,
    TwoPhaseSampler,
};
use stem_core::eval::EvalSummary;
use stem_core::sampler::KernelSampler;
use stem_core::{Pipeline, StemConfig, StemError, StemRootSampler};
use stem_par::Parallelism;

/// The sampling methods of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Uniform random (10% Rodinia / 0.1% elsewhere).
    Random,
    /// PKA with the paper's hand-tuning on gaussian/heartwall.
    Pka,
    /// Sieve with the paper's hand-tuning (random representatives on
    /// gaussian/heartwall/ssdrn34_infer/unet_*; KDE off on CASIO).
    Sieve,
    /// Photon.
    Photon,
    /// STEM+ROOT.
    Stem,
    /// TBPoint (extra ablation point, not in Table 3).
    TbPoint,
    /// Ranked set sampling with repeated subsampling (Ekman port).
    Rss,
    /// Two-phase stratified sampling (Ekman port).
    TwoPhase,
}

impl MethodKind {
    /// The evaluation's method rows: the paper's five Table 3 methods
    /// plus the RSS and two-phase baselines this reproduction adds.
    pub const TABLE3: [MethodKind; 7] = [
        MethodKind::Random,
        MethodKind::Pka,
        MethodKind::Sieve,
        MethodKind::Photon,
        MethodKind::Rss,
        MethodKind::TwoPhase,
        MethodKind::Stem,
    ];

    /// Display name (matches the constructed sampler's `name()`).
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::Random => "Random",
            MethodKind::Pka => "PKA",
            MethodKind::Sieve => "Sieve",
            MethodKind::Photon => "Photon",
            MethodKind::Stem => "STEM",
            MethodKind::TbPoint => "TBPoint",
            MethodKind::Rss => "RSS",
            MethodKind::TwoPhase => "TwoPhase",
        }
    }

    /// Whether the paper could run this method on the HuggingFace suite
    /// (PKA/Sieve/Photon are N/A there for overhead reasons, Table 3;
    /// RSS and two-phase plan in one pass over profile times, so they
    /// scale like Random and STEM).
    pub fn feasible_on_huggingface(&self) -> bool {
        matches!(
            self,
            MethodKind::Random | MethodKind::Stem | MethodKind::Rss | MethodKind::TwoPhase
        )
    }
}

/// Workloads the paper hand-tuned PKA/Sieve on (Sec. 5.1).
fn needs_random_representative(method: MethodKind, workload: &Workload) -> bool {
    match method {
        MethodKind::Pka => matches!(workload.name(), "gaussian" | "heartwall"),
        MethodKind::Sieve => matches!(
            workload.name(),
            "gaussian" | "heartwall" | "ssdrn34_infer" | "unet_infer" | "unet_train"
        ),
        _ => false,
    }
}

/// Builds a sampler for `method` on `workload`, applying the paper's
/// per-workload tuning and the given STEM config.
pub fn build_sampler(
    method: MethodKind,
    workload: &Workload,
    stem_config: &StemConfig,
) -> Box<dyn KernelSampler> {
    match method {
        MethodKind::Random => Box::new(RandomSampler::for_suite(workload.suite())),
        MethodKind::Pka => {
            let mut s = PkaSampler::new();
            if needs_random_representative(method, workload) {
                s = s.with_random_representative();
            }
            Box::new(s)
        }
        MethodKind::Sieve => {
            let mut s = SieveSampler::new();
            if workload.suite() == SuiteKind::Casio {
                // The paper turned Sieve's KDE off on CASIO (it capped
                // speedups at 2-5x by oversampling).
                s = s.without_kde();
            }
            if needs_random_representative(method, workload) {
                s = s.with_random_representative();
            }
            Box::new(s)
        }
        MethodKind::Photon => Box::new(PhotonSampler::new()),
        MethodKind::Stem => Box::new(StemRootSampler::new(stem_config.clone())),
        MethodKind::TbPoint => Box::new(TbPointSampler::new()),
        MethodKind::Rss => Box::new(RssSampler::new()),
        MethodKind::TwoPhase => Box::new(TwoPhaseSampler::new()),
    }
}

/// Options shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Repetitions per (method, workload); the paper uses 10.
    pub reps: u32,
    /// Base seed for workload generation and sampling.
    pub seed: u64,
    /// HuggingFace suite scale (1.0 = paper's ~11.6M-call average).
    pub hf_scale: HuggingfaceScale,
    /// Target simulator config.
    pub sim_config: GpuConfig,
    /// STEM hyperparameters.
    pub stem_config: StemConfig,
}

impl ExperimentOptions {
    /// Paper-faithful settings at a laptop-friendly HuggingFace scale.
    pub fn default_repro() -> Self {
        ExperimentOptions {
            reps: 10,
            seed: 2025,
            hf_scale: HuggingfaceScale::default_repro(),
            sim_config: GpuConfig::rtx2080(),
            stem_config: StemConfig::paper(),
        }
    }

    /// Fast settings for smoke tests and CI.
    pub fn fast() -> Self {
        let mut o = Self::default_repro();
        o.reps = 3;
        o.hf_scale = HuggingfaceScale::custom(0.01);
        o
    }

    /// The three suites at these options' scale and seed.
    pub fn suite(&self, kind: SuiteKind) -> Vec<Workload> {
        match kind {
            SuiteKind::Rodinia => rodinia_suite(self.seed),
            SuiteKind::Casio => casio_suite(self.seed),
            SuiteKind::Huggingface => huggingface_suite(self.seed, self.hf_scale),
            SuiteKind::Custom => Vec::new(),
        }
    }

    /// The same suites as deferred [`WorkloadSource`]s (identical content
    /// and fingerprints); experiments that iterate workload-at-a-time
    /// materialize from these so only one workload is resident at once.
    pub fn suite_sources(&self, kind: SuiteKind) -> Vec<WorkloadSource> {
        match kind {
            SuiteKind::Rodinia => rodinia_sources(self.seed),
            SuiteKind::Casio => casio_sources(self.seed),
            SuiteKind::Huggingface => huggingface_sources(self.seed, self.hf_scale),
            SuiteKind::Custom => Vec::new(),
        }
    }

    /// The bound simulator.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(self.sim_config.clone())
    }
}

/// The HuggingFace scale a `--hf-scale` flag names: the one check both
/// command-line parsers (`repro`, `perf`) share.
///
/// # Errors
///
/// [`StemError::InvalidConfig`] unless `0 < scale <= 4` (NaN included).
pub fn hf_scale_arg(scale: f64) -> Result<HuggingfaceScale, StemError> {
    HuggingfaceScale::try_custom(scale).ok_or_else(|| {
        StemError::InvalidConfig(format!("--hf-scale must be in (0, 4], got {scale}"))
    })
}

/// Evaluates one method across a suite, returning one summary per workload
/// (input order preserved). Workloads are evaluated on the `stem-par` pool
/// (`STEM_THREADS` honoured), which merges results by input index — the
/// report order is pinned to `workloads` order regardless of which worker
/// finishes first. The old ad-hoc `scope.spawn` version also spawned one
/// thread per workload, oversubscribing the machine on large suites.
pub fn eval_method_on_suite(
    method: MethodKind,
    workloads: &[Workload],
    options: &ExperimentOptions,
) -> Vec<EvalSummary> {
    stem_par::par_map_indexed(Parallelism::from_env(), workloads, |_, w| {
        eval_method_on_workload(method, w, options)
    })
}

/// [`eval_method_on_suite`] from deferred sources: each worker
/// materializes its workload, evaluates it, and drops it, so peak memory
/// stays one workload per worker no matter how large the suite is.
/// Bit-identical summaries to evaluating the materialized suite.
pub fn eval_method_on_sources(
    method: MethodKind,
    sources: &[WorkloadSource],
    options: &ExperimentOptions,
) -> Vec<EvalSummary> {
    stem_par::par_map_indexed(Parallelism::from_env(), sources, |_, s| {
        let w = s.materialize();
        eval_method_on_workload(method, &w, options)
    })
}

/// One method on one workload: [`Pipeline::run`] on a serial pipeline
/// (the suite loops above already spread workloads across threads).
///
/// # Panics
///
/// Panics if `options.reps == 0`, or where [`Pipeline::run`] does.
fn eval_method_on_workload(
    method: MethodKind,
    w: &Workload,
    options: &ExperimentOptions,
) -> EvalSummary {
    let sampler = build_sampler(method, w, &options.stem_config);
    Pipeline::new(options.simulator())
        .with_reps(options.reps)
        .expect("at least one repetition required")
        .with_seed(options.seed)
        .with_parallelism(Parallelism::serial())
        .run(sampler.as_ref(), w)
}

/// Ground-truth total cycles of `w` on `sim`, from the serial in-memory
/// group fold ([`gpu_sim::workload_total`]): bit-identical to
/// `run_full(w).total_cycles` without the per-invocation cycle vector.
///
/// # Panics
///
/// Panics if the fold rejects `w` (generated workloads never fail it).
pub(crate) fn ground_truth(sim: &Simulator, w: &Workload) -> f64 {
    gpu_sim::workload_total(
        sim,
        Parallelism::serial(),
        w,
        gpu_workload::DEFAULT_BLOCK_LEN,
        gpu_sim::DEFAULT_CHANNEL_BLOCKS,
    )
    .expect("generated workloads fold cleanly")
    .total_cycles
}

/// Suite-level aggregation: harmonic-mean speedup and arithmetic-mean error
/// across workloads (each itself aggregated over reps). One streaming pass
/// in workload order — bit-identical to the collect-then-mean double pass
/// it replaces (both are left-to-right sums).
pub fn aggregate(summaries: &[EvalSummary]) -> (f64, f64) {
    let mut agg = stem_core::StreamingAggregate::new();
    for s in summaries {
        agg.push(s.mean_error_pct, s.harmonic_speedup);
    }
    (agg.harmonic_speedup(), agg.mean_error_pct())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hf_scale_arg_rejects_what_the_suite_cannot_build() {
        for bad in [0.0, 4.5, f64::NAN] {
            assert!(
                matches!(hf_scale_arg(bad), Err(StemError::InvalidConfig(_))),
                "{bad}"
            );
        }
        assert_eq!(hf_scale_arg(0.2).map(|s| s.factor()), Ok(0.2));
    }

    #[test]
    fn tuning_applies_to_the_right_workloads() {
        let opts = ExperimentOptions::fast();
        let rodinia = opts.suite(SuiteKind::Rodinia);
        let heartwall = rodinia
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("hw");
        let backprop = rodinia.iter().find(|w| w.name() == "backprop").expect("bp");
        assert!(needs_random_representative(MethodKind::Pka, heartwall));
        assert!(!needs_random_representative(MethodKind::Pka, backprop));
        assert!(!needs_random_representative(MethodKind::Photon, heartwall));
    }

    #[test]
    fn build_sampler_names() {
        let opts = ExperimentOptions::fast();
        let w = &opts.suite(SuiteKind::Rodinia)[0];
        for m in MethodKind::TABLE3 {
            let s = build_sampler(m, w, &opts.stem_config);
            assert_eq!(s.name(), m.label());
        }
    }

    #[test]
    fn hf_feasibility() {
        assert!(MethodKind::Stem.feasible_on_huggingface());
        assert!(MethodKind::Random.feasible_on_huggingface());
        assert!(!MethodKind::Pka.feasible_on_huggingface());
        assert!(!MethodKind::Photon.feasible_on_huggingface());
    }

    /// Regression for the pre-`stem-par` harness: summaries must come back
    /// in `workloads` order (not completion order) and match
    /// [`Pipeline::run`] on each workload bitwise.
    #[test]
    fn eval_method_preserves_workload_order() {
        let mut opts = ExperimentOptions::fast();
        opts.reps = 2;
        let rodinia = opts.suite(SuiteKind::Rodinia);
        let workloads: Vec<Workload> = rodinia.into_iter().take(4).collect();
        let summaries = eval_method_on_suite(MethodKind::Random, &workloads, &opts);
        assert_eq!(summaries.len(), workloads.len());
        for (i, (summary, w)) in summaries.iter().zip(&workloads).enumerate() {
            assert_eq!(summary.workload, w.name(), "summary {i} out of order");
            let sampler = build_sampler(MethodKind::Random, w, &opts.stem_config);
            let run = Pipeline::new(opts.simulator())
                .with_reps(opts.reps)
                .expect("positive reps")
                .with_seed(opts.seed)
                .run(sampler.as_ref(), w);
            assert_eq!(*summary, run, "summary {i} diverges from Pipeline::run");
        }
    }

    #[test]
    fn eval_method_smoke() {
        let mut opts = ExperimentOptions::fast();
        opts.reps = 2;
        let rodinia = opts.suite(SuiteKind::Rodinia);
        let w = rodinia
            .iter()
            .find(|w| w.name() == "backprop")
            .expect("backprop")
            .clone();
        let summaries = eval_method_on_suite(MethodKind::Stem, &[w], &opts);
        assert_eq!(summaries.len(), 1);
        assert!(summaries[0].mean_error_pct < 6.0);
        let (speedup, error) = aggregate(&summaries);
        assert!(speedup >= 1.0);
        assert!(error < 6.0);
    }
}
