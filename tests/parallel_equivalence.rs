//! Parallel-equivalence suite: the acceptance gate for `stem-par`.
//!
//! The deterministic parallel runtime promises *bit-identical* results at
//! every thread count: worker RNG streams derive from task indices (never
//! worker identity), reductions fold in input-index order, and the memo
//! cache stores pure-function results only. This suite holds the whole
//! pipeline to that promise on one workload from each of the three
//! synthetic suites, at threads ∈ {1, 2, 3, 8}:
//!
//! * ground-truth cycle totals ([`Pipeline::ground_truth_total`]),
//! * sampling plans and ROOT cluster assignments
//!   ([`StemRootSampler::with_parallelism`]),
//! * clean evaluations ([`Pipeline::run`]),
//! * and the `RepairAndDegrade` chaos path
//!   ([`Pipeline::run_from_profile`] on a faulted trace).
//!
//! A final golden check pins `threads = 1` (and `Parallelism::serial()`)
//! to the pre-parallelism behavior: the same per-rep results as a manual
//! loop over the documented rep-seed schedule (plan, sampled run, score),
//! so the serial goldens never move.

use stem::core::eval::EvalResult;
use stem::prelude::*;
use stem::profile::ExecTimeProfiler;
use stem::sim::simulator::reference as sim_reference;

const THREADS: [usize; 4] = [1, 2, 3, 8];
const REPS: u32 = 3;
const BASE_SEED: u64 = 0xA11CE;

/// One representative workload per suite (largest of each, as in the chaos
/// suite), sized so the sweep stays fast.
fn suite_workloads() -> Vec<Workload> {
    let rodinia = rodinia_suite(33);
    let casio = casio_suite(33);
    let hf = huggingface_suite(33, HuggingfaceScale::custom(0.02));
    let pick = |suite: &[Workload]| {
        suite
            .iter()
            .max_by_key(|w| w.num_invocations())
            .expect("nonempty suite")
            .clone()
    };
    vec![pick(&rodinia), pick(&casio), pick(&hf)]
}

fn pipeline_with(par: Parallelism) -> Pipeline {
    Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
        .with_reps(REPS)
        .expect("positive reps")
        .with_seed(BASE_SEED)
        .with_parallelism(par)
}

/// A clean profiler trace for `w`, as in the chaos suite.
fn clean_records(w: &Workload) -> Vec<TraceRecord> {
    let times = ExecTimeProfiler::new(GpuConfig::rtx2080(), 0xC0FFEE).profile(w);
    TraceRecord::sequence(&times)
}

#[test]
fn ground_truth_cycles_are_bit_identical_across_thread_counts() {
    let sim = Simulator::new(GpuConfig::rtx2080());
    for w in &suite_workloads() {
        let reference = sim_reference::run_full(&sim, w).total_cycles;
        let budgets = THREADS.map(Parallelism::with_threads);
        for par in budgets.into_iter().chain([Parallelism::serial()]) {
            let total = pipeline_with(par)
                .ground_truth_total(w)
                .expect("generated workloads fold cleanly");
            assert_eq!(
                total.to_bits(),
                reference.to_bits(),
                "{}: ground truth differs from the reference at {par:?}",
                w.name()
            );
        }
    }
}

#[test]
fn plans_and_clusters_are_bit_identical_across_thread_counts() {
    for w in &suite_workloads() {
        let sampler = StemRootSampler::new(StemConfig::paper());
        let serial_plan = sampler.plan(w, BASE_SEED);
        let serial_clusters = sampler.clusters(w);
        for threads in THREADS {
            let s = StemRootSampler::new(StemConfig::paper())
                .with_parallelism(Parallelism::with_threads(threads));
            assert_eq!(
                s.plan(w, BASE_SEED),
                serial_plan,
                "{}: plan differs at threads = {threads}",
                w.name()
            );
            assert_eq!(
                s.clusters(w),
                serial_clusters,
                "{}: cluster assignments differ at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn clean_evaluation_is_bit_identical_across_thread_counts() {
    for w in &suite_workloads() {
        let sampler = StemRootSampler::new(StemConfig::paper());
        let serial = pipeline_with(Parallelism::serial()).run(&sampler, w);
        for threads in THREADS {
            let par = pipeline_with(Parallelism::with_threads(threads)).run(&sampler, w);
            assert_eq!(
                par,
                serial,
                "{}: clean evaluation differs at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn chaos_path_is_bit_identical_across_thread_counts() {
    for w in &suite_workloads() {
        let sampler = StemRootSampler::new(StemConfig::paper());
        let records = FaultPlan::single(7, Fault::Drop { fraction: 0.2 }).apply(&clean_records(w));
        let (serial_summary, serial_report) = pipeline_with(Parallelism::serial())
            .run_from_profile(&sampler, w, &records)
            .expect("repairable trace");
        assert!(!serial_report.is_clean(), "{}: fault undetected", w.name());
        for threads in THREADS {
            let (summary, report) = pipeline_with(Parallelism::with_threads(threads))
                .run_from_profile(&sampler, w, &records)
                .expect("repairable trace");
            assert_eq!(
                report,
                serial_report,
                "{}: quality report differs at threads = {threads}",
                w.name()
            );
            assert_eq!(
                summary,
                serial_summary,
                "{}: degraded evaluation differs at threads = {threads}",
                w.name()
            );
        }
    }
}

/// The new sampling baselines must hold the bit-identical promise on the
/// adversarial scenarios too: RSS and two-phase plans and evaluations on
/// the phase-drift workload — built to put every rank stratum and pilot
/// under non-stationary drift — at threads ∈ {1, 4} versus serial.
#[test]
fn new_samplers_on_adversarial_scenarios_are_bit_identical() {
    let w = phase_drift(33).materialize();
    let samplers: Vec<Box<dyn KernelSampler>> = vec![
        Box::new(RssSampler::new()),
        Box::new(TwoPhaseSampler::new()),
    ];
    for sampler in &samplers {
        let serial_plan = sampler.plan(&w, BASE_SEED);
        let serial = pipeline_with(Parallelism::serial()).run(sampler.as_ref(), &w);
        for threads in [1usize, 4] {
            assert_eq!(
                sampler.plan(&w, BASE_SEED),
                serial_plan,
                "{}: plan differs at threads = {threads}",
                sampler.name()
            );
            let par = pipeline_with(Parallelism::with_threads(threads)).run(sampler.as_ref(), &w);
            assert_eq!(
                par,
                serial,
                "{}: evaluation differs at threads = {threads}",
                sampler.name()
            );
        }
    }
}

/// `threads = 1` (and `Parallelism::serial()`) must reproduce the pre-`stem-par`
/// behavior exactly: per-rep results equal to a manual loop over the
/// documented rep-seed schedule — plan, uncached sampled run, score against
/// the full run's total. This pins the serial goldens.
#[test]
fn threads_one_matches_the_manual_serial_loop() {
    for w in &suite_workloads() {
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(w);
        let sampler = StemRootSampler::new(StemConfig::paper());
        let manual: Vec<EvalResult> = (0..REPS as u64)
            .map(|r| {
                let rep_seed = BASE_SEED.wrapping_add(r).wrapping_mul(0x9e3779b97f4a7c15);
                let plan = sampler.plan(w, rep_seed);
                let run = sim.run_sampled(w, plan.samples());
                EvalResult {
                    method: sampler.name().to_string(),
                    workload: w.name().to_string(),
                    error_pct: run.error(full.total_cycles) * 100.0,
                    speedup: run.speedup(full.total_cycles),
                    num_samples: plan.num_samples(),
                    predicted_error_pct: plan.predicted_error() * 100.0,
                }
            })
            .collect();
        for par in [Parallelism::serial(), Parallelism::with_threads(1)] {
            let summary = pipeline_with(par).run(&sampler, w);
            assert_eq!(
                summary.results,
                manual,
                "{}: {par:?} diverges from the manual serial loop",
                w.name()
            );
        }
    }
}
