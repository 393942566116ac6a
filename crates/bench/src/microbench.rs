//! A minimal `std::time::Instant` micro-benchmark harness.
//!
//! Replaces the former `criterion` dev-dependency so the workspace builds
//! hermetically. It keeps the parts of criterion the benches actually used:
//! warmup, automatic iteration-count calibration toward a fixed measurement
//! budget, and a one-line min/median/mean report per benchmark.
//!
//! Not a statistics engine: no outlier rejection or regression tracking.
//! Numbers are for relative, same-machine comparison — exactly how the
//! paper's Sec. 5.6 scaling claims are phrased.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock budget for the measured phase of one benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(200);
/// Measured batches per benchmark (each batch runs `iters_per_batch` calls).
const BATCHES: usize = 10;

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group/benchmark label, e.g. `kkt_solver/64`.
    pub name: String,
    /// Fastest batch (least interference).
    pub min_ns: f64,
    /// Median batch.
    pub median_ns: f64,
    /// Mean over all batches.
    pub mean_ns: f64,
    /// Total iterations measured.
    pub iters: u64,
}

impl BenchResult {
    fn report(&self) {
        println!(
            "bench {:<44} min {:>12}  median {:>12}  mean {:>12}  ({} iters)",
            self.name,
            fmt_ns(self.min_ns),
            fmt_ns(self.median_ns),
            fmt_ns(self.mean_ns),
            self.iters
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Time `f`, returning per-iteration statistics. The closure's result is
/// routed through [`black_box`] so the optimizer cannot delete the work.
pub fn bench<T, F: FnMut() -> T>(name: &str, mut f: F) -> BenchResult {
    // Warmup + calibration: run until 10ms or 3 calls, whichever is later.
    let cal_start = Instant::now();
    let mut cal_iters: u64 = 0;
    while cal_iters < 3 || cal_start.elapsed() < Duration::from_millis(10) {
        black_box(f());
        cal_iters += 1;
    }
    let per_call = cal_start.elapsed().as_secs_f64() / cal_iters as f64;

    let total_iters =
        ((MEASURE_BUDGET.as_secs_f64() / per_call.max(1e-9)) as u64).clamp(BATCHES as u64, 1_000_000);
    let iters_per_batch = (total_iters / BATCHES as u64).max(1);

    let mut batch_ns: Vec<f64> = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters_per_batch {
            black_box(f());
        }
        batch_ns.push(t.elapsed().as_nanos() as f64 / iters_per_batch as f64);
    }
    batch_ns.sort_by(f64::total_cmp);
    let result = BenchResult {
        name: name.to_string(),
        min_ns: batch_ns[0],
        median_ns: batch_ns[BATCHES / 2],
        mean_ns: batch_ns.iter().sum::<f64>() / BATCHES as f64,
        iters: iters_per_batch * BATCHES as u64,
    };
    result.report();
    result
}

/// Group header, mirroring criterion's `benchmark_group` output shape.
pub fn group(name: &str) {
    println!("\n== {name}");
}

/// Outcome of the threads=1 vs threads=N scaling probe
/// ([`scaling_smoke_check`]).
#[derive(Debug, Clone)]
pub struct ScalingCheck {
    /// Thread count of the parallel run.
    pub threads: usize,
    /// Workload the probe ran on.
    pub workload: String,
    /// Wall-clock of the serial run, nanoseconds.
    pub serial_ns: f64,
    /// Wall-clock of the parallel run, nanoseconds.
    pub parallel_ns: f64,
    /// serial / parallel wall-clock ratio.
    pub speedup: f64,
    /// Whether the two runs produced bit-identical summaries. This is the
    /// only field tests may gate on — timing is informational.
    pub identical: bool,
}

impl ScalingCheck {
    fn report(&self) {
        println!(
            "scaling {:<36} serial {:>12}  threads={} {:>12}  speedup {:.2}x  identical: {}",
            self.workload,
            fmt_ns(self.serial_ns),
            self.threads,
            fmt_ns(self.parallel_ns),
            self.speedup,
            self.identical
        );
    }
}

/// Runs the full pipeline on the largest workload of the HuggingFace suite
/// (the paper's biggest synthetic suite) twice — serial, then on `threads`
/// worker threads — and reports the wall-clock ratio.
///
/// Timing is informational only: machines and CI runners vary, so callers
/// must never fail on `speedup`. The contract worth gating on is
/// [`ScalingCheck::identical`] — the two runs must produce bit-identical
/// evaluation summaries.
///
/// # Panics
///
/// Panics if `threads == 0` or the suite is empty.
pub fn scaling_smoke_check(threads: usize) -> ScalingCheck {
    use crate::harness::ExperimentOptions;
    use gpu_workload::SuiteKind;
    use stem_core::{Pipeline, StemRootSampler};
    use stem_par::Parallelism;

    let options = ExperimentOptions::fast();
    let suite = options.suite(SuiteKind::Huggingface);
    let workload = suite
        .into_iter()
        .max_by_key(gpu_workload::Workload::num_invocations)
        .expect("huggingface suite is non-empty");
    let sampler = StemRootSampler::new(options.stem_config.clone());
    let run_at = |par: Parallelism| {
        let pipeline = Pipeline::new(options.simulator())
            .with_reps(4)
            .expect("positive reps")
            .with_seed(options.seed)
            .with_parallelism(par);
        let t = Instant::now();
        let summary = pipeline.run(&sampler, &workload);
        (t.elapsed().as_nanos() as f64, summary)
    };
    let (serial_ns, serial) = run_at(Parallelism::serial());
    let (parallel_ns, parallel) = run_at(Parallelism::with_threads(threads));
    let check = ScalingCheck {
        threads,
        workload: workload.name().to_string(),
        serial_ns,
        parallel_ns,
        speedup: serial_ns / parallel_ns.max(1.0),
        identical: serial == parallel,
    };
    check.report();
    check
}

/// Outcome of the grouped vs per-invocation ground-truth timing probe
/// ([`grouped_timing_check`]).
#[derive(Debug, Clone)]
pub struct GroupedTimingCheck {
    /// Workload the probe ran on.
    pub workload: String,
    /// Distinct invocation groups (deterministic cores computed).
    pub groups: usize,
    /// Total invocations (jitter draws applied).
    pub invocations: usize,
    /// Wall-clock of the grouped fast path, nanoseconds.
    pub grouped_ns: f64,
    /// Wall-clock of the per-invocation reference path, nanoseconds.
    pub per_invocation_ns: f64,
    /// per-invocation / grouped wall-clock ratio.
    pub speedup: f64,
    /// Whether the two paths produced bit-identical ground-truth totals.
    /// This is the only field tests may gate on — timing is informational.
    pub identical: bool,
}

impl GroupedTimingCheck {
    fn report(&self) {
        println!(
            "grouped {:<36} per-invocation {:>12}  grouped {:>12}  ({} groups / {} invocations)  speedup {:.2}x  identical: {}",
            self.workload,
            fmt_ns(self.per_invocation_ns),
            fmt_ns(self.grouped_ns),
            self.groups,
            self.invocations,
            self.speedup,
            self.identical
        );
    }
}

/// Times the ground-truth simulation of the largest HuggingFace workload
/// twice — once on the grouped in-memory fold every evaluation path uses
/// (`harness::ground_truth`, i.e. `gpu_sim::workload_total`),
/// once on the pre-overhaul per-invocation reference
/// (`gpu_sim::simulator::reference::run_full`) — and reports the
/// wall-clock ratio.
///
/// The regression contract is [`GroupedTimingCheck::identical`]: the two
/// paths must produce bit-identical totals. The speedup is informational
/// only (CI machines are too noisy for wall-clock gates).
///
/// # Panics
///
/// Panics if the HuggingFace suite is empty.
pub fn grouped_timing_check() -> GroupedTimingCheck {
    use crate::harness::ExperimentOptions;
    use gpu_sim::simulator::reference as sim_reference;
    use gpu_workload::SuiteKind;

    let options = ExperimentOptions::fast();
    let suite = options.suite(SuiteKind::Huggingface);
    let workload = suite
        .into_iter()
        .max_by_key(gpu_workload::Workload::num_invocations)
        .expect("huggingface suite is non-empty");
    let sim = options.simulator();

    let t = Instant::now();
    let grouped = crate::harness::ground_truth(&sim, &workload);
    let grouped_ns = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    let per_invocation = sim_reference::run_full(&sim, &workload);
    let per_invocation_ns = t.elapsed().as_nanos() as f64;

    let check = GroupedTimingCheck {
        workload: workload.name().to_string(),
        groups: workload.num_invocation_groups(),
        invocations: workload.num_invocations(),
        grouped_ns,
        per_invocation_ns,
        speedup: per_invocation_ns / grouped_ns.max(1.0),
        identical: grouped.to_bits() == per_invocation.total_cycles.to_bits(),
    };
    check.report();
    check
}

/// Outcome of a same-process ratio probe ([`root_ratio_check`],
/// [`construct_ratio_check`], [`profile_root_ratio_check`]): a production
/// path timed against its reference on the same inputs.
#[derive(Debug, Clone)]
pub struct RatioCheck {
    /// What the probe compares, e.g. `root`.
    pub probe: &'static str,
    /// Workload (or suite) the probe ran on.
    pub workload: String,
    /// Total invocations processed per run.
    pub invocations: usize,
    /// Fastest of the runs of the production path, nanoseconds.
    pub fast_ns: f64,
    /// Fastest of the runs of the reference path, nanoseconds.
    pub reference_ns: f64,
    /// fast / reference wall-clock ratio (below 1 is faster).
    pub ratio: f64,
    /// Whether every run of both paths produced bit-identical results.
    pub identical: bool,
}

impl RatioCheck {
    fn new(
        probe: &'static str,
        workload: &str,
        invocations: usize,
        fast_ns: f64,
        reference_ns: f64,
        identical: bool,
    ) -> Self {
        let check = RatioCheck {
            probe,
            workload: workload.to_string(),
            invocations,
            fast_ns,
            reference_ns,
            ratio: fast_ns / reference_ns.max(1.0),
            identical,
        };
        println!(
            "{:<41} reference {:>12}  fast {:>12}  ({} invocations)  ratio {:.2}  identical: {}",
            format!("{} {}", check.probe, check.workload),
            fmt_ns(check.reference_ns),
            fmt_ns(check.fast_ns),
            check.invocations,
            check.ratio,
            check.identical
        );
        check
    }
}

/// Runs `reference` and `fast` once each untimed (so neither pays
/// first-touch costs inside the timed runs), then `runs` times each,
/// alternating, and returns the fastest fast and reference runs in
/// nanoseconds and whether every result equalled the first reference
/// result.
fn alternate<T: PartialEq>(
    runs: usize,
    reference: impl Fn() -> T,
    fast: impl Fn() -> T,
) -> (f64, f64, bool) {
    assert!(runs > 0, "at least one run per path");
    let expected = reference();
    let mut identical = fast() == expected;
    let (mut fast_ns, mut reference_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        let t = Instant::now();
        let slow = black_box(reference());
        reference_ns = reference_ns.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let quick = black_box(fast());
        fast_ns = fast_ns.min(t.elapsed().as_nanos() as f64);
        identical &= quick == expected && slow == expected;
    }
    (fast_ns, reference_ns, identical)
}

/// Times ROOT on the largest HuggingFace workload's profiled times `runs`
/// times each, alternating between the production recursion
/// (`cluster_workload`) and the per-node-Vec reference recursion
/// (`stem_core::root::reference::cluster_workload`), and reports the ratio
/// of their fastest runs. Both paths run in this process on the same
/// inputs, so the ratio is meaningful where absolute times are not.
///
/// # Panics
///
/// Panics if `runs == 0` or the HuggingFace suite is empty.
pub fn root_ratio_check(runs: usize) -> RatioCheck {
    use crate::harness::ExperimentOptions;
    use gpu_profile::ExecTimeProfiler;
    use gpu_workload::SuiteKind;
    use stem_core::root::{cluster_workload, reference};

    let options = ExperimentOptions::fast();
    let workload = options
        .suite(SuiteKind::Huggingface)
        .into_iter()
        .max_by_key(gpu_workload::Workload::num_invocations)
        .expect("huggingface suite is non-empty");
    let config = &options.stem_config;
    let times = ExecTimeProfiler::new(config.profile_config.clone(), config.profile_seed)
        .profile(&workload);

    let (fast_ns, reference_ns, identical) = alternate(
        runs,
        || reference::cluster_workload(&workload, &times, config),
        || cluster_workload(&workload, &times, config),
    );
    RatioCheck::new(
        "root",
        workload.name(),
        workload.num_invocations(),
        fast_ns,
        reference_ns,
        identical,
    )
}

/// Times workload construction on the largest HuggingFace workload
/// `runs` times each, alternating between the one-pass
/// `Workload::try_new` (from owned parts cloned before the clock starts)
/// and the three-pass `trace::reference::derive` (table and range checks,
/// hashed timing groups, plain fingerprint fold), and reports the ratio
/// of their fastest runs. Both paths run in this process on the same
/// inputs, so the ratio is meaningful where absolute times are not.
///
/// # Panics
///
/// Panics if `runs == 0` or the HuggingFace suite is empty.
pub fn construct_ratio_check(runs: usize) -> RatioCheck {
    use crate::harness::ExperimentOptions;
    use gpu_workload::trace::reference;
    use gpu_workload::{KernelId, SuiteKind, Workload};

    assert!(runs > 0, "at least one run per path");
    let options = ExperimentOptions::fast();
    let workload = options
        .suite(SuiteKind::Huggingface)
        .into_iter()
        .max_by_key(Workload::num_invocations)
        .expect("huggingface suite is non-empty");
    let contexts: Vec<_> = (0..workload.kernels().len())
        .map(|k| workload.contexts_of(KernelId(k as u32)).to_vec())
        .collect();
    let derive = || {
        reference::derive(
            workload.name(),
            workload.suite(),
            workload.kernels(),
            &contexts,
            workload.invocations(),
        )
        .expect("a generated workload is valid")
    };
    let (group_of, representatives, fingerprint) = derive();
    let matches = |w: &Workload| {
        w.fingerprint() == fingerprint
            && w.num_invocation_groups() == representatives.len()
            && group_of
                .iter()
                .enumerate()
                .all(|(i, &g)| w.group_of(i) == g)
            && representatives
                .iter()
                .enumerate()
                .all(|(g, &rep)| w.group_representative(g as u32) == rep)
    };
    let (mut fast_ns, mut reference_ns) = (f64::INFINITY, f64::INFINITY);
    let mut identical = true;
    for _ in 0..runs {
        let t = Instant::now();
        let slow = black_box(derive());
        reference_ns = reference_ns.min(t.elapsed().as_nanos() as f64);
        let parts = (
            workload.kernels().to_vec(),
            contexts.clone(),
            workload.invocations().to_vec(),
        );
        let t = Instant::now();
        let fast = black_box(Workload::try_new(
            workload.name(),
            workload.suite(),
            parts.0,
            parts.1,
            parts.2,
        ));
        fast_ns = fast_ns.min(t.elapsed().as_nanos() as f64);
        identical &= slow == (group_of.clone(), representatives.clone(), fingerprint)
            && fast.as_ref().is_ok_and(|w| matches(w) && *w == workload);
    }
    RatioCheck::new(
        "construct",
        workload.name(),
        workload.num_invocations(),
        fast_ns,
        reference_ns,
        identical,
    )
}

/// Times the builder's normal draw (`gpu_workload::normal::fill`: tables
/// and short polynomials behind a rounding test) against the libm
/// expression it reproduces (`normal::reference::fill`) over 1 M seeded
/// pairs, RNG included, `runs` times each, alternating, and reports the
/// ratio of their fastest runs. Both loops are compiled in `gpu-workload`,
/// so the ratio does not depend on this crate's optimization level.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn normal_ratio_check(runs: usize) -> RatioCheck {
    use gpu_workload::normal;

    const DRAWS: usize = 1_000_000;
    let draw = |fill: fn(&mut [f32], u64)| {
        let mut out = vec![0.0f32; DRAWS];
        fill(&mut out, 2025);
        out
    };
    let (fast_ns, reference_ns, identical) = alternate(
        runs,
        || draw(normal::reference::fill),
        || draw(normal::fill),
    );
    RatioCheck::new(
        "normal",
        "seeded pairs",
        DRAWS,
        fast_ns,
        reference_ns,
        identical,
    )
}

/// Times one cold `StemRootSampler`'s profile into ROOT over the
/// HuggingFace suite against the path it replaced, `runs` times each,
/// alternating. The sampler writes each workload's by-kernel rows over one
/// shared noise table and moves them into ROOT; the reference profiles
/// each workload with a fresh runner, drawing every measurement's noise
/// factor itself (`gpu_sim::hardware::reference::measure_all_grouped`),
/// and runs `cluster_workload` over the times. Both run serially in this
/// process on the same inputs and must give bit-identical clusters.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn profile_root_ratio_check(runs: usize) -> RatioCheck {
    use crate::harness::ExperimentOptions;
    use gpu_sim::hardware::reference;
    use gpu_sim::HardwareRunner;
    use gpu_workload::{SuiteKind, Workload};
    use stem_core::root::cluster_workload;
    use stem_core::StemRootSampler;

    let options = ExperimentOptions::fast();
    let workloads = options.suite(SuiteKind::Huggingface);
    let config = &options.stem_config;
    let serial = stem_par::Parallelism::serial();

    let (fast_ns, reference_ns, identical) = alternate(
        runs,
        || -> Vec<_> {
            let cluster = |w| {
                let hw = HardwareRunner::new(config.profile_config.clone(), config.profile_seed);
                cluster_workload(w, &reference::measure_all_grouped(&hw, w, serial), config)
            };
            workloads.iter().map(cluster).collect()
        },
        || -> Vec<_> {
            let sampler = StemRootSampler::new(config.clone());
            workloads.iter().map(|w| sampler.clusters(w)).collect()
        },
    );
    RatioCheck::new(
        "profile+root",
        "huggingface suite",
        workloads.iter().map(Workload::num_invocations).sum(),
        fast_ns,
        reference_ns,
        identical,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let r = bench("smoke/sum", || (0..1000u64).sum::<u64>());
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns * 1.5 + 1.0);
        assert!(r.iters >= BATCHES as u64);
    }
}
