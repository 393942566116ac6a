//! Same-process ratio probes: each times a production path against a
//! reference (or a serial run) on the same inputs, alternating between the
//! two, and reports the ratio of their fastest runs as a [`RatioCheck`].
//! Both sides run in one process, so machine speed cancels out of the
//! ratio where absolute times are noise. `tests/scaling_smoke.rs` gates on
//! the ratios and on the bit-identity of the two sides' results.

use std::hint::black_box;
use std::time::Instant;

use gpu_workload::{SuiteKind, Workload};

use crate::harness::ExperimentOptions;

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

/// The largest workload of the fast options' HuggingFace suite, which the
/// single-workload probes run on.
fn largest_hf_workload(options: &ExperimentOptions) -> Workload {
    options
        .suite(SuiteKind::Huggingface)
        .into_iter()
        .max_by_key(Workload::num_invocations)
        .expect("huggingface suite is non-empty")
}

/// Outcome of a same-process ratio probe: a production path (or a
/// parallel run) timed against its reference (or a serial run) on the
/// same inputs.
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
    /// Each alternation's own fast / reference ratio, in run order: the
    /// spread behind the fastest-of ratio.
    pub run_ratios: Vec<f64>,
}

impl RatioCheck {
    fn new(probe: &'static str, workload: &str, invocations: usize, timed: Timed) -> Self {
        let check = RatioCheck {
            probe,
            workload: workload.to_string(),
            invocations,
            fast_ns: timed.fast_ns,
            reference_ns: timed.reference_ns,
            ratio: timed.fast_ns / timed.reference_ns.max(1.0),
            identical: timed.identical,
            run_ratios: timed.run_ratios,
        };
        let runs: Vec<String> = check.run_ratios.iter().map(|r| format!("{r:.2}")).collect();
        println!(
            "{:<41} reference {:>12}  fast {:>12}  ({} invocations)  ratio {:.2}  identical: {}  runs: {}",
            format!("{} {}", check.probe, check.workload),
            fmt_ns(check.reference_ns),
            fmt_ns(check.fast_ns),
            check.invocations,
            check.ratio,
            check.identical,
            runs.join(" ")
        );
        check
    }
}

/// The timings of one probe (see [`alternate_on`]).
struct Timed {
    fast_ns: f64,
    reference_ns: f64,
    identical: bool,
    run_ratios: Vec<f64>,
}

/// Runs `reference` and `fast` once each untimed (so neither pays
/// first-touch costs inside the timed runs), then `runs` times each,
/// alternating. Every call of `fast` takes a fresh `input()`, built before
/// its clock starts. Returns the fastest fast and reference runs in
/// nanoseconds, each alternation's ratio, and whether `agree` held for
/// every pair of results.
fn alternate_on<I, R, F>(
    runs: usize,
    input: impl Fn() -> I,
    reference: impl Fn() -> R,
    fast: impl Fn(I) -> F,
    agree: impl Fn(&R, &F) -> bool,
) -> Timed {
    assert!(runs > 0, "at least one run per path");
    let mut timed = Timed {
        fast_ns: f64::INFINITY,
        reference_ns: f64::INFINITY,
        identical: agree(&reference(), &fast(input())),
        run_ratios: Vec::with_capacity(runs),
    };
    for _ in 0..runs {
        let t = Instant::now();
        let slow = black_box(reference());
        let reference_ns = t.elapsed().as_nanos() as f64;
        let input = input();
        let t = Instant::now();
        let quick = black_box(fast(input));
        let fast_ns = t.elapsed().as_nanos() as f64;
        timed.fast_ns = timed.fast_ns.min(fast_ns);
        timed.reference_ns = timed.reference_ns.min(reference_ns);
        timed.run_ratios.push(fast_ns / reference_ns.max(1.0));
        timed.identical &= agree(&slow, &quick);
    }
    timed
}

/// [`alternate_on`] for two paths without inputs and with one result type.
fn alternate<T: PartialEq>(runs: usize, reference: impl Fn() -> T, fast: impl Fn() -> T) -> Timed {
    alternate_on(runs, || (), reference, |()| fast(), T::eq)
}

/// Times the full pipeline (4 reps) on the largest HuggingFace workload,
/// serially against `threads` worker threads, `runs` times each,
/// alternating. Every run builds its own sampler and pipeline, so both
/// sides start from a cold sampler memo and a cold simulation cache, and
/// both must give bit-identical evaluation summaries. The ratio (parallel
/// over serial) is informational: it depends on the host's free CPUs.
///
/// # Panics
///
/// Panics if `threads == 0` or `runs == 0`.
pub fn threads_ratio_check(threads: usize, runs: usize) -> RatioCheck {
    use stem_core::{Pipeline, StemRootSampler};
    use stem_par::Parallelism;

    let options = ExperimentOptions::fast();
    let workload = largest_hf_workload(&options);
    let run_at = |par: Parallelism| {
        let pipeline = Pipeline::new(options.simulator())
            .with_reps(4)
            .expect("positive reps")
            .with_seed(options.seed)
            .with_parallelism(par);
        pipeline.run(
            &StemRootSampler::new(options.stem_config.clone()),
            &workload,
        )
    };
    let timed = alternate(
        runs,
        || run_at(Parallelism::serial()),
        || run_at(Parallelism::with_threads(threads)),
    );
    RatioCheck::new(
        "threads",
        workload.name(),
        workload.num_invocations(),
        timed,
    )
}

/// Times the ground-truth fold every evaluation path uses
/// (`gpu_sim::workload_total`, through `harness::ground_truth`) on the
/// largest HuggingFace workload against the per-invocation reference
/// (`gpu_sim::simulator::reference::run_full`), `runs` times each,
/// alternating. Both must give the same total, bit for bit.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn fold_ratio_check(runs: usize) -> RatioCheck {
    use gpu_sim::simulator::reference;

    let options = ExperimentOptions::fast();
    let workload = largest_hf_workload(&options);
    let sim = options.simulator();
    let timed = alternate(
        runs,
        || reference::run_full(&sim, &workload).total_cycles.to_bits(),
        || crate::harness::ground_truth(&sim, &workload).to_bits(),
    );
    RatioCheck::new("fold", workload.name(), workload.num_invocations(), timed)
}

/// Times ROOT on the largest HuggingFace workload's profiled times `runs`
/// times each, alternating between the production recursion
/// (`cluster_workload`) and the per-node-Vec reference recursion
/// (`stem_core::root::reference::cluster_workload`). Both must give
/// bit-identical clusters.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn root_ratio_check(runs: usize) -> RatioCheck {
    use gpu_profile::ExecTimeProfiler;
    use stem_core::root::{cluster_workload, reference};

    let options = ExperimentOptions::fast();
    let workload = largest_hf_workload(&options);
    let config = &options.stem_config;
    let times = ExecTimeProfiler::new(config.profile_config.clone(), config.profile_seed)
        .profile(&workload);
    let timed = alternate(
        runs,
        || reference::cluster_workload(&workload, &times, config),
        || cluster_workload(&workload, &times, config),
    );
    RatioCheck::new("root", workload.name(), workload.num_invocations(), timed)
}

/// Times workload construction on the largest HuggingFace workload `runs`
/// times each, alternating between the one-pass `Workload::try_new` (from
/// owned parts cloned before the clock starts) and the three-pass
/// `trace::reference::derive` (table and range checks, hashed timing
/// groups, plain fingerprint fold). Both must derive the same group ids,
/// representatives and fingerprint, and `try_new` must rebuild the
/// workload.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn construct_ratio_check(runs: usize) -> RatioCheck {
    use gpu_workload::trace::reference;
    use gpu_workload::{Invocation, KernelId};

    let options = ExperimentOptions::fast();
    let workload = largest_hf_workload(&options);
    let contexts: Vec<_> = (0..workload.kernels().len())
        .map(|k| workload.contexts_of(KernelId(k as u32)).to_vec())
        .collect();
    let invocations: Vec<Invocation> = workload.invocations().collect();
    let derive = || {
        reference::derive(
            workload.name(),
            workload.suite(),
            workload.kernels(),
            &contexts,
            &invocations,
        )
        .expect("a generated workload is valid")
    };
    let expected = derive();
    let (group_of, representatives, fingerprint) = &expected;
    let matches = |w: &Workload| {
        w.fingerprint() == *fingerprint
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
    let timed = alternate_on(
        runs,
        || {
            let kernels = workload.kernels().to_vec();
            (kernels, contexts.clone(), invocations.clone())
        },
        derive,
        |(kernels, contexts, invocations)| {
            Workload::try_new(
                workload.name(),
                workload.suite(),
                kernels,
                contexts,
                invocations,
            )
        },
        |slow, fast| *slow == expected && fast.as_ref().is_ok_and(|w| matches(w) && *w == workload),
    );
    RatioCheck::new(
        "construct",
        workload.name(),
        workload.num_invocations(),
        timed,
    )
}

/// Times the builder's normal draw (`gpu_workload::normal::fill`: tables
/// and short polynomials behind a rounding test) against the libm
/// expression it reproduces (`normal::reference::fill`) over 1 M seeded
/// pairs, RNG included, `runs` times each, alternating. Both loops are
/// compiled in `gpu-workload`, so the ratio does not depend on this
/// crate's optimization level.
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
    let timed = alternate(
        runs,
        || draw(normal::reference::fill),
        || draw(normal::fill),
    );
    RatioCheck::new("normal", "seeded pairs", DRAWS, timed)
}

/// Times one cold `StemRootSampler`'s profile into ROOT over the
/// HuggingFace suite against the path it replaced, `runs` times each,
/// alternating. The sampler's ROOT gathers each kernel's times, one kernel
/// at a time, from measurements over one shared noise table; the reference
/// profiles
/// each workload with a fresh runner, drawing every measurement's noise
/// factor itself (`gpu_sim::hardware::reference::measure_all_grouped`),
/// and runs `cluster_workload` over the times. Both run serially and must
/// give bit-identical clusters.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn profile_root_ratio_check(runs: usize) -> RatioCheck {
    use gpu_sim::hardware::reference;
    use gpu_sim::HardwareRunner;
    use stem_core::root::cluster_workload;
    use stem_core::StemRootSampler;

    let options = ExperimentOptions::fast();
    let workloads = options.suite(SuiteKind::Huggingface);
    let config = &options.stem_config;
    let serial = stem_par::Parallelism::serial();
    let timed = alternate(
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
    let invocations = workloads.iter().map(Workload::num_invocations).sum();
    RatioCheck::new("profile+root", "huggingface suite", invocations, timed)
}
