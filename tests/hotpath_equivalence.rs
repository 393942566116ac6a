//! Hot-path equivalence suite: the acceptance gate for the grouped
//! deterministic-core/jitter split and the bounds-pruned k-means.
//!
//! The overhaul rewrote every per-invocation hot loop — ground-truth
//! simulation, sampled simulation, hardware profiling, memoized sampled
//! runs — as "deterministic core once per invocation group, cheap jitter
//! per invocation", and rewrote the k-means assignment step with
//! Hamerly-style bounds on flat storage. All of it is behind one
//! contract: **bit-identical results**, old path vs new path, at every
//! thread count. The pre-overhaul implementations are kept as
//! `#[doc(hidden)] pub mod reference` executable specifications
//! (`gpu_sim::simulator::reference`, `gpu_sim::hardware::reference`,
//! `stem_cluster::kmeans::reference`, `stem_core::root::reference`), and
//! this suite pins the fast paths to them on one workload from each of the
//! three synthetic suites, at threads ∈ {1, 4}.

use std::path::PathBuf;

use stem::cluster::kmeans::reference as kmeans_reference;
use stem::cluster::{KMeans, KMeansConfig};
use stem::core::eval::StreamingAggregate;
use stem::core::root::{cluster_indices, cluster_workload_par, reference as root_reference};
use stem::prelude::*;
use stem::profile::ExecTimeProfiler;
use stem::sim::hardware::{reference as hw_reference, HardwareRunner};
use stem::sim::simulator::reference as sim_reference;
use stem::sim::SimCache;

const THREADS: [usize; 2] = [1, 4];
const REPS: u32 = 3;
const BASE_SEED: u64 = 0x5EED;

/// One representative workload per suite (largest of each), sized so the
/// sweep stays fast.
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stem-hotpath-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn ground_truth_matches_per_invocation_reference() {
    let sim = Simulator::new(GpuConfig::rtx2080());
    for w in &suite_workloads() {
        let slow = sim_reference::run_full(&sim, w);
        let fast = sim.run_full(w);
        assert_eq!(fast, slow, "{}: grouped full run diverged", w.name());
        let total = |par| {
            workload_total(&sim, par, w, DEFAULT_BLOCK_LEN, DEFAULT_CHANNEL_BLOCKS)
                .expect("in-memory ground truth")
                .total_cycles
                .to_bits()
        };
        assert_eq!(
            total(Parallelism::serial()),
            slow.total_cycles.to_bits(),
            "{}: workload_total diverged",
            w.name()
        );
        for threads in THREADS {
            let par = Parallelism::with_threads(threads);
            assert_eq!(
                sim.run_full_par(w, par),
                slow,
                "{}: grouped parallel full run diverged at threads = {threads}",
                w.name()
            );
            assert_eq!(
                total(par),
                slow.total_cycles.to_bits(),
                "{}: parallel workload_total diverged at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn sampled_runs_match_per_invocation_reference() {
    let sim = Simulator::new(GpuConfig::rtx2080());
    let sampler = StemRootSampler::new(StemConfig::paper());
    for w in &suite_workloads() {
        let plan = sampler.plan(w, BASE_SEED);
        let slow = sim_reference::run_sampled(&sim, w, plan.samples());
        assert_eq!(
            sim.run_sampled(w, plan.samples()),
            slow,
            "{}: grouped sampled run diverged",
            w.name()
        );
    }
}

#[test]
fn hardware_profile_matches_per_invocation_reference() {
    for w in &suite_workloads() {
        let hw = HardwareRunner::new(GpuConfig::rtx2080(), 0xC0FFEE);
        let slow = hw_reference::measure_all(&hw, w);
        assert_eq!(
            hw.measure_all(w),
            slow,
            "{}: grouped profile diverged",
            w.name()
        );
        for threads in THREADS {
            assert_eq!(
                hw.measure_all_par(w, Parallelism::with_threads(threads)),
                slow,
                "{}: grouped parallel profile diverged at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn plans_and_clusters_are_unchanged_by_the_overhaul() {
    // Plans and ROOT clusters consume the profiled times, so this pins the
    // whole profile -> cluster -> plan chain across thread counts.
    for w in &suite_workloads() {
        let serial_sampler = StemRootSampler::new(StemConfig::paper());
        let serial_plan = serial_sampler.plan(w, BASE_SEED);
        let serial_clusters = serial_sampler.clusters(w);
        for threads in THREADS {
            let s = StemRootSampler::new(StemConfig::paper())
                .with_parallelism(Parallelism::with_threads(threads));
            assert_eq!(
                s.plan(w, BASE_SEED),
                serial_plan,
                "{}: plan diverged at threads = {threads}",
                w.name()
            );
            assert_eq!(
                s.clusters(w),
                serial_clusters,
                "{}: clusters diverged at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn root_matches_reference_recursion() {
    // The sort-once, ping-pong ROOT recursion against the per-node-Vec
    // recursion it replaced, on real profiled times: through the workload
    // entry point at every thread count, and through the index entry point
    // (the execution-trace path) per kernel group and over the whole
    // stream as one group.
    let config = StemConfig::paper();
    let profiler = ExecTimeProfiler::new(config.profile_config.clone(), config.profile_seed);
    for w in &suite_workloads() {
        let times = profiler.profile(w);
        let slow = root_reference::cluster_workload(w, &times, &config);
        for threads in THREADS {
            assert_eq!(
                cluster_workload_par(w, &times, &config, Parallelism::with_threads(threads)),
                slow,
                "{}: ROOT clusters diverged at threads = {threads}",
                w.name()
            );
        }
        let mut groups: Vec<Vec<usize>> = w
            .invocations_by_kernel()
            .into_values()
            .map(|members| members.into_iter().map(|m| m as usize).collect())
            .collect();
        groups.push((0..w.num_invocations()).collect());
        for members in groups {
            assert_eq!(
                cluster_indices(members.clone(), &times, &config),
                root_reference::cluster_indices(members, &times, &config),
                "{}: index clusters diverged",
                w.name()
            );
        }
    }
}

#[test]
fn sampler_profile_into_root_matches_the_reference_chain() {
    // The sampler's one data flow (each kernel's times gathered from the
    // measurements over the shared noise table, straight into ROOT, one
    // kernel at a time) against the reference chain
    // it replaced: the per-invocation profile, then the per-node-Vec
    // recursion. One sampler visits every workload in turn, so its noise
    // table grows, is reused by shorter workloads and grows again.
    let config = StemConfig::paper();
    let mut flat = config.clone();
    flat.max_depth = 1;
    flat.min_split_size = usize::MAX;
    let hw = HardwareRunner::new(config.profile_config.clone(), config.profile_seed);
    let mut workloads = rodinia_suite(33);
    workloads.extend(casio_suite(33));
    workloads.extend(huggingface_suite(33, HuggingfaceScale::custom(0.02)));
    let expected: Vec<_> = workloads
        .iter()
        .map(|w| {
            let times = hw_reference::measure_all(&hw, w);
            (
                root_reference::cluster_workload(w, &times, &config),
                root_reference::cluster_workload(w, &times, &flat),
            )
        })
        .collect();
    for threads in THREADS {
        let par = Parallelism::with_threads(threads);
        let rooted = StemRootSampler::new(config.clone()).with_parallelism(par);
        let unrooted = StemRootSampler::new(config.clone())
            .without_root()
            .with_parallelism(par);
        for (w, (with_root, without_root)) in workloads.iter().zip(&expected) {
            assert_eq!(
                &rooted.clusters(w),
                with_root,
                "{}: fused clusters diverged at threads = {threads}",
                w.name()
            );
            assert_eq!(
                &unrooted.clusters(w),
                without_root,
                "{}: fused clusters without ROOT diverged at threads = {threads}",
                w.name()
            );
        }
    }
}

#[test]
fn campaign_aggregates_match_reference_slow_path() {
    let dir = scratch("campaign");
    let workloads: Vec<Workload> = suite_workloads().into_iter().take(2).collect();
    let sim = Simulator::new(GpuConfig::rtx2080());
    let sampler = StemRootSampler::new(StemConfig::paper());

    // Expected summaries via the pre-overhaul per-invocation paths and the
    // collect-then-mean aggregation they fed.
    let mut expected = Vec::new();
    for w in &workloads {
        let full = sim_reference::run_full(&sim, w);
        let mut errors = Vec::new();
        let mut speedups = Vec::new();
        for rep in 0..REPS as u64 {
            let seed = BASE_SEED.wrapping_add(rep).wrapping_mul(0x9e3779b97f4a7c15);
            let plan = sampler.plan(w, seed);
            let run = sim_reference::run_sampled(&sim, w, plan.samples());
            errors.push(run.error(full.total_cycles) * 100.0);
            speedups.push(run.speedup(full.total_cycles));
        }
        expected.push((
            stem::core::eval::arithmetic_mean(&errors),
            stem::core::eval::harmonic_mean(&speedups),
            errors,
            speedups,
        ));
    }

    for threads in THREADS {
        let pipeline = Pipeline::new(Simulator::new(GpuConfig::rtx2080()))
            .with_reps(REPS)
            .expect("positive reps")
            .with_seed(BASE_SEED)
            .with_parallelism(Parallelism::with_threads(threads));
        let report = pipeline
            .run_campaign(&sampler, &workloads, &dir.join(format!("t{threads}.snap")))
            .expect("campaign");
        assert_eq!(report.summaries.len(), expected.len());
        for (summary, (mean_err, harm_speedup, errors, speedups)) in
            report.summaries.iter().zip(&expected)
        {
            assert_eq!(
                summary.mean_error_pct, *mean_err,
                "campaign mean error diverged at threads = {threads}"
            );
            assert_eq!(
                summary.harmonic_speedup, *harm_speedup,
                "campaign harmonic speedup diverged at threads = {threads}"
            );
            for (r, (e, s)) in summary.results.iter().zip(errors.iter().zip(speedups)) {
                assert_eq!(
                    r.error_pct, *e,
                    "per-rep error diverged at threads = {threads}"
                );
                assert_eq!(
                    r.speedup, *s,
                    "per-rep speedup diverged at threads = {threads}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memo_cache_is_group_keyed_and_warm_runs_are_free() {
    let sim = Simulator::new(GpuConfig::rtx2080());
    let sampler = StemRootSampler::new(StemConfig::paper());
    for w in &suite_workloads() {
        let plan = sampler.plan(w, BASE_SEED);
        let uncached = sim.run_sampled(w, plan.samples());
        let touched: std::collections::BTreeSet<u32> =
            plan.samples().iter().map(|s| w.group_of(s.index)).collect();

        let cache = SimCache::new();
        let cold = sim.run_sampled_cached(w, plan.samples(), Parallelism::serial(), &cache);
        assert_eq!(cold, uncached, "{}: cached run diverged", w.name());
        assert_eq!(
            cache.misses() as usize,
            touched.len(),
            "{}: cold misses must equal touched groups, not samples",
            w.name()
        );
        assert_eq!(cache.hits(), 0, "{}: cold run must not hit", w.name());

        let misses_after_cold = cache.misses();
        let warm = sim.run_sampled_cached(w, plan.samples(), Parallelism::serial(), &cache);
        assert_eq!(warm, cold, "{}: warm run diverged", w.name());
        assert_eq!(
            cache.misses(),
            misses_after_cold,
            "{}: warm run recomputed a group core",
            w.name()
        );
        assert_eq!(
            cache.hits() as usize,
            touched.len(),
            "{}: warm run must hit once per touched group",
            w.name()
        );
    }
}

#[test]
fn pruned_kmeans_matches_naive_reference_on_64_seeded_cases() {
    // Deterministic xorshift instance generator; cases sweep duplicate
    // points, k >= n, weighted points, single point, and 1..4 dimensions.
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    for case in 0u64..64 {
        let n = 1 + (case as usize * 13) % 120;
        let dim = 1 + case as usize % 4;
        let k = 1 + (case as usize * 5) % 16; // often k >= n for small n
        let mut pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| (next() * 16.0).floor() * 0.25).collect())
            .collect();
        if n >= 4 {
            // Force exact duplicates, the k-means++ degenerate case.
            pts[n - 1] = pts[0].clone();
            pts[n - 2] = pts[1].clone();
        }
        let weights: Vec<f64> = (0..n).map(|_| 0.25 + next() * 4.0).collect();
        let config = KMeansConfig::new(k, 0xABCD ^ case);
        let naive =
            kmeans_reference::fit_weighted_par(&pts, &weights, config, Parallelism::serial());
        for threads in THREADS {
            let fast = KMeans::fit_weighted_par(
                &pts,
                &weights,
                config,
                Parallelism::with_threads(threads),
            );
            assert_eq!(
                fast, naive,
                "case {case} (n={n} dim={dim} k={k}) diverged at threads = {threads}"
            );
        }
    }
}

#[test]
fn streaming_aggregation_matches_collected_means() {
    // The evaluation/campaign fold and the two-vector means are both
    // left-to-right sums; pin them to each other on awkward magnitudes.
    let errors: Vec<f64> = (0..17)
        .map(|i| (i as f64 * 0.731).sin().abs() * 1e3)
        .collect();
    let speedups: Vec<f64> = (0..17)
        .map(|i| 1.0 + (i as f64 * 1.37).cos().abs() * 99.0)
        .collect();
    let mut agg = StreamingAggregate::new();
    for (&e, &s) in errors.iter().zip(&speedups) {
        agg.push(e, s);
    }
    assert_eq!(
        agg.mean_error_pct(),
        stem::core::eval::arithmetic_mean(&errors)
    );
    assert_eq!(
        agg.harmonic_speedup(),
        stem::core::eval::harmonic_mean(&speedups)
    );
}
