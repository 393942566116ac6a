//! Property-style tests for STEM+ROOT invariants.
//!
//! Formerly `proptest`-based; rewritten as deterministic seeded-loop
//! property tests so the workspace builds hermetically.

use gpu_workload::kernel::KernelClassBuilder;
use gpu_workload::{RuntimeContext, SuiteKind, Workload, WorkloadBuilder};
use stem_core::rng::{RngExt, SeedableRng, StdRng};
use stem_core::root::cluster_workload;
use stem_core::{StemConfig, StemRootSampler};
use stem_stats::bound::theoretical_error;
use stem_stats::clt::sample_size;
use stem_stats::kkt::ClusterStat;
use stem_stats::Summary;

const CASES: u64 = 48;

fn rng_for(test_tag: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x2007_0CA1 ^ (test_tag << 32) ^ case)
}

/// A single-kernel workload of `n` invocations (times supplied separately).
fn flat_workload(n: usize) -> Workload {
    let mut b = WorkloadBuilder::new("prop", SuiteKind::Custom, 1);
    let id = b.add_kernel(
        KernelClassBuilder::new("k").build(),
        vec![RuntimeContext::neutral()],
    );
    for _ in 0..n {
        b.invoke(id, 0, 1.0);
    }
    b.build()
}

/// A positive multi-modal time array: a few well-separated modes with a
/// deterministic per-index wobble, matching the old proptest strategy.
fn gen_times(rng: &mut StdRng) -> Vec<f64> {
    let n = rng.random_range(16usize..400);
    let base = rng.random_range(1.0..1e4);
    let gap = rng.random_range(1.5..50.0);
    (0..n)
        .map(|i| {
            let mode = rng.random_range(0u32..3);
            base * gap.powi(mode as i32) * (1.0 + (i % 13) as f64 * 0.003)
        })
        .collect()
}

/// ROOT invariants: leaves partition the population, every member's
/// time lies within its leaf's [min, max], and the accepted clustering
/// never projects more simulation time than no clustering at all.
#[test]
fn root_partitions_and_never_hurts() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let times = gen_times(&mut rng);
        let w = flat_workload(times.len());
        let cfg = StemConfig::paper();
        let clusters = cluster_workload(&w, &times, &cfg);

        // Partition.
        let mut seen = vec![false; times.len()];
        for c in &clusters {
            for &m in &c.members {
                let m = m as usize;
                assert!(!seen[m], "case {case}: member {m} assigned twice");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}");

        // Stats consistent with membership.
        for c in &clusters {
            let s: Summary = c.members.iter().map(|&i| times[i as usize]).collect();
            assert_eq!(c.stat.n, c.members.len() as u64, "case {case}");
            assert!(
                (c.stat.mean - s.mean()).abs() < 1e-9 * (1.0 + s.mean()),
                "case {case}"
            );
        }

        // tau(leaves) <= tau(whole) under the same epsilon.
        let z = cfg.z();
        let stats: Vec<ClusterStat> = clusters.iter().map(|c| c.stat).collect();
        let sol = stem_stats::kkt::solve_sample_sizes(&stats, cfg.epsilon, z);
        let whole: Summary = times.iter().copied().collect();
        let m = sample_size(whole.mean(), whole.population_std_dev(), cfg.epsilon, z)
            .min(times.len() as u64);
        let tau_whole = m as f64 * whole.mean();
        assert!(
            sol.tau <= tau_whole * (1.0 + 1e-9) + whole.mean(),
            "case {case}"
        );
    }
}

/// The full sampler: the plan's theoretical error prediction respects
/// epsilon, weights reconstruct the population, and all sample indices
/// stay within their clusters' kernel.
#[test]
fn plan_from_times_is_well_formed() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let times = gen_times(&mut rng);
        let seed = rng.random_range(0u64..50);
        let w = flat_workload(times.len());
        let sampler = StemRootSampler::new(StemConfig::paper());
        let plan = sampler
            .plan_from_times(&w, &times, seed)
            .expect("well-formed profile");
        assert!(plan.predicted_error() <= 0.05 + 1e-9, "case {case}");
        let total_weight = plan.total_weight();
        let n = times.len() as f64;
        assert!(
            (total_weight - n).abs() < 1e-6 * n,
            "case {case}: weights {total_weight} vs population {n}"
        );
        for s in plan.samples() {
            assert!(s.index < times.len(), "case {case}");
        }
    }
}

/// Theoretical error of the plan's cluster/sizes agrees with the
/// independent bound computation.
#[test]
fn predicted_error_matches_bound() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let times = gen_times(&mut rng);
        let w = flat_workload(times.len());
        let sampler = StemRootSampler::new(StemConfig::paper());
        let plan = sampler
            .plan_from_times(&w, &times, 3)
            .expect("well-formed profile");
        let stats: Vec<ClusterStat> = plan
            .clusters()
            .iter()
            .map(|c| ClusterStat::new(c.population, c.mean_time, c.std_time))
            .collect();
        let sizes: Vec<u64> = plan.clusters().iter().map(|c| c.samples).collect();
        let e = theoretical_error(&stats, &sizes, 1.96);
        assert!(e <= 0.05 + 1e-9, "case {case}: bound recomputation {e}");
    }
}

/// Tightening epsilon never reduces the number of samples.
#[test]
fn tighter_epsilon_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let times = gen_times(&mut rng);
        let w = flat_workload(times.len());
        let tight = StemRootSampler::new(StemConfig::paper().with_epsilon(0.01))
            .plan_from_times(&w, &times, 1)
            .expect("well-formed profile")
            .num_samples();
        let loose = StemRootSampler::new(StemConfig::paper().with_epsilon(0.25))
            .plan_from_times(&w, &times, 1)
            .expect("well-formed profile")
            .num_samples();
        assert!(tight >= loose, "case {case}: tight {tight} < loose {loose}");
    }
}

/// One kernel's profiled-time shape in the adversarial ROOT cases.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Well-separated modes with a continuous wobble.
    Modes,
    /// A handful of distinct values, heavily repeated, so the best cut
    /// would straddle a tie if ties were allowed to split.
    Ties,
    /// Values one or two ulps apart (midpoints round onto a neighbor).
    AdjacentUlps,
    /// Every invocation takes the same time.
    Constant,
}

/// `len` times of the given shape.
fn shape_times(rng: &mut StdRng, shape: Shape, len: usize) -> Vec<f64> {
    let base = rng.random_range(1.0..1e5);
    match shape {
        Shape::Modes => {
            let gap = rng.random_range(1.2..40.0);
            (0..len)
                .map(|i| {
                    let mode = rng.random_range(0u32..3);
                    base * gap.powi(mode as i32) * (1.0 + (i % 11) as f64 * 0.004)
                })
                .collect()
        }
        Shape::Ties => {
            let levels = rng.random_range(2usize..5);
            (0..len)
                .map(|_| base * (1 + rng.random_range(0..levels)) as f64)
                .collect()
        }
        Shape::AdjacentUlps => (0..len)
            .map(|_| match rng.random_range(0u32..3) {
                0 => base,
                1 => base.next_up(),
                _ => base.next_up().next_up(),
            })
            .collect(),
        Shape::Constant => vec![base; len],
    }
}

/// The sort-once, ping-pong ROOT recursion equals the per-node-Vec
/// reference recursion on adversarial inputs: several kernels interleaved
/// in one stream, each with a tie-heavy, adjacent-ulp, constant or
/// multi-modal time shape and a size that is a singleton, just below or
/// at `min_split_size`, or large; `max_depth` cut-offs and `k_split = 3`
/// ride along. Both entry points are pinned: the workload one at two
/// thread counts, and the index one over the whole stream.
#[test]
fn root_matches_reference_on_adversarial_cases() {
    use stem_core::root::{cluster_indices, cluster_workload_par, reference};
    const SHAPES: [Shape; 4] = [
        Shape::Modes,
        Shape::Ties,
        Shape::AdjacentUlps,
        Shape::Constant,
    ];
    for case in 0..96u64 {
        let mut rng = rng_for(5, case);
        let mut cfg = StemConfig::paper();
        cfg.min_split_size = rng.random_range(2usize..12);
        if case % 4 == 1 {
            cfg.max_depth = rng.random_range(1usize..4);
        }
        if case % 6 == 5 {
            cfg.k_split = 3;
        }
        let kernels = 1 + (case as usize % 4);
        let sizes: Vec<usize> = (0..kernels)
            .map(|k| match (case as usize + k) % 5 {
                0 => 1,
                1 => cfg.min_split_size - 1,
                2 => cfg.min_split_size,
                _ => rng.random_range(16usize..if cfg.k_split == 2 { 400 } else { 90 }),
            })
            .map(|n| n.max(1))
            .collect();
        let per_kernel: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(k, &n)| shape_times(&mut rng, SHAPES[(case as usize + k) % 4], n))
            .collect();

        // Interleave the kernels' calls at random, each in its own order.
        let mut b = WorkloadBuilder::new("adversarial", SuiteKind::Custom, 1);
        let ids: Vec<_> = (0..kernels)
            .map(|k| {
                b.add_kernel(
                    KernelClassBuilder::new(format!("k{k}")).build(),
                    vec![RuntimeContext::neutral()],
                )
            })
            .collect();
        let mut next = vec![0usize; kernels];
        let mut times = Vec::new();
        while let Some(k) = {
            let open: Vec<usize> = (0..kernels).filter(|&k| next[k] < sizes[k]).collect();
            (!open.is_empty()).then(|| open[rng.random_range(0..open.len())])
        } {
            b.invoke(ids[k], 0, 1.0);
            times.push(per_kernel[k][next[k]]);
            next[k] += 1;
        }
        let w = b.build();

        let slow = reference::cluster_workload(&w, &times, &cfg);
        for threads in [1usize, 3] {
            let fast = cluster_workload_par(
                &w,
                &times,
                &cfg,
                stem_par::Parallelism::with_threads(threads),
            );
            assert_eq!(fast, slow, "case {case} at threads = {threads}");
        }
        let all: Vec<usize> = (0..times.len()).collect();
        assert_eq!(
            cluster_indices(all.clone(), &times, &cfg),
            reference::cluster_indices(all, &times, &cfg),
            "case {case}: index clusters"
        );
    }
}
