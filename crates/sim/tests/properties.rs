//! Property-style tests for the GPU timing model.
//!
//! Formerly `proptest`-based; rewritten as deterministic seeded-loop
//! property tests so the workspace builds hermetically.

use gpu_sim::exec::{time_kernel, SimOptions};
use gpu_sim::hardware::reference;
use gpu_sim::{DseTransform, GpuConfig, HardwareRunner};
use gpu_workload::kernel::{InstructionMix, KernelClassBuilder};
use gpu_workload::{KernelClass, RuntimeContext, SuiteKind, Workload, WorkloadBuilder};
use std::sync::Barrier;
use stem_par::Parallelism;
use stem_stats::rng::{RngCore, RngExt, SeedableRng, StdRng};

const CASES: u64 = 64;

fn rng_for(test_tag: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x51D0_DE10 ^ (test_tag << 32) ^ case)
}

fn gen_kernel(rng: &mut StdRng) -> KernelClass {
    let grid = rng.random_range(1u32..2048);
    let block = [32u32, 64, 128, 256, 512, 1024][rng.random_range(0usize..6)];
    let regs = rng.random_range(16u32..128);
    let shared_kib = rng.random_range(0u32..48);
    let instr = rng.random_range(100u64..100_000);
    let mix = match rng.random_range(0usize..5) {
        0 => InstructionMix::compute_bound(),
        1 => InstructionMix::tensor_core(),
        2 => InstructionMix::memory_bound(),
        3 => InstructionMix::streaming(),
        _ => InstructionMix::irregular(),
    };
    let fp_log2 = rng.random_range(20u64..34); // footprint 1 MiB .. 16 GiB
    let reuse = rng.random_range(1.0..32.0);
    KernelClassBuilder::new("prop")
        .geometry(grid, block)
        .resources(regs, shared_kib * 1024)
        .instructions(instr)
        .mix(mix)
        .memory(1u64 << fp_log2, reuse)
        .build()
}

fn gen_ctx(rng: &mut StdRng) -> RuntimeContext {
    RuntimeContext::neutral()
        .with_work(rng.random_range(0.1..8.0))
        .with_footprint(rng.random_range(0.2..4.0))
        .with_locality(rng.random_range(0.1..6.0))
        .with_jitter(rng.random_range(0.0..0.5))
}

/// Every timing output is finite, positive and internally consistent.
#[test]
fn timing_outputs_well_formed() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let kernel = gen_kernel(&mut rng);
        let ctx = gen_ctx(&mut rng);
        let z = rng.random_range(-4.0..4.0);
        for config in [
            GpuConfig::rtx2080(),
            GpuConfig::h100(),
            GpuConfig::macsim_baseline(),
        ] {
            let t = time_kernel(&kernel, &ctx, 1.0, z, &config, SimOptions::default());
            assert!(t.cycles.is_finite() && t.cycles > 0.0, "case {case}");
            assert!(
                t.compute_cycles >= 0.0 && t.memory_cycles >= 0.0,
                "case {case}"
            );
            assert!(
                t.deterministic_cycles >= config.launch_overhead_cycles,
                "case {case}"
            );
            assert!((0.0..=1.0).contains(&t.memory_boundedness), "case {case}");
            assert!((0.0..=1.0).contains(&t.l1_hit), "case {case}");
            assert!((0.0..=1.0).contains(&t.l2_hit), "case {case}");
            assert!(t.dram_bytes >= 0.0, "case {case}");
            assert!(
                t.occupancy.occupancy > 0.0 && t.occupancy.occupancy <= 1.0,
                "case {case}"
            );
        }
    }
}

/// More work never makes the deterministic time shorter.
#[test]
fn monotone_in_work() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let kernel = gen_kernel(&mut rng);
        let ctx = gen_ctx(&mut rng);
        let cfg = GpuConfig::rtx2080();
        let t1 = time_kernel(&kernel, &ctx, 1.0, 0.0, &cfg, SimOptions::default());
        let t2 = time_kernel(&kernel, &ctx, 2.0, 0.0, &cfg, SimOptions::default());
        assert!(
            t2.deterministic_cycles >= t1.deterministic_cycles,
            "case {case}"
        );
    }
}

/// A zero-jitter context has no randomness: z is irrelevant.
#[test]
fn zero_jitter_ignores_z() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let kernel = gen_kernel(&mut rng);
        let z = rng.random_range(-4.0..4.0);
        let cfg = GpuConfig::rtx2080();
        let ctx = RuntimeContext::neutral().with_jitter(0.0);
        let a = time_kernel(&kernel, &ctx, 1.0, z, &cfg, SimOptions::default());
        let b = time_kernel(&kernel, &ctx, 1.0, 0.0, &cfg, SimOptions::default());
        assert!(
            (a.cycles - b.cycles).abs() < 1e-9 * b.cycles.max(1.0),
            "case {case}"
        );
    }
}

/// Doubling SMs never slows a kernel down (deterministic part).
#[test]
fn more_sms_never_slower() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let kernel = gen_kernel(&mut rng);
        let ctx = gen_ctx(&mut rng);
        let base = GpuConfig::macsim_baseline();
        let big = base.with_transform(DseTransform::SmScale(2.0));
        let t_base = time_kernel(&kernel, &ctx, 1.0, 0.0, &base, SimOptions::default());
        let t_big = time_kernel(&kernel, &ctx, 1.0, 0.0, &big, SimOptions::default());
        assert!(
            t_big.deterministic_cycles <= t_base.deterministic_cycles * (1.0 + 1e-9),
            "case {case}: {} vs {}",
            t_big.deterministic_cycles,
            t_base.deterministic_cycles
        );
    }
}

/// Growing the caches never increases DRAM traffic.
#[test]
fn bigger_cache_never_more_dram() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let kernel = gen_kernel(&mut rng);
        let ctx = gen_ctx(&mut rng);
        let base = GpuConfig::macsim_baseline();
        let big = base.with_transform(DseTransform::CacheScale(2.0));
        let t_base = time_kernel(&kernel, &ctx, 1.0, 0.0, &base, SimOptions::default());
        let t_big = time_kernel(&kernel, &ctx, 1.0, 0.0, &big, SimOptions::default());
        assert!(
            t_big.dram_bytes <= t_base.dram_bytes * (1.0 + 1e-9),
            "case {case}"
        );
    }
}

/// The flush mode never makes a kernel faster.
#[test]
fn flush_never_faster() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let kernel = gen_kernel(&mut rng);
        let ctx = gen_ctx(&mut rng);
        let cfg = GpuConfig::rtx2080();
        let normal = time_kernel(&kernel, &ctx, 1.0, 0.0, &cfg, SimOptions::default());
        let flushed = time_kernel(
            &kernel,
            &ctx,
            1.0,
            0.0,
            &cfg,
            SimOptions {
                flush_l2_between_kernels: true,
                ..SimOptions::default()
            },
        );
        assert!(
            flushed.deterministic_cycles >= normal.deterministic_cycles * (1.0 - 1e-9),
            "case {case}"
        );
    }
}

/// Better locality never increases the deterministic time.
#[test]
fn locality_never_hurts() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let kernel = gen_kernel(&mut rng);
        let boost = rng.random_range(1.0..6.0);
        let cfg = GpuConfig::rtx2080();
        let cold = RuntimeContext::neutral().with_locality(1.0);
        let warm = RuntimeContext::neutral().with_locality(boost);
        let t_cold = time_kernel(&kernel, &cold, 1.0, 0.0, &cfg, SimOptions::default());
        let t_warm = time_kernel(&kernel, &warm, 1.0, 0.0, &cfg, SimOptions::default());
        assert!(
            t_warm.deterministic_cycles <= t_cold.deterministic_cycles * (1.0 + 1e-9),
            "case {case}"
        );
    }
}

/// A seeded workload of `n` calls spread over one to three random kernels
/// with two contexts each.
fn gen_workload(rng: &mut StdRng, n: usize) -> Workload {
    let mut b = WorkloadBuilder::new("prop", SuiteKind::Custom, rng.next_u64());
    let kernels: Vec<_> = (0..rng.random_range(1usize..4))
        .map(|_| {
            let kernel = gen_kernel(rng);
            let contexts = vec![gen_ctx(rng), gen_ctx(rng)];
            b.add_kernel(kernel, contexts)
        })
        .collect();
    for _ in 0..n {
        let k = kernels[rng.random_range(0..kernels.len())];
        let context = rng.random_range(0u32..2) as u16;
        b.invoke(k, context, rng.random_range(0.5..2.0) as f32);
    }
    b.build()
}

/// `hw` profiles `w` bit-identically to the per-invocation reference.
fn assert_profile_exact(hw: &HardwareRunner, w: &Workload, par: Parallelism, what: &str) {
    let got: Vec<u64> = hw
        .measure_all_par(w, par)
        .iter()
        .map(|t| t.to_bits())
        .collect();
    let want: Vec<u64> = reference::measure_all(hw, w)
        .iter()
        .map(|t| t.to_bits())
        .collect();
    assert_eq!(
        got,
        want,
        "{what}: {} calls, {} threads",
        w.num_invocations(),
        par.threads()
    );
}

/// The runner's shared noise table never moves a bit: one runner profiles
/// workloads whose lengths grow, shrink and repeat (the table grows only
/// to the longest, serially or on the pool), a clone and a `with_noise` copy profile on from the
/// shared or reset table, and two threads profile on one runner at once.
#[test]
fn noise_table_growth_clones_resets_and_races_match_the_reference() {
    for case in 0..16 {
        let mut rng = rng_for(8, case);
        let seed = rng.next_u64();
        let short = rng.random_range(1usize..40);
        let mid = rng.random_range(40usize..200);
        let long = rng.random_range(200usize..400);
        // Long enough that its growth fills on the pool.
        let huge = rng.random_range(17_000usize..18_000);
        let workloads: Vec<Workload> = [mid, huge, short, long, mid, huge + 50]
            .iter()
            .map(|&n| gen_workload(&mut rng, n))
            .collect();
        let hw = HardwareRunner::new(GpuConfig::rtx2080(), seed);
        for (i, w) in workloads.iter().enumerate() {
            let par = Parallelism::with_threads(1 + i % 3);
            assert_profile_exact(&hw, w, par, &format!("case {case}: profile {i}"));
        }

        // A clone shares the grown table; each side keeps growing alone.
        let copy = hw.clone();
        let longer = gen_workload(&mut rng, huge + 100);
        let serial = Parallelism::serial();
        assert_profile_exact(&copy, &longer, serial, &format!("case {case}: clone"));
        assert_profile_exact(
            &hw,
            &workloads[2],
            serial,
            &format!("case {case}: original"),
        );

        // `with_noise` starts a fresh table for the new noise level.
        let noisier = hw.clone().with_noise(rng.random_range(0.02..0.2));
        for w in workloads.iter().rev() {
            assert_profile_exact(&noisier, w, serial, &format!("case {case}: reset"));
        }

        // Two threads on one cold runner, released together by a barrier,
        // in opposite length orders: both grow the table at once.
        let shared = HardwareRunner::new(GpuConfig::rtx2080(), seed ^ 1);
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            let forward = scope.spawn(|| {
                start.wait();
                for w in &workloads {
                    assert_profile_exact(&shared, w, Parallelism::serial(), "forward");
                }
            });
            start.wait();
            for w in workloads.iter().rev() {
                assert_profile_exact(&shared, w, Parallelism::with_threads(2), "backward");
            }
            if let Err(payload) = forward.join() {
                std::panic::resume_unwind(payload);
            }
        });
    }
}
