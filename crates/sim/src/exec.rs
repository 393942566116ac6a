//! Per-invocation timing: the core analytic model.
//!
//! The model is a classical two-rail (compute vs memory) kernel model:
//!
//! * **Compute rail** — dynamic warp instructions weighted by per-class
//!   throughputs, divided by the SMs actually covered by the grid and a
//!   latency-hiding utilization that grows with resident warps.
//! * **Memory rail** — global-access traffic derived from the instruction
//!   mix, filtered by L1 (per-SM, aided by blocking quality) and L2
//!   (device-wide, modulated by the context's locality), with the residual
//!   DRAM bytes pushed through the bandwidth roofline.
//!
//! The kernel's cycles are `launch + max(rails) + 0.15 * min(rails)`
//! (imperfect overlap), and runtime jitter is lognormal with a CoV that
//! grows with memory-boundedness — the mechanism behind the paper's
//! observation that memory-bound kernels need more samples (Sec. 2.2) and
//! stay robust across hardware (Sec. 6.1).

use crate::cache::{hit_rate, miss_bytes};
use crate::config::GpuConfig;
use crate::dram::dram_cycles;
use crate::occupancy::{occupancy, Occupancy};
use gpu_workload::{Invocation, Workload};

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimOptions {
    /// Model an L2 flush between every kernel (the Sec. 6.2 extreme-case
    /// warmup experiment): inter-kernel residency benefits are removed by
    /// capping the context's locality boost at 1.
    pub flush_l2_between_kernels: bool,
    /// Model the lightweight warmup strategy Sec. 6.2 suggests ("inserting
    /// warmup instructions or short warmup kernels"): before each simulated
    /// kernel a short warmup pass restores most of the producer-consumer L2
    /// residency that a flush destroyed, at a small simulated-time tax.
    /// Only meaningful together with `flush_l2_between_kernels`.
    pub warmup_kernels: bool,
}

/// Fraction of a kernel's own time spent on its warmup pass.
const WARMUP_TAX: f64 = 0.04;
/// Fraction of destroyed residency a warmup pass restores.
const WARMUP_RESTORE: f64 = 0.8;

/// Full timing breakdown of one invocation on one config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Compute-rail cycles.
    pub compute_cycles: f64,
    /// Memory-rail cycles.
    pub memory_cycles: f64,
    /// Deterministic total (launch + max + overlap tax), before jitter.
    pub deterministic_cycles: f64,
    /// Total with this invocation's lognormal jitter applied — the number a
    /// cycle-level simulator (or profiler) would report.
    pub cycles: f64,
    /// Memory-boundedness `beta = mem / (mem + compute)` in `[0, 1]`.
    pub memory_boundedness: f64,
    /// Occupancy analysis.
    pub occupancy: Occupancy,
    /// L1 hit rate.
    pub l1_hit: f64,
    /// L2 hit rate (reads).
    pub l2_hit: f64,
    /// Bytes that reached DRAM.
    pub dram_bytes: f64,
    /// Bytes of global-memory demand issued to L1.
    pub access_bytes: f64,
    /// Warp execution efficiency (active-lane fraction).
    pub warp_efficiency: f64,
    /// Effective jitter CoV used for this invocation.
    pub jitter_sigma: f64,
    /// Extra cycles a sampled simulation spends warming the caches before
    /// this kernel (0 unless `SimOptions::warmup_kernels`). Warmup cycles
    /// are *simulation cost*, not part of the kernel's measured time.
    pub warmup_cycles: f64,
}

/// The memoizable half of the timing model: everything that depends only on
/// `(kernel, context, work scale, config, options)` — both rails, occupancy,
/// hit rates, the deterministic cycle total, and the jitter CoV. The only
/// per-invocation input left out is the lognormal noise draw, applied by
/// [`DeterministicTiming::apply_jitter`].
///
/// Workloads repeat the same `(kernel, context, work scale)` triple across
/// thousands-to-millions of invocations (see `Workload::num_invocation_groups`),
/// so computing this once per group and streaming the jitter turns full
/// simulation into "group-precompute + one `exp` per invocation".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeterministicTiming {
    /// Compute-rail cycles.
    pub compute_cycles: f64,
    /// Memory-rail cycles.
    pub memory_cycles: f64,
    /// Deterministic total (launch + max + overlap tax), before jitter.
    pub deterministic_cycles: f64,
    /// Memory-boundedness `beta = mem / (mem + compute)` in `[0, 1]`.
    pub memory_boundedness: f64,
    /// Occupancy analysis.
    pub occupancy: Occupancy,
    /// L1 hit rate.
    pub l1_hit: f64,
    /// L2 hit rate (reads).
    pub l2_hit: f64,
    /// Bytes that reached DRAM.
    pub dram_bytes: f64,
    /// Bytes of global-memory demand issued to L1.
    pub access_bytes: f64,
    /// Warp execution efficiency (active-lane fraction).
    pub warp_efficiency: f64,
    /// Effective jitter CoV for invocations of this group.
    pub jitter_sigma: f64,
    /// Extra warmup-simulation cycles (0 unless `SimOptions::warmup_kernels`).
    pub warmup_cycles: f64,
}

impl DeterministicTiming {
    /// Total cycles with the lognormal jitter for noise draw `z` applied —
    /// bit-identical to the `cycles` field [`time_kernel`] computes, because
    /// the floating-point expression is the same.
    #[inline]
    pub fn jittered_cycles(&self, noise_z: f64) -> f64 {
        let jitter_sigma = self.jitter_sigma;
        let z = noise_z;
        let jitter = (jitter_sigma * z - jitter_sigma * jitter_sigma / 2.0).exp();
        self.deterministic_cycles * jitter
    }

    /// Expands into the full per-invocation [`KernelTiming`] for noise draw
    /// `z`. `time_kernel(..) == deterministic_timing(..).apply_jitter(z)`
    /// bitwise.
    pub fn apply_jitter(&self, noise_z: f64) -> KernelTiming {
        KernelTiming {
            compute_cycles: self.compute_cycles,
            memory_cycles: self.memory_cycles,
            deterministic_cycles: self.deterministic_cycles,
            cycles: self.jittered_cycles(noise_z),
            memory_boundedness: self.memory_boundedness,
            occupancy: self.occupancy,
            l1_hit: self.l1_hit,
            l2_hit: self.l2_hit,
            dram_bytes: self.dram_bytes,
            access_bytes: self.access_bytes,
            warp_efficiency: self.warp_efficiency,
            jitter_sigma: self.jitter_sigma,
            warmup_cycles: self.warmup_cycles,
        }
    }
}

/// Times one invocation of `workload` on `config`.
///
/// Pure function of its arguments: the invocation's stored `noise_z` is the
/// only source of randomness, so repeated calls agree and different configs
/// see *correlated* times for the same invocation.
pub fn time_invocation(
    workload: &Workload,
    inv: &Invocation,
    config: &GpuConfig,
    options: SimOptions,
) -> KernelTiming {
    let kernel = workload.kernel_of(inv);
    let ctx = workload.context_of(inv);
    time_kernel(
        kernel,
        ctx,
        inv.work_scale as f64,
        inv.noise_z as f64,
        config,
        options,
    )
}

/// The deterministic core of one invocation's timing (no jitter applied).
pub fn deterministic_of_invocation(
    workload: &Workload,
    inv: &Invocation,
    config: &GpuConfig,
    options: SimOptions,
) -> DeterministicTiming {
    let kernel = workload.kernel_of(inv);
    let ctx = workload.context_of(inv);
    deterministic_timing(kernel, ctx, inv.work_scale as f64, config, options)
}

/// Times one kernel launch directly from its components — the primitive
/// behind [`time_invocation`], also used by the multi-GPU execution-trace
/// simulator where launches are DAG nodes rather than stream entries.
pub fn time_kernel(
    kernel: &gpu_workload::KernelClass,
    ctx: &gpu_workload::RuntimeContext,
    extra_work: f64,
    noise_z: f64,
    config: &GpuConfig,
    options: SimOptions,
) -> KernelTiming {
    deterministic_timing(kernel, ctx, extra_work, config, options).apply_jitter(noise_z)
}

/// The deterministic core of [`time_kernel`]: both rails, caches, occupancy
/// and the jitter CoV — everything except the per-invocation noise draw.
pub fn deterministic_timing(
    kernel: &gpu_workload::KernelClass,
    ctx: &gpu_workload::RuntimeContext,
    extra_work: f64,
    config: &GpuConfig,
    options: SimOptions,
) -> DeterministicTiming {
    let work = ctx.work_scale * extra_work;

    let occ = occupancy(kernel, config);

    // --- Compute rail ---------------------------------------------------
    let warp_efficiency = 1.0 - 0.6 * kernel.mix.branch;
    let thread_instr = kernel.total_instructions() as f64 * work;
    let warp_instr = thread_instr / 32.0 / warp_efficiency;
    let mix = &kernel.mix;
    let weighted_cycles = warp_instr
        * (mix.fp32 / config.fp32_throughput
            + mix.fp16 / config.fp16_throughput
            + mix.int_alu / config.int_throughput
            + (mix.ldst_global + mix.ldst_shared) / config.ldst_throughput
            + mix.branch / config.int_throughput
            + mix.special / config.sfu_throughput);
    let effective_sms = (config.num_sms.min(kernel.grid_dim)) as f64;
    // Latency hiding improves with resident warps, saturating around 12.
    let utilization = (occ.warps_per_sm as f64 / 12.0).clamp(0.1, 1.0);
    let compute_cycles = weighted_cycles / (effective_sms * utilization);

    // --- Memory rail ------------------------------------------------------
    let locality = if options.flush_l2_between_kernels {
        if options.warmup_kernels && ctx.locality_boost > 1.0 {
            1.0 + WARMUP_RESTORE * (ctx.locality_boost - 1.0)
        } else {
            ctx.locality_boost.min(1.0)
        }
    } else {
        ctx.locality_boost
    };
    let footprint = kernel.footprint_bytes as f64 * ctx.footprint_scale * work.max(1e-6);
    let access_bytes = thread_instr * mix.ldst_global * 4.0;
    let (l1_hit, l2_hit, dram_bytes) = if access_bytes > 0.0 {
        let traffic_reuse = (access_bytes / footprint).max(1.0);
        let blocking = kernel.reuse_factor.sqrt();
        let l1_ws = footprint / effective_sms;
        let l1_hit = hit_rate(
            l1_ws,
            config.l1_size as f64,
            locality * blocking,
            traffic_reuse,
        );
        let post_l1 = miss_bytes(access_bytes, l1_hit);
        let l2_reuse = (post_l1 / footprint).max(1.0);
        let l2_hit = hit_rate(footprint, config.l2_size as f64, locality, l2_reuse);
        let dram_bytes = miss_bytes(post_l1, l2_hit);
        (l1_hit, l2_hit, dram_bytes)
    } else {
        (0.0, 0.0, 0.0)
    };
    let memory_cycles = dram_cycles(dram_bytes, occ.waves, config);

    // --- Combine ----------------------------------------------------------
    let hi = compute_cycles.max(memory_cycles);
    let lo = compute_cycles.min(memory_cycles);
    let deterministic_cycles = config.launch_overhead_cycles + hi + 0.15 * lo;
    let warmup_cycles = if options.warmup_kernels {
        WARMUP_TAX * deterministic_cycles
    } else {
        0.0
    };
    let memory_boundedness = if hi + lo > 0.0 {
        memory_cycles / (compute_cycles + memory_cycles)
    } else {
        0.0
    };

    // --- Jitter CoV -------------------------------------------------------
    // Memory-bound kernels fluctuate more (DRAM contention, row-buffer
    // state); compute-bound ones are stable. Lognormal with unit mean —
    // the draw itself is applied per invocation by `apply_jitter`.
    let jitter_sigma = ctx.jitter_cov * (0.4 + 1.2 * memory_boundedness);

    DeterministicTiming {
        compute_cycles,
        memory_cycles,
        deterministic_cycles,
        memory_boundedness,
        occupancy: occ,
        l1_hit,
        l2_hit,
        dram_bytes,
        access_bytes,
        warp_efficiency,
        jitter_sigma,
        warmup_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::kernel::{InstructionMix, KernelClassBuilder};
    use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};

    fn workload_with(kernel: gpu_workload::KernelClass, ctx: RuntimeContext) -> Workload {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let id = b.add_kernel(kernel, vec![ctx]);
        b.invoke(id, 0, 1.0);
        b.build()
    }

    fn gemm_like() -> gpu_workload::KernelClass {
        KernelClassBuilder::new("gemm")
            .geometry(256, 256)
            .resources(96, 48 * 1024)
            .instructions(12_000)
            .mix(InstructionMix::compute_bound())
            .memory(32 << 20, 24.0)
            .build()
    }

    fn pool_like() -> gpu_workload::KernelClass {
        KernelClassBuilder::new("pool")
            .geometry(192, 128)
            .resources(24, 0)
            .instructions(600)
            .mix(InstructionMix::memory_bound())
            .memory(48 << 20, 1.2)
            .build()
    }

    fn time_one(w: &Workload, config: &GpuConfig) -> KernelTiming {
        time_invocation(w, &w.invocation(0), config, SimOptions::default())
    }

    #[test]
    fn pool_is_memory_bound_gemm_is_not() {
        let cfg = GpuConfig::rtx2080();
        let g = time_one(&workload_with(gemm_like(), RuntimeContext::neutral()), &cfg);
        let p = time_one(&workload_with(pool_like(), RuntimeContext::neutral()), &cfg);
        assert!(
            p.memory_boundedness > 0.7,
            "pool beta = {}",
            p.memory_boundedness
        );
        assert!(
            g.memory_boundedness < p.memory_boundedness,
            "gemm beta {} should be below pool beta {}",
            g.memory_boundedness,
            p.memory_boundedness
        );
    }

    #[test]
    fn deterministic_and_positive() {
        let cfg = GpuConfig::rtx2080();
        let w = workload_with(gemm_like(), RuntimeContext::neutral());
        let a = time_one(&w, &cfg);
        let b = time_one(&w, &cfg);
        assert_eq!(a, b);
        assert!(a.cycles > 0.0 && a.cycles.is_finite());
        assert!(a.cycles >= cfg.launch_overhead_cycles * 0.5);
    }

    #[test]
    fn more_work_more_cycles() {
        let cfg = GpuConfig::rtx2080();
        let w1 = workload_with(gemm_like(), RuntimeContext::neutral());
        let w2 = workload_with(gemm_like(), RuntimeContext::neutral().with_work(3.0));
        let t1 = time_one(&w1, &cfg);
        let t2 = time_one(&w2, &cfg);
        assert!(t2.deterministic_cycles > 2.0 * t1.deterministic_cycles);
    }

    /// A memory-bound kernel that re-touches a modest working set many
    /// times — the kind whose DRAM traffic collapses once the set fits in
    /// L2 (stencils, attention over the KV cache).
    fn cache_hungry() -> gpu_workload::KernelClass {
        KernelClassBuilder::new("stencil")
            .geometry(512, 256)
            .resources(24, 0)
            .instructions(2_000)
            .mix(InstructionMix::memory_bound())
            .memory(8 << 20, 1.5)
            .build()
    }

    #[test]
    fn memory_bound_kernel_sensitive_to_cache_size() {
        // The DSE premise: growing L2 speeds the cache-hungry memory-bound
        // kernel by a larger factor than the compute-bound one.
        let base = GpuConfig::macsim_baseline();
        let bigger = base.with_transform(crate::DseTransform::CacheScale(4.0));
        let mem_w = workload_with(cache_hungry(), RuntimeContext::neutral().with_locality(0.8));
        let gemm_w = workload_with(gemm_like(), RuntimeContext::neutral());
        let mem_gain = time_one(&mem_w, &base).deterministic_cycles
            / time_one(&mem_w, &bigger).deterministic_cycles;
        let gemm_gain = time_one(&gemm_w, &base).deterministic_cycles
            / time_one(&gemm_w, &bigger).deterministic_cycles;
        assert!(
            mem_gain > gemm_gain && mem_gain > 1.2,
            "mem gain {mem_gain} vs gemm gain {gemm_gain}"
        );
    }

    #[test]
    fn compute_bound_kernel_sensitive_to_sm_count() {
        let base = GpuConfig::macsim_baseline();
        let bigger = base.with_transform(crate::DseTransform::SmScale(2.0));
        let gemm_w = workload_with(gemm_like(), RuntimeContext::neutral());
        let t_base = time_one(&gemm_w, &base);
        let t_big = time_one(&gemm_w, &bigger);
        assert!(
            t_big.compute_cycles < 0.6 * t_base.compute_cycles,
            "{} vs {}",
            t_big.compute_cycles,
            t_base.compute_cycles
        );
    }

    #[test]
    fn jitter_wider_for_memory_bound() {
        let cfg = GpuConfig::rtx2080();
        let jittery = RuntimeContext::neutral().with_jitter(0.2);
        let p = time_one(&workload_with(pool_like(), jittery), &cfg);
        let g = time_one(&workload_with(gemm_like(), jittery), &cfg);
        assert!(p.jitter_sigma > g.jitter_sigma);
    }

    #[test]
    fn jitter_has_unit_mean() {
        // Average over many draws of z: mean of lognormal(mu=-s^2/2, s) = 1.
        let cfg = GpuConfig::rtx2080();
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 9);
        let id = b.add_kernel(
            pool_like(),
            vec![RuntimeContext::neutral().with_jitter(0.3)],
        );
        for _ in 0..20_000 {
            b.invoke(id, 0, 1.0);
        }
        let w = b.build();
        let det =
            time_invocation(&w, &w.invocation(0), &cfg, SimOptions::default()).deterministic_cycles;
        let mean: f64 = w
            .invocations()
            .map(|inv| time_invocation(&w, &inv, &cfg, SimOptions::default()).cycles)
            .sum::<f64>()
            / w.num_invocations() as f64;
        assert!((mean / det - 1.0).abs() < 0.02, "mean/det = {}", mean / det);
    }

    #[test]
    fn locality_boost_reduces_time() {
        let cfg = GpuConfig::rtx2080();
        let cold = workload_with(pool_like(), RuntimeContext::neutral().with_locality(0.2));
        let warm = workload_with(pool_like(), RuntimeContext::neutral().with_locality(5.0));
        assert!(
            time_one(&warm, &cfg).deterministic_cycles < time_one(&cold, &cfg).deterministic_cycles
        );
    }

    #[test]
    fn flush_mode_caps_locality() {
        let cfg = GpuConfig::rtx2080();
        let warm = workload_with(pool_like(), RuntimeContext::neutral().with_locality(5.0));
        let normal = time_one(&warm, &cfg);
        let flushed = time_invocation(
            &warm,
            &warm.invocation(0),
            &cfg,
            SimOptions {
                flush_l2_between_kernels: true,
                ..SimOptions::default()
            },
        );
        assert!(flushed.deterministic_cycles > normal.deterministic_cycles);

        // A context without residency benefits is unaffected.
        let cold = workload_with(pool_like(), RuntimeContext::neutral().with_locality(0.8));
        let n = time_one(&cold, &cfg);
        let f = time_invocation(
            &cold,
            &cold.invocation(0),
            &cfg,
            SimOptions {
                flush_l2_between_kernels: true,
                ..SimOptions::default()
            },
        );
        assert_eq!(n.deterministic_cycles, f.deterministic_cycles);
    }

    #[test]
    fn warmup_restores_most_residency_at_a_tax() {
        let cfg = GpuConfig::rtx2080();
        let warm_ctx = RuntimeContext::neutral().with_locality(5.0);
        let w = workload_with(pool_like(), warm_ctx);
        let inv = &w.invocation(0);
        let normal = time_invocation(&w, inv, &cfg, SimOptions::default());
        let flushed = time_invocation(
            &w,
            inv,
            &cfg,
            SimOptions {
                flush_l2_between_kernels: true,
                ..SimOptions::default()
            },
        );
        let warmed = time_invocation(
            &w,
            inv,
            &cfg,
            SimOptions {
                flush_l2_between_kernels: true,
                warmup_kernels: true,
            },
        );
        // Warmup restores most of the flushed residency...
        assert!(warmed.deterministic_cycles < flushed.deterministic_cycles);
        assert!(warmed.deterministic_cycles >= normal.deterministic_cycles);
        // ...at a simulation-cost tax that is tracked separately.
        assert!(warmed.warmup_cycles > 0.0);
        assert_eq!(normal.warmup_cycles, 0.0);
        // Without residency to restore, warmup changes nothing but the tax.
        let cold = workload_with(pool_like(), RuntimeContext::neutral().with_locality(0.7));
        let cold_inv = &cold.invocation(0);
        let n = time_invocation(&cold, cold_inv, &cfg, SimOptions::default());
        let wu = time_invocation(
            &cold,
            cold_inv,
            &cfg,
            SimOptions {
                flush_l2_between_kernels: true,
                warmup_kernels: true,
            },
        );
        assert_eq!(wu.deterministic_cycles, n.deterministic_cycles);
        assert!(wu.warmup_cycles > 0.0);
    }

    #[test]
    fn hit_rates_in_range() {
        let cfg = GpuConfig::rtx2080();
        for (k, ctx) in [
            (gemm_like(), RuntimeContext::neutral()),
            (pool_like(), RuntimeContext::neutral().with_locality(0.3)),
        ] {
            let t = time_one(&workload_with(k, ctx), &cfg);
            assert!((0.0..=1.0).contains(&t.l1_hit));
            assert!((0.0..=1.0).contains(&t.l2_hit));
            assert!(t.dram_bytes >= 0.0);
        }
    }
}
