//! Synthetic Rodinia 3.1: 13 small, irregular GPGPU workloads.
//!
//! Each workload reproduces the specific irregularity the paper uses it
//! for (Sec. 5.1):
//!
//! * `gaussian` — the same kernels are invoked repeatedly for Gaussian
//!   elimination but the executed work decreases steadily, approaching zero
//!   in later iterations.
//! * `heartwall` — the first invocation is much shorter; subsequent
//!   invocations execute roughly 1500x more instructions (first-
//!   chronological samplers underestimate total time by ~99.9%).
//! * `pf_float` / `pf_naive` — certain kernels are up to 100x longer than
//!   others.
//! * `bfs` — frontier sizes rise and fall across levels, so per-invocation
//!   work varies widely.

use crate::builder::WorkloadSource;
use crate::context::ContextSchedule;
use crate::kernel::{InstructionMix, KernelClassBuilder};
use crate::trace::{SuiteKind, Workload};

use super::ml;

/// Generates all 13 Rodinia workloads. `seed` drives every random draw.
pub fn rodinia_suite(seed: u64) -> Vec<Workload> {
    rodinia_sources(seed)
        .iter()
        .map(WorkloadSource::materialize)
        .collect()
}

/// The 13 Rodinia workloads as deferred [`WorkloadSource`]s — the
/// block-streaming counterpart of [`rodinia_suite`], generating
/// identical content (same RNG stream, same fingerprints).
pub fn rodinia_sources(seed: u64) -> Vec<WorkloadSource> {
    vec![
        backprop(seed ^ 0x01),
        bfs(seed ^ 0x02),
        btree(seed ^ 0x03),
        cfd(seed ^ 0x04),
        gaussian(seed ^ 0x05),
        heartwall(seed ^ 0x06),
        hotspot(seed ^ 0x07),
        kmeans(seed ^ 0x08),
        lud(seed ^ 0x09),
        nw(seed ^ 0x0a),
        pf_float(seed ^ 0x0b),
        pf_naive(seed ^ 0x0c),
        srad(seed ^ 0x0d),
    ]
}

fn backprop(seed: u64) -> WorkloadSource {
    WorkloadSource::new("backprop", SuiteKind::Rodinia, seed, move |b| {
        let fwd = b.add_kernel(
            KernelClassBuilder::new("bpnn_layerforward")
                .geometry(256, 256)
                .instructions(24_000)
                .mix(InstructionMix::compute_bound())
                .memory(32 << 20, 4.0)
                .bbv(vec![1.0, 6.0, 4.0, 1.0])
                .build(),
            ml::stable_context(0.04),
        );
        let adj = b.add_kernel(
            KernelClassBuilder::new("bpnn_adjust_weights")
                .geometry(256, 256)
                .instructions(17_600)
                .mix(InstructionMix::streaming())
                .memory(32 << 20, 1.5)
                .bbv(vec![1.0, 5.0, 2.0])
                .build(),
            ml::stable_context(0.06),
        );
        for _ in 0..400 {
            b.invoke(fwd, 0, 1.0);
            b.invoke(adj, 0, 1.0);
        }
    })
}

fn bfs(seed: u64) -> WorkloadSource {
    WorkloadSource::new("bfs", SuiteKind::Rodinia, seed, move |b| {
        let k1 = b.add_kernel(
            KernelClassBuilder::new("bfs_kernel")
                .geometry(512, 256)
                .instructions(3_200)
                .mix(InstructionMix::irregular())
                .memory(256 << 20, 1.0)
                .bbv(vec![1.0, 4.0, 2.0, 2.0])
                .build(),
            ml::wide_context(0.25),
        );
        let k2 = b.add_kernel(
            KernelClassBuilder::new("bfs_kernel2")
                .geometry(512, 256)
                .instructions(1_200)
                .mix(InstructionMix::irregular())
                .memory(256 << 20, 1.0)
                .bbv(vec![1.0, 2.0])
                .build(),
            ml::wide_context(0.25),
        );
        // Frontier grows geometrically then collapses: classic BFS level sizes.
        let levels = 24usize;
        for level in 0..levels {
            let x = level as f64 / levels as f64;
            // Rise to a peak at ~40% depth, then decay.
            let frontier = (x / 0.4).min((1.0 - x) / 0.6).max(1e-3);
            // Each launch still scans the whole vertex array; only part of the
            // work is frontier-proportional, so per-launch work floors at ~5%.
            let w = frontier.powi(2).max(0.05) as f32;
            for _ in 0..20 {
                b.invoke(k1, 0, w);
                b.invoke(k2, 0, w);
            }
        }
    })
}

fn btree(seed: u64) -> WorkloadSource {
    WorkloadSource::new("b+tree", SuiteKind::Rodinia, seed, move |b| {
        let find_k = b.add_kernel(
            KernelClassBuilder::new("findK")
                .geometry(1024, 256)
                .instructions(2_800)
                .mix(InstructionMix::irregular())
                .memory(128 << 20, 1.0)
                .bbv(vec![1.0, 3.0, 3.0])
                .build(),
            ml::wide_context(0.15),
        );
        let find_range = b.add_kernel(
            KernelClassBuilder::new("findRangeK")
                .geometry(1024, 256)
                .instructions(4_160)
                .mix(InstructionMix::irregular())
                .memory(128 << 20, 1.0)
                .bbv(vec![1.0, 3.0, 4.0, 1.0])
                .build(),
            ml::wide_context(0.15),
        );
        b.schedule(find_k, &ContextSchedule::Cyclic, 400);
        b.schedule(find_range, &ContextSchedule::Cyclic, 400);
    })
}

fn cfd(seed: u64) -> WorkloadSource {
    WorkloadSource::new("cfd", SuiteKind::Rodinia, seed, move |b| {
        let step = b.add_kernel(
            KernelClassBuilder::new("cuda_compute_step_factor")
                .geometry(759, 192)
                .instructions(4_800)
                .mix(InstructionMix::streaming())
                .memory(96 << 20, 1.2)
                .bbv(vec![1.0, 4.0])
                .build(),
            ml::stable_context(0.05),
        );
        let flux = b.add_kernel(
            KernelClassBuilder::new("cuda_compute_flux")
                .geometry(759, 192)
                .instructions(38_400)
                .mix(InstructionMix::new(0.45, 0.0, 0.20, 0.25, 0.02, 0.05, 0.03))
                .memory(96 << 20, 2.0)
                .bbv(vec![1.0, 9.0, 6.0, 3.0, 1.0])
                .build(),
            ml::stable_context(0.08),
        );
        let ts = b.add_kernel(
            KernelClassBuilder::new("cuda_time_step")
                .geometry(759, 192)
                .instructions(2_400)
                .mix(InstructionMix::streaming())
                .memory(96 << 20, 1.0)
                .bbv(vec![1.0, 2.0])
                .build(),
            ml::stable_context(0.05),
        );
        for _ in 0..1000 {
            b.invoke(step, 0, 1.0);
            b.invoke(flux, 0, 1.0);
            b.invoke(ts, 0, 1.0);
        }
    })
}

fn gaussian(seed: u64) -> WorkloadSource {
    WorkloadSource::new("gaussian", SuiteKind::Rodinia, seed, move |b| {
        let fan1 = b.add_kernel(
            KernelClassBuilder::new("Fan1")
                .geometry(4, 512)
                .instructions(7_200)
                .mix(InstructionMix::streaming())
                .memory(16 << 20, 1.0)
                // Prologue block + work-proportional loop body.
                .bbv(vec![1.0, 6.0])
                .build(),
            ml::stable_context(0.05),
        );
        let fan2 = b.add_kernel(
            KernelClassBuilder::new("Fan2")
                .geometry(256, 256)
                .instructions(12_800)
                .mix(InstructionMix::new(0.40, 0.0, 0.25, 0.25, 0.0, 0.07, 0.03))
                .memory(16 << 20, 1.5)
                .bbv(vec![1.0, 8.0, 2.0])
                .build(),
            ml::stable_context(0.05),
        );
        // Executed work shrinks quadratically toward zero across iterations.
        let n = 510usize;
        for i in 0..n {
            let remaining = (n - i) as f64 / n as f64;
            let w = (remaining * remaining).max(1e-4) as f32;
            b.invoke(fan1, 0, remaining.max(1e-4) as f32);
            b.invoke(fan2, 0, w);
        }
    })
}

fn heartwall(seed: u64) -> WorkloadSource {
    WorkloadSource::new("heartwall", SuiteKind::Rodinia, seed, move |b| {
        let k = b.add_kernel(
            KernelClassBuilder::new("heartwall_kernel")
                .geometry(51, 512)
                .instructions(9_600_000)
                .mix(InstructionMix::compute_bound())
                .memory(64 << 20, 8.0)
                .bbv(vec![1.0, 12.0, 8.0, 5.0, 1.0])
                .build(),
            ml::stable_context(0.04),
        );
        // First invocation executes ~1500x fewer instructions than the rest.
        b.invoke(k, 0, 1.0 / 1500.0);
        for _ in 0..103 {
            b.invoke(k, 0, 1.0);
        }
    })
}

fn hotspot(seed: u64) -> WorkloadSource {
    WorkloadSource::new("hotspot", SuiteKind::Rodinia, seed, move |b| {
        let k = b.add_kernel(
            KernelClassBuilder::new("calculate_temp")
                .geometry(1849, 256)
                .instructions(8_800)
                .mix(InstructionMix::new(0.40, 0.0, 0.20, 0.20, 0.12, 0.05, 0.03))
                .memory(48 << 20, 3.0)
                .bbv(vec![1.0, 7.0, 3.0])
                .build(),
            ml::stable_context(0.05),
        );
        b.schedule(k, &ContextSchedule::Cyclic, 2000);
    })
}

fn kmeans(seed: u64) -> WorkloadSource {
    WorkloadSource::new("kmeans", SuiteKind::Rodinia, seed, move |b| {
        let invert = b.add_kernel(
            KernelClassBuilder::new("invert_mapping")
                .geometry(1936, 256)
                .instructions(2_000)
                .mix(InstructionMix::streaming())
                .memory(128 << 20, 1.0)
                .bbv(vec![1.0, 2.0])
                .build(),
            ml::stable_context(0.06),
        );
        let point = b.add_kernel(
            KernelClassBuilder::new("kmeansPoint")
                .geometry(1936, 256)
                .instructions(22_400)
                .mix(InstructionMix::new(0.35, 0.0, 0.25, 0.30, 0.02, 0.05, 0.03))
                .memory(128 << 20, 2.0)
                .bbv(vec![1.0, 8.0, 3.0, 1.0])
                .build(),
            ml::wide_context(0.12),
        );
        b.invoke(invert, 0, 1.0);
        b.schedule(point, &ContextSchedule::Cyclic, 48);
    })
}

fn lud(seed: u64) -> WorkloadSource {
    WorkloadSource::new("lud", SuiteKind::Rodinia, seed, move |b| {
        let diag = b.add_kernel(
            KernelClassBuilder::new("lud_diagonal")
                .geometry(1, 256)
                .instructions(48_000)
                .mix(InstructionMix::compute_bound())
                .memory(1 << 20, 8.0)
                .bbv(vec![1.0, 10.0, 4.0])
                .build(),
            ml::stable_context(0.04),
        );
        let peri = b.add_kernel(
            KernelClassBuilder::new("lud_perimeter")
                .geometry(64, 256)
                .instructions(28_000)
                .mix(InstructionMix::compute_bound())
                .memory(8 << 20, 6.0)
                .bbv(vec![1.0, 8.0, 5.0])
                .build(),
            ml::stable_context(0.04),
        );
        let internal = b.add_kernel(
            KernelClassBuilder::new("lud_internal")
                .geometry(4096, 256)
                .instructions(16_000)
                .mix(InstructionMix::compute_bound())
                .memory(64 << 20, 10.0)
                .bbv(vec![1.0, 9.0, 6.0, 1.0])
                .build(),
            ml::stable_context(0.05),
        );
        // Like gaussian, the internal block count shrinks quadratically.
        let n = 128usize;
        for i in 0..n {
            let remaining = (n - i) as f64 / n as f64;
            b.invoke(diag, 0, 1.0);
            b.invoke(peri, 0, remaining.max(1e-3) as f32);
            b.invoke(internal, 0, (remaining * remaining).max(1e-4) as f32);
        }
    })
}

fn nw(seed: u64) -> WorkloadSource {
    WorkloadSource::new("nw", SuiteKind::Rodinia, seed, move |b| {
        let k1 = b.add_kernel(
            KernelClassBuilder::new("needle_cuda_shared_1")
                .geometry(256, 64)
                .instructions(19_200)
                .mix(InstructionMix::new(0.20, 0.0, 0.35, 0.20, 0.15, 0.07, 0.03))
                .memory(32 << 20, 2.0)
                .bbv(vec![1.0, 6.0, 4.0])
                .build(),
            ml::stable_context(0.06),
        );
        let k2 = b.add_kernel(
            KernelClassBuilder::new("needle_cuda_shared_2")
                .geometry(256, 64)
                .instructions(19_200)
                .mix(InstructionMix::new(0.20, 0.0, 0.35, 0.20, 0.15, 0.07, 0.03))
                .memory(32 << 20, 2.0)
                .bbv(vec![1.0, 4.0, 6.0])
                .build(),
            ml::stable_context(0.06),
        );
        // Anti-diagonal wavefront: work ramps up then down.
        let n = 256usize;
        for i in 0..n {
            let w = ((i + 1).min(n - i) as f64 / (n / 2) as f64).max(1e-3) as f32;
            b.invoke(k1, 0, w);
        }
        for i in 0..n {
            let w = ((i + 1).min(n - i) as f64 / (n / 2) as f64).max(1e-3) as f32;
            b.invoke(k2, 0, w);
        }
    })
}

fn pathfinder(name: &str, seed: u64, long_instr: u64) -> WorkloadSource {
    WorkloadSource::new(name, SuiteKind::Rodinia, seed, move |b| {
        let short = b.add_kernel(
            KernelClassBuilder::new("dynproc_kernel_short")
                .geometry(463, 256)
                .instructions(6_400)
                .mix(InstructionMix::new(0.20, 0.0, 0.35, 0.25, 0.10, 0.07, 0.03))
                .memory(24 << 20, 1.5)
                .bbv(vec![1.0, 4.0, 2.0])
                .build(),
            ml::stable_context(0.07),
        );
        // The long variant executes up to ~100x more instructions.
        let long = b.add_kernel(
            KernelClassBuilder::new("dynproc_kernel_long")
                .geometry(463, 256)
                .instructions(long_instr)
                .mix(InstructionMix::new(0.20, 0.0, 0.35, 0.25, 0.10, 0.07, 0.03))
                .memory(24 << 20, 1.5)
                .bbv(vec![1.0, 4.0, 2.0, 2.0])
                .build(),
            ml::stable_context(0.07),
        );
        for i in 0..1500 {
            if i % 25 == 24 {
                b.invoke(long, 0, 1.0);
            } else {
                b.invoke(short, 0, 1.0);
            }
        }
    })
}

fn pf_float(seed: u64) -> WorkloadSource {
    pathfinder("pf_float", seed, 640_000)
}

fn pf_naive(seed: u64) -> WorkloadSource {
    pathfinder("pf_naive", seed, 512_000)
}

fn srad(seed: u64) -> WorkloadSource {
    WorkloadSource::new("srad", SuiteKind::Rodinia, seed, move |b| {
        let srad1 = b.add_kernel(
            KernelClassBuilder::new("srad_cuda_1")
                .geometry(1024, 256)
                .instructions(12_000)
                .mix(InstructionMix::new(0.40, 0.0, 0.20, 0.25, 0.05, 0.07, 0.03))
                .memory(64 << 20, 2.0)
                .bbv(vec![1.0, 6.0, 3.0])
                .build(),
            ml::stable_context(0.06),
        );
        let srad2 = b.add_kernel(
            KernelClassBuilder::new("srad_cuda_2")
                .geometry(1024, 256)
                .instructions(10_400)
                .mix(InstructionMix::new(0.40, 0.0, 0.20, 0.25, 0.05, 0.07, 0.03))
                .memory(64 << 20, 2.0)
                .bbv(vec![1.0, 5.0, 4.0])
                .build(),
            ml::stable_context(0.06),
        );
        for _ in 0..1000 {
            b.invoke(srad1, 0, 1.0);
            b.invoke(srad2, 0, 1.0);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_workloads() {
        let suite = rodinia_suite(7);
        assert_eq!(suite.len(), 13);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert!(names.contains(&"gaussian"));
        assert!(names.contains(&"heartwall"));
        assert!(names.contains(&"pf_float"));
        assert!(names.contains(&"pf_naive"));
    }

    #[test]
    fn all_marked_rodinia() {
        for w in rodinia_suite(7) {
            assert_eq!(w.suite(), SuiteKind::Rodinia);
            assert!(w.num_invocations() > 0, "{} is empty", w.name());
        }
    }

    #[test]
    fn average_call_count_is_paper_scale() {
        let suite = rodinia_suite(7);
        let avg: f64 = suite
            .iter()
            .map(|w| w.num_invocations() as f64)
            .sum::<f64>()
            / suite.len() as f64;
        // Paper Table 2: avg 1403 kernel calls. Accept the right magnitude.
        assert!(avg > 500.0 && avg < 3000.0, "avg = {avg}");
    }

    #[test]
    fn gaussian_work_shrinks() {
        let suite = rodinia_suite(7);
        let g = suite
            .iter()
            .find(|w| w.name() == "gaussian")
            .expect("gaussian");
        let first = g.invocations().next().expect("nonempty").work_scale;
        let last = g.invocations().last().expect("nonempty").work_scale;
        assert!(first > 100.0 * last, "first {first} last {last}");
    }

    #[test]
    fn heartwall_first_call_tiny() {
        let suite = rodinia_suite(7);
        let h = suite
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("heartwall");
        let first = h.invocation(0).work_scale as f64;
        let second = h.invocation(1).work_scale as f64;
        assert!((second / first - 1500.0).abs() < 1.0);
    }

    #[test]
    fn pathfinder_has_long_outliers() {
        let suite = rodinia_suite(7);
        let p = suite
            .iter()
            .find(|w| w.name() == "pf_float")
            .expect("pf_float");
        let instr: Vec<u64> = p
            .invocations()
            .map(|inv| p.kernel_of(&inv).instr_per_thread)
            .collect();
        let max = *instr.iter().max().expect("nonempty");
        let min = *instr.iter().min().expect("nonempty");
        assert!(max / min >= 100);
    }

    #[test]
    fn bfs_work_rises_and_falls() {
        let suite = rodinia_suite(7);
        let b = suite.iter().find(|w| w.name() == "bfs").expect("bfs");
        let works: Vec<f32> = b.invocations().map(|i| i.work_scale).collect();
        let peak = works.iter().cloned().fold(0.0f32, f32::max);
        assert!(works[0] < peak / 10.0);
        assert!(*works.last().expect("nonempty") < peak / 10.0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(rodinia_suite(9), rodinia_suite(9));
    }

    #[test]
    fn different_seeds_differ() {
        let a = rodinia_suite(1);
        let b = rodinia_suite(2);
        // Same structure, different jitter draws.
        assert_eq!(a.len(), b.len());
        assert_ne!(a[0].invocation(0).noise_z, b[0].invocation(0).noise_z);
    }
}
