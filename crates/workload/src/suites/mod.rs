//! Synthetic equivalents of the paper's three benchmark suites.
//!
//! Each generator programs the runtime-heterogeneity structure the paper
//! reports for its suite (Sec. 2.1, Sec. 5.1) — the structure every
//! sampling result depends on — while staying fully synthetic and seeded:
//!
//! * [`rodinia_suite`] — 13 small irregular GPGPU workloads. `gaussian`'s work
//!   shrinks toward zero across invocations, `heartwall`'s first call is
//!   ~1500x shorter than the rest, `pf_*` contain kernels 100x longer than
//!   their siblings, `bfs` has rising-and-falling frontier sizes.
//! * [`casio_suite`] — 11 ML workloads with ~64k kernel calls each; `sgemm` and
//!   `bn_fw_inf` kernels show multiple distinct peaks, `max_pool` and
//!   `embedding` kernels show wide memory-bound jitter.
//! * [`huggingface_suite`] — 6 LLM/ML serving workloads with up to millions of
//!   calls (scaled), dominated by repeated transformer-layer kernels with
//!   prefill/decode bimodality.

mod casio;
mod huggingface;
mod rodinia;

pub use casio::{casio_sources, casio_suite};
pub use huggingface::{huggingface_sources, huggingface_suite, HuggingfaceScale};
pub use rodinia::{rodinia_sources, rodinia_suite};

use crate::context::RuntimeContext;
use crate::kernel::{InstructionMix, KernelClass, KernelClassBuilder};

/// Shared library of ML kernel shapes used by the CASIO and HuggingFace
/// generators.
pub(crate) mod ml {
    use super::*;

    /// Size class of a GEMM-like kernel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum GemmSize {
        /// Small projection (decode-step GEMV-ish).
        Small,
        /// Mid-size layer GEMM.
        Medium,
        /// Large batched GEMM.
        Large,
    }

    /// A dense GEMM kernel (`sgemm`-style, compute bound, narrow peaks).
    pub fn gemm(name: &str, size: GemmSize) -> KernelClass {
        let (grid, instr, footprint) = match size {
            GemmSize::Small => (64, 1_500, 4 << 20),
            GemmSize::Medium => (192, 4_000, 24 << 20),
            GemmSize::Large => (512, 8_000, 96 << 20),
        };
        KernelClassBuilder::new(name)
            .geometry(grid, 256)
            .resources(96, 48 * 1024)
            .instructions(instr)
            .mix(InstructionMix::compute_bound())
            .memory(footprint, 24.0)
            .bbv(vec![1.0, 8.0, 8.0, 4.0, 2.0, 1.0])
            .build()
    }

    /// A tensor-core GEMM (`hgemm`/winograd-style).
    pub fn tensor_gemm(name: &str, size: GemmSize) -> KernelClass {
        let mut k = gemm(name, size);
        k.mix = InstructionMix::tensor_core();
        k
    }

    /// Batch-norm / layer-norm style kernel: streaming with modest reuse.
    pub fn norm(name: &str, grid: u32) -> KernelClass {
        KernelClassBuilder::new(name)
            .geometry(grid, 256)
            .resources(32, 4 * 1024)
            .instructions(900)
            .mix(InstructionMix::streaming())
            .memory(16 << 20, 2.0)
            .bbv(vec![1.0, 4.0, 2.0, 1.0])
            .build()
    }

    /// Pooling kernel: memory bound, wide jitter (Figure 1's `max_pool`).
    pub fn pool(name: &str, grid: u32) -> KernelClass {
        KernelClassBuilder::new(name)
            .geometry(grid, 128)
            .resources(24, 0)
            .instructions(600)
            .mix(InstructionMix::memory_bound())
            .memory(48 << 20, 1.2)
            .bbv(vec![1.0, 6.0, 3.0])
            .build()
    }

    /// Elementwise kernel (bias add, residual add, activation): streaming,
    /// very stable.
    pub fn elementwise(name: &str, grid: u32) -> KernelClass {
        KernelClassBuilder::new(name)
            .geometry(grid, 256)
            .resources(16, 0)
            .instructions(220)
            .mix(InstructionMix::streaming())
            .memory(8 << 20, 1.0)
            .bbv(vec![1.0, 3.0])
            .build()
    }

    /// Softmax/attention-score kernel: mixed, moderately memory bound.
    pub fn softmax(name: &str, grid: u32) -> KernelClass {
        KernelClassBuilder::new(name)
            .geometry(grid, 128)
            .resources(40, 16 * 1024)
            .instructions(1_400)
            .mix(InstructionMix::new(
                0.30, 0.05, 0.20, 0.30, 0.05, 0.05, 0.05,
            ))
            .memory(12 << 20, 2.5)
            .bbv(vec![1.0, 5.0, 5.0, 2.0])
            .build()
    }

    /// Embedding-table gather: random access, strongly memory bound, very
    /// wide jitter (the DLRM signature the paper calls out in Fig. 13).
    pub fn embedding(name: &str, grid: u32) -> KernelClass {
        KernelClassBuilder::new(name)
            .geometry(grid, 128)
            .resources(24, 0)
            .instructions(500)
            .mix(InstructionMix::memory_bound())
            .memory(2 << 30, 1.0)
            .bbv(vec![1.0, 7.0])
            .build()
    }

    /// Convolution kernel (implicit-GEMM style).
    pub fn conv(name: &str, grid: u32, instr: u64) -> KernelClass {
        KernelClassBuilder::new(name)
            .geometry(grid, 256)
            .resources(128, 64 * 1024)
            .instructions(instr)
            .mix(InstructionMix::compute_bound())
            .memory(64 << 20, 12.0)
            .bbv(vec![1.0, 10.0, 10.0, 6.0, 2.0, 1.0, 0.5])
            .build()
    }

    /// Three-peak context set: the same kernel used in three places with
    /// different data residency (Figure 1's `bn_fw_inf`).
    pub fn three_peak_contexts(jitter: f64) -> Vec<RuntimeContext> {
        vec![
            RuntimeContext::neutral()
                .with_work(1.0)
                .with_locality(4.0)
                .with_jitter(jitter),
            RuntimeContext::neutral()
                .with_work(1.9)
                .with_locality(1.0)
                .with_jitter(jitter),
            RuntimeContext::neutral()
                .with_work(3.2)
                .with_locality(0.4)
                .with_jitter(jitter),
        ]
    }

    /// Two-peak context set (prefill/decode, train fwd/bwd).
    pub fn two_peak_contexts(ratio: f64, jitter: f64) -> Vec<RuntimeContext> {
        vec![
            RuntimeContext::neutral().with_work(1.0).with_jitter(jitter),
            RuntimeContext::neutral()
                .with_work(ratio)
                .with_locality(0.6)
                .with_jitter(jitter),
        ]
    }

    /// Single stable context.
    pub fn stable_context(jitter: f64) -> Vec<RuntimeContext> {
        vec![RuntimeContext::neutral().with_jitter(jitter)]
    }

    /// Single wide memory-bound context (max_pool-style).
    pub fn wide_context(jitter: f64) -> Vec<RuntimeContext> {
        vec![RuntimeContext::neutral()
            .with_locality(0.5)
            .with_jitter(jitter)]
    }
}

/// Kernel shapes for Chakra-style execution traces (multi-GPU training).
pub(crate) mod trace_kernels {
    use super::*;

    /// Forward layer compute (GEMM-dominated).
    pub fn layer_fwd() -> KernelClass {
        KernelClassBuilder::new("layer_fwd")
            .geometry(384, 256)
            .resources(96, 48 * 1024)
            .instructions(6_000)
            .mix(InstructionMix::tensor_core())
            .memory(64 << 20, 16.0)
            .bbv(vec![1.0, 8.0, 6.0, 2.0])
            .build()
    }

    /// Backward layer compute (heavier, worse locality).
    pub fn layer_bwd() -> KernelClass {
        KernelClassBuilder::new("layer_bwd")
            .geometry(384, 256)
            .resources(128, 48 * 1024)
            .instructions(7_500)
            .mix(InstructionMix::compute_bound())
            .memory(96 << 20, 10.0)
            .bbv(vec![1.0, 9.0, 7.0, 3.0])
            .build()
    }

    /// Optimizer step (streaming over parameters).
    pub fn optimizer_step() -> KernelClass {
        KernelClassBuilder::new("adam_step")
            .geometry(256, 256)
            .resources(32, 0)
            .instructions(700)
            .mix(InstructionMix::streaming())
            .memory(128 << 20, 1.0)
            .bbv(vec![1.0, 4.0])
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::ml::*;

    #[test]
    fn ml_kernels_validate() {
        for k in [
            gemm("g", GemmSize::Small),
            gemm("g", GemmSize::Medium),
            gemm("g", GemmSize::Large),
            tensor_gemm("t", GemmSize::Large),
            norm("n", 64),
            pool("p", 64),
            elementwise("e", 64),
            softmax("s", 64),
            embedding("em", 64),
            conv("c", 128, 9000),
        ] {
            k.validate();
        }
    }

    #[test]
    fn gemm_sizes_ordered() {
        let s = gemm("g", GemmSize::Small);
        let l = gemm("g", GemmSize::Large);
        assert!(l.total_instructions() > 10 * s.total_instructions());
    }

    #[test]
    fn context_sets_validate() {
        for ctxs in [
            three_peak_contexts(0.05),
            two_peak_contexts(2.5, 0.1),
            stable_context(0.02),
            wide_context(0.3),
        ] {
            assert!(!ctxs.is_empty());
            for c in ctxs {
                c.validate();
            }
        }
    }

    #[test]
    fn three_peaks_are_distinct() {
        let ctxs = three_peak_contexts(0.03);
        assert!(ctxs[1].work_scale / ctxs[0].work_scale > 1.5);
        assert!(ctxs[2].work_scale / ctxs[1].work_scale > 1.5);
    }
}
