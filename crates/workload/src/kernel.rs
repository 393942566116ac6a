//! Static kernel signatures: what the compiled code looks like.
//!
//! Everything here is constant across invocations of the same kernel —
//! launch geometry, per-thread dynamic instruction count, instruction mix,
//! memory footprint and the basic-block vector template. Runtime variation
//! lives in [`crate::context`].

use crate::error::{WorkloadError, WorkloadErrorKind};

/// Fractions of the dynamic instruction stream by class. Must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    /// 32-bit floating point (FMA counted once).
    pub fp32: f64,
    /// 16-bit floating point / tensor-core issued ops.
    pub fp16: f64,
    /// Integer/address arithmetic.
    pub int_alu: f64,
    /// Global memory loads/stores.
    pub ldst_global: f64,
    /// Shared memory loads/stores.
    pub ldst_shared: f64,
    /// Branches and predicate manipulation.
    pub branch: f64,
    /// Transcendentals, shuffles, votes, barriers.
    pub special: f64,
}

impl InstructionMix {
    /// Validates and constructs a mix.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if any fraction is negative or non-finite,
    /// or the sum differs from 1 by more than 1e-6.
    pub fn try_new(
        fp32: f64,
        fp16: f64,
        int_alu: f64,
        ldst_global: f64,
        ldst_shared: f64,
        branch: f64,
        special: f64,
    ) -> Result<Self, WorkloadError> {
        let mix = InstructionMix {
            fp32,
            fp16,
            int_alu,
            ldst_global,
            ldst_shared,
            branch,
            special,
        };
        for (name, v) in mix.named() {
            if !v.is_finite() {
                return Err(WorkloadError::new(
                    WorkloadErrorKind::Mix,
                    format!("instruction-mix fraction {name} is not finite"),
                ));
            }
            if v < 0.0 {
                return Err(WorkloadError::new(
                    WorkloadErrorKind::Mix,
                    format!("instruction-mix fraction {name} is negative"),
                ));
            }
        }
        let sum = mix.sum();
        if (sum - 1.0).abs() >= 1e-6 {
            return Err(WorkloadError::new(
                WorkloadErrorKind::Mix,
                format!("instruction-mix fractions must sum to 1, got {sum}"),
            ));
        }
        Ok(mix)
    }

    /// Panicking convenience wrapper over [`InstructionMix::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any input [`InstructionMix::try_new`] rejects.
    pub fn new(
        fp32: f64,
        fp16: f64,
        int_alu: f64,
        ldst_global: f64,
        ldst_shared: f64,
        branch: f64,
        special: f64,
    ) -> Self {
        match InstructionMix::try_new(
            fp32,
            fp16,
            int_alu,
            ldst_global,
            ldst_shared,
            branch,
            special,
        ) {
            Ok(mix) => mix,
            Err(e) => panic!("{e}"),
        }
    }

    /// A GEMM-like compute-bound mix.
    pub fn compute_bound() -> Self {
        InstructionMix::new(0.55, 0.10, 0.15, 0.08, 0.07, 0.03, 0.02)
    }

    /// A tensor-core-heavy mixed-precision mix.
    pub fn tensor_core() -> Self {
        InstructionMix::new(0.15, 0.55, 0.10, 0.08, 0.07, 0.03, 0.02)
    }

    /// A pooling/embedding-like memory-bound mix.
    pub fn memory_bound() -> Self {
        InstructionMix::new(0.10, 0.0, 0.25, 0.45, 0.05, 0.10, 0.05)
    }

    /// An elementwise/streaming mix (memory heavy, trivially parallel).
    pub fn streaming() -> Self {
        InstructionMix::new(0.25, 0.05, 0.20, 0.40, 0.0, 0.05, 0.05)
    }

    /// A branchy, irregular graph-traversal mix.
    pub fn irregular() -> Self {
        InstructionMix::new(0.05, 0.0, 0.30, 0.35, 0.05, 0.20, 0.05)
    }

    fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("fp32", self.fp32),
            ("fp16", self.fp16),
            ("int_alu", self.int_alu),
            ("ldst_global", self.ldst_global),
            ("ldst_shared", self.ldst_shared),
            ("branch", self.branch),
            ("special", self.special),
        ]
    }

    fn sum(&self) -> f64 {
        self.fp32
            + self.fp16
            + self.int_alu
            + self.ldst_global
            + self.ldst_shared
            + self.branch
            + self.special
    }
}

/// Static description of a GPU kernel: the information a binary-analysis
/// profiler (NVBit, NCU) could extract without running it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelClass {
    /// Mangled-ish kernel name, e.g. `sgemm_128x64_nn`.
    pub name: String,
    /// Number of thread blocks (CTAs) launched.
    pub grid_dim: u32,
    /// Threads per CTA.
    pub block_dim: u32,
    /// Registers per thread (occupancy limiter).
    pub regs_per_thread: u32,
    /// Shared memory per CTA in bytes (occupancy limiter).
    pub shared_mem_per_cta: u32,
    /// Dynamic instructions per thread at `work_scale = 1`.
    pub instr_per_thread: u64,
    /// Instruction class fractions.
    pub mix: InstructionMix,
    /// Memory working set in bytes at `footprint_scale = 1`.
    pub footprint_bytes: u64,
    /// Average temporal reuse per byte of footprint (>= 1).
    pub reuse_factor: f64,
    /// Basic-block execution propensities; the BBV profiler perturbs this
    /// template per invocation. Length is the number of static basic blocks.
    pub bbv_template: Vec<f64>,
}

impl KernelClass {
    /// Validates invariant ranges.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if geometry or counts are zero,
    /// `reuse_factor < 1` (or non-finite), or the BBV template is empty.
    pub fn try_validate(&self) -> Result<(), WorkloadError> {
        let fail = |message: String| Err(WorkloadError::new(WorkloadErrorKind::Kernel, message));
        if self.name.is_empty() {
            return fail("kernel name must be nonempty".to_string());
        }
        if self.grid_dim == 0 {
            return fail(format!("kernel {} has zero grid", self.name));
        }
        if self.block_dim == 0 {
            return fail(format!("kernel {} has zero block", self.name));
        }
        if self.instr_per_thread == 0 {
            return fail(format!("kernel {} has zero instructions", self.name));
        }
        if self.footprint_bytes == 0 {
            return fail(format!("kernel {} has zero footprint", self.name));
        }
        if !(self.reuse_factor >= 1.0 && self.reuse_factor.is_finite()) {
            return fail(format!("kernel {} has reuse factor < 1", self.name));
        }
        if self.bbv_template.is_empty() {
            return fail(format!("kernel {} has an empty BBV template", self.name));
        }
        Ok(())
    }

    /// Panicking convenience wrapper over [`KernelClass::try_validate`].
    ///
    /// # Panics
    ///
    /// Panics on any violation [`KernelClass::try_validate`] reports.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }

    /// Total dynamic instructions at `work_scale = 1`.
    pub fn total_instructions(&self) -> u64 {
        self.total_threads() * self.instr_per_thread
    }

    /// Warps per CTA (warp size 32, rounded up).
    pub fn warps_per_cta(&self) -> u32 {
        self.block_dim.div_ceil(32)
    }

    /// Total warps in the launch.
    pub fn total_warps(&self) -> u64 {
        self.grid_dim as u64 * self.warps_per_cta() as u64
    }
}

/// A builder-style convenience constructor for common kernel shapes.
#[derive(Debug, Clone)]
pub struct KernelClassBuilder {
    inner: KernelClass,
}

impl KernelClassBuilder {
    /// Starts from a named kernel with defaults typical of a mid-size ML
    /// kernel; override fields with the builder methods.
    pub fn new(name: impl Into<String>) -> Self {
        KernelClassBuilder {
            inner: KernelClass {
                name: name.into(),
                grid_dim: 128,
                block_dim: 256,
                regs_per_thread: 32,
                shared_mem_per_cta: 8 * 1024,
                instr_per_thread: 2_000,
                mix: InstructionMix::compute_bound(),
                footprint_bytes: 8 * 1024 * 1024,
                reuse_factor: 4.0,
                bbv_template: vec![1.0; 8],
            },
        }
    }

    /// Sets the launch geometry.
    pub fn geometry(mut self, grid: u32, block: u32) -> Self {
        self.inner.grid_dim = grid;
        self.inner.block_dim = block;
        self
    }

    /// Sets per-thread registers and per-CTA shared memory.
    pub fn resources(mut self, regs: u32, shared: u32) -> Self {
        self.inner.regs_per_thread = regs;
        self.inner.shared_mem_per_cta = shared;
        self
    }

    /// Sets dynamic instructions per thread.
    pub fn instructions(mut self, per_thread: u64) -> Self {
        self.inner.instr_per_thread = per_thread;
        self
    }

    /// Sets the instruction mix.
    pub fn mix(mut self, mix: InstructionMix) -> Self {
        self.inner.mix = mix;
        self
    }

    /// Sets the memory footprint and reuse factor.
    pub fn memory(mut self, footprint: u64, reuse: f64) -> Self {
        self.inner.footprint_bytes = footprint;
        self.inner.reuse_factor = reuse;
        self
    }

    /// Sets the basic-block vector template.
    pub fn bbv(mut self, template: Vec<f64>) -> Self {
        self.inner.bbv_template = template;
        self
    }

    /// Finishes, validating invariants.
    ///
    /// # Panics
    ///
    /// Panics if the resulting kernel fails [`KernelClass::validate`].
    pub fn build(self) -> KernelClass {
        self.inner.validate();
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_mixes_are_valid() {
        // Constructors run the validating `new`, so this just exercises them.
        for mix in [
            InstructionMix::compute_bound(),
            InstructionMix::tensor_core(),
            InstructionMix::memory_bound(),
            InstructionMix::streaming(),
            InstructionMix::irregular(),
        ] {
            assert!((mix.sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_rejected() {
        InstructionMix::new(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "is negative")]
    fn negative_mix_rejected() {
        InstructionMix::new(1.2, -0.2, 0.0, 0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    fn builder_roundtrip() {
        let k = KernelClassBuilder::new("sgemm_128x64_nn")
            .geometry(512, 128)
            .resources(64, 48 * 1024)
            .instructions(10_000)
            .mix(InstructionMix::compute_bound())
            .memory(64 * 1024 * 1024, 16.0)
            .bbv(vec![4.0, 2.0, 1.0])
            .build();
        assert_eq!(k.name, "sgemm_128x64_nn");
        assert_eq!(k.total_threads(), 512 * 128);
        assert_eq!(k.warps_per_cta(), 4);
        assert_eq!(k.total_warps(), 512 * 4);
        assert_eq!(k.total_instructions(), 512 * 128 * 10_000);
    }

    #[test]
    fn warps_round_up() {
        let k = KernelClassBuilder::new("odd").geometry(1, 33).build();
        assert_eq!(k.warps_per_cta(), 2);
    }

    #[test]
    #[should_panic(expected = "zero grid")]
    fn zero_grid_rejected() {
        KernelClassBuilder::new("bad").geometry(0, 32).build();
    }
}
