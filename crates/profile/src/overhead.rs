//! Profiling-overhead cost models (Table 5).
//!
//! Table 5 reports each profiler's instrumented wall time as a multiple of
//! the uninstrumented run. The asymptotics differ per tool and are what
//! make PKA/Sieve/Photon infeasible at HuggingFace scale (Sec. 5.6):
//!
//! * **NSYS** (STEM): per-kernel trace record + fixed session cost. O(N).
//! * **NCU** (PKA): kernels are *replayed* several times per metric pass
//!   and serialized — a large per-kernel fixed cost dominates for ML
//!   workloads made of many small kernels. O(N) with a brutal constant.
//! * **NVBit instruction counting** (Sieve): every dynamic instruction
//!   executes extra instrumentation (atomics per warp). O(total instr).
//! * **BBV** (Photon): per-instruction collection (cheaper than NVBit's
//!   counting, amortized per block) *plus* the online BBV comparison bill,
//!   O(N·S·d) to O(N²·d) in kernel count.

/// Cost-model constants (seconds). Tuned to land in the regime Table 5
/// reports for a mid-size ML suite; the *relative ordering and asymptotics*
/// are the reproduction target.
///
/// # Example
///
/// ```
/// use gpu_profile::OverheadModel;
///
/// let m = OverheadModel::default();
/// // NSYS-style tracing of a 7-second, 64k-kernel ML workload costs a few x;
/// // NCU-style replay costs thousands of x (Table 5).
/// assert!(m.nsys(7.26, 64_279).factor() < 20.0);
/// assert!(m.ncu(7.26, 64_279).factor() > 500.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// NSYS fixed session cost (launch, export).
    pub nsys_fixed_s: f64,
    /// NSYS cost per traced kernel launch.
    pub nsys_per_kernel_s: f64,
    /// NCU fixed replay/serialization cost per kernel launch.
    pub ncu_per_kernel_s: f64,
    /// NCU slowdown multiplier on the kernel's own runtime (replay passes).
    pub ncu_runtime_factor: f64,
    /// NVBit per-dynamic-thread-instruction instrumentation cost.
    pub nvbit_per_instr_s: f64,
    /// NVBit per-kernel instrumented-launch cost (JIT patch + flush).
    pub nvbit_per_kernel_s: f64,
    /// BBV collection cost per dynamic instruction (amortized per block).
    pub bbv_per_instr_s: f64,
    /// Cost per scalar BBV-comparison operation (one dimension of one
    /// candidate comparison).
    pub bbv_per_compare_op_s: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            nsys_fixed_s: 2.0,
            nsys_per_kernel_s: 3.0e-4,
            ncu_per_kernel_s: 0.25,
            ncu_runtime_factor: 8.0,
            nvbit_per_instr_s: 2.0e-11,
            nvbit_per_kernel_s: 2.0e-2,
            bbv_per_instr_s: 8.0e-12,
            bbv_per_compare_op_s: 2.0e-8,
        }
    }
}

/// One profiler's modelled overhead on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Instrumented wall time, seconds.
    pub instrumented_s: f64,
    /// Uninstrumented wall time, seconds.
    pub base_s: f64,
}

impl OverheadReport {
    /// Overhead as "x original wall time" (Table 5's unit).
    pub fn factor(&self) -> f64 {
        self.instrumented_s / self.base_s
    }
}

impl OverheadModel {
    fn report(&self, base_s: f64, extra_s: f64) -> OverheadReport {
        assert!(base_s > 0.0, "base wall time must be positive");
        OverheadReport {
            instrumented_s: base_s + extra_s,
            base_s,
        }
    }

    /// NSYS (STEM's profiler): timeline tracing.
    pub fn nsys(&self, base_s: f64, num_kernels: u64) -> OverheadReport {
        self.report(
            base_s,
            self.nsys_fixed_s + self.nsys_per_kernel_s * num_kernels as f64,
        )
    }

    /// NCU collecting PKA's 12 metrics: replayed, serialized kernels.
    pub fn ncu(&self, base_s: f64, num_kernels: u64) -> OverheadReport {
        self.report(
            base_s,
            self.ncu_per_kernel_s * num_kernels as f64 + self.ncu_runtime_factor * base_s,
        )
    }

    /// NVBit dynamic instruction counting (Sieve): per-instruction atomics
    /// plus a per-kernel instrumented-launch cost.
    pub fn nvbit(&self, base_s: f64, total_instructions: f64, num_kernels: u64) -> OverheadReport {
        assert!(
            total_instructions >= 0.0,
            "instruction count must be nonnegative"
        );
        self.report(
            base_s,
            self.nvbit_per_instr_s * total_instructions
                + self.nvbit_per_kernel_s * num_kernels as f64,
        )
    }

    /// BBV collection + Photon's online comparison bill.
    ///
    /// `compare_ops` is the number of scalar comparison operations Photon
    /// performed (its O(N·S·d)–O(N²·d) term); the Photon baseline
    /// implementation reports this.
    pub fn bbv(&self, base_s: f64, total_instructions: f64, compare_ops: f64) -> OverheadReport {
        assert!(
            total_instructions >= 0.0,
            "instruction count must be nonnegative"
        );
        assert!(compare_ops >= 0.0, "comparison ops must be nonnegative");
        self.report(
            base_s,
            self.bbv_per_instr_s * total_instructions + self.bbv_per_compare_op_s * compare_ops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASIO_BASE_S: f64 = 7.26;
    const CASIO_KERNELS: u64 = 64_279;
    // A mid-size ML workload executes on the order of 1e13 dynamic instrs.
    const CASIO_INSTR: f64 = 2.0e13;

    #[test]
    fn ordering_matches_table5_on_casio() {
        let m = OverheadModel::default();
        let nsys = m.nsys(CASIO_BASE_S, CASIO_KERNELS).factor();
        let ncu = m.ncu(CASIO_BASE_S, CASIO_KERNELS).factor();
        let nvbit = m.nvbit(CASIO_BASE_S, CASIO_INSTR, CASIO_KERNELS).factor();
        // Photon with linear-ish matching: ~100 candidates x 100 dims each.
        let bbv = m
            .bbv(
                CASIO_BASE_S,
                CASIO_INSTR,
                CASIO_KERNELS as f64 * 100.0 * 100.0,
            )
            .factor();
        assert!(nsys < bbv, "nsys {nsys} < bbv {bbv}");
        assert!(bbv < nvbit, "bbv {bbv} < nvbit {nvbit}");
        assert!(nvbit < ncu, "nvbit {nvbit} < ncu {ncu}");
        // Magnitudes: NSYS a few x, NCU thousands (paper: 5.53 and 3704).
        assert!(nsys > 1.0 && nsys < 20.0, "nsys = {nsys}");
        assert!(ncu > 500.0, "ncu = {ncu}");
    }

    #[test]
    fn nsys_scales_gently_with_workload_size() {
        let m = OverheadModel::default();
        // HuggingFace: enormous base time, millions of kernels -> the
        // per-kernel term stays small relative to base (paper: 1.33x).
        let hf = m.nsys(1835.0, 11_599_870).factor();
        assert!(hf < 3.0, "hf nsys = {hf}");
    }

    #[test]
    fn ncu_explodes_on_many_small_kernels() {
        let m = OverheadModel::default();
        let rodinia = m.ncu(6.46, 1403).factor();
        let casio = m.ncu(CASIO_BASE_S, CASIO_KERNELS).factor();
        assert!(casio > 20.0 * rodinia);
    }

    #[test]
    fn photon_quadratic_term_dominates_at_scale() {
        let m = OverheadModel::default();
        // 50M kernels with 800-dim BBVs, each compared against a candidate
        // table that has grown to ~8000 entries (the paper's GPT-2 horror
        // story: "up to 78.68 days").
        let ops = 5.0e7 * 8000.0 * 800.0;
        let r = m.bbv(1835.0, 1e15, ops);
        let days = r.instrumented_s / 86_400.0;
        assert!(days > 30.0, "photon at GPT-2 scale = {days} days");
    }

    #[test]
    fn factor_is_ratio() {
        let r = OverheadReport {
            instrumented_s: 30.0,
            base_s: 10.0,
        };
        assert!((r.factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "base wall time must be positive")]
    fn zero_base_rejected() {
        OverheadModel::default().nsys(0.0, 10);
    }
}
