//! Selective trace generation (Fig. 5 of the paper).
//!
//! Trace-based simulators (Accel-Sim, MacSim) replay instruction traces
//! captured by a binary instrumenter. Capturing a trace costs time and
//! disk proportional to the dynamic instruction count — for large ML
//! workloads, full traces reach terabytes. The paper's pipeline generates
//! traces *only for the sampled kernels*, "significantly reducing trace
//! generation overhead". This module quantifies that saving with a cost
//! model in the spirit of [`crate::overhead`].

use gpu_workload::Workload;

/// Trace-generation cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceGenModel {
    /// Trace bytes emitted per dynamic thread instruction (compressed
    /// SASS-trace formats run a few bits–bytes per instruction).
    pub bytes_per_instr: f64,
    /// Capture seconds per dynamic thread instruction (instrumented
    /// execution plus I/O).
    pub seconds_per_instr: f64,
    /// Fixed per-kernel capture cost (attach, flush, file create).
    pub per_kernel_s: f64,
}

impl Default for TraceGenModel {
    fn default() -> Self {
        TraceGenModel {
            bytes_per_instr: 0.5,
            seconds_per_instr: 4.0e-11,
            per_kernel_s: 5.0e-3,
        }
    }
}

/// Cost comparison of full vs selective trace generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceGenReport {
    /// Bytes to trace every invocation.
    pub full_bytes: f64,
    /// Seconds to trace every invocation.
    pub full_seconds: f64,
    /// Bytes to trace only the sampled invocations.
    pub sampled_bytes: f64,
    /// Seconds to trace only the sampled invocations.
    pub sampled_seconds: f64,
    /// Number of sampled invocations.
    pub num_sampled: usize,
}

impl TraceGenReport {
    /// Disk-space reduction factor.
    pub fn bytes_reduction(&self) -> f64 {
        self.full_bytes / self.sampled_bytes.max(1e-12)
    }

    /// Capture-time reduction factor.
    pub fn time_reduction(&self) -> f64 {
        self.full_seconds / self.sampled_seconds.max(1e-12)
    }
}

impl TraceGenModel {
    /// Computes the cost of tracing everything versus only the invocations
    /// at `sampled` (duplicates are traced once — a kernel sampled twice by
    /// with-replacement sampling needs one trace).
    ///
    /// # Panics
    ///
    /// Panics if any sampled index is out of range.
    pub fn selective(&self, workload: &Workload, sampled: &[usize]) -> TraceGenReport {
        let instr_of = |i: usize| -> f64 {
            let inv = &workload.invocation(i);
            let k = workload.kernel_of(inv);
            let c = workload.context_of(inv);
            k.total_instructions() as f64 * c.work_scale * inv.work_scale as f64
        };
        let full_instr: f64 = (0..workload.num_invocations()).map(instr_of).sum();
        let mut unique: Vec<usize> = sampled.to_vec();
        unique.sort_unstable();
        unique.dedup();
        for &i in &unique {
            assert!(
                i < workload.num_invocations(),
                "sampled index {i} out of range"
            );
        }
        let sampled_instr: f64 = unique.iter().map(|&i| instr_of(i)).sum();
        TraceGenReport {
            full_bytes: full_instr * self.bytes_per_instr,
            full_seconds: full_instr * self.seconds_per_instr
                + workload.num_invocations() as f64 * self.per_kernel_s,
            sampled_bytes: sampled_instr * self.bytes_per_instr,
            sampled_seconds: sampled_instr * self.seconds_per_instr
                + unique.len() as f64 * self.per_kernel_s,
            num_sampled: unique.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::suites::casio_suite;

    #[test]
    fn selective_tracing_is_cheaper() {
        let suite = casio_suite(71);
        let w = &suite[0];
        // Trace 50 invocations out of tens of thousands.
        let sampled: Vec<usize> = (0..50).map(|i| i * 100).collect();
        let report = TraceGenModel::default().selective(w, &sampled);
        assert!(report.bytes_reduction() > 100.0);
        assert!(report.time_reduction() > 100.0);
        assert_eq!(report.num_sampled, 50);
    }

    #[test]
    fn duplicates_traced_once() {
        let suite = casio_suite(71);
        let w = &suite[0];
        let a = TraceGenModel::default().selective(w, &[3, 3, 3, 7]);
        let b = TraceGenModel::default().selective(w, &[3, 7]);
        assert_eq!(a, b);
    }

    #[test]
    fn tracing_everything_is_identity() {
        let suite = casio_suite(71);
        let w = &suite[0];
        let all: Vec<usize> = (0..w.num_invocations()).collect();
        let report = TraceGenModel::default().selective(w, &all);
        assert!((report.bytes_reduction() - 1.0).abs() < 1e-9);
        assert!((report.time_reduction() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_rejected() {
        let suite = casio_suite(71);
        let w = &suite[0];
        TraceGenModel::default().selective(w, &[usize::MAX]);
    }
}
