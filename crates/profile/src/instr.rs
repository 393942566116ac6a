//! NVBit-style dynamic instruction counting — Sieve's kernel signature
//! (Table 1: "kernel name & num. of instrs").

use gpu_workload::{Invocation, Workload};

/// One invocation's instrumentation record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrRecord {
    /// Dynamic instruction count of the launch.
    pub instructions: f64,
    /// CTA (thread block) size — Sieve samples the first-chronological
    /// kernel of the *dominant CTA size*.
    pub cta_size: u32,
}

/// Collects per-invocation instruction counts (and CTA sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrProfiler;

impl InstrProfiler {
    /// Creates the profiler.
    pub fn new() -> Self {
        InstrProfiler
    }

    /// The record of one invocation.
    pub fn record(&self, workload: &Workload, inv: &Invocation) -> InstrRecord {
        let kernel = workload.kernel_of(inv);
        let ctx = workload.context_of(inv);
        let work = ctx.work_scale * inv.work_scale as f64;
        InstrRecord {
            instructions: kernel.total_instructions() as f64 * work,
            cta_size: kernel.block_dim,
        }
    }

    /// Records for every invocation, stream order.
    pub fn profile(&self, workload: &Workload) -> Vec<InstrRecord> {
        workload
            .invocations()
            .map(|inv| self.record(workload, &inv))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn heartwall_first_record_is_tiny() {
        let suite = rodinia_suite(5);
        let h = suite
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("heartwall");
        let p = InstrProfiler::new();
        let records = p.profile(h);
        assert!(records[1].instructions / records[0].instructions > 1000.0);
    }

    #[test]
    fn gaussian_counts_decrease() {
        let suite = rodinia_suite(5);
        let g = suite
            .iter()
            .find(|w| w.name() == "gaussian")
            .expect("gaussian");
        let p = InstrProfiler::new();
        let records = p.profile(g);
        let first = records[1].instructions; // Fan2's first call
        let last = records.last().expect("nonempty").instructions;
        assert!(first > 100.0 * last);
    }

    #[test]
    fn cta_size_matches_kernel() {
        let suite = rodinia_suite(5);
        let w = &suite[0];
        let p = InstrProfiler::new();
        let r = p.record(w, &w.invocation(0));
        assert_eq!(r.cta_size, w.kernel_of(&w.invocation(0)).block_dim);
    }
}
