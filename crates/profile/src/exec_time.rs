//! Nsight-Systems-style execution-time profiling — STEM's only input.

use gpu_sim::{GpuConfig, HardwareRunner, Measurements};
use gpu_workload::Workload;
use stem_par::Parallelism;

/// Collects per-invocation execution times from a hardware run.
///
/// # Example
///
/// ```
/// use gpu_profile::ExecTimeProfiler;
/// use gpu_sim::GpuConfig;
/// use gpu_workload::suites::rodinia_suite;
///
/// let w = &rodinia_suite(1)[0];
/// let profiler = ExecTimeProfiler::new(GpuConfig::rtx2080(), 42);
/// let times = profiler.profile(w);
/// assert_eq!(times.len(), w.num_invocations());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecTimeProfiler {
    hw: HardwareRunner,
}

impl ExecTimeProfiler {
    /// Creates a profiler measuring on `config` (the paper profiles on an
    /// RTX 2080).
    pub fn new(config: GpuConfig, seed: u64) -> Self {
        ExecTimeProfiler {
            hw: HardwareRunner::new(config, seed),
        }
    }

    /// Measured execution time (cycles) of every invocation, stream order.
    pub fn profile(&self, workload: &Workload) -> Vec<f64> {
        self.hw.measure_all(workload)
    }

    /// [`ExecTimeProfiler::profile`] spread across `par` threads;
    /// bit-identical to the serial profile at any thread count because
    /// measurement noise is a pure function of `(seed, index)`.
    pub fn profile_par(&self, workload: &Workload, par: Parallelism) -> Vec<f64> {
        self.hw.measure_all_par(workload, par)
    }

    /// What measuring `workload` needs, computed once across `par`
    /// threads (see [`HardwareRunner::measurements`]):
    /// [`Measurements::time`] then gives any invocation's measured time in
    /// any order, bit-identical to [`ExecTimeProfiler::profile`]. ROOT
    /// gathers each kernel's times through it, so no stream-order time
    /// vector is built.
    ///
    /// # Example
    ///
    /// ```
    /// use gpu_profile::ExecTimeProfiler;
    /// use gpu_sim::GpuConfig;
    /// use gpu_workload::suites::rodinia_suite;
    /// use stem_par::Parallelism;
    ///
    /// let w = &rodinia_suite(1)[0];
    /// let profiler = ExecTimeProfiler::new(GpuConfig::rtx2080(), 42);
    /// let measurements = profiler.measurements(w, Parallelism::serial());
    /// assert_eq!(measurements.time(3), profiler.profile(w)[3]);
    /// ```
    pub fn measurements<'w>(&self, workload: &'w Workload, par: Parallelism) -> Measurements<'w> {
        self.hw.measurements(workload, par)
    }

    /// The profiling machine's config.
    pub fn config(&self) -> &GpuConfig {
        self.hw.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn profile_is_deterministic() {
        let w = &rodinia_suite(1)[0];
        let p = ExecTimeProfiler::new(GpuConfig::rtx2080(), 7);
        assert_eq!(p.profile(w), p.profile(w));
    }

    #[test]
    fn parallel_profile_is_bit_identical() {
        let w = &rodinia_suite(1)[0];
        let p = ExecTimeProfiler::new(GpuConfig::rtx2080(), 7);
        let serial = p.profile(w);
        for threads in [1usize, 2, 3, 8] {
            let par = p.profile_par(w, stem_par::Parallelism::with_threads(threads));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn profile_length_matches() {
        let w = &rodinia_suite(1)[1];
        let p = ExecTimeProfiler::new(GpuConfig::rtx2080(), 7);
        assert_eq!(p.profile(w).len(), w.num_invocations());
    }

    #[test]
    fn times_positive() {
        let w = &rodinia_suite(1)[2];
        let p = ExecTimeProfiler::new(GpuConfig::rtx2080(), 7);
        assert!(p.profile(w).iter().all(|&t| t > 0.0 && t.is_finite()));
    }
}
