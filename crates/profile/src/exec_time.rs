//! Nsight-Systems-style execution-time profiling — STEM's only input.

use gpu_sim::{GpuConfig, HardwareRunner};
use gpu_workload::{KernelId, Workload};
use stem_par::Parallelism;
use stem_stats::Summary;

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

    /// The same measurements grouped by kernel, as ROOT consumes them:
    /// each kernel's `(invocation, time)` rows in stream order with their
    /// [`Summary`] folded in the same pass. No stream-order time vector is
    /// built. Bit-identical to [`KernelProfile::from_times`] over
    /// [`ExecTimeProfiler::profile`], at any thread count.
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
    /// let by_kernel = profiler.profile_by_kernel(w, Parallelism::serial());
    /// let rows: usize = by_kernel.kernels().iter().map(|k| k.rows().len()).sum();
    /// assert_eq!(rows, w.num_invocations());
    /// ```
    pub fn profile_by_kernel(&self, workload: &Workload, par: Parallelism) -> KernelProfile {
        let measurements = self.hw.measurements(workload, par);
        by_kernel(workload, par, |i| measurements.time(i))
    }

    /// The profiling machine's config.
    pub fn config(&self) -> &GpuConfig {
        self.hw.config()
    }
}

/// Below this many invocations a by-kernel profile runs serially: at
/// ~20 ns a row, a shorter pass saves less than starting the pool costs
/// (CASIO's 40-70 K-call workloads ran no faster on two threads).
const MIN_PARALLEL_ROWS: usize = 1 << 17;

/// One kernel's profiled calls: their `(invocation index, time)` rows and
/// the stream-order [`Summary`] fold over the rows' times. The rows and
/// their summary are only ever built together ([`KernelRows::gather`]), so
/// the summary vouches for every row.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRows {
    kernel: KernelId,
    rows: Vec<(usize, f64)>,
    summary: Summary,
}

impl KernelRows {
    /// Times each of `kernel`'s `members` with `time` and folds their
    /// summary in the same pass. Callers pass the members in stream order,
    /// as ROOT's clusters expect.
    pub fn gather(
        kernel: KernelId,
        members: impl IntoIterator<Item = usize>,
        time: impl Fn(usize) -> f64,
    ) -> Self {
        let mut summary = Summary::new();
        let rows = members
            .into_iter()
            .map(|m| {
                let t = time(m);
                summary.push(t);
                (m, t)
            })
            .collect();
        KernelRows {
            kernel,
            rows,
            summary,
        }
    }

    /// The kernel.
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }

    /// `(invocation index, time)` of every call of the kernel.
    pub fn rows(&self) -> &[(usize, f64)] {
        &self.rows
    }

    /// The fold over the rows' times, in row order.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The kernel, its rows and their summary, by value (ROOT moves the
    /// rows into its recursion).
    pub fn into_parts(self) -> (KernelId, Vec<(usize, f64)>, Summary) {
        (self.kernel, self.rows, self.summary)
    }
}

/// An execution-time profile grouped by kernel: one [`KernelRows`] per
/// kernel with at least one call, in kernel-id order, each kernel's rows
/// in stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    kernels: Vec<KernelRows>,
}

impl KernelProfile {
    /// Groups a stream-order profile by kernel; `times[i]` is invocation
    /// `i`'s time. Bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `times` is shorter than the workload.
    pub fn from_times(workload: &Workload, times: &[f64], par: Parallelism) -> Self {
        by_kernel(workload, par, |i| times[i])
    }

    /// The kernels' rows, in kernel-id order.
    pub fn kernels(&self) -> &[KernelRows] {
        &self.kernels
    }

    /// The kernels' rows by value, in kernel-id order.
    pub fn into_kernels(self) -> Vec<KernelRows> {
        self.kernels
    }
}

/// The one by-kernel pass: `time(i)` is invocation `i`'s time. The
/// kernels are dealt out to at most one task per thread, balanced by call
/// count, and each task makes one stream pass over the invocations of its
/// own kernels: a row lands in its kernel's exactly-sized buffer and folds
/// into its kernel's summary, so the fold chains of a task's kernels
/// overlap. Serially that is one task and one stream pass. Each kernel's
/// rows and fold are in stream order whichever task owns it, so the bits
/// agree at any thread count.
fn by_kernel(
    workload: &Workload,
    par: Parallelism,
    time: impl Fn(usize) -> f64 + Sync,
) -> KernelProfile {
    let rows = workload.rows();
    let kernel_of: Vec<usize> = workload
        .group_keys()
        .iter()
        .map(|key| key.kernel.index())
        .collect();
    let mut counts = vec![0usize; workload.kernels().len()];
    for row in rows {
        counts[kernel_of[row.group as usize]] += 1;
    }
    let par = par.serial_below(rows.len(), MIN_PARALLEL_ROWS);
    let (owner, tasks) = deal_kernels(&counts, par.threads());
    let per_task = stem_par::par_map_range(par, tasks, |task| {
        // `slot[k]`: kernel `k`'s place in this task's buffers, if it owns
        // `k`.
        let mut slot = vec![usize::MAX; counts.len()];
        let mut kernels = Vec::new();
        for (k, &calls) in counts.iter().enumerate() {
            if calls > 0 && owner[k] == task {
                slot[k] = kernels.len();
                kernels.push(KernelRows {
                    kernel: KernelId(k as u32),
                    rows: Vec::with_capacity(calls),
                    summary: Summary::new(),
                });
            }
        }
        // A row's group fixes its kernel, so its slot too.
        let group_slot: Vec<usize> = kernel_of.iter().map(|&k| slot[k]).collect();
        for (i, row) in rows.iter().enumerate() {
            if let Some(kernel) = kernels.get_mut(group_slot[row.group as usize]) {
                let t = time(i);
                kernel.rows.push((i, t));
                kernel.summary.push(t);
            }
        }
        kernels
    });
    let mut kernels: Vec<KernelRows> = per_task.into_iter().flatten().collect();
    kernels.sort_unstable_by_key(|k| k.kernel);
    KernelProfile { kernels }
}

/// Deals the kernels with calls out to at most `threads` tasks, largest
/// first, each to the task with the fewest calls so far. Returns each
/// kernel's task and the task count.
fn deal_kernels(counts: &[usize], threads: usize) -> (Vec<usize>, usize) {
    let mut called: Vec<usize> = (0..counts.len()).filter(|&k| counts[k] > 0).collect();
    let tasks = threads.min(called.len()).max(1);
    called.sort_unstable_by_key(|&k| std::cmp::Reverse(counts[k]));
    let mut load = vec![0usize; tasks];
    let mut owner = vec![0usize; counts.len()];
    for k in called {
        let task = (0..tasks).min_by_key(|&t| load[t]).unwrap_or(0);
        owner[k] = task;
        load[task] += counts[k];
    }
    (owner, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::kernel::KernelClassBuilder;
    use gpu_workload::suites::rodinia_suite;
    use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};

    /// `n` calls cycling over three kernels of unequal call counts.
    fn long_workload(n: usize) -> Workload {
        let mut b = WorkloadBuilder::new("long", SuiteKind::Custom, 3);
        let kernels: Vec<_> = ["a", "b", "c"]
            .into_iter()
            .map(|name| {
                let contexts = vec![RuntimeContext::neutral()];
                b.add_kernel(KernelClassBuilder::new(name).build(), contexts)
            })
            .collect();
        for i in 0..n {
            b.invoke(
                kernels[[0, 1, 1, 2, 2, 2][i % 6]],
                0,
                1.0 + (i % 7) as f32 * 0.1,
            );
        }
        b.build()
    }

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
    fn by_kernel_profile_matches_the_stream_profile_at_every_thread_count() {
        let p = ExecTimeProfiler::new(GpuConfig::rtx2080(), 7);
        // Rodinia's workloads are short enough to stay serial; a long
        // three-kernel one deals its kernels out to the pool.
        let long = long_workload(MIN_PARALLEL_ROWS + 1000);
        for w in rodinia_suite(1).iter().chain([&long]) {
            let times = p.profile(w);
            let expected = KernelProfile::from_times(w, &times, Parallelism::serial());
            let rows: usize = expected.kernels().iter().map(|k| k.rows().len()).sum();
            assert_eq!(rows, w.num_invocations());
            for k in expected.kernels() {
                let same = |&(m, t): &(usize, f64)| {
                    w.invocation(m).kernel == k.kernel() && t.to_bits() == times[m].to_bits()
                };
                assert!(k.rows().iter().all(same), "kernel and time bits");
                assert!(k.rows().windows(2).all(|r| r[0].0 < r[1].0), "stream order");
                let fold: Summary = k.rows().iter().map(|&(_, t)| t).collect();
                assert_eq!(*k.summary(), fold);
            }
            for threads in [1usize, 2, 3, 8] {
                let par = Parallelism::with_threads(threads);
                assert_eq!(p.profile_by_kernel(w, par), expected, "threads = {threads}");
                assert_eq!(KernelProfile::from_times(w, &times, par), expected);
            }
        }
    }

    #[test]
    fn kernels_are_dealt_largest_first_to_the_least_loaded_task() {
        // Kernel 2 has no calls; the rest go 50 | 40 | 30 + 20 over 3 tasks.
        let (owner, tasks) = deal_kernels(&[20, 50, 0, 40, 30], 3);
        assert_eq!(tasks, 3);
        assert_eq!([owner[1], owner[3], owner[4], owner[0]], [0, 1, 2, 2]);
        // Never more tasks than kernels with calls, and always one.
        assert_eq!(deal_kernels(&[5, 0, 7], 8).1, 2);
        assert_eq!(deal_kernels(&[0, 0], 4).1, 1);
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
