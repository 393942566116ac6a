//! "Real hardware" mode: what a kernel profiler measures.
//!
//! The paper profiles on physical GPUs (Nsight Systems on an RTX 2080) and
//! simulates on MacSim. We reproduce that separation: a [`HardwareRunner`]
//! wraps a high-fidelity config and adds per-measurement noise on top of
//! the invocation's intrinsic jitter — timer quantization, driver
//! scheduling, thermal state — so that profiled times are *close to but not
//! identical to* what any simulator config produces.

use crate::config::GpuConfig;
use crate::exec::DeterministicTiming;
use crate::simulator::Simulator;
use gpu_workload::Workload;
use std::sync::{Arc, Mutex};
use stem_par::lock_unpoisoned;

/// Measures kernel execution times the way a lightweight profiler would.
#[derive(Debug, Clone)]
pub struct HardwareRunner {
    sim: Simulator,
    /// CoV of multiplicative measurement noise.
    measurement_noise: f64,
    /// Seed decorrelating measurement noise from workload jitter.
    seed: u64,
    /// Memoized measurement-noise factors of this `(seed, noise)` pair.
    noise: NoiseTable,
}

/// Two runners are equal when they measure alike; the noise table is a
/// cache derived from the compared fields.
impl PartialEq for HardwareRunner {
    fn eq(&self, other: &Self) -> bool {
        self.sim == other.sim
            && self.measurement_noise == other.measurement_noise
            && self.seed == other.seed
    }
}

impl HardwareRunner {
    /// Default measurement-noise CoV (~1%, typical of kernel-level timers).
    pub const DEFAULT_NOISE: f64 = 0.01;

    /// Creates a hardware runner on `config`.
    pub fn new(config: GpuConfig, seed: u64) -> Self {
        HardwareRunner {
            sim: Simulator::new(config),
            measurement_noise: Self::DEFAULT_NOISE,
            seed,
            noise: NoiseTable::default(),
        }
    }

    /// Overrides the measurement-noise CoV (and starts a fresh noise
    /// table for it).
    ///
    /// # Panics
    ///
    /// Panics if `cov` is negative or above 1.
    pub fn with_noise(mut self, cov: f64) -> Self {
        assert!((0.0..=1.0).contains(&cov), "noise CoV must be in [0, 1]");
        self.measurement_noise = cov;
        self.noise = NoiseTable::default();
        self
    }

    /// The underlying config.
    pub fn config(&self) -> &GpuConfig {
        self.sim.config()
    }

    /// Measures one invocation (cycles, with measurement noise).
    pub fn measure_one(&self, workload: &Workload, index: usize) -> f64 {
        let true_cycles = self.sim.cycles(workload, &workload.invocation(index));
        true_cycles * noise_factor(self.seed, self.measurement_noise, index as u64)
    }

    /// Measures every invocation — the execution-time profile STEM consumes
    /// (an Nsight-Systems-style trace).
    ///
    /// Grouped fast path: the simulator's deterministic core runs once per
    /// invocation group, then each measurement applies the invocation's
    /// jitter and its own `(seed, index)` noise factor from the runner's
    /// noise table — bit-identical to calling
    /// [`HardwareRunner::measure_one`] per index, because the per-index
    /// floating-point expression is unchanged.
    pub fn measure_all(&self, workload: &Workload) -> Vec<f64> {
        self.measure_all_par(workload, stem_par::Parallelism::serial())
    }

    /// [`HardwareRunner::measure_all`] spread across `par` threads.
    /// Measurement noise is a pure function of `(seed, index)`, so the
    /// result is bit-identical to the serial profile at any thread count.
    pub fn measure_all_par(&self, workload: &Workload, par: stem_par::Parallelism) -> Vec<f64> {
        let measurements = self.measurements(workload, par);
        stem_par::par_map_range(par, workload.num_invocations(), |i| measurements.time(i))
    }

    /// What measuring `workload` needs, computed once: the deterministic
    /// core of every invocation group and the noise factors of the first
    /// `num_invocations` indices. Both are computed across `par` threads;
    /// [`Measurements::time`] then gives any invocation's measured time in
    /// any order, bit-identical to [`HardwareRunner::measure_one`].
    pub fn measurements<'w>(
        &self,
        workload: &'w Workload,
        par: stem_par::Parallelism,
    ) -> Measurements<'w> {
        let factors = self.noise.factors(
            self.seed,
            self.measurement_noise,
            workload.num_invocations(),
            par,
        );
        Measurements {
            workload,
            groups: self.group_cores(workload, par),
            factors,
        }
    }

    /// The deterministic core of every invocation group, across `par`
    /// threads when there are enough groups.
    fn group_cores(
        &self,
        workload: &Workload,
        par: stem_par::Parallelism,
    ) -> Vec<DeterministicTiming> {
        let par = par.serial_below(workload.num_invocation_groups(), MIN_PARALLEL_GROUPS);
        self.sim.group_timings_par(workload, par)
    }
}

/// One workload's measurement inputs (see [`HardwareRunner::measurements`]).
pub struct Measurements<'w> {
    workload: &'w Workload,
    groups: Vec<DeterministicTiming>,
    /// At least one factor per invocation (a shared table may be longer).
    factors: Arc<Vec<f64>>,
}

impl std::fmt::Debug for Measurements<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Measurements")
            .field("workload", &self.workload.name())
            .field("groups", &self.groups.len())
            .finish_non_exhaustive()
    }
}

impl Measurements<'_> {
    /// Measured time (cycles) of invocation `i`: its group's jittered
    /// cycles times its noise factor, the expression of
    /// [`HardwareRunner::measure_one`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn time(&self, i: usize) -> f64 {
        let row = self.workload.rows()[i];
        let true_cycles = self.groups[row.group as usize].jittered_cycles(row.noise_z() as f64);
        true_cycles * self.factors[i]
    }
}

/// A grow-only table of measurement-noise factors: entry `i` is
/// [`noise_factor`]`(seed, s, i)`, the factor measurement `i` of *every*
/// workload is multiplied by. A factor depends only on `(seed, s, i)`, so
/// the workloads a runner profiles share one table, sized exactly to the
/// longest of them; a campaign's workloads draw the same indices, and only
/// the longest one pays the splitmix, `ln`, `sqrt`, `cos` and `exp` draws.
///
/// The lock guards only the handle: a profile clones the current `Arc`
/// and releases the lock, a growth computes the longer table outside the
/// lock and swaps it in, so concurrent profiles never wait on each other's
/// work. Two racing growths each compute the same values; the longer
/// table stays. A clone shares the current table. A panic elsewhere cannot
/// leave the handle half-written (it is swapped whole), so the lock is
/// taken through [`lock_unpoisoned`], which clears poison.
#[derive(Default)]
struct NoiseTable {
    factors: Mutex<Arc<Vec<f64>>>,
}

/// Below this many new factors a table growth is filled serially: at
/// ~45 ns a factor, a shorter fill saves less than starting the pool
/// costs.
const MIN_PARALLEL_FILL: usize = 1 << 14;

/// Below this many invocation groups their deterministic cores are
/// computed serially: a core costs ~0.1 us, so the suites' few to ~1000
/// groups take less time than starting a pool.
const MIN_PARALLEL_GROUPS: usize = 1 << 12;

impl NoiseTable {
    /// A table with at least `len` factors of `(seed, s)`, grown to exactly
    /// `len` across `par` threads if the current one is shorter.
    fn factors(&self, seed: u64, s: f64, len: usize, par: stem_par::Parallelism) -> Arc<Vec<f64>> {
        let mut slot = lock_unpoisoned(&self.factors);
        if slot.len() >= len {
            return Arc::clone(&slot);
        }
        // Take the table out to grow it. A profile that starts meanwhile
        // finds a shorter table and grows its own, to the same values.
        let taken = std::mem::take(&mut *slot);
        drop(slot);
        // Unshared, the table grows in its own allocation (the allocator
        // can often extend it without a copy); shared, it is copied once.
        let mut grown = Arc::try_unwrap(taken).unwrap_or_else(|shared| {
            let mut copy = Vec::with_capacity(len);
            copy.extend_from_slice(&shared);
            copy
        });
        let have = grown.len();
        grown.reserve_exact(len - have);
        grown.resize(len, 0.0);
        let par = par.serial_below(len - have, MIN_PARALLEL_FILL);
        stem_par::par_fill(par, &mut grown[have..], |j| {
            noise_factor(seed, s, (have + j) as u64)
        });
        let grown = Arc::new(grown);
        let mut slot = lock_unpoisoned(&self.factors);
        if slot.len() < len {
            *slot = Arc::clone(&grown);
        }
        grown
    }
}

impl Clone for NoiseTable {
    fn clone(&self) -> Self {
        NoiseTable {
            factors: Mutex::new(Arc::clone(&lock_unpoisoned(&self.factors))),
        }
    }
}

impl std::fmt::Debug for NoiseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = lock_unpoisoned(&self.factors).len();
        f.debug_struct("NoiseTable").field("len", &len).finish()
    }
}

/// The pre-overhaul per-invocation profiling loop, kept as the executable
/// specification for `tests/hotpath_equivalence.rs`.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Per-invocation [`HardwareRunner::measure_all`].
    pub fn measure_all(hw: &HardwareRunner, workload: &Workload) -> Vec<f64> {
        (0..workload.num_invocations())
            .map(|i| hw.measure_one(workload, i))
            .collect()
    }

    /// [`HardwareRunner::measure_all_par`] without the noise table: the
    /// group cores once, then every measurement draws its own noise
    /// factor. The baseline of `scaling_smoke`'s profile+ROOT ratio.
    pub fn measure_all_grouped(
        hw: &HardwareRunner,
        workload: &Workload,
        par: stem_par::Parallelism,
    ) -> Vec<f64> {
        let groups = hw.group_cores(workload, par);
        let rows = workload.rows();
        stem_par::par_map_range(par, rows.len(), |i| {
            let row = rows[i];
            let true_cycles = groups[row.group as usize].jittered_cycles(row.noise_z() as f64);
            true_cycles * noise_factor(hw.seed, hw.measurement_noise, i as u64)
        })
    }
}

/// Multiplicative measurement-noise factor of measurement `index`: a
/// mean-one lognormal with log-scale `s`.
fn noise_factor(seed: u64, s: f64, index: u64) -> f64 {
    (s * noise_z(seed, index) - s * s / 2.0).exp()
}

/// Deterministic standard-normal draw from `(seed, index)` via splitmix64 +
/// Box–Muller.
fn noise_z(seed: u64, index: u64) -> f64 {
    let u1 = splitmix_unit(seed ^ index.wrapping_mul(0x9e3779b97f4a7c15));
    let u2 = splitmix_unit(seed.wrapping_add(1) ^ index.wrapping_mul(0xbf58476d1ce4e5b9));
    let u1 = u1.max(f64::MIN_POSITIVE);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn splitmix_unit(x: u64) -> f64 {
    let z = stem_par::mix64(x.wrapping_add(0x9e3779b97f4a7c15));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn measurement_close_to_truth() {
        let w = &rodinia_suite(2)[0];
        let hw = HardwareRunner::new(GpuConfig::rtx2080(), 99);
        let sim = Simulator::new(GpuConfig::rtx2080());
        let truth = sim.run_full(w);
        let measured = hw.measure_all(w);
        for (m, t) in measured.iter().zip(&truth.per_invocation) {
            let rel = (m - t).abs() / t;
            assert!(rel < 0.08, "measurement deviates {rel}");
        }
    }

    #[test]
    fn parallel_measurement_is_bit_identical() {
        let w = &rodinia_suite(2)[0];
        let hw = HardwareRunner::new(GpuConfig::rtx2080(), 99);
        let serial = hw.measure_all(w);
        for threads in [1usize, 2, 3, 8] {
            let par = hw.measure_all_par(w, stem_par::Parallelism::with_threads(threads));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn noise_is_reproducible() {
        let w = &rodinia_suite(2)[0];
        let hw = HardwareRunner::new(GpuConfig::rtx2080(), 99);
        assert_eq!(hw.measure_all(w), hw.measure_all(w));
    }

    #[test]
    fn different_seeds_differ() {
        let w = &rodinia_suite(2)[0];
        let a = HardwareRunner::new(GpuConfig::rtx2080(), 1).measure_one(w, 0);
        let b = HardwareRunner::new(GpuConfig::rtx2080(), 2).measure_one(w, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_noise_equals_simulation() {
        let w = &rodinia_suite(2)[1];
        let hw = HardwareRunner::new(GpuConfig::rtx2080(), 1).with_noise(0.0);
        let sim = Simulator::new(GpuConfig::rtx2080());
        let truth = sim.run_full(w);
        let measured = hw.measure_all(w);
        for (m, t) in measured.iter().zip(&truth.per_invocation) {
            assert_eq!(m, t);
        }
    }

    #[test]
    fn noise_z_is_roughly_standard_normal() {
        let n = 50_000u64;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for i in 0..n {
            let z = noise_z(7, i);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    #[should_panic(expected = "noise CoV must be in")]
    fn bad_noise_rejected() {
        HardwareRunner::new(GpuConfig::rtx2080(), 1).with_noise(2.0);
    }
}
