//! Sharded memoisation of deterministic timing cores.
//!
//! Sampling plans revisit the same `(kernel signature, runtime context,
//! work scale, µarch config)` group many times — across repetitions, across
//! warm re-runs, and across clusters that share a kernel. [`SimCache`]
//! memoises [`DeterministicTiming`] cores (the jitter-free half of the
//! model) behind a sharded mutex map so parallel workers rarely contend,
//! and [`Simulator::run_sampled_cached`] is the cached, optionally parallel
//! twin of [`Simulator::run_sampled`].
//!
//! Since the hot-path overhaul the cache keys the *group*, not the
//! invocation: fingerprints are computed once per group per run (not once
//! per sample), the per-invocation noise draw never enters the key, and a
//! hit saves the whole analytic model, leaving one `exp` per sample.
//!
//! The cache is *output-invisible*: `deterministic_timing` is a pure
//! function, so a hit returns exactly the bits a recomputation would
//! produce, and the weighted-sum reduction still folds in sample order.
//! For long-lived processes the table can be bounded
//! ([`SimCache::with_capacity`]): full shards evict their oldest insertion,
//! which is equally output-invisible — an evicted entry is simply
//! recomputed to the same bits on its next miss.
//! The cache also memoizes ground-truth totals
//! ([`Simulator::workload_total_cached`]), keyed by the workload's content
//! fingerprint and the same environment fingerprint, and bounded by
//! count. A long-lived process that shares one cache (the `stem-serve`
//! daemon) folds each workload's ground truth once.
//! Hit/miss counters are informational only. Keys are 128-bit structural
//! fingerprints over the full µarch config, the sim options, the workload's
//! kernel and context tables, and the group's own fields, so two different
//! configurations (or workloads) can never alias a cache line — the
//! cache-poisoning guard tests below pin this.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::exec::{deterministic_of_invocation, DeterministicTiming};
use crate::sampled::{SampledRun, WeightedSample};
use crate::simulator::Simulator;
use crate::streaming::{workload_total, StreamRunError, DEFAULT_CHANNEL_BLOCKS};
use gpu_workload::stream::SinkError;
use gpu_workload::Workload;
use stem_par::Parallelism;

/// Shard count; a power of two so `key & (SHARDS - 1)` selects a shard.
const SHARDS: usize = 16;

/// Ground-truth totals a cache keeps at most; a full memo evicts its
/// oldest insertion. An entry is a 128-bit key and one `f64`.
const TOTALS_CAPACITY: usize = 1024;

/// One shard: the memo map plus its keys in insertion order, so a bounded
/// shard can evict deterministically (oldest insertion first).
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, DeterministicTiming>,
    order: VecDeque<u128>,
}

/// A sharded, thread-safe memo table from group fingerprints to
/// [`DeterministicTiming`] cores.
///
/// By default the table is unbounded — the right choice for one-shot runs,
/// where the working set is the run's own group count. Long-lived processes
/// (the `stem-serve` daemon shares one cache across every campaign it ever
/// runs) must bound it with [`SimCache::with_capacity`]: each shard then
/// holds at most `cap` entries and evicts its **oldest insertion** to make
/// room. Eviction is output-invisible — entries are pure functions of their
/// key, so an evicted-then-recomputed entry is bit-identical to the cached
/// one; only the hit rate and [`SimCache::evictions`] move.
#[derive(Debug)]
pub struct SimCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    poison_recoveries: AtomicU64,
    totals: TotalsMemo,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::new()
    }
}

impl SimCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Creates an empty cache holding at most `per_shard` entries per shard
    /// (so at most `per_shard * num_shards()` entries total). A zero cap is
    /// promoted to one — a cache that cannot hold anything would turn every
    /// lookup into a miss-and-evict churn for no benefit.
    pub fn with_capacity(per_shard: usize) -> Self {
        Self::build(Some(per_shard.max(1)))
    }

    fn build(capacity_per_shard: Option<usize>) -> Self {
        SimCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            totals: TotalsMemo::default(),
        }
    }

    /// The per-shard entry cap, if the cache is bounded.
    #[cfg(test)]
    fn capacity_per_shard(&self) -> Option<usize> {
        self.capacity_per_shard
    }

    /// Number of memoised timings.
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.lock_shard(i).map.len()).sum()
    }

    /// True if nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to simulate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let total = h + self.misses();
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// Shard-lock poisonings recovered so far (see [`SimCache::lock_shard`]).
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Entries evicted so far to honour the per-shard cap (always 0 for an
    /// unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Returns the memoised core for `key`, computing and inserting it on
    /// a miss. `compute` runs outside the shard lock so a slow simulation
    /// never blocks other shard traffic; a racing duplicate insert is
    /// harmless because the computed value is a pure function of the key.
    fn get_or_insert(
        &self,
        key: u128,
        compute: impl FnOnce() -> DeterministicTiming,
    ) -> DeterministicTiming {
        let shard = (key as usize) & (SHARDS - 1);
        if let Some(&t) = self.lock_shard(shard).map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return t;
        }
        let t = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lock_shard(shard);
        // A racing worker may have inserted the same key while we computed;
        // re-inserting would double-count it in the insertion-order queue.
        if !guard.map.contains_key(&key) {
            if let Some(cap) = self.capacity_per_shard {
                while guard.map.len() >= cap {
                    match guard.order.pop_front() {
                        Some(oldest) => {
                            guard.map.remove(&oldest);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        // Map and queue can only disagree transiently after
                        // a poison recovery cleared both; nothing to evict.
                        None => break,
                    }
                }
            }
            guard.map.insert(key, t);
            guard.order.push_back(key);
        }
        t
    }

    /// Locks one shard, recovering from poisoning. A poisoned shard means
    /// a worker panicked while holding the lock; under supervised
    /// execution that worker's task is retried rather than tearing down
    /// the pool, so the cache must stay usable. Every memoised value is a
    /// pure function of its key, which makes the recovery trivially sound:
    /// clear the shard and let it rebuild — a rebuilt entry is
    /// bit-identical to the lost one, so recovery is output-invisible
    /// (only the hit rate and [`SimCache::poison_recoveries`] move).
    fn lock_shard(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard> {
        match self.shards[shard].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                self.shards[shard].clear_poison();
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                guard.order.clear();
                guard
            }
        }
    }

    /// Test stimulus: poisons shard `index % num_shards` by panicking a
    /// throwaway thread while it holds the lock — the state a worker panic
    /// mid-insert leaves behind. The next access recovers (clears and
    /// rebuilds the shard); results are unaffected.
    #[cfg(test)]
    fn poison_shard(&self, index: usize) {
        let shard = &self.shards[index % SHARDS];
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = shard.lock();
                // Poison the mutex without the panic! macro: this is a
                // deliberate, typed chaos stimulus, not a hot-path bug.
                std::panic::panic_any("injected memo-shard poisoning");
            });
            // The join error is the injected panic itself.
            let _ = handle.join();
        });
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        SHARDS
    }

    /// Ground-truth totals served from the memo so far.
    pub fn total_hits(&self) -> u64 {
        self.totals.hits.load(Ordering::Relaxed)
    }

    /// Ground-truth totals folded so far (successful folds only).
    pub fn total_misses(&self) -> u64 {
        self.totals.misses.load(Ordering::Relaxed)
    }
}

/// The ground-truth totals memo: key → total cycles, with the keys in
/// insertion order so a full memo evicts its oldest entry.
#[derive(Debug, Default)]
struct TotalsMemo {
    entries: Mutex<(HashMap<u128, f64>, VecDeque<u128>)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TotalsMemo {
    /// The memoized total for `key`, or `compute`'s, which is memoized
    /// when it succeeds. `compute` runs outside the lock; a racing
    /// duplicate fold is harmless, as the total is a pure function of
    /// the key.
    fn get_or_compute<E>(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<f64, E>,
    ) -> Result<f64, E> {
        if let Some(&total) = self.lock().0.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(total);
        }
        let total = compute()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.lock();
        let (map, order) = &mut *guard;
        if map.insert(key, total).is_none() {
            order.push_back(key);
            if order.len() > TOTALS_CAPACITY {
                if let Some(oldest) = order.pop_front() {
                    map.remove(&oldest);
                }
            }
        }
        Ok(total)
    }

    /// The memo, recovered from poisoning: no fold runs under the lock,
    /// and every update leaves map and order consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, (HashMap<u128, f64>, VecDeque<u128>)> {
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Incremental dual-stream 64-bit fingerprint (FNV-1a plus an independent
/// odd-multiplier stream) folded into a 128-bit key. Not cryptographic —
/// it only needs to keep distinct (config, workload, invocation) triples
/// from colliding in a process-local cache.
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for chunk in s.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn key(self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

impl Simulator {
    /// Fingerprints everything a timing depends on *except* the invocation
    /// itself: the µarch config, the sim options, and the workload's kernel
    /// and context tables. Computed once per cached run and reused for
    /// every sample.
    fn environment_fingerprint(&self, workload: &Workload) -> Fingerprint {
        let mut fp = Fingerprint::new();
        let c = self.config();
        fp.bytes(c.name.as_bytes());
        fp.word(c.num_sms as u64);
        fp.f64(c.clock_ghz);
        fp.word(c.max_threads_per_sm as u64);
        fp.word(c.max_ctas_per_sm as u64);
        fp.word(c.regs_per_sm as u64);
        fp.word(c.shared_mem_per_sm as u64);
        fp.word(c.l1_size);
        fp.word(c.l2_size);
        fp.f64(c.dram_bandwidth_gbps);
        fp.f64(c.dram_latency_cycles);
        fp.f64(c.fp32_throughput);
        fp.f64(c.fp16_throughput);
        fp.f64(c.int_throughput);
        fp.f64(c.ldst_throughput);
        fp.f64(c.sfu_throughput);
        fp.f64(c.launch_overhead_cycles);
        let o = self.options();
        fp.word(o.flush_l2_between_kernels as u64);
        fp.word(o.warmup_kernels as u64);
        fp.word(workload.kernels().len() as u64);
        for (ki, k) in workload.kernels().iter().enumerate() {
            fp.bytes(k.name.as_bytes());
            fp.word(k.grid_dim as u64);
            fp.word(k.block_dim as u64);
            fp.word(k.regs_per_thread as u64);
            fp.word(k.shared_mem_per_cta as u64);
            fp.word(k.instr_per_thread);
            fp.f64(k.mix.fp32);
            fp.f64(k.mix.fp16);
            fp.f64(k.mix.int_alu);
            fp.f64(k.mix.ldst_global);
            fp.f64(k.mix.ldst_shared);
            fp.f64(k.mix.branch);
            fp.f64(k.mix.special);
            fp.word(k.footprint_bytes);
            fp.f64(k.reuse_factor);
            let contexts = workload.contexts_of(gpu_workload::KernelId(ki as u32));
            fp.word(contexts.len() as u64);
            for ctx in contexts {
                fp.f64(ctx.work_scale);
                fp.f64(ctx.footprint_scale);
                fp.f64(ctx.locality_boost);
                fp.f64(ctx.jitter_cov);
            }
        }
        fp
    }

    /// The total cycles of [`workload_total`], memoized in `cache` by the
    /// workload's content fingerprint and [`Simulator::environment_fingerprint`]
    /// (µarch config, sim options, kernel and context tables).
    /// Bit-identical to the uncached fold at every thread count and cache
    /// temperature; a rejected workload is never memoized, so it is
    /// rejected the same way on every call.
    ///
    /// # Errors
    ///
    /// Whatever [`workload_total`] returns for the workload.
    pub fn workload_total_cached(
        &self,
        workload: &Workload,
        par: Parallelism,
        cache: &SimCache,
    ) -> Result<f64, StreamRunError<SinkError>> {
        let mut fp = self.environment_fingerprint(workload);
        fp.word(workload.fingerprint());
        cache.totals.get_or_compute(fp.key(), || {
            workload_total(
                self,
                par,
                workload,
                gpu_workload::DEFAULT_BLOCK_LEN,
                DEFAULT_CHANNEL_BLOCKS,
            )
            .map(|t| t.total_cycles)
        })
    }

    /// [`Simulator::run_sampled`] with memoisation and optional
    /// parallelism. Bit-identical to the uncached serial run at every
    /// thread count and cache temperature: cores are pure functions of
    /// their fingerprint, the jitter expression matches the uncached path,
    /// and both accumulators fold in sample order.
    ///
    /// Group fingerprints are computed once per run for the groups the
    /// sample set touches — never per sample — and the per-invocation
    /// noise draw stays out of the key, so warm reps hit once per group.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any index is out of range.
    pub fn run_sampled_cached(
        &self,
        workload: &Workload,
        samples: &[WeightedSample],
        par: Parallelism,
        cache: &SimCache,
    ) -> SampledRun {
        assert!(!samples.is_empty(), "sampled simulation needs samples");
        let n = workload.num_invocations();
        let env = self.environment_fingerprint(workload);
        // Which groups this sample set touches, and where each group's
        // fetched core lands (`slot_of[g]` indexes into `cores`).
        let num_groups = workload.num_invocation_groups();
        let mut slot_of: Vec<u32> = vec![u32::MAX; num_groups];
        let mut needed: Vec<u32> = Vec::new();
        for s in samples {
            assert!(s.index < n, "sample index {} out of range", s.index);
            let g = workload.group_of(s.index) as usize;
            if slot_of[g] == u32::MAX {
                slot_of[g] = needed.len() as u32;
                needed.push(g as u32);
            }
        }
        // One cache lookup (and at most one model evaluation) per group.
        let cores: Vec<DeterministicTiming> = stem_par::par_map_indexed(par, &needed, |_, &g| {
            let rep = &workload.invocations()[workload.group_representative(g)];
            let mut fp = env;
            fp.word(rep.kernel.index() as u64);
            fp.word(rep.context as u64);
            fp.word(rep.work_scale.to_bits() as u64);
            cache.get_or_insert(fp.key(), || {
                deterministic_of_invocation(workload, rep, self.config(), self.options())
            })
        });
        // Stream the jitter: one `exp` per sample, folded in sample order.
        let pairs = stem_par::par_map_indexed(par, samples, |_, s| {
            let inv = &workload.invocations()[s.index];
            let det = &cores[slot_of[workload.group_of(s.index) as usize] as usize];
            let cycles = det.jittered_cycles(inv.noise_z as f64);
            (s.weight * cycles, cycles + det.warmup_cycles)
        });
        let mut estimated = 0.0;
        let mut simulated = 0.0;
        for (e, s) in pairs {
            estimated += e;
            simulated += s;
        }
        SampledRun {
            estimated_total_cycles: estimated,
            simulated_cycles: simulated,
            num_samples: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use gpu_workload::suites::rodinia_suite;

    fn unit_samples(n: usize) -> Vec<WeightedSample> {
        (0..n).map(|i| WeightedSample::new(i, 1.5)).collect()
    }

    #[test]
    fn cached_run_matches_uncached_bitwise() {
        let w = &rodinia_suite(5)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(500));
        let plain = sim.run_sampled(w, &samples);
        let cache = SimCache::new();
        for threads in [1usize, 2, 3, 8] {
            let cached = sim.run_sampled_cached(
                w,
                &samples,
                Parallelism::with_threads(threads),
                &cache,
            );
            assert_eq!(cached, plain, "threads = {threads}");
        }
    }

    #[test]
    fn warm_run_is_identical_and_hits() {
        let w = &rodinia_suite(5)[1];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(400));
        let cache = SimCache::new();
        let par = Parallelism::with_threads(4);
        let cold = sim.run_sampled_cached(w, &samples, par, &cache);
        let misses_after_cold = cache.misses();
        assert!(misses_after_cold > 0, "cold run must populate the cache");
        // One lookup per *group* per run, never per sample.
        let touched_groups: std::collections::BTreeSet<u32> =
            samples.iter().map(|s| w.group_of(s.index)).collect();
        assert_eq!(misses_after_cold, touched_groups.len() as u64);
        assert_eq!(cache.hits(), 0, "cold run must not hit");
        let warm = sim.run_sampled_cached(w, &samples, par, &cache);
        assert_eq!(warm, cold, "warm run must be bit-identical to cold");
        assert_eq!(
            cache.hits(),
            touched_groups.len() as u64,
            "warm run must hit exactly once per touched group"
        );
        assert!(cache.hit_rate() > 0.0);
        // The warm run computed nothing new.
        assert_eq!(cache.misses(), misses_after_cold);
    }

    #[test]
    fn different_uarch_config_misses() {
        // Cache-poisoning guard: the same workload + samples on a different
        // µarch config must never be served H100 timings from RTX 2080
        // entries (or vice versa).
        let w = &rodinia_suite(5)[2];
        let samples = unit_samples(w.num_invocations().min(300));
        let cache = SimCache::new();
        let par = Parallelism::serial();
        let a = Simulator::new(GpuConfig::rtx2080());
        let b = Simulator::new(GpuConfig::h100());
        let run_a = a.run_sampled_cached(w, &samples, par, &cache);
        let hits_after_a = cache.hits();
        let run_b = b.run_sampled_cached(w, &samples, par, &cache);
        assert_eq!(
            cache.hits(),
            hits_after_a,
            "a different config must not hit the other config's entries"
        );
        assert_eq!(run_b, b.run_sampled(w, &samples));
        assert_ne!(run_a.estimated_total_cycles, run_b.estimated_total_cycles);
    }

    #[test]
    fn different_sim_options_miss() {
        let w = &rodinia_suite(5)[3];
        let samples = unit_samples(w.num_invocations().min(300));
        let cache = SimCache::new();
        let par = Parallelism::serial();
        let plain = Simulator::new(GpuConfig::rtx2080());
        let flushed = Simulator::with_options(
            GpuConfig::rtx2080(),
            crate::exec::SimOptions {
                flush_l2_between_kernels: true,
                warmup_kernels: true,
            },
        );
        plain.run_sampled_cached(w, &samples, par, &cache);
        let hits_before = cache.hits();
        let run = flushed.run_sampled_cached(w, &samples, par, &cache);
        assert_eq!(cache.hits(), hits_before, "options change must miss");
        assert_eq!(run, flushed.run_sampled(w, &samples));
    }

    #[test]
    fn counters_start_at_zero() {
        let cache = SimCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.hit_rate(), 0.0);
        assert_eq!(cache.poison_recoveries(), 0);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity_per_shard(), None);
        assert_eq!(SimCache::with_capacity(7).capacity_per_shard(), Some(7));
        // A zero cap is promoted to one entry per shard.
        assert_eq!(SimCache::with_capacity(0).capacity_per_shard(), Some(1));
    }

    #[test]
    fn bounded_cache_never_exceeds_cap_and_counts_evictions() {
        // One workload alone may touch fewer groups than there are shards;
        // stream the whole suite through one tight cache so shards collide
        // and the cap has to evict.
        let suite = rodinia_suite(5);
        let sim = Simulator::new(GpuConfig::rtx2080());
        let cache = SimCache::with_capacity(1);
        let mut total_groups = 0;
        for w in &suite {
            let samples = unit_samples(w.num_invocations().min(500));
            let plain = sim.run_sampled(w, &samples);
            for threads in [1usize, 4] {
                let run = sim.run_sampled_cached(
                    w,
                    &samples,
                    Parallelism::with_threads(threads),
                    &cache,
                );
                assert_eq!(
                    run, plain,
                    "{}: eviction must be output-invisible (threads {threads})",
                    w.name()
                );
                assert!(
                    cache.len() <= cache.num_shards(),
                    "cap 1 per shard exceeded: {} entries",
                    cache.len()
                );
            }
            total_groups += w.num_invocation_groups();
        }
        assert!(
            total_groups > cache.num_shards(),
            "suite too small to force collisions: {total_groups} groups"
        );
        assert!(cache.evictions() > 0, "a cap of 1 must have evicted something");
    }

    #[test]
    fn warm_run_on_a_bounded_cache_stays_identical() {
        let w = &rodinia_suite(5)[1];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(400));
        let plain = sim.run_sampled(w, &samples);
        // Generous cap: nothing is evicted, warm behaviour matches the
        // unbounded cache exactly.
        let roomy = SimCache::with_capacity(4096);
        let cold = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &roomy);
        let warm = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &roomy);
        assert_eq!(cold, plain);
        assert_eq!(warm, plain);
        assert_eq!(roomy.evictions(), 0);
        assert!(roomy.hits() > 0, "warm run must hit a roomy cache");
        // Tight cap: the warm run may churn, but the bits never move.
        let tight = SimCache::with_capacity(1);
        let cold = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &tight);
        let warm = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &tight);
        assert_eq!(cold, plain);
        assert_eq!(warm, plain);
    }

    #[test]
    fn poisoned_bounded_shard_recovers_clean() {
        let w = &rodinia_suite(5)[2];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(200));
        let plain = sim.run_sampled(w, &samples);
        let cache = SimCache::with_capacity(2);
        sim.run_sampled_cached(w, &samples, Parallelism::serial(), &cache);
        for shard in 0..cache.num_shards() {
            cache.poison_shard(shard);
        }
        let after = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &cache);
        assert_eq!(after, plain, "recovery on a bounded cache must be output-invisible");
        assert!(cache.len() <= 2 * cache.num_shards());
    }

    #[test]
    fn poisoned_shard_is_recovered_and_output_invisible() {
        let w = &rodinia_suite(5)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(400));
        let plain = sim.run_sampled(w, &samples);
        let cache = SimCache::new();
        let par = Parallelism::with_threads(4);
        // Warm the cache, then poison every shard — the worst case a
        // storm of worker panics could leave behind.
        let cold = sim.run_sampled_cached(w, &samples, par, &cache);
        assert_eq!(cold, plain);
        for shard in 0..cache.num_shards() {
            cache.poison_shard(shard);
        }
        let after = sim.run_sampled_cached(w, &samples, par, &cache);
        assert_eq!(after, plain, "recovery must be output-invisible");
        assert!(
            cache.poison_recoveries() >= 1,
            "recoveries must be counted: {}",
            cache.poison_recoveries()
        );
    }

    #[test]
    fn poison_recovery_rebuilds_the_shard() {
        let w = &rodinia_suite(5)[1];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(200));
        let cache = SimCache::new();
        sim.run_sampled_cached(w, &samples, Parallelism::serial(), &cache);
        let warm_len = cache.len();
        assert!(warm_len > 0);
        cache.poison_shard(3);
        // `len` touches every shard, recovering (clearing) the poisoned
        // one; the rest keep their entries.
        let after_poison = cache.len();
        assert!(after_poison <= warm_len);
        assert_eq!(cache.poison_recoveries(), 1);
        // A re-run repopulates whatever the recovery dropped.
        let rerun = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &cache);
        assert_eq!(rerun, sim.run_sampled(w, &samples));
        assert_eq!(cache.len(), warm_len);
        // Recovery happened once; the shard is healthy again.
        assert_eq!(cache.poison_recoveries(), 1);
    }

    #[test]
    fn memoized_totals_match_the_fold_and_hit_once_folded() {
        let suite = rodinia_suite(5);
        let sim = Simulator::new(GpuConfig::rtx2080());
        let cache = SimCache::new();
        for w in &suite[..3] {
            let fold = crate::streaming::workload_total(&sim, Parallelism::serial(), w, 1, 1)
                .expect("valid workload")
                .total_cycles;
            for threads in [1usize, 3] {
                let par = Parallelism::with_threads(threads);
                let total = sim.workload_total_cached(w, par, &cache).expect("valid");
                assert_eq!(total.to_bits(), fold.to_bits(), "{}", w.name());
            }
        }
        assert_eq!((cache.total_misses(), cache.total_hits()), (3, 3));
        // Another µarch config folds its own total.
        let h100 = Simulator::new(GpuConfig::h100());
        let other = h100
            .workload_total_cached(&suite[0], Parallelism::serial(), &cache)
            .expect("valid");
        assert_eq!(cache.total_misses(), 4);
        assert_eq!(
            other.to_bits(),
            h100.run_full(&suite[0]).total_cycles.to_bits()
        );
    }

    #[test]
    fn totals_memo_keeps_only_successes_and_stays_bounded() {
        let memo = TotalsMemo::default();
        assert_eq!(
            memo.get_or_compute(7, || Err::<f64, _>("rejected")),
            Err("rejected")
        );
        assert_eq!(memo.get_or_compute(7, || Ok::<_, ()>(1.5)), Ok(1.5));
        assert_eq!(memo.get_or_compute(7, || Ok::<_, ()>(9.0)), Ok(1.5));
        for key in 0..=TOTALS_CAPACITY as u128 {
            memo.get_or_compute(1000 + key, || Ok::<_, ()>(key as f64))
                .expect("infallible");
        }
        let (map, order) = &*memo.lock();
        assert_eq!((map.len(), order.len()), (TOTALS_CAPACITY, TOTALS_CAPACITY));
        assert!(!map.contains_key(&7), "the oldest entry is evicted first");
    }
}
