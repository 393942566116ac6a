//! Memoisation of deterministic timing cores and ground-truth totals.
//!
//! Sampling plans revisit the same `(kernel signature, runtime context,
//! work scale, µarch config)` group many times — across repetitions, across
//! warm re-runs, and across clusters that share a kernel. [`SimCache`]
//! memoises [`DeterministicTiming`] cores (the jitter-free half of the
//! model) in key-selected shards so parallel workers rarely contend, and
//! [`Simulator::run_sampled_cached`] is the one sampled executor:
//! [`Simulator::run_sampled`] runs it serially with no cache. The
//! cache keys the *group*, not the invocation: fingerprints are computed
//! once per group per run, the per-invocation noise draw never enters the
//! key, and a hit leaves one `exp` per sample.
//!
//! The cache also memoizes ground-truth totals
//! ([`Simulator::workload_total_cached`]), keyed by the workload's content
//! fingerprint and the same environment fingerprint, so a long-lived
//! process that shares one cache (the `stem-serve` daemon) folds each
//! workload's ground truth once.
//!
//! Every shard and the totals are a [`stem_par::Memo`], with its one
//! policy: bounded, oldest computation evicted first, one compute per key
//! at a time, no failure kept. Entries are pure functions of their keys,
//! so the cache is *output-invisible* at every temperature and bound, and
//! the weighted-sum reduction still folds in sample order. Keys are
//! 128-bit structural fingerprints over the full µarch config, the sim
//! options, the workload's kernel and context tables, and the group's own
//! fields, so two different configurations (or workloads) can never alias
//! a cache line — the cache-poisoning guard tests below pin this.

use std::convert::Infallible;

use crate::exec::DeterministicTiming;
use crate::sampled::{SampledRun, WeightedSample};
use crate::simulator::Simulator;
use crate::streaming::{workload_total, StreamRunError, DEFAULT_CHANNEL_BLOCKS};
use gpu_workload::stream::SinkError;
use gpu_workload::Workload;
use stem_par::{Memo, Parallelism};

/// Shard count; a power of two so `key & (SHARDS - 1)` selects a shard.
const SHARDS: usize = 16;

/// Ground-truth totals a cache keeps at most. An entry is a 128-bit key
/// and one `f64`.
const TOTALS_CAPACITY: usize = 1024;

/// [`DeterministicTiming`] cores keyed by group fingerprint, in
/// key-selected shards, plus ground-truth totals.
///
/// By default the core shards are unbounded — the right choice for
/// one-shot runs, where the working set is the run's own group count.
/// Long-lived processes (the `stem-serve` daemon shares one cache across
/// every campaign it ever runs) bound them with [`SimCache::with_capacity`]:
/// each shard then evicts its oldest computation past `cap` entries, which
/// moves only the hit rate and [`SimCache::evictions`].
#[derive(Debug)]
pub struct SimCache {
    shards: Vec<Memo<u128, DeterministicTiming>>,
    totals: Memo<u128, f64>,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::new()
    }
}

impl SimCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// Creates an empty cache holding at most `per_shard` entries per shard
    /// (so at most `per_shard * num_shards()` entries total). A zero cap
    /// acts as one: a shard always keeps the entry it computed last.
    pub fn with_capacity(per_shard: usize) -> Self {
        SimCache {
            shards: (0..SHARDS).map(|_| Memo::new(per_shard, |_| 1)).collect(),
            totals: Memo::new(TOTALS_CAPACITY, |_| 1),
        }
    }

    /// The shard `key` belongs to.
    fn shard(&self, key: u128) -> &Memo<u128, DeterministicTiming> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Number of memoised timings.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Memo::len).sum()
    }

    /// True if nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Memo::is_empty)
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(Memo::hits).sum()
    }

    /// Lookups that had to simulate.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(Memo::misses).sum()
    }

    /// Entries evicted so far to honour the per-shard cap (always 0 for an
    /// unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(Memo::evictions).sum()
    }

    /// Test stimulus: a worker panics computing group `g` of `workload` on
    /// `sim`, as a panic inside the timing model would. Returns whether
    /// the compute ran (the group was not memoized); a panicked compute
    /// memoizes nothing, so the group's next caller computes it.
    #[cfg(test)]
    fn panic_group_compute(&self, sim: &Simulator, workload: &Workload, g: u32) -> bool {
        let key = group_key(sim.environment_fingerprint(workload), workload, g);
        // Panic without the panic! macro: this is a deliberate, typed
        // chaos stimulus, not a hot-path bug.
        let compute = || -> Result<_, Infallible> { std::panic::panic_any("injected") };
        std::panic::catch_unwind(|| self.shard(key).get_or_compute(key, compute)).is_err()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        SHARDS
    }

    /// Ground-truth totals served from the memo so far.
    pub fn total_hits(&self) -> u64 {
        self.totals.hits()
    }

    /// Ground-truth totals folded so far (successful folds only).
    pub fn total_misses(&self) -> u64 {
        self.totals.misses()
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

/// The cache key of group `g`: the environment fingerprint `env` plus the
/// kernel, context and work-scale bits the group fixes.
fn group_key(mut env: Fingerprint, workload: &Workload, g: u32) -> u128 {
    let key = workload.group_keys()[g as usize];
    env.word(key.kernel.index() as u64);
    env.word(key.context as u64);
    env.word(key.work_bits as u64);
    env.key()
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
        self.run_sampled_with(workload, samples, par, Some(cache))
    }

    /// The one sampled executor. Without a cache each touched group's core
    /// is evaluated once, as a private cache would, minus the keys and
    /// the locking.
    pub(crate) fn run_sampled_with(
        &self,
        workload: &Workload,
        samples: &[WeightedSample],
        par: Parallelism,
        cache: Option<&SimCache>,
    ) -> SampledRun {
        assert!(!samples.is_empty(), "sampled simulation needs samples");
        let n = workload.num_invocations();
        let cache = cache.map(|cache| (cache, self.environment_fingerprint(workload)));
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
        let cores: Vec<DeterministicTiming> =
            stem_par::par_map_indexed(par, &needed, |_, &g| match cache {
                Some((cache, env)) => {
                    let key = group_key(env, workload, g);
                    let Ok(core) = cache
                        .shard(key)
                        .get_or_compute(key, || Ok::<_, Infallible>(self.group_core(workload, g)));
                    core
                }
                None => self.group_core(workload, g),
            });
        // Stream the jitter: one `exp` per sample, folded in sample order.
        let pairs = stem_par::par_map_indexed(par, samples, |_, s| {
            let row = workload.rows()[s.index];
            let det = &cores[slot_of[row.group as usize] as usize];
            let cycles = det.jittered_cycles(row.noise_z() as f64);
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

    /// The groups `samples` touches, split in two halves by group id;
    /// neither half is empty.
    fn split_groups(w: &Workload, samples: &[WeightedSample]) -> (Vec<u32>, Vec<u32>) {
        let groups: std::collections::BTreeSet<u32> =
            samples.iter().map(|s| w.group_of(s.index)).collect();
        let mut first: Vec<u32> = groups.into_iter().collect();
        assert!(first.len() >= 2, "the samples touch one group");
        let second = first.split_off(first.len() / 2);
        (first, second)
    }

    /// The samples whose group is in `groups`.
    fn samples_of(w: &Workload, samples: &[WeightedSample], groups: &[u32]) -> Vec<WeightedSample> {
        samples
            .iter()
            .filter(|s| groups.contains(&w.group_of(s.index)))
            .copied()
            .collect()
    }

    #[test]
    fn cached_run_matches_uncached_bitwise() {
        let w = &rodinia_suite(5)[0];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(500));
        let plain = sim.run_sampled(w, &samples);
        let cache = SimCache::new();
        for threads in [1usize, 2, 3, 8] {
            let cached =
                sim.run_sampled_cached(w, &samples, Parallelism::with_threads(threads), &cache);
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
        assert_eq!(cache.evictions(), 0);
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
                let run =
                    sim.run_sampled_cached(w, &samples, Parallelism::with_threads(threads), &cache);
                assert_eq!(
                    run,
                    plain,
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
        assert!(
            cache.evictions() > 0,
            "a cap of 1 must have evicted something"
        );
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
        // gaussian: 200 samples touch 200 groups, so a cap of 2 per
        // shard evicts.
        let w = &rodinia_suite(5)[4];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(200));
        let plain = sim.run_sampled(w, &samples);
        let cache = SimCache::with_capacity(2);
        let (warm, fresh) = split_groups(w, &samples);
        sim.run_sampled_cached(
            w,
            &samples_of(w, &samples, &warm),
            Parallelism::serial(),
            &cache,
        );
        for &g in &fresh {
            assert!(
                cache.panic_group_compute(&sim, w, g),
                "group {g} was never computed"
            );
        }
        let misses = cache.misses();
        let after = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &cache);
        assert_eq!(
            after, plain,
            "recovery on a bounded cache must be output-invisible"
        );
        assert!(cache.misses() - misses >= fresh.len() as u64);
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
        // Warm the cache on half of the groups, then panic a compute of
        // every other group the full sample set reads — the worst case a
        // storm of worker panics could leave behind.
        let (warm, fresh) = split_groups(w, &samples);
        let warm_samples = samples_of(w, &samples, &warm);
        let cold = sim.run_sampled_cached(w, &warm_samples, par, &cache);
        assert_eq!(cold, sim.run_sampled(w, &warm_samples));
        for &g in &fresh {
            assert!(
                cache.panic_group_compute(&sim, w, g),
                "group {g} was never computed"
            );
        }
        assert_eq!(
            cache.len(),
            warm.len(),
            "a panicked compute memoizes nothing"
        );
        let (hits, misses) = (cache.hits(), cache.misses());
        let after = sim.run_sampled_cached(w, &samples, par, &cache);
        assert_eq!(after, plain, "recovery must be output-invisible");
        assert_eq!(
            (cache.hits() - hits, cache.misses() - misses),
            (warm.len() as u64, fresh.len() as u64),
            "the warm groups hit and every panicked group is recomputed"
        );
    }

    #[test]
    fn poison_recovery_rebuilds_the_shard() {
        let w = &rodinia_suite(5)[1];
        let sim = Simulator::new(GpuConfig::rtx2080());
        let samples = unit_samples(w.num_invocations().min(200));
        let cache = SimCache::new();
        // The first compute of every group the run reads panics.
        let (warm, fresh) = split_groups(w, &samples);
        let groups: Vec<u32> = warm.into_iter().chain(fresh).collect();
        for &g in &groups {
            assert!(cache.panic_group_compute(&sim, w, g));
        }
        assert!(cache.is_empty(), "a panicked compute memoizes nothing");
        // A run rebuilds every group, and a rerun hits all of them.
        let rerun = sim.run_sampled_cached(w, &samples, Parallelism::serial(), &cache);
        assert_eq!(rerun, sim.run_sampled(w, &samples));
        assert_eq!(
            (cache.len(), cache.misses()),
            (groups.len(), groups.len() as u64)
        );
        sim.run_sampled_cached(w, &samples, Parallelism::serial(), &cache);
        assert_eq!(cache.hits(), groups.len() as u64);
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
        let cache = SimCache::new();
        let memo = &cache.totals;
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
        assert_eq!(memo.len(), TOTALS_CAPACITY);
        assert_eq!(
            memo.get_or_compute(7, || Ok::<_, ()>(9.0)),
            Ok(9.0),
            "the oldest entry is evicted first"
        );
    }
}
