//! Deterministic parallel runtime: scoped fixed-size thread pool with
//! index-ordered chunked map/reduce.
//!
//! Every hot path of the reproduction (per-invocation timing in `gpu-sim`,
//! k-means assignment in `stem-cluster`, per-repetition evaluation in
//! `stem-core::Pipeline`) is a map over independent items followed by an
//! order-sensitive aggregation. This crate parallelizes exactly that shape
//! while preserving STEM's trustworthiness invariant:
//!
//! > **same seed + same inputs ⇒ identical output for every thread count.**
//!
//! Three rules make the invariant hold by construction:
//!
//! 1. **Results are merged in input-index order.** Workers pull fixed-size
//!    chunks off an atomic cursor (so scheduling is dynamic and
//!    load-balanced), but each chunk remembers its starting index and the
//!    merge sorts chunks by that index before concatenating. Which worker
//!    computed a chunk — and when — never reaches the output.
//! 2. **Reductions fold serially in index order.** Floating-point addition
//!    is not associative, so [`par_reduce_ordered`] parallelizes only the
//!    map and performs the fold on the calling thread, left to right —
//!    bit-identical to the serial fold at any thread count.
//! 3. **Randomness is split by task index, never worker identity.**
//!    [`split_seed`] derives a per-task seed from `(base_seed, task_index)`
//!    with a SplitMix64-style mix; callers feed it to
//!    `stem_core::rng::StdRng::seed_from_u64`. No API in this crate exposes
//!    a worker id, so worker-dependent randomness cannot be written.
//!
//! Thread count comes from a [`Parallelism`] value: the default is
//! `std::thread::available_parallelism()`, the `STEM_THREADS` environment
//! variable overrides it, and `1` short-circuits to a plain serial loop —
//! byte-for-byte the pre-parallelism code path.
//!
//! For long campaigns where a worker panic must not tear down the whole
//! map, the [`supervisor`] module wraps the same primitives in
//! panic-isolated, deterministically-retried execution
//! ([`supervised_map_range`]). Shared state that a worker panic may have
//! poisoned is taken through [`lock_unpoisoned`], and every memo in the
//! workspace is a [`Memo`]: bounded, one compute per key at a time.
//!
//! # Example
//!
//! ```
//! use stem_par::{par_map_indexed, par_reduce_ordered, Parallelism};
//!
//! let par = Parallelism::with_threads(4);
//! let xs: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
//!
//! let doubled = par_map_indexed(par, &xs, |_, &x| 2.0 * x);
//! assert_eq!(doubled[7], 7.0);
//!
//! let sum = par_reduce_ordered(par, &xs, |_, &x| 2.0 * x, 0.0, |acc, v| acc + v);
//! // Bit-identical to the serial fold, not merely close:
//! let serial: f64 = xs.iter().map(|&x| 2.0 * x).fold(0.0, |a, v| a + v);
//! assert_eq!(sum, serial);
//! ```

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

pub mod memo;
pub mod supervisor;

pub use memo::Memo;
pub use supervisor::{
    supervised_map_indexed, supervised_map_range, ExecLog, Supervisor, TaskCtx, TaskFailure,
};

/// Environment variable overriding the default thread count.
pub const THREADS_ENV: &str = "STEM_THREADS";

/// Target chunks per worker: small enough to amortize dispatch, large
/// enough that a straggler chunk cannot serialize the whole map.
const CHUNKS_PER_WORKER: usize = 4;

/// How many worker threads parallel maps may use.
///
/// `Parallelism` is a pure count: it carries no pool state, so it is `Copy`
/// and can be stored in configs and compared in tests. A value of 1 makes
/// every primitive in this crate take the literal serial code path (no
/// threads spawned, no atomics touched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// One thread: the serial code path, byte-for-byte.
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// An explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` — zero workers cannot make progress.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        Parallelism { threads }
    }

    /// The machine's available parallelism (falls back to 1 where the OS
    /// cannot report it).
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism { threads }
    }

    /// The configured default: the `STEM_THREADS` environment variable if
    /// set to a positive integer, otherwise [`Parallelism::available`].
    /// Unparsable or zero values fall back to the default rather than
    /// erroring — an experiment must not die on a typo in a launcher
    /// script, and the result is identical at any count anyway.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Parallelism { threads: n },
                _ => Self::available(),
            },
            Err(_) => Self::available(),
        }
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this is the serial path.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// This parallelism for a map over `len` cheap items: serial when
    /// `len < min_len`, where starting the pool would cost more than its
    /// threads save. Results are the same either way.
    pub fn serial_below(self, len: usize, min_len: usize) -> Self {
        if len < min_len {
            Self::serial()
        } else {
            self
        }
    }
}

impl Default for Parallelism {
    /// [`Parallelism::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// Derives the RNG seed for task `index` from `base`: SplitMix64-style
/// stream splitting. The seed is a function of the task's position in the
/// input — never of which worker executes it or in what order — so seeded
/// draws stay identical at every thread count.
///
/// Feed the result to `stem_core::rng::StdRng::seed_from_u64`.
#[inline]
pub fn split_seed(base: u64, index: u64) -> u64 {
    mix64(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The SplitMix64 output finalizer: a bijective avalanche mix of one
/// 64-bit word, and the workspace's seed mixer. [`split_seed`] and every
/// index-keyed noise stream (the simulator's wave jitter, hardware and
/// metric noise, the BBV and execution-trace profile noise) feed their
/// own pre-mixed word through it and keep their own unit conversion.
/// `#[inline]` because per-invocation loops in other crates call it and
/// the release profile has no cross-crate LTO.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Locks `mutex`, recovering it if a panic poisoned it: the poison flag is
/// cleared and the guard returned as the panicking thread left the data.
/// Sound for the workspace's shared state, which every holder keeps
/// consistent at each step or which is rebuilt from disk; a lock that
/// must discard its data after a panic (the [`Memo`] table) handles its
/// own poisoning.
pub fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// Maps `f` over `0..len` on a scoped thread pool, returning results in
/// index order. The deterministic core primitive: [`par_map_indexed`] and
/// [`par_reduce_ordered`] are built on it.
///
/// With `par.threads() == 1` (or fewer than two items) this is exactly
/// `(0..len).map(f).collect()` — no threads, no atomics.
pub fn par_map_range<U, F>(par: Parallelism, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if par.is_serial() || len <= 1 {
        return (0..len).map(f).collect();
    }
    let threads = par.threads().min(len);
    let chunk = chunk_size(len, threads);
    let cursor = AtomicUsize::new(0);

    // Each worker returns its chunks tagged with their start index; the
    // merge below re-establishes input order, so neither worker identity
    // nor completion order can reach the result.
    let mut chunks: Vec<(usize, Vec<U>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        let end = (start + chunk).min(len);
                        local.push((start, (start..end).map(&f).collect()));
                    }
                    local
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(mut part) => all.append(&mut part),
                // Re-raise the worker's own panic payload on the caller.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });

    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, mut part) in chunks {
        out.append(&mut part);
    }
    assert!(out.len() == len, "chunk dispatch lost items");
    out
}

/// Maps `f(index, &item)` over a slice in parallel, returning results in
/// input-index order. See [`par_map_range`] for the determinism contract.
pub fn par_map_indexed<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_range(par, items.len(), |i| f(i, &items[i]))
}

/// Maps `f(index, item)` over owned items in parallel, returning results in
/// input-index order: each task takes its item by value, so it can move a
/// large buffer into its own state and free it when it finishes. See
/// [`par_map_range`] for the determinism contract.
pub fn par_map_owned<T, U, F>(par: Parallelism, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    if par.is_serial() || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // `par_map_range` visits every index exactly once, so every take
    // finds its item and the flatten drops nothing.
    par_map_range(par, slots.len(), |i| {
        let item = lock_unpoisoned(&slots[i]).take();
        item.map(|t| f(i, t))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// [`par_map_range`] into the caller's buffer: sets `out[i] = f(i)` for
/// every index, each chunk of `out` on the pool, with no result vector of
/// its own to allocate and copy. Which worker fills a chunk never reaches
/// the result.
pub fn par_fill<T, F>(par: Parallelism, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if par.is_serial() || out.len() <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let chunk = chunk_size(out.len(), par.threads().min(out.len()));
    let pieces: Vec<(usize, &mut [T])> = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(c, piece)| (c * chunk, piece))
        .collect();
    par_map_owned(par, pieces, |_, (start, piece)| {
        for (j, slot) in piece.iter_mut().enumerate() {
            *slot = f(start + j);
        }
    });
}

/// Parallel map + **serial in-order fold**: computes `f(index, &item)` for
/// every item on the pool, then folds the mapped values left to right on
/// the calling thread.
///
/// The fold is deliberately not parallelized: floating-point accumulation
/// is order-sensitive, and folding in index order is what makes the result
/// bit-identical to `items.iter().enumerate().map(f).fold(init, fold)` at
/// every thread count.
pub fn par_reduce_ordered<T, M, A, F, G>(
    par: Parallelism,
    items: &[T],
    f: F,
    init: A,
    mut fold: G,
) -> A
where
    T: Sync,
    M: Send,
    F: Fn(usize, &T) -> M + Sync,
    G: FnMut(A, M) -> A,
{
    let mapped = par_map_indexed(par, items, f);
    let mut acc = init;
    for m in mapped {
        acc = fold(acc, m);
    }
    acc
}

/// Two-phase grouped map: first maps `group_fn` over `0..num_groups` (the
/// expensive shared precomputation), then maps `item_fn(i, &groups[..])`
/// over `0..len` — both phases on the pool, both index-ordered.
///
/// This is the "group-precompute + stream" shape of the hot-path overhaul:
/// per-invocation simulation computes one `DeterministicTiming`-style core
/// per distinct `(kernel, context, work)` group and then streams a cheap
/// per-item transform. Determinism is inherited from [`par_map_range`]:
/// both phases merge by input index, so the result is bit-identical at
/// every thread count.
pub fn par_map_grouped<G, U, FG, FI>(
    par: Parallelism,
    num_groups: usize,
    group_fn: FG,
    len: usize,
    item_fn: FI,
) -> Vec<U>
where
    G: Send + Sync,
    U: Send,
    FG: Fn(usize) -> G + Sync,
    FI: Fn(usize, &[G]) -> U + Sync,
{
    let groups = par_map_range(par, num_groups, group_fn);
    par_map_range(par, len, |i| item_fn(i, &groups))
}

/// Bounded producer/consumer pipeline with a **serial in-order fold** on
/// the calling thread: the out-of-core counterpart of
/// [`par_reduce_ordered`].
///
/// `produce` runs on its own scoped thread and pushes items into a
/// bounded channel of `capacity` undelivered items — once full, the
/// producer blocks, so peak memory is `capacity` items regardless of
/// stream length (the generate→simulate→fold executor's flat-memory
/// knob). `consume` runs on the calling thread and receives items
/// strictly in send order; parallelism belongs *inside* `consume`
/// (e.g. a [`par_map_range`] over one block), never across items, so the
/// fold stays bit-identical at every thread count.
///
/// The producer learns of an early consumer stop through channel
/// disconnection: its next send fails and it should return its own
/// "closed" error, which this function discards in favour of the
/// consumer's. A producer panic is re-raised on the caller.
///
/// # Errors
///
/// The consumer's error if it stopped the pipeline, otherwise the
/// producer's.
///
/// # Panics
///
/// Panics if `capacity` is zero (a rendezvous channel would deadlock a
/// consumer that needs to see the first item before the second is
/// produced — always give the pipeline one slot of slack).
pub fn pipelined_fold<B, E, P, C>(capacity: usize, produce: P, mut consume: C) -> Result<(), E>
where
    B: Send,
    E: Send,
    P: FnOnce(std::sync::mpsc::SyncSender<B>) -> Result<(), E> + Send,
    C: FnMut(B) -> Result<(), E>,
{
    assert!(capacity > 0, "pipeline channel needs at least one slot");
    let (tx, rx) = std::sync::mpsc::sync_channel(capacity);
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || produce(tx));
        let mut consumer_err = None;
        for item in rx.iter() {
            if let Err(e) = consume(item) {
                consumer_err = Some(e);
                break;
            }
        }
        // Hang up before joining so a blocked producer's send fails fast
        // instead of deadlocking against a consumer that already stopped.
        drop(rx);
        let produced = match producer.join() {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        match consumer_err {
            Some(e) => Err(e),
            None => produced,
        }
    })
}

pub(crate) fn chunk_size(len: usize, threads: usize) -> usize {
    let target_chunks = threads * CHUNKS_PER_WORKER;
    len.div_ceil(target_chunks).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_fold_preserves_send_order() {
        let mut seen = Vec::new();
        let result: Result<(), ()> = pipelined_fold(
            2,
            |tx| {
                for i in 0..100u32 {
                    tx.send(i).map_err(|_| ())?;
                }
                Ok(())
            },
            |i| {
                seen.push(i);
                Ok(())
            },
        );
        assert!(result.is_ok());
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pipelined_fold_consumer_error_wins_and_stops_producer() {
        let mut consumed = 0u32;
        let result = pipelined_fold(
            1,
            |tx| {
                for i in 0..1_000_000u32 {
                    // A hung-up consumer must make this fail, not block.
                    tx.send(i).map_err(|_| "producer: closed")?;
                }
                Ok(())
            },
            |i| {
                consumed += 1;
                if i == 5 {
                    Err("consumer: enough")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result, Err("consumer: enough"));
        assert_eq!(consumed, 6);
    }

    #[test]
    fn pipelined_fold_reports_producer_error() {
        let result: Result<(), &str> = pipelined_fold(
            4,
            |tx| {
                tx.send(1u8).map_err(|_| "closed")?;
                Err("producer: disk on fire")
            },
            |_| Ok(()),
        );
        assert_eq!(result, Err("producer: disk on fire"));
    }

    #[test]
    fn pipelined_fold_bounds_in_flight_items() {
        use std::sync::atomic::AtomicIsize;
        // Tracks items sent minus items consumed; with capacity 3 the
        // producer can be at most 3 + 1-being-sent ahead.
        let in_flight = AtomicIsize::new(0);
        let result: Result<(), ()> = pipelined_fold(
            3,
            |tx| {
                for _ in 0..500 {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    tx.send(()).map_err(|_| ())?;
                }
                Ok(())
            },
            |()| {
                // Bound: 1 item here + 3 queued + 1 pre-incremented in a
                // blocked send = 5.
                let ahead = in_flight.fetch_sub(1, Ordering::SeqCst);
                assert!(ahead <= 5, "producer ran {ahead} items ahead");
                Ok(())
            },
        );
        assert!(result.is_ok());
    }

    #[test]
    fn serial_is_plain_map() {
        let xs = [3u64, 1, 4, 1, 5];
        let out = par_map_indexed(Parallelism::serial(), &xs, |i, &x| x * 10 + i as u64);
        assert_eq!(out, vec![30, 11, 42, 13, 54]);
    }

    #[test]
    fn order_preserved_at_many_thread_counts() {
        let xs: Vec<u64> = (0..1013).collect();
        let expect: Vec<u64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 3 + i as u64)
            .collect();
        for t in [1, 2, 3, 5, 8, 16, 64] {
            let out = par_map_indexed(Parallelism::with_threads(t), &xs, |i, &x| x * 3 + i as u64);
            assert_eq!(out, expect, "threads = {t}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: [u32; 0] = [];
        for t in [1, 4] {
            let par = Parallelism::with_threads(t);
            assert_eq!(par_map_indexed(par, &empty, |_, &x| x), Vec::<u32>::new());
            assert_eq!(par_map_indexed(par, &[9u32], |i, &x| x + i as u32), vec![9]);
        }
    }

    #[test]
    fn more_threads_than_items() {
        let xs = [1.0f64, 2.0, 3.0];
        let out = par_map_indexed(Parallelism::with_threads(32), &xs, |_, &x| x * 0.1);
        let expect: Vec<f64> = xs.iter().map(|&x| x * 0.1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn reduce_matches_serial_fold_bitwise() {
        // Values chosen so that accumulation order matters in f64.
        let xs: Vec<f64> = (0..2000)
            .map(|i| {
                if i % 3 == 0 {
                    1e16
                } else {
                    1.0 + i as f64 * 1e-3
                }
            })
            .collect();
        let serial = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x * (1.0 + i as f64))
            .fold(0.0f64, |a, v| a + v);
        for t in [1, 2, 7, 13] {
            let par = Parallelism::with_threads(t);
            let got =
                par_reduce_ordered(par, &xs, |i, &x| x * (1.0 + i as f64), 0.0f64, |a, v| a + v);
            assert_eq!(got.to_bits(), serial.to_bits(), "threads = {t}");
        }
    }

    #[test]
    fn grouped_map_matches_serial_at_any_thread_count() {
        // 5 groups, 1000 items; item i belongs to group i % 5.
        let serial: Vec<f64> = (0..1000)
            .map(|i| {
                let g = (i % 5) as f64 * 10.0;
                g + i as f64 * 0.25
            })
            .collect();
        for t in [1, 2, 4, 16] {
            let got = par_map_grouped(
                Parallelism::with_threads(t),
                5,
                |g| g as f64 * 10.0,
                1000,
                |i, groups: &[f64]| groups[i % 5] + i as f64 * 0.25,
            );
            assert_eq!(got, serial, "threads = {t}");
        }
    }

    #[test]
    fn grouped_map_handles_empty_groups_and_items() {
        let out = par_map_grouped(
            Parallelism::with_threads(4),
            0,
            |g| g,
            3,
            |i, groups: &[usize]| i + groups.len(),
        );
        assert_eq!(out, vec![0, 1, 2]);
        let none = par_map_grouped(
            Parallelism::with_threads(4),
            2,
            |g| g,
            0,
            |i, _groups: &[usize]| i,
        );
        assert!(none.is_empty());
    }

    #[test]
    fn split_seed_depends_on_index_and_base() {
        assert_ne!(split_seed(1, 0), split_seed(1, 1));
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
        assert_eq!(split_seed(7, 42), split_seed(7, 42));
    }

    #[test]
    fn mix64_and_split_seed_known_answers() {
        // SplitMix64 seeded with 0 emits mix64(k * golden) as its k-th
        // output, which is split_seed(0, k): the reference vectors of the
        // public-domain splitmix64.c (Vigna).
        let want = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
        ];
        for (k, &w) in (1u64..).zip(&want) {
            assert_eq!(mix64(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)), w);
            assert_eq!(split_seed(0, k), w);
        }
        // A nonzero base, pinned from the pre-mix64 implementation.
        assert_eq!(split_seed(0xC0FFEE, 7), 0x7D6D_E9FE_D5F3_C330);
        // The seed generator's own copy of the finalizer agrees with mix64
        // word for word.
        let mut sm = stem_stats::rng::SplitMix64::new(0xFEED);
        for k in 1..=64u64 {
            let next = stem_stats::rng::RngCore::next_u64(&mut sm);
            assert_eq!(
                next,
                mix64(0xFEED_u64.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            );
        }
    }

    #[test]
    fn parallelism_constructors() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::with_threads(6).threads(), 6);
        assert!(Parallelism::available().threads() >= 1);
        let four = Parallelism::with_threads(4);
        assert!(four.serial_below(99, 100).is_serial());
        assert_eq!(four.serial_below(100, 100), four);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        Parallelism::with_threads(0);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map_range(Parallelism::with_threads(4), 100, |i| {
                assert!(i != 57, "boom at 57");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn chunk_size_covers_range() {
        for len in [1usize, 2, 7, 100, 1001] {
            for threads in [1usize, 2, 8, 64] {
                let c = chunk_size(len, threads);
                assert!(c >= 1);
                // Enough chunks of size c exist to cover len.
                assert!(c * threads * CHUNKS_PER_WORKER + c > len);
            }
        }
    }
}
