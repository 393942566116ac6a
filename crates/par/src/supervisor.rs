//! Supervised execution: panic-isolated workers with deterministic retry.
//!
//! [`crate::par_map_range`] propagates the first worker panic to the
//! caller, tearing down the whole map — the right default for genuine
//! bugs, but fatal for long simulation campaigns where one transient task
//! fault (an injected chaos panic, a poisoned shared resource) would throw
//! away hours of completed work. This module runs every task under a
//! supervisor instead:
//!
//! * each attempt executes inside [`std::panic::catch_unwind`], so a
//!   panicking task never unwinds through the pool;
//! * a failed task is retried up to a configurable budget, and the retry
//!   re-runs the *same task index* — all task randomness derives from the
//!   index via [`crate::split_seed`], so a retried task recomputes exactly
//!   the bits the first attempt would have produced, at any thread count;
//! * attempts that outlive a per-task soft deadline are flagged as
//!   stragglers in the [`ExecLog`] (informational: wall-clock is the one
//!   thing a deterministic runtime cannot promise);
//! * a task that exhausts its budget surfaces as a typed [`TaskFailure`]
//!   for the *lowest failing task index* — deterministic regardless of
//!   which worker observed the failure first — while every other task
//!   still runs to completion.
//!
//! The determinism contract of the crate is unchanged: with no panicking
//! tasks, [`supervised_map_range`] returns bit-identical results to
//! [`crate::par_map_range`] at every thread count; with deterministic
//! per-attempt faults (see `gpu_profile`'s `ExecFaultPlan`), the recovered
//! results are bit-identical to an un-faulted run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::{chunk_size, Parallelism};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Retry and deadline policy for supervised maps.
///
/// The default supervises with one retry per task and no soft deadline:
/// a genuinely deterministic panic still fails (twice as slowly), while a
/// transient per-attempt fault is absorbed invisibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervisor {
    retry_budget: u32,
    soft_deadline: Option<Duration>,
}

impl Supervisor {
    /// One retry per task, no soft deadline.
    pub fn new() -> Self {
        Supervisor {
            retry_budget: 1,
            soft_deadline: None,
        }
    }

    /// How many times a panicked task is re-attempted before it is
    /// reported as failed (0 = fail on the first panic).
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Flags any attempt that runs longer than `deadline` as a straggler
    /// in the [`ExecLog`]. Purely diagnostic: a slow task is never killed
    /// (preemption would forfeit determinism), only reported.
    pub fn with_soft_deadline(mut self, deadline: Duration) -> Self {
        self.soft_deadline = Some(deadline);
        self
    }

    /// The retry budget in effect.
    #[cfg(test)]
    fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// The soft deadline in effect, if any.
    #[cfg(test)]
    fn soft_deadline(&self) -> Option<Duration> {
        self.soft_deadline
    }
}

impl Default for Supervisor {
    /// [`Supervisor::new`].
    fn default() -> Self {
        Self::new()
    }
}

/// Which task is running, and which attempt this is.
///
/// `attempt` exists for fault injection (a chaos plan can panic on early
/// attempts and recover on later ones) and for logging; task *results*
/// must depend on `index` only, or retries would not be deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCtx {
    /// The task's input index (drives all task randomness).
    pub index: usize,
    /// 0-based attempt counter for this task.
    pub attempt: u32,
}

/// A task that panicked on every attempt its budget allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// The failing task's input index.
    pub index: usize,
    /// Attempts consumed (budget + 1).
    pub attempts: u32,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} failed after {} attempt(s): {}",
            self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for TaskFailure {}

/// What the supervisor observed while running a map: informational
/// counters, never part of the simulation output.
///
/// `recovered` and `stragglers` hold task indices, sorted. With
/// deterministic faults, `retries` and `recovered` replay exactly;
/// `stragglers` depends on wall-clock and is diagnostic only.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecLog {
    /// Total re-attempts across all tasks.
    pub retries: u64,
    /// Tasks that panicked at least once but eventually succeeded.
    pub recovered: Vec<usize>,
    /// Tasks whose final attempt outlived the soft deadline.
    pub stragglers: Vec<usize>,
}

impl ExecLog {
    /// True if every task succeeded first try within its deadline.
    pub fn is_quiet(&self) -> bool {
        self.retries == 0 && self.recovered.is_empty() && self.stragglers.is_empty()
    }

    fn absorb(&mut self, mut other: ExecLog) {
        self.retries += other.retries;
        self.recovered.append(&mut other.recovered);
        self.stragglers.append(&mut other.stragglers);
    }

    fn finish(mut self) -> Self {
        self.recovered.sort_unstable();
        self.stragglers.sort_unstable();
        self
    }
}

/// Runs one task under the supervisor: catch_unwind per attempt, retry up
/// to the budget, straggler bookkeeping on the successful attempt.
fn run_task<U, F>(
    sup: &Supervisor,
    f: &F,
    index: usize,
    log: &mut ExecLog,
) -> Result<U, TaskFailure>
where
    F: Fn(TaskCtx) -> U + Sync,
{
    let mut attempt: u32 = 0;
    loop {
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(TaskCtx { index, attempt })));
        let slow = sup.soft_deadline.is_some_and(|d| started.elapsed() > d);
        match outcome {
            Ok(value) => {
                if slow {
                    log.stragglers.push(index);
                }
                if attempt > 0 {
                    log.recovered.push(index);
                }
                return Ok(value);
            }
            Err(payload) => {
                if attempt >= sup.retry_budget {
                    return Err(TaskFailure {
                        index,
                        attempts: attempt + 1,
                        message: payload_message(payload.as_ref()),
                    });
                }
                attempt += 1;
                log.retries += 1;
            }
        }
    }
}

/// Stringifies a panic payload: `&str` and `String` payloads (the panic
/// macros and chaos injection both produce these) come through verbatim.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// [`crate::par_map_range`] under a [`Supervisor`]: maps `f` over
/// `0..len`, isolating and retrying panicking tasks.
///
/// On success, returns the results in index order together with the
/// [`ExecLog`]. If any task exhausts its retry budget, every other task
/// still completes and the error reports the **lowest** failing index —
/// the same failure the serial loop would hit first, at any thread count.
///
/// With `par.threads() == 1` the map runs on the calling thread (no pool),
/// with identical supervision semantics.
pub fn supervised_map_range<U, F>(
    par: Parallelism,
    len: usize,
    sup: &Supervisor,
    f: F,
) -> Result<(Vec<U>, ExecLog), TaskFailure>
where
    U: Send,
    F: Fn(TaskCtx) -> U + Sync,
{
    if par.is_serial() || len <= 1 {
        let mut log = ExecLog::default();
        let mut out = Vec::with_capacity(len);
        let mut first_failure: Option<TaskFailure> = None;
        for index in 0..len {
            match run_task(sup, &f, index, &mut log) {
                Ok(v) => out.push(v),
                Err(e) => {
                    first_failure.get_or_insert(e);
                }
            }
        }
        return match first_failure {
            Some(e) => Err(e),
            None => Ok((out, log.finish())),
        };
    }

    let threads = par.threads().min(len);
    let chunk = chunk_size(len, threads);
    let cursor = AtomicUsize::new(0);

    // As in `par_map_range`: chunks are tagged with their start index and
    // merged in input order, so worker identity and completion order never
    // reach the output — including which worker observed a failure.
    let (mut chunks, log) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Vec<Result<U, TaskFailure>>)> = Vec::new();
                    let mut log = ExecLog::default();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        let end = (start + chunk).min(len);
                        let part = (start..end)
                            .map(|index| run_task(sup, &f, index, &mut log))
                            .collect();
                        local.push((start, part));
                    }
                    (local, log)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut log = ExecLog::default();
        for handle in handles {
            match handle.join() {
                Ok((mut part, worker_log)) => {
                    all.append(&mut part);
                    log.absorb(worker_log);
                }
                // Only `f` runs under catch_unwind; a panic in the worker
                // scaffolding itself is a bug worth propagating.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (all, log)
    });

    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    let mut first_failure: Option<TaskFailure> = None;
    for (_, part) in chunks {
        for item in part {
            match item {
                Ok(v) => out.push(v),
                Err(e) => {
                    // Items arrive in index order, so the first error seen
                    // is the lowest failing index.
                    first_failure.get_or_insert(e);
                }
            }
        }
    }
    match first_failure {
        Some(e) => Err(e),
        None => {
            assert!(out.len() == len, "chunk dispatch lost items");
            Ok((out, log.finish()))
        }
    }
}

/// [`supervised_map_range`] over a slice: maps `f(ctx, &items[ctx.index])`
/// with the same isolation, retry, and failure-ordering semantics.
pub fn supervised_map_indexed<T, U, F>(
    par: Parallelism,
    items: &[T],
    sup: &Supervisor,
    f: F,
) -> Result<(Vec<U>, ExecLog), TaskFailure>
where
    T: Sync,
    U: Send,
    F: Fn(TaskCtx, &T) -> U + Sync,
{
    supervised_map_range(par, items.len(), sup, |ctx| f(ctx, &items[ctx.index]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic transient fault: panic while `attempt < flaky_until`
    /// for every index divisible by `stride`.
    fn flaky(ctx: TaskCtx, stride: usize, flaky_until: u32) -> u64 {
        if ctx.index.is_multiple_of(stride) && ctx.attempt < flaky_until {
            panic!("transient fault at task {}", ctx.index);
        }
        ctx.index as u64 * 3 + 1
    }

    #[test]
    fn quiet_map_matches_plain_map() {
        for t in [1usize, 2, 4, 8] {
            let (out, log) = supervised_map_range(
                Parallelism::with_threads(t),
                257,
                &Supervisor::new(),
                |ctx| ctx.index as u64 * 7,
            )
            .expect("no faults");
            let expect: Vec<u64> = (0..257).map(|i| i * 7).collect();
            assert_eq!(out, expect, "threads = {t}");
            assert!(log.is_quiet(), "threads = {t}: {log:?}");
        }
    }

    #[test]
    fn transient_panics_recover_with_identical_results() {
        let expect: Vec<u64> = (0..300).map(|i| i * 3 + 1).collect();
        for t in [1usize, 2, 8] {
            let (out, log) = supervised_map_range(
                Parallelism::with_threads(t),
                300,
                &Supervisor::new(),
                |ctx| flaky(ctx, 13, 1),
            )
            .expect("retry budget covers one transient panic");
            assert_eq!(out, expect, "threads = {t}");
            let hit: Vec<usize> = (0..300).filter(|i| i % 13 == 0).collect();
            assert_eq!(log.recovered, hit, "threads = {t}");
            assert_eq!(log.retries, hit.len() as u64, "threads = {t}");
        }
    }

    #[test]
    fn exhausted_budget_reports_lowest_failing_index() {
        for t in [1usize, 2, 8] {
            let err = supervised_map_range(
                Parallelism::with_threads(t),
                100,
                &Supervisor::new().with_retry_budget(2),
                |ctx| flaky(ctx, 17, u32::MAX),
            )
            .expect_err("permanent fault must fail");
            assert_eq!(err.index, 0, "threads = {t}");
            assert_eq!(err.attempts, 3, "threads = {t}");
            assert!(err.message.contains("transient fault at task 0"), "{err}");
        }
    }

    #[test]
    fn zero_budget_fails_on_first_panic() {
        let err = supervised_map_range(
            Parallelism::serial(),
            10,
            &Supervisor::new().with_retry_budget(0),
            |ctx| flaky(ctx, 4, 1),
        )
        .expect_err("no retries allowed");
        assert_eq!(err.index, 0);
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn soft_deadline_flags_stragglers() {
        let sup = Supervisor::new().with_soft_deadline(Duration::from_millis(2));
        let (out, log) = supervised_map_range(Parallelism::with_threads(2), 8, &sup, |ctx| {
            if ctx.index == 5 {
                std::thread::sleep(Duration::from_millis(25));
            }
            ctx.index
        })
        .expect("slow tasks still succeed");
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(log.stragglers.contains(&5), "{log:?}");
        assert!(log.recovered.is_empty());
    }

    #[test]
    fn indexed_variant_sees_items() {
        let items = [10u64, 20, 30];
        let (out, _) = supervised_map_indexed(
            Parallelism::with_threads(2),
            &items,
            &Supervisor::new(),
            |ctx, &x| x + ctx.index as u64,
        )
        .expect("no faults");
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn non_string_payload_is_labeled_opaque() {
        let err = supervised_map_range(
            Parallelism::serial(),
            2,
            &Supervisor::new().with_retry_budget(0),
            |ctx| {
                if ctx.index == 1 {
                    std::panic::panic_any(42u32);
                }
                ctx.index
            },
        )
        .expect_err("payload panic");
        assert_eq!(err.index, 1);
        assert_eq!(err.message, "opaque panic payload");
    }

    #[test]
    fn supervisor_accessors() {
        let sup = Supervisor::new()
            .with_retry_budget(5)
            .with_soft_deadline(Duration::from_secs(1));
        assert_eq!(sup.retry_budget(), 5);
        assert_eq!(sup.soft_deadline(), Some(Duration::from_secs(1)));
        assert_eq!(Supervisor::default(), Supervisor::new());
    }
}
