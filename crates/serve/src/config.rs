//! Daemon configuration: queue bounds, tenant budgets, retry/backoff
//! shape, journal location, and the chaos test hook.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gpu_profile::ExecFaultPlan;
use gpu_sim::GpuConfig;
use stem_core::StemError;
use stem_storage::{RealFs, Storage};

/// Everything a [`crate::Server`] needs to run. Build with
/// [`ServeConfig::new`] and override fields builder-style; `start`
/// validates the combination once.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target GPU for every campaign this daemon runs (part of the
    /// journal fingerprint: a journal written for one GPU never resumes
    /// on another).
    pub gpu: GpuConfig,
    /// Directory holding the job journal and per-job campaign snapshots.
    pub journal_dir: PathBuf,
    /// Hard cap on queued jobs; at this depth `SUBMIT` is rejected with
    /// [`StemError::Overloaded`] (scope `"queue"`).
    pub queue_capacity: usize,
    /// Load-shedding mark (< `queue_capacity`): past it, new `SUBMIT`s
    /// are rejected with scope `"load-shed"` and a retry-after hint while
    /// admitted work keeps draining.
    pub high_water: usize,
    /// Per-tenant cap on queued jobs, so one tenant cannot fill the
    /// whole queue (rejection scope = the tenant id).
    pub per_tenant_queue_cap: usize,
    /// Base retry-after hint returned with overload rejections, ms.
    pub retry_after_ms: u64,
    /// Total worker-thread budget carved between active tenants; a
    /// job runs with `max(1, total_threads / active_tenants)` threads.
    /// Results are thread-count-invariant, so carving only affects
    /// fairness, never bits.
    pub total_threads: usize,
    /// Concurrent campaign workers (each runs one job at a time).
    pub workers: usize,
    /// Supervisor retry budget for a panicking `(workload, rep)` unit.
    pub unit_retry_budget: u32,
    /// Whole-job retries after a typed failure (each retry resumes from
    /// the snapshot, so completed units are never recomputed).
    pub job_retry_limit: u32,
    /// First job-retry backoff pause, ms; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, ms (capped exponential, deterministic).
    pub backoff_cap_ms: u64,
    /// Per-shard entry cap for the cross-campaign memo cache
    /// (`None` = unbounded; a long-lived daemon should set one).
    pub cache_capacity_per_shard: Option<usize>,
    /// Socket read timeout: a client that stalls mid-line longer than
    /// this loses the connection (slow-loris defense).
    pub read_timeout: Duration,
    /// Longest accepted request line, bytes; longer frames are rejected
    /// before they are buffered in full.
    pub max_line_len: usize,
    /// Chaos hook: runtime faults (worker panics, simulated process
    /// kill) injected into every campaign this daemon runs.
    pub exec_faults: Option<ExecFaultPlan>,
    /// The [`Storage`] behind every durable write — the journal, the
    /// per-job campaign snapshots, and the startup tmp sweep. The real
    /// filesystem by default; the chaos crate's `FaultFs` plugs in here
    /// for storage fault sweeps and the crash-point explorer.
    pub storage: Arc<dyn Storage>,
}

impl ServeConfig {
    /// Defaults sized for tests and small deployments: queue of 8 jobs
    /// (shedding past 6), 2 per tenant, 2 workers, 2 threads total, one
    /// unit retry, one job retry with a 10→80 ms backoff, a bounded
    /// 256-entry-per-shard cache, and a 2 s read timeout.
    pub fn new(journal_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            gpu: GpuConfig::rtx2080(),
            journal_dir: journal_dir.into(),
            queue_capacity: 8,
            high_water: 6,
            per_tenant_queue_cap: 2,
            retry_after_ms: 50,
            total_threads: 2,
            workers: 2,
            unit_retry_budget: 1,
            job_retry_limit: 1,
            backoff_base_ms: 10,
            backoff_cap_ms: 80,
            cache_capacity_per_shard: Some(256),
            read_timeout: Duration::from_secs(2),
            max_line_len: 512,
            exec_faults: None,
            storage: Arc::new(RealFs),
        }
    }

    /// Overrides the queue bounds (`high_water` is clamped below
    /// `capacity` at validation).
    pub fn with_queue(mut self, capacity: usize, high_water: usize) -> Self {
        self.queue_capacity = capacity;
        self.high_water = high_water;
        self
    }

    /// Overrides the per-tenant queued-job cap.
    pub fn with_per_tenant_cap(mut self, cap: usize) -> Self {
        self.per_tenant_queue_cap = cap;
        self
    }

    /// Overrides the worker count and total thread budget.
    pub fn with_workers(mut self, workers: usize, total_threads: usize) -> Self {
        self.workers = workers;
        self.total_threads = total_threads;
        self
    }

    /// Installs a runtime fault plan (chaos test hook).
    pub fn with_exec_faults(mut self, faults: ExecFaultPlan) -> Self {
        self.exec_faults = Some(faults);
        self
    }

    /// Overrides the storage behind every durable write (chaos test
    /// hook; defaults to the real filesystem).
    pub fn with_storage(mut self, storage: Arc<dyn Storage>) -> Self {
        self.storage = storage;
        self
    }

    /// Checks the bounds make sense together.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] for zero-sized queues,
    /// worker pools, thread budgets, or tenant caps, and for a
    /// high-water mark above the queue capacity.
    pub fn validate(&self) -> Result<(), StemError> {
        let bad = |msg: &str| Err(StemError::InvalidConfig(msg.to_string()));
        if self.queue_capacity == 0 {
            return bad("queue capacity must be at least 1");
        }
        if self.high_water == 0 || self.high_water > self.queue_capacity {
            return bad("high-water mark must be in 1..=queue_capacity");
        }
        if self.per_tenant_queue_cap == 0 {
            return bad("per-tenant queue cap must be at least 1");
        }
        if self.workers == 0 {
            return bad("at least one worker required");
        }
        if self.total_threads == 0 {
            return bad("thread budget must be at least 1");
        }
        if self.max_line_len < 16 {
            return bad("max line length must be at least 16 bytes");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::new("/tmp/x").validate().is_ok());
    }

    #[test]
    fn bad_bounds_rejected() {
        let base = ServeConfig::new("/tmp/x");
        assert!(base.clone().with_queue(0, 0).validate().is_err());
        assert!(base.clone().with_queue(4, 5).validate().is_err());
        assert!(base.clone().with_per_tenant_cap(0).validate().is_err());
        assert!(base.clone().with_workers(0, 2).validate().is_err());
        assert!(base.with_workers(1, 0).validate().is_err());
    }
}
