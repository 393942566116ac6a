//! The daemon: a bounded multi-tenant job queue in front of
//! `Pipeline::resume_from`, with admission control, cooperative
//! cancellation, deterministic capped-backoff retries, a crash-safe job
//! journal, and a line-framed TCP front end.
//!
//! # Degradation ladder
//!
//! 1. Normal: `SUBMIT` admits, workers drain, results cache in memory.
//! 2. Past the high-water mark: new `SUBMIT`s shed with a structured
//!    retry-after hint; admitted jobs keep draining.
//! 3. Full queue / full tenant quota: typed `Overloaded` rejection.
//! 4. `SHUTDOWN`: running campaigns are cancelled between units (their
//!    snapshots already hold every completed unit), the journal keeps
//!    every job, and a restarted daemon resumes bit-identically.
//! 5. Process death at any instant: same as 4 — the journal and
//!    snapshots are written atomically after every admission and unit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::ServeConfig;
use crate::job::{JobPhase, JobSpec, JobStatus};
use crate::journal::{load_journal, serialize_journal, HEADER};
use crate::proto::{parse_request, render_error, render_result_payload, Request};
use gpu_sim::{SimCache, Simulator};
use stem_baselines::standard_registry;
use stem_core::{
    KernelSampler, Pipeline, QuarantinedSnapshot, SamplerRegistry, SnapshotError, StemError,
};
use stem_par::{lock_unpoisoned, Parallelism, Supervisor};
use stem_storage::{sealed::fnv1a64, StorageError, StorageOp};

/// Why a tenant-scoped lookup was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// No job with that id exists.
    UnknownJob,
    /// The job exists but belongs to a different tenant.
    Denied,
}

/// What `Server::start` recovered from the journal directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Journal jobs re-admitted to the queue, in id order.
    pub re_admitted: Vec<u64>,
    /// A journal that failed validation and was set aside, if any.
    pub quarantined: Option<QuarantinedSnapshot>,
    /// Orphan `*.tmp` files a crash mid-write left in the journal
    /// directory, removed before recovery (sorted).
    pub swept_tmp: Vec<PathBuf>,
}

/// One job's full in-daemon state.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    phase: JobPhase,
    cancel: Arc<AtomicBool>,
    straggler: bool,
    resumed_units: u64,
    executed_units: u64,
    message: Option<String>,
    result: Option<String>,
    attempts: u32,
}

impl Job {
    fn new(spec: JobSpec) -> Self {
        Job {
            spec,
            phase: JobPhase::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            straggler: false,
            resumed_units: 0,
            executed_units: 0,
            message: None,
            result: None,
            attempts: 0,
        }
    }

    fn status(&self) -> JobStatus {
        JobStatus {
            phase: self.phase,
            straggler: self.straggler,
            resumed_units: self.resumed_units,
            executed_units: self.executed_units,
            message: self.message.clone(),
        }
    }
}

/// Mutable daemon state, all behind one lock.
#[derive(Debug)]
struct State {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    running: usize,
}

/// Shared between the public handle, workers, and connection handlers.
#[derive(Debug)]
struct Inner {
    config: ServeConfig,
    fingerprint: u64,
    journal_path: PathBuf,
    addr: SocketAddr,
    /// Taken through `lock_unpoisoned`: every mutation is journaled or
    /// snapshot-backed before it matters, so a panicking thread cannot
    /// leave the map wrong in a way the disk does not correct.
    state: Mutex<State>,
    work_ready: Condvar,
    cache: Arc<SimCache>,
    samplers: Samplers,
    shutdown: AtomicBool,
    paused: AtomicBool,
    recovery: RecoveryReport,
    /// Journal writes that failed after admission (typed degradation:
    /// the daemon keeps serving on a stale-but-valid journal and the
    /// next successful persist catches it up; see `persist_journal`).
    journal_write_failures: AtomicU64,
}

/// The daemon's samplers: one per registry name, built on first use and
/// kept for the daemon's lifetime, so one sampler's caches (STEM's
/// planning memo and noise table) serve every later job. A sampler is a
/// pure function of (workload, rep seed): the baselines hold no state,
/// and STEM's memo and noise table hold pure functions of their keys. So
/// sharing one across jobs and tenants cannot move a bit.
struct Samplers {
    registry: SamplerRegistry,
    /// Taken through `lock_unpoisoned`: the map is only ever extended by a
    /// complete entry.
    built: Mutex<BTreeMap<String, Arc<dyn KernelSampler>>>,
}

impl std::fmt::Debug for Samplers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let built: Vec<String> = lock_unpoisoned(&self.built).keys().cloned().collect();
        f.debug_struct("Samplers")
            .field("registry", &self.registry)
            .field("built", &built)
            .finish()
    }
}

impl Samplers {
    fn new(registry: SamplerRegistry) -> Self {
        Samplers {
            registry,
            built: Mutex::default(),
        }
    }

    /// Admission's check, which builds no sampler: an unknown name is the
    /// registry's typed error, naming the available entries.
    fn check(&self, name: &str) -> Result<(), StemError> {
        if self.registry.contains(name) {
            Ok(())
        } else {
            self.registry.build(name).map(drop)
        }
    }

    /// The daemon's sampler for `name`, built on its first use.
    fn get(&self, name: &str) -> Result<Arc<dyn KernelSampler>, StemError> {
        let mut built = lock_unpoisoned(&self.built);
        if let Some(sampler) = built.get(name) {
            return Ok(Arc::clone(sampler));
        }
        let sampler: Arc<dyn KernelSampler> = Arc::from(self.registry.build(name)?);
        built.insert(name.to_string(), Arc::clone(&sampler));
        Ok(sampler)
    }
}

impl Inner {
    /// Serializes the durable subset of `jobs` (everything except
    /// cancelled and failed jobs, which must not be re-run on restart)
    /// and writes it atomically through the configured storage.
    ///
    /// A failure is typed degradation, not death: the on-disk journal
    /// stays the previous *valid* one (the write is atomic), so the
    /// worst case is a stale job set on restart — re-running a spec
    /// recomputes identical bits from its snapshot. Every failure is
    /// counted (see [`Server::journal_write_failures`]) and the next
    /// successful persist catches the file up.
    fn persist_journal(&self, st: &State) -> Result<(), SnapshotError> {
        let durable: BTreeMap<u64, JobSpec> = st
            .jobs
            .iter()
            .filter(|(_, j)| !matches!(j.phase, JobPhase::Cancelled | JobPhase::Failed))
            .map(|(&id, j)| (id, j.spec.clone()))
            .collect();
        let result = stem_storage::write_atomic(
            &*self.config.storage,
            &self.journal_path,
            &serialize_journal(self.fingerprint, &durable),
        )
        .map_err(SnapshotError::Io);
        if result.is_err() {
            self.journal_write_failures.fetch_add(1, Ordering::SeqCst);
        }
        result
    }

    fn snapshot_path(&self, id: u64) -> PathBuf {
        self.config.journal_dir.join(format!("job-{id}.snap"))
    }

    /// Admission control: the only way work enters the daemon.
    fn try_submit(&self, spec: JobSpec) -> Result<u64, StemError> {
        spec.validate()?;
        // Reject unknown samplers at admission (the error names the
        // available registry entries) — a journaled job must never fail
        // at dispatch time for a reason the daemon knew at submit time.
        self.samplers.check(&spec.sampler)?;
        // Same principle for the workload index of a suite-drawn job:
        // listing the suite's sources generates nothing.
        if spec.store.is_none() {
            spec.source()?;
        }
        // And for store-backed jobs: verify the manifest (one
        // small read) and pin its fingerprint to the client's expectation
        // now; dispatch re-verifies every streamed byte.
        if let Some(store) = &spec.store {
            let manifest =
                gpu_workload::open_store(&*self.config.storage, &store.path).map_err(|e| {
                    StemError::InvalidConfig(format!("store {}: {e}", store.path.display()))
                })?;
            if manifest.fingerprint() != store.fingerprint {
                return Err(StemError::InvalidConfig(format!(
                    "store {} manifest fingerprint {:016x} does not match expected {:016x}",
                    store.path.display(),
                    manifest.fingerprint(),
                    store.fingerprint
                )));
            }
        }
        let overload = |scope: &str, depth: usize, hint_mul: u64| StemError::Overloaded {
            scope: scope.to_string(),
            depth,
            retry_after_ms: self.config.retry_after_ms.saturating_mul(hint_mul),
        };
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(overload("shutdown", 0, 4));
        }
        let mut st = lock_unpoisoned(&self.state);
        let depth = st.queue.len();
        if depth >= self.config.queue_capacity {
            return Err(overload("queue", depth, 4));
        }
        if depth >= self.config.high_water {
            return Err(overload("load-shed", depth, 1));
        }
        let tenant_depth = st
            .queue
            .iter()
            .filter(|id| {
                st.jobs
                    .get(*id)
                    .is_some_and(|j| j.spec.tenant == spec.tenant)
            })
            .count();
        if tenant_depth >= self.config.per_tenant_queue_cap {
            return Err(overload(&spec.tenant, tenant_depth, 1));
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(id, Job::new(spec));
        st.queue.push_back(id);
        if let Err(e) = self.persist_journal(&st) {
            // Un-admit: a job the journal cannot record would vanish on
            // restart, breaking the crash-safety contract.
            st.jobs.remove(&id);
            st.queue.pop_back();
            return Err(StemError::Snapshot(e));
        }
        drop(st);
        self.work_ready.notify_all();
        Ok(id)
    }

    /// Tenant-checked job access.
    fn with_job<T>(
        &self,
        tenant: &str,
        id: u64,
        f: impl FnOnce(&mut Job) -> T,
    ) -> Result<T, AccessError> {
        let mut st = lock_unpoisoned(&self.state);
        let Some(job) = st.jobs.get_mut(&id) else {
            return Err(AccessError::UnknownJob);
        };
        if job.spec.tenant != tenant {
            return Err(AccessError::Denied);
        }
        Ok(f(job))
    }

    /// Cooperative cancel: a queued job is withdrawn immediately; a
    /// running one finishes its current unit and stops. Returns the
    /// phase after the request took effect.
    fn cancel_job(&self, tenant: &str, id: u64) -> Result<JobPhase, AccessError> {
        let mut st = lock_unpoisoned(&self.state);
        let state = &mut *st;
        let Some(job) = state.jobs.get_mut(&id) else {
            return Err(AccessError::UnknownJob);
        };
        if job.spec.tenant != tenant {
            return Err(AccessError::Denied);
        }
        job.cancel.store(true, Ordering::SeqCst);
        let phase = match job.phase {
            JobPhase::Queued | JobPhase::Interrupted => {
                job.phase = JobPhase::Cancelled;
                state.queue.retain(|&q| q != id);
                JobPhase::Cancelled
            }
            other => other,
        };
        if phase == JobPhase::Cancelled {
            let _ = self.persist_journal(&st);
        }
        Ok(phase)
    }

    /// Flips the daemon into shutdown: no new admissions, running jobs
    /// cancelled between units (their snapshots keep every completed
    /// unit), workers and the acceptor wake up and exit.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = lock_unpoisoned(&self.state);
            for job in st.jobs.values_mut() {
                if job.phase == JobPhase::Running {
                    job.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
        self.work_ready.notify_all();
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }

    /// One worker: pop, run, apply, repeat.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let Some(id) = self.next_job() else {
                return;
            };
            let (spec, cancel, threads) = {
                let mut st = lock_unpoisoned(&self.state);
                let Some(job) = st.jobs.get_mut(&id) else {
                    continue;
                };
                if job.cancel.load(Ordering::SeqCst) {
                    job.phase = JobPhase::Cancelled;
                    let _ = self.persist_journal(&st);
                    continue;
                }
                job.phase = JobPhase::Running;
                let spec = job.spec.clone();
                let cancel = Arc::clone(&job.cancel);
                st.running += 1;
                // Per-tenant thread carving: split the budget across
                // tenants with live work. Results are thread-count-
                // invariant, so this only shapes latency, never bits.
                let active: BTreeSet<&str> = st
                    .jobs
                    .values()
                    .filter(|j| matches!(j.phase, JobPhase::Queued | JobPhase::Running))
                    .map(|j| j.spec.tenant.as_str())
                    .collect();
                let threads = (self.config.total_threads / active.len().max(1)).max(1);
                (spec, cancel, threads)
            };
            let outcome = self.run_job(id, &spec, threads, Arc::clone(&cancel));
            let backoff = self.apply_outcome(id, &cancel, outcome);
            if let Some(pause) = backoff {
                std::thread::sleep(pause);
                let mut st = lock_unpoisoned(&self.state);
                if let Some(job) = st.jobs.get_mut(&id) {
                    if job.phase == JobPhase::Running {
                        job.phase = JobPhase::Queued;
                        st.queue.push_back(id);
                    }
                }
                drop(st);
                self.work_ready.notify_all();
            }
        }
    }

    /// Blocks until a job is available (respecting pause), or shutdown.
    fn next_job(&self) -> Option<u64> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if !self.paused.load(Ordering::SeqCst) {
                if let Some(id) = st.queue.pop_front() {
                    return Some(id);
                }
            }
            st = match self.work_ready.wait_timeout(st, Duration::from_millis(25)) {
                Ok((g, _)) => g,
                // A poisoned wait hands back the guard of a poisoned
                // mutex: release it and take the lock again, recovered.
                Err(poisoned) => {
                    drop(poisoned);
                    lock_unpoisoned(&self.state)
                }
            };
        }
    }

    /// Runs one job through the campaign engine, resuming from its
    /// snapshot (fresh jobs have none; restarted jobs skip every
    /// completed unit).
    fn run_job(
        &self,
        id: u64,
        spec: &JobSpec,
        threads: usize,
        cancel: Arc<AtomicBool>,
    ) -> Result<stem_core::CampaignReport, StemError> {
        let workload = spec.workload_via(&*self.config.storage)?;
        let mut supervisor = Supervisor::new().with_retry_budget(self.config.unit_retry_budget);
        if let Some(ms) = spec.deadline_ms {
            supervisor = supervisor.with_soft_deadline(Duration::from_millis(ms));
        }
        let mut pipeline = Pipeline::new(Simulator::new(self.config.gpu.clone()))
            .with_reps(spec.reps)?
            .with_seed(spec.seed)
            .with_parallelism(Parallelism::with_threads(threads))
            .with_supervisor(supervisor)
            .with_shared_cache(Arc::clone(&self.cache))
            .with_cancel_flag(cancel)
            .with_storage(Arc::clone(&self.config.storage));
        if let Some(faults) = &self.config.exec_faults {
            pipeline = pipeline.with_exec_faults(faults.clone());
        }
        let sampler = self.samplers.get(&spec.sampler)?;
        pipeline.resume_from(
            sampler.as_ref(),
            std::slice::from_ref(&workload),
            &self.snapshot_path(id),
        )
    }

    /// Applies a finished run to the job record. Returns a backoff pause
    /// when the job should be requeued for a deterministic retry.
    fn apply_outcome(
        &self,
        id: u64,
        cancel: &AtomicBool,
        outcome: Result<stem_core::CampaignReport, StemError>,
    ) -> Option<Duration> {
        let mut st = lock_unpoisoned(&self.state);
        st.running = st.running.saturating_sub(1);
        let config = &self.config;
        let job = st.jobs.get_mut(&id)?;
        let mut backoff = None;
        let mut persist = false;
        match outcome {
            Ok(report) => {
                job.phase = JobPhase::Done;
                job.straggler = !report.exec_log.stragglers.is_empty();
                job.resumed_units = report.resumed_units;
                job.executed_units = report.executed_units;
                job.result = report.summaries.first().map(render_result_payload);
                job.message = None;
            }
            Err(StemError::Interrupted { completed_units }) => {
                job.executed_units = completed_units;
                if cancel.load(Ordering::SeqCst) && !self.shutdown.load(Ordering::SeqCst) {
                    job.phase = JobPhase::Cancelled;
                    persist = true;
                } else if self.shutdown.load(Ordering::SeqCst) {
                    // Checkpointed by the unit snapshots; the journal
                    // keeps the spec, a restart resumes it.
                    job.phase = JobPhase::Queued;
                } else {
                    // Simulated process kill (chaos hook).
                    job.phase = JobPhase::Interrupted;
                }
            }
            Err(e) => {
                job.attempts += 1;
                if job.attempts <= config.job_retry_limit {
                    // Deterministic capped exponential backoff, then
                    // requeue; the retry resumes from the snapshot, so
                    // completed units are never recomputed.
                    let shift = (job.attempts - 1).min(16);
                    let ms = config
                        .backoff_base_ms
                        .saturating_mul(1 << shift)
                        .min(config.backoff_cap_ms);
                    backoff = Some(Duration::from_millis(ms));
                } else {
                    job.phase = JobPhase::Failed;
                    job.message = Some(e.to_string());
                    persist = true;
                }
            }
        }
        if persist {
            // Cancelled / failed jobs leave the journal so a restart
            // never re-runs them.
            let _ = self.persist_journal(&st);
        }
        backoff
    }

    /// One client connection: a bounded, timeout-guarded line loop.
    fn handle_conn(self: Arc<Self>, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_nodelay(true);
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            // Bounded accumulation: a frame longer than the cap is
            // rejected before it is ever buffered whole.
            if buf.len() > self.config.max_line_len {
                let _ = stream.write_all(b"ERR bad-request line too long\n");
                return;
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => return, // EOF (clean close or truncated frame)
                Ok(n) => n,
                Err(_) => return, // timeout (slow-loris) or reset
            };
            buf.extend_from_slice(&chunk[..n]);
            while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                let reply = self.respond(text.trim_end_matches('\r'));
                if stream.write_all(reply.as_bytes()).is_err() {
                    return; // client hung up mid-response
                }
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }

    /// Executes one request line and renders the full reply (newline
    /// terminated; `RESULT` replies carry their multi-line payload).
    fn respond(&self, line: &str) -> String {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(msg) => return format!("ERR bad-request {msg}\n"),
        };
        let access = |e: AccessError| match e {
            AccessError::UnknownJob => "ERR unknown-job\n".to_string(),
            AccessError::Denied => "ERR denied\n".to_string(),
        };
        match request {
            Request::Ping => "OK pong\n".to_string(),
            Request::Submit(spec) => match self.try_submit(spec) {
                Ok(id) => format!("OK job {id}\n"),
                Err(e) => format!("{}\n", render_error(&e)),
            },
            Request::Status { tenant, job } => match self.with_job(&tenant, job, |j| j.status()) {
                Ok(s) => format!(
                    "OK status {} straggler={} resumed={} executed={}\n",
                    s.phase.as_str(),
                    u8::from(s.straggler),
                    s.resumed_units,
                    s.executed_units,
                ),
                Err(e) => access(e),
            },
            Request::Result { tenant, job } => {
                match self.with_job(&tenant, job, |j| (j.phase, j.result.clone())) {
                    Ok((JobPhase::Done, Some(payload))) => format!("OK result\n{payload}"),
                    Ok((phase, _)) => format!("ERR not-ready {}\n", phase.as_str()),
                    Err(e) => access(e),
                }
            }
            Request::Cancel { tenant, job } => match self.cancel_job(&tenant, job) {
                Ok(phase) => format!("OK cancel {}\n", phase.as_str()),
                Err(e) => access(e),
            },
            Request::Shutdown => {
                self.begin_shutdown();
                "OK shutting-down\n".to_string()
            }
        }
    }
}

/// A running daemon. Dropping the handle shuts it down cleanly (running
/// campaigns checkpoint between units and stay resumable).
#[derive(Debug)]
pub struct Server {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts the daemon: validates the config, recovers the journal
    /// (quarantining a corrupt one), re-admits every journaled job, binds
    /// a localhost listener, and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] for bad bounds and
    /// [`StemError::Snapshot`] when the journal directory, journal file,
    /// or listener cannot be set up.
    pub fn start(config: ServeConfig) -> Result<Server, StemError> {
        config.validate()?;
        let storage = Arc::clone(&config.storage);
        storage
            .create_dir_all(&config.journal_dir)
            .map_err(|e| StemError::Snapshot(SnapshotError::Io(e)))?;
        // A crash mid-write (in a previous life of this directory)
        // leaves orphan `*.tmp` files the atomic-write discipline never
        // reads; sweep them before recovery so they cannot accrete.
        let swept_tmp = stem_storage::sweep_tmp_dir(&*storage, &config.journal_dir)
            .map_err(|e| StemError::Snapshot(SnapshotError::Io(e)))?;
        // The fingerprint binds the journal to one daemon identity: the
        // journal format version and the target GPU. A journal written
        // for another GPU must never resume here.
        let fingerprint = fnv1a64(format!("{HEADER};gpu={}", config.gpu.name).as_bytes());
        let journal_path = config.journal_dir.join("serve.journal");
        let (jobs, quarantined) =
            load_journal(&*storage, &journal_path, fingerprint).map_err(StemError::Snapshot)?;
        let re_admitted: Vec<u64> = jobs.keys().copied().collect();
        let next_id = jobs.keys().next_back().map_or(0, |&id| id + 1);
        let queue: VecDeque<u64> = jobs.keys().copied().collect();
        let jobs: BTreeMap<u64, Job> = jobs
            .into_iter()
            .map(|(id, spec)| (id, Job::new(spec)))
            .collect();

        let cache = Arc::new(match config.cache_capacity_per_shard {
            Some(cap) => SimCache::with_capacity(cap),
            None => SimCache::new(),
        });
        let bind_err = |e: &std::io::Error| {
            StemError::Snapshot(SnapshotError::Io(StorageError::new(
                StorageOp::Bind,
                "127.0.0.1:0",
                e.kind(),
                e.to_string(),
            )))
        };
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| bind_err(&e))?;
        let addr = listener.local_addr().map_err(|e| bind_err(&e))?;

        let workers = config.workers;
        let inner = Arc::new(Inner {
            config,
            fingerprint,
            journal_path,
            addr,
            state: Mutex::new(State {
                jobs,
                queue,
                next_id,
                running: 0,
            }),
            work_ready: Condvar::new(),
            cache,
            samplers: Samplers::new(standard_registry()),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            recovery: RecoveryReport {
                re_admitted,
                quarantined,
                swept_tmp,
            },
            journal_write_failures: AtomicU64::new(0),
        });
        // Re-persist immediately so a quarantined journal is replaced by
        // a valid (possibly empty) one before any client arrives. Best
        // effort: on failure the disk still holds either nothing, the
        // quarantined copy (set aside, never re-read), or the previous
        // valid journal with these same jobs — all safe to restart from
        // — and the failure is counted like any other journal write.
        {
            let st = lock_unpoisoned(&inner.state);
            let _ = inner.persist_journal(&st);
        }

        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || inner.worker_loop()));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Ok(stream) = stream {
                        let inner = Arc::clone(&inner);
                        // Handlers are detached: they exit on EOF, on a
                        // read timeout, or right after shutdown flips.
                        std::thread::spawn(move || inner.handle_conn(stream));
                    }
                }
            }));
        }
        Ok(Server {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// The bound listener address (`127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// What `start` recovered from the journal.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.inner.recovery
    }

    /// Journal writes that failed since startup. Nonzero means the
    /// on-disk journal is stale-but-valid (typed degradation): admitted
    /// jobs keep running, and the next successful persist catches the
    /// disk up.
    pub fn journal_write_failures(&self) -> u64 {
        self.inner.journal_write_failures.load(Ordering::SeqCst)
    }

    /// The cross-campaign memo cache: timing cores and ground-truth
    /// totals, shared by every job this daemon runs (hits are pure, so
    /// sharing is tenant-safe).
    pub fn cache(&self) -> &Arc<SimCache> {
        &self.inner.cache
    }

    /// In-process admission (the wire `SUBMIT` calls the same path).
    ///
    /// # Errors
    ///
    /// [`StemError::Overloaded`] when the queue, the shed mark, or the
    /// tenant quota refuses the job; [`StemError::InvalidConfig`] for a
    /// malformed spec; [`StemError::Snapshot`] if journaling it failed.
    pub fn try_submit(&self, spec: JobSpec) -> Result<u64, StemError> {
        self.inner.try_submit(spec)
    }

    /// Tenant-checked job status.
    ///
    /// # Errors
    ///
    /// [`AccessError::UnknownJob`] / [`AccessError::Denied`].
    pub fn status(&self, tenant: &str, job: u64) -> Result<JobStatus, AccessError> {
        self.inner.with_job(tenant, job, |j| j.status())
    }

    /// A completed job's rendered `RESULT` payload (`None` until done).
    ///
    /// # Errors
    ///
    /// [`AccessError::UnknownJob`] / [`AccessError::Denied`].
    pub fn result_payload(&self, tenant: &str, job: u64) -> Result<Option<String>, AccessError> {
        self.inner.with_job(tenant, job, |j| j.result.clone())
    }

    /// Tenant-checked cooperative cancel; returns the phase after the
    /// request took effect.
    ///
    /// # Errors
    ///
    /// [`AccessError::UnknownJob`] / [`AccessError::Denied`].
    pub fn cancel_job(&self, tenant: &str, job: u64) -> Result<JobPhase, AccessError> {
        self.inner.cancel_job(tenant, job)
    }

    /// Stops workers from starting new jobs (admission stays open) —
    /// lets tests fill the queue deterministically.
    pub fn pause_workers(&self) {
        self.inner.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes paused workers.
    pub fn resume_workers(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
    }

    /// Waits until no job is queued or running (or `timeout` expires).
    /// Returns true when the daemon went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let st = lock_unpoisoned(&self.inner.state);
                let settled = st.queue.is_empty()
                    && st.running == 0
                    && st
                        .jobs
                        .values()
                        .all(|j| j.phase.is_terminal() || j.phase == JobPhase::Interrupted);
                if settled {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Blocks until some client issues `SHUTDOWN` over the wire (or
    /// another thread calls [`Server::shutdown`]), then joins the daemon
    /// threads — the daemon binary's main loop.
    pub fn shutdown_on_request(&self) {
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Clean shutdown: cancel running campaigns between units (their
    /// snapshots hold every completed unit), keep the journal, join all
    /// daemon threads. Idempotent.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
        let handles: Vec<JoinHandle<()>> = { lock_unpoisoned(&self.threads).drain(..).collect() };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
