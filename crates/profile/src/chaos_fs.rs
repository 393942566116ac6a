//! Storage-fault injection: the filesystem counterpart of
//! [`FaultPlan`](crate::FaultPlan) / [`ExecFaultPlan`](crate::ExecFaultPlan)
//! / [`WireFaultPlan`](crate::WireFaultPlan). [`FaultFs`] wraps the real
//! filesystem behind the [`Storage`] trait and injects the failure modes
//! a durable-write path must survive:
//!
//! * **torn writes** — a seeded prefix of the bytes lands, then the
//!   write errors (power loss mid-`write(2)`);
//! * **short writes** — a block-aligned prefix lands (a partially
//!   flushed page cache);
//! * **ENOSPC** — nothing lands, `StorageFull` (a full disk);
//! * **rename failure** — the atomic commit itself errors, leaving the
//!   tmp file behind;
//! * **fsync failure** — durability cannot be promised (`fsync` returning
//!   `EIO`, the "fsyncgate" failure mode);
//! * **crash-at-syscall-boundary** — at a chosen mutating-operation
//!   index the process "dies": the op (optionally) tears, every later
//!   mutating op fails fast like a yanked disk, and only a restart with
//!   a fresh storage handle recovers.
//!
//! Probabilistic faults draw from `(plan seed, fault position, op
//! index)` — the same decorrelated keying as every other chaos plan — so
//! a storage chaos session replays byte-identically.
//!
//! The wrapper performs no path remapping: tests point it at scratch
//! directories, exactly like [`RealFs`]. Every *mutating* operation
//! (everything except reads, listings, and existence probes) is recorded
//! in a census, which is how the crash-point explorer in
//! `tests/storage_chaos.rs` enumerates the syscall boundaries of a run
//! before replaying a crash at each one.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use stem_par::lock_unpoisoned;
use stem_stats::rng::RngExt;
use stem_storage::{RealFs, Storage, StorageError, StorageOp};

use crate::chaos::KeyedPlan;

/// One storage fault class with its firing probability per eligible
/// operation. `fraction` is clamped to `[0, 1]` at draw time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageFault {
    /// A write lands only a seeded prefix of its bytes, then errors —
    /// the on-disk file is torn mid-record.
    TornWrite {
        /// Probability that an eligible write tears.
        fraction: f64,
    },
    /// A write lands a 512-byte-aligned prefix (possibly zero blocks),
    /// then errors — a partially flushed page cache.
    ShortWrite {
        /// Probability that an eligible write is cut short.
        fraction: f64,
    },
    /// A write fails with `StorageFull` before any byte lands.
    Enospc {
        /// Probability that an eligible write hits the full disk.
        fraction: f64,
    },
    /// A rename fails with no effect — the atomic commit never happens
    /// and the tmp file stays behind.
    RenameFail {
        /// Probability that an eligible rename fails.
        fraction: f64,
    },
    /// A file or directory `fsync` fails — durability is not promised.
    FsyncFail {
        /// Probability that an eligible sync fails.
        fraction: f64,
    },
}

impl StorageFault {
    /// Stable class label for sweep diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            StorageFault::TornWrite { .. } => "torn-write",
            StorageFault::ShortWrite { .. } => "short-write",
            StorageFault::Enospc { .. } => "enospc",
            StorageFault::RenameFail { .. } => "rename-fail",
            StorageFault::FsyncFail { .. } => "fsync-fail",
        }
    }
}

/// Storage faults — the chaos counterpart of [`FaultPlan`](crate::FaultPlan)
/// for the [`Storage`] layer. Decisions derive from `(plan seed, fault
/// position, operation index)`, so two runs issuing the same operation
/// sequence see identical injections.
pub type StorageFaultPlan = KeyedPlan<StorageFault>;

impl StorageFaultPlan {
    /// One moderate-severity representative plan per storage fault
    /// class, in a stable order — the sweep axis of
    /// `tests/storage_chaos.rs`.
    pub fn all_classes(seed: u64) -> Vec<StorageFaultPlan> {
        [
            StorageFault::TornWrite { fraction: 0.25 },
            StorageFault::ShortWrite { fraction: 0.25 },
            StorageFault::Enospc { fraction: 0.25 },
            StorageFault::RenameFail { fraction: 0.25 },
            StorageFault::FsyncFail { fraction: 0.25 },
        ]
        .into_iter()
        .map(|f| StorageFaultPlan::single(seed, f))
        .collect()
    }
}

/// What an injected crash does to the operation it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The process dies *before* the operation takes any effect.
    Before,
    /// A write lands a seeded prefix first (torn), then the process
    /// dies; non-write operations behave like [`CrashMode::Before`].
    Torn,
}

/// One recorded mutating operation — an entry of the [`FaultFs`] census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallRecord {
    /// Zero-based index in the run's mutating-operation sequence.
    pub index: u64,
    /// Which operation it was.
    pub op: StorageOp,
    /// The path it targeted (for renames, the source).
    pub path: PathBuf,
}

/// A fault-injecting [`Storage`] over the real filesystem. See the
/// module docs for the fault classes and crash semantics.
#[derive(Debug)]
pub struct FaultFs {
    plan: StorageFaultPlan,
    crash_at: Option<(u64, CrashMode)>,
    ops: AtomicU64,
    injected: AtomicU64,
    crashed: AtomicBool,
    census: Mutex<Vec<SyscallRecord>>,
}

impl FaultFs {
    /// A pass-through instance (no probabilistic faults, no crash) that
    /// still counts and records every mutating operation — the census
    /// pass of the crash-point explorer.
    pub fn new(seed: u64) -> Self {
        FaultFs::with_plan(StorageFaultPlan::new(seed))
    }

    /// An instance injecting `plan`'s probabilistic faults.
    pub fn with_plan(plan: StorageFaultPlan) -> Self {
        FaultFs {
            plan,
            crash_at: None,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            census: Mutex::new(Vec::new()),
        }
    }

    /// Arms a crash at mutating-operation index `at` (zero-based, as
    /// counted by [`FaultFs::ops`]): the operation applies `mode`, the
    /// instance flips to crashed, and every later mutating operation
    /// fails fast — a yanked disk. Reads keep working (the page cache of
    /// a dying process is not the failure being modeled; recovery always
    /// happens through a fresh storage handle anyway).
    pub fn with_crash_at(mut self, at: u64, mode: CrashMode) -> Self {
        self.crash_at = Some((at, mode));
        self
    }

    /// Mutating operations issued so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Probabilistic faults injected so far (crashes not included).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Whether the armed crash has fired.
    #[cfg(test)]
    fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The census of mutating operations, in issue order.
    pub fn census(&self) -> Vec<SyscallRecord> {
        lock_unpoisoned(&self.census).clone()
    }

    /// Admits one mutating operation: fails fast if the disk is dead,
    /// otherwise assigns the next census index. Returns the index and
    /// whether the armed crash fires *on this operation*.
    fn begin(&self, op: StorageOp, path: &Path) -> Result<(u64, bool), StorageError> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(StorageError::new(
                op,
                path,
                io::ErrorKind::Other,
                "storage unavailable after injected crash",
            ));
        }
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        lock_unpoisoned(&self.census).push(SyscallRecord {
            index,
            op,
            path: path.to_path_buf(),
        });
        let fires = match self.crash_at {
            Some((at, _)) if at == index => {
                self.crashed.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        };
        Ok((index, fires))
    }

    fn crash_error(&self, op: StorageOp, path: &Path, index: u64) -> StorageError {
        StorageError::new(
            op,
            path,
            io::ErrorKind::Other,
            format!("injected crash at syscall boundary {index}"),
        )
    }

    /// Draws the first firing fault among the plan's faults eligible for
    /// `op`, bumping the injection counter.
    fn draw(&self, op: StorageOp, index: u64) -> Option<StorageFault> {
        for (pos, fault) in self.plan.faults().iter().enumerate() {
            let eligible = match fault {
                StorageFault::TornWrite { .. }
                | StorageFault::ShortWrite { .. }
                | StorageFault::Enospc { .. } => op == StorageOp::Write,
                StorageFault::RenameFail { .. } => op == StorageOp::Rename,
                StorageFault::FsyncFail { .. } => {
                    matches!(op, StorageOp::SyncFile | StorageOp::SyncDir)
                }
            };
            if !eligible {
                continue;
            }
            let fraction = match *fault {
                StorageFault::TornWrite { fraction }
                | StorageFault::ShortWrite { fraction }
                | StorageFault::Enospc { fraction }
                | StorageFault::RenameFail { fraction }
                | StorageFault::FsyncFail { fraction } => fraction.clamp(0.0, 1.0),
            };
            let mut rng = self.plan.indexed_rng(pos, index);
            if rng.random_bool(fraction) {
                self.injected.fetch_add(1, Ordering::SeqCst);
                return Some(*fault);
            }
        }
        None
    }

    /// A seeded torn-write prefix length: at least one byte short of the
    /// full payload (an actually-complete "torn" write would not tear).
    fn torn_len(&self, index: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        // Key the cut independently of the fault position so crash-mode
        // tears (which have no position) draw from the same stream.
        let mut rng = self.plan.indexed_rng(usize::MAX, index);
        rng.random_range(0..len as u64) as usize
    }
}

impl Storage for FaultFs {
    fn read_bytes(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        RealFs.read_bytes(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let (index, crash) = self.begin(StorageOp::Write, path)?;
        if crash {
            if self
                .crash_at
                .is_some_and(|(_, mode)| mode == CrashMode::Torn)
            {
                let cut = self.torn_len(index, bytes.len());
                let _ = RealFs.write(path, &bytes[..cut]);
            }
            return Err(self.crash_error(StorageOp::Write, path, index));
        }
        match self.draw(StorageOp::Write, index) {
            Some(StorageFault::TornWrite { .. }) => {
                let cut = self.torn_len(index, bytes.len());
                let _ = RealFs.write(path, &bytes[..cut]);
                Err(StorageError::new(
                    StorageOp::Write,
                    path,
                    io::ErrorKind::Other,
                    format!(
                        "injected torn write ({cut} of {} bytes landed)",
                        bytes.len()
                    ),
                ))
            }
            Some(StorageFault::ShortWrite { .. }) => {
                let cut = (self.torn_len(index, bytes.len()) / 512) * 512;
                let _ = RealFs.write(path, &bytes[..cut]);
                Err(StorageError::new(
                    StorageOp::Write,
                    path,
                    io::ErrorKind::Other,
                    format!(
                        "injected short write ({cut} of {} bytes landed)",
                        bytes.len()
                    ),
                ))
            }
            Some(StorageFault::Enospc { .. }) => Err(StorageError::new(
                StorageOp::Write,
                path,
                io::ErrorKind::StorageFull,
                "No space left on device (injected ENOSPC)",
            )),
            _ => RealFs.write(path, bytes),
        }
    }

    fn sync_file(&self, path: &Path) -> Result<(), StorageError> {
        let (index, crash) = self.begin(StorageOp::SyncFile, path)?;
        if crash {
            return Err(self.crash_error(StorageOp::SyncFile, path, index));
        }
        match self.draw(StorageOp::SyncFile, index) {
            Some(_) => Err(StorageError::new(
                StorageOp::SyncFile,
                path,
                io::ErrorKind::Other,
                "injected fsync failure",
            )),
            None => RealFs.sync_file(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        let (index, crash) = self.begin(StorageOp::Rename, from)?;
        if crash {
            return Err(self.crash_error(StorageOp::Rename, from, index));
        }
        match self.draw(StorageOp::Rename, index) {
            Some(_) => Err(StorageError::new(
                StorageOp::Rename,
                from,
                io::ErrorKind::Other,
                "injected rename failure",
            )),
            None => RealFs.rename(from, to),
        }
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<(), StorageError> {
        let (index, crash) = self.begin(StorageOp::SyncDir, path)?;
        if crash {
            return Err(self.crash_error(StorageOp::SyncDir, path, index));
        }
        match self.draw(StorageOp::SyncDir, index) {
            Some(_) => Err(StorageError::new(
                StorageOp::SyncDir,
                path,
                io::ErrorKind::Other,
                "injected fsync failure",
            )),
            None => RealFs.sync_parent_dir(path),
        }
    }

    fn remove_file(&self, path: &Path) -> Result<(), StorageError> {
        let (index, crash) = self.begin(StorageOp::Remove, path)?;
        if crash {
            return Err(self.crash_error(StorageOp::Remove, path, index));
        }
        RealFs.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), StorageError> {
        let (index, crash) = self.begin(StorageOp::CreateDir, path)?;
        if crash {
            return Err(self.crash_error(StorageOp::CreateDir, path, index));
        }
        RealFs.create_dir_all(path)
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        RealFs.list_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stem-chaos-fs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn storage_plan_draws_are_pinned() {
        // A digest of the first draws of every (seed, fault position,
        // operation index) stream, computed before the three plan types
        // became one: the shared keying must draw the same bits. Position
        // `usize::MAX` is the crash-point stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seed in [0u64, 7, 0xC0FFEE] {
            let plan = StorageFaultPlan::new(seed);
            for pos in [0usize, 1, 4, usize::MAX] {
                for index in 0..16u64 {
                    let mut rng = plan.indexed_rng(pos, index);
                    for _ in 0..2 {
                        h = (h ^ stem_stats::rng::RngCore::next_u64(&mut rng))
                            .wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(h, 0xae6f_d6f0_4e8c_efc3);
    }

    #[test]
    fn pass_through_counts_a_census() {
        let dir = scratch("census");
        let fs_ = FaultFs::new(7);
        let path = dir.join("file");
        stem_storage::write_atomic(&fs_, &path, "hello\n").expect("clean write");
        // write + sync-file + rename + sync-dir = 4 mutating ops.
        assert_eq!(fs_.ops(), 4);
        assert_eq!(fs_.injected(), 0);
        assert!(!fs_.crashed());
        let ops: Vec<StorageOp> = fs_.census().iter().map(|r| r.op).collect();
        assert_eq!(
            ops,
            vec![
                StorageOp::Write,
                StorageOp::SyncFile,
                StorageOp::Rename,
                StorageOp::SyncDir
            ]
        );
        assert_eq!(fs_.census()[0].path, stem_storage::sibling(&path, ".tmp"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_tears_then_kills_the_disk() {
        let dir = scratch("crash");
        let fs_ = FaultFs::new(11).with_crash_at(0, CrashMode::Torn);
        let path = dir.join("file");
        let err = fs_.write(&path, b"0123456789").expect_err("crash fires");
        assert!(
            err.message.contains("injected crash at syscall boundary 0"),
            "{err}"
        );
        assert!(fs_.crashed());
        let torn = fs::read(&path).expect("prefix landed");
        assert!(torn.len() < 10, "torn prefix must be short of the payload");
        assert_eq!(&torn[..], &b"0123456789"[..torn.len()]);
        // Dead disk: every later mutating op fails, reads still work.
        let err = fs_.write(&dir.join("other"), b"x").expect_err("dead disk");
        assert!(err.message.contains("storage unavailable"), "{err}");
        assert!(fs_.list_dir(&dir).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_has_no_effect_on_the_target() {
        let dir = scratch("crash-before");
        let path = dir.join("file");
        RealFs.write(&path, b"previous").expect("seed file");
        let fs_ = FaultFs::new(11).with_crash_at(0, CrashMode::Before);
        let err = fs_.write(&path, b"replacement").expect_err("crash fires");
        assert_eq!(err.op, StorageOp::Write);
        assert_eq!(fs::read(&path).expect("unchanged"), b"previous");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_are_deterministic_and_typed() {
        let dir = scratch("faults");
        let run = |plan: StorageFaultPlan| {
            let fs_ = FaultFs::with_plan(plan);
            let mut log = Vec::new();
            for i in 0..40 {
                let r = fs_.write(&dir.join(format!("f{i}")), b"payload bytes here");
                log.push(r.err().map(|e| e.message));
            }
            (log, fs_.injected())
        };
        let plan = StorageFaultPlan::single(5, StorageFault::Enospc { fraction: 0.3 });
        let (a, inj_a) = run(plan.clone());
        let (b, inj_b) = run(plan);
        assert_eq!(a, b, "same plan, same op sequence, same injections");
        assert!(inj_a > 0, "a 30% fault must fire in 40 ops");
        assert_eq!(inj_a, inj_b);
        let enospc = a.iter().flatten().next().expect("at least one failure");
        assert!(enospc.contains("No space left"), "{enospc}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_class_targets_its_own_operation() {
        let dir = scratch("classes");
        let seed = 9;
        for plan in StorageFaultPlan::all_classes(seed) {
            let label = plan.faults()[0].label();
            let always = match plan.faults()[0] {
                StorageFault::TornWrite { .. } => StorageFault::TornWrite { fraction: 1.0 },
                StorageFault::ShortWrite { .. } => StorageFault::ShortWrite { fraction: 1.0 },
                StorageFault::Enospc { .. } => StorageFault::Enospc { fraction: 1.0 },
                StorageFault::RenameFail { .. } => StorageFault::RenameFail { fraction: 1.0 },
                StorageFault::FsyncFail { .. } => StorageFault::FsyncFail { fraction: 1.0 },
            };
            let fs_ = FaultFs::with_plan(StorageFaultPlan::single(seed, always));
            let wpath = dir.join(format!("{label}.w"));
            let rsrc = dir.join(format!("{label}.r"));
            let spath = dir.join(format!("{label}.s"));
            RealFs.write(&rsrc, b"seed").expect("seed rename source");
            RealFs.write(&spath, b"seed").expect("seed sync target");
            let write_fails = fs_.write(&wpath, b"abcdefgh").is_err();
            let rename_fails = fs_
                .rename(&rsrc, &dir.join(format!("{label}.renamed")))
                .is_err();
            let sync_fails = fs_.sync_file(&spath).is_err();
            match always {
                StorageFault::TornWrite { .. }
                | StorageFault::ShortWrite { .. }
                | StorageFault::Enospc { .. } => {
                    assert!(write_fails && !rename_fails && !sync_fails, "{label}");
                }
                StorageFault::RenameFail { .. } => {
                    assert!(!write_fails && rename_fails && !sync_fails, "{label}");
                }
                StorageFault::FsyncFail { .. } => {
                    assert!(!write_fails && !rename_fails && sync_fails, "{label}");
                }
            }
            assert!(fs_.injected() > 0, "{label}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_failure_leaves_tmp_behind_for_the_sweep() {
        let dir = scratch("rename");
        let plan = StorageFaultPlan::single(3, StorageFault::RenameFail { fraction: 1.0 });
        let fs_ = FaultFs::with_plan(plan);
        let path = dir.join("file.snap");
        let err = stem_storage::write_atomic(&fs_, &path, "content\n").expect_err("rename fails");
        assert_eq!(err.op, StorageOp::Rename);
        assert!(!fs_.exists(&path), "commit never happened");
        assert!(
            fs_.exists(&stem_storage::sibling(&path, ".tmp")),
            "tmp orphan remains"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
