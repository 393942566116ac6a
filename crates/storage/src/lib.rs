//! Durable-write substrate: every file the workspace must not lose —
//! campaign snapshots, the serve journal, committed bench outputs — goes
//! through the [`Storage`] trait here instead of calling `std::fs`
//! directly. One implementation is the real filesystem ([`RealFs`]); the
//! chaos crate (`gpu-profile`) provides a fault-injecting one, so every
//! durability path can be driven through torn writes, ENOSPC, rename
//! failure, fsync failure, and crash-at-syscall-boundary in tests.
//!
//! # The atomic-write discipline
//!
//! [`write_atomic`] is the only way a durable file is ever replaced:
//!
//! 1. write the full content to a sibling `<path>.tmp`;
//! 2. `fsync` the tmp file, so its bytes are on the platter before the
//!    rename can make them visible;
//! 3. `rename` the tmp file over the target (atomic on POSIX);
//! 4. best-effort `fsync` of the parent directory, so the rename itself
//!    survives power loss.
//!
//! A crash before step 3 leaves the previous file intact plus an orphan
//! tmp file (swept by [`sweep_tmp_sibling`] / [`sweep_tmp_dir`] on the
//! next start); a crash after step 3 leaves the new file. No boundary
//! leaves a torn target.
//!
//! **Caveat:** step 4 is best-effort because some filesystems (and most
//! non-Unix platforms) cannot fsync a directory handle. Until the dir
//! entry is durable, a power loss can re-expose the *previous* complete
//! file — which every reader of these formats (checksummed, resumable
//! snapshots) already handles — but never a torn one.
//!
//! # Quarantine
//!
//! A durable file that fails validation is never trusted and never
//! deleted: [`quarantine`] renames it to the first free
//! `<path>.quarantined[.N]` name, so repeated corruption keeps every
//! piece of evidence instead of silently overwriting the last one.
//!
//! The record-holding text formats (campaign snapshot, serve journal,
//! colstore manifest) share one checksummed container, [`sealed`].

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod sealed;

/// Which storage operation failed — part of every [`StorageError`], so a
/// log line or campaign report names the exact syscall boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageOp {
    /// `create_dir_all` on a journal/snapshot directory.
    CreateDir,
    /// Reading a durable file into memory.
    Read,
    /// Writing a file's bytes (the tmp side of an atomic replace).
    Write,
    /// `fsync` of a file's contents.
    SyncFile,
    /// Atomic `rename` of a tmp file over its target (or a quarantine).
    Rename,
    /// `fsync` of a directory entry (making a rename durable).
    SyncDir,
    /// Removing an orphan file (the tmp sweep).
    Remove,
    /// Listing a directory (the tmp sweep's discovery pass).
    List,
    /// Binding a daemon's listener — not a file operation, but reported
    /// through the same typed channel so serve setup errors stay uniform.
    Bind,
}

impl StorageOp {
    /// Stable lowercase name (`write`, `rename`, `sync-file`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            StorageOp::CreateDir => "create-dir",
            StorageOp::Read => "read",
            StorageOp::Write => "write",
            StorageOp::SyncFile => "sync-file",
            StorageOp::Rename => "rename",
            StorageOp::SyncDir => "sync-dir",
            StorageOp::Remove => "remove",
            StorageOp::List => "list",
            StorageOp::Bind => "bind",
        }
    }
}

impl std::fmt::Display for StorageOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failed storage operation with full context: which operation, on
/// which path, with the underlying `io::ErrorKind` preserved so callers
/// can still branch on `NotFound` / `StorageFull` after stringification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError {
    /// The operation that failed.
    pub op: StorageOp,
    /// The path it failed on (for [`StorageOp::Rename`], the source).
    pub path: PathBuf,
    /// The underlying error class.
    pub kind: io::ErrorKind,
    /// The underlying error text.
    pub message: String,
}

impl StorageError {
    /// Builds an error with explicit fields (fault injectors and the
    /// serve listener use this; filesystem code prefers
    /// [`StorageError::from_io`]).
    pub fn new(
        op: StorageOp,
        path: impl Into<PathBuf>,
        kind: io::ErrorKind,
        message: impl Into<String>,
    ) -> Self {
        StorageError {
            op,
            path: path.into(),
            kind,
            message: message.into(),
        }
    }

    /// Wraps an `io::Error`, attaching the operation and path it lacks.
    pub fn from_io(op: StorageOp, path: impl Into<PathBuf>, err: &io::Error) -> Self {
        StorageError {
            op,
            path: path.into(),
            kind: err.kind(),
            message: err.to_string(),
        }
    }

    /// True when the path simply did not exist (a missing snapshot or
    /// journal is a fresh start, not a failure).
    pub fn is_not_found(&self) -> bool {
        self.kind == io::ErrorKind::NotFound
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.message)
    }
}

impl std::error::Error for StorageError {}

/// The durable-write surface. Implementations attach [`StorageOp`] and
/// path context to every failure; [`RealFs`] is the production one, the
/// chaos crate's `FaultFs` the adversarial one.
///
/// All methods take `&self`: implementations must be safe to share
/// across the worker threads of a campaign or daemon.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Reads a whole file as raw bytes. Text formats are read this way
    /// too, so a byte that is not UTF-8 reaches their parser as a typed
    /// rejection instead of failing the read.
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::Read`]; a missing file
    /// reports `kind == NotFound` (see [`StorageError::is_not_found`]).
    fn read_bytes(&self, path: &Path) -> Result<Vec<u8>, StorageError>;

    /// Writes `bytes` to `path`, creating or truncating it.
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::Write`].
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError>;

    /// Forces a file's contents to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::SyncFile`].
    fn sync_file(&self, path: &Path) -> Result<(), StorageError>;

    /// Atomically renames `from` onto `to` (POSIX `rename` semantics:
    /// replaces an existing `to`).
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::Rename`].
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError>;

    /// Forces the directory entry containing `path` to stable storage,
    /// making a preceding rename durable.
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::SyncDir`]. Callers treat
    /// this as best-effort — see the crate docs for the caveat.
    fn sync_parent_dir(&self, path: &Path) -> Result<(), StorageError>;

    /// Removes a file (the tmp sweep; never used on durable targets).
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::Remove`].
    fn remove_file(&self, path: &Path) -> Result<(), StorageError>;

    /// Creates a directory and all missing parents.
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::CreateDir`].
    fn create_dir_all(&self, path: &Path) -> Result<(), StorageError>;

    /// Lists the entries of a directory, sorted for determinism.
    ///
    /// # Errors
    ///
    /// [`StorageError`] with op [`StorageOp::List`].
    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError>;

    /// Whether a path currently exists (metadata probe; never injected
    /// with faults — quarantine uniquification must be able to trust it).
    fn exists(&self, path: &Path) -> bool;
}

/// The production [`Storage`]: plain `std::fs`, with real `fsync`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealFs;

impl Storage for RealFs {
    fn read_bytes(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        fs::read(path).map_err(|e| StorageError::from_io(StorageOp::Read, path, &e))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        fs::write(path, bytes).map_err(|e| StorageError::from_io(StorageOp::Write, path, &e))
    }

    fn sync_file(&self, path: &Path) -> Result<(), StorageError> {
        let wrap = |e: &io::Error| StorageError::from_io(StorageOp::SyncFile, path, e);
        let file = fs::File::open(path).map_err(|e| wrap(&e))?;
        file.sync_all().map_err(|e| wrap(&e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        fs::rename(from, to).map_err(|e| StorageError::from_io(StorageOp::Rename, from, &e))
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<(), StorageError> {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            // A bare file name lives in the CWD; "." is always openable.
            _ => Path::new("."),
        };
        let wrap = |e: &io::Error| StorageError::from_io(StorageOp::SyncDir, parent, e);
        let dir = fs::File::open(parent).map_err(|e| wrap(&e))?;
        dir.sync_all().map_err(|e| wrap(&e))
    }

    fn remove_file(&self, path: &Path) -> Result<(), StorageError> {
        fs::remove_file(path).map_err(|e| StorageError::from_io(StorageOp::Remove, path, &e))
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), StorageError> {
        fs::create_dir_all(path).map_err(|e| StorageError::from_io(StorageOp::CreateDir, path, &e))
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        let wrap = |e: &io::Error| StorageError::from_io(StorageOp::List, dir, e);
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| wrap(&e))? {
            out.push(entry.map_err(|e| wrap(&e))?.path());
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// Appends a suffix to a path's file name (`foo.snap` → `foo.snap.tmp`).
pub fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Atomically replaces `path` with `text` under the crate's durability
/// discipline: tmp write → tmp `fsync` → `rename` → best-effort parent
/// directory `fsync`. A crash at any boundary leaves either the previous
/// complete file or the new one, never a torn target (see crate docs for
/// the directory-sync caveat).
///
/// # Errors
///
/// Any [`StorageError`] from the write, file sync, or rename. A failed
/// directory sync is swallowed: it can delay durability of the rename,
/// never corrupt it.
pub fn write_atomic(storage: &dyn Storage, path: &Path, text: &str) -> Result<(), StorageError> {
    write_atomic_bytes(storage, path, text.as_bytes())
}

/// Binary counterpart of [`write_atomic`]: the same tmp → fsync →
/// rename → parent-sync discipline over raw bytes (columnar block
/// files are binary).
///
/// # Errors
///
/// Same as [`write_atomic`].
pub fn write_atomic_bytes(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
) -> Result<(), StorageError> {
    let tmp = sibling(path, ".tmp");
    storage.write(&tmp, bytes)?;
    storage.sync_file(&tmp)?;
    storage.rename(&tmp, path)?;
    let _ = storage.sync_parent_dir(path);
    Ok(())
}

/// Moves a rejected durable file aside, never deleting evidence and
/// never overwriting earlier evidence: the target is the first free name
/// among `<path>.quarantined`, `<path>.quarantined.1`,
/// `<path>.quarantined.2`, ... Returns where the file went.
///
/// # Errors
///
/// [`StorageError`] from the rename.
pub fn quarantine(storage: &dyn Storage, path: &Path) -> Result<PathBuf, StorageError> {
    let mut target = sibling(path, ".quarantined");
    let mut n: u64 = 0;
    while storage.exists(&target) {
        n += 1;
        target = sibling(path, &format!(".quarantined.{n}"));
    }
    storage.rename(path, &target)?;
    Ok(target)
}

/// Sweeps the orphan `<path>.tmp` a crash mid-write can leave beside a
/// single durable file (used by campaign resume, which owns one snapshot
/// path, not a directory). Returns the removed path, if one existed.
///
/// # Errors
///
/// [`StorageError`] from the removal.
pub fn sweep_tmp_sibling(
    storage: &dyn Storage,
    path: &Path,
) -> Result<Option<PathBuf>, StorageError> {
    let tmp = sibling(path, ".tmp");
    if !storage.exists(&tmp) {
        return Ok(None);
    }
    storage.remove_file(&tmp)?;
    Ok(Some(tmp))
}

/// Sweeps every orphan `*.tmp` in a directory owned by one daemon (the
/// serve journal dir holds the journal and every per-job snapshot, so
/// startup can clear all of them at once). Returns the removed paths in
/// sorted order.
///
/// # Errors
///
/// [`StorageError`] from the listing or a removal. A missing directory
/// sweeps nothing.
pub fn sweep_tmp_dir(storage: &dyn Storage, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
    let entries = match storage.list_dir(dir) {
        Err(e) if e.is_not_found() => return Ok(Vec::new()),
        other => other?,
    };
    let mut swept = Vec::new();
    for path in entries {
        if path.extension().is_some_and(|ext| ext == "tmp") {
            storage.remove_file(&path)?;
            swept.push(path);
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stem-storage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn write_atomic_replaces_and_cleans_tmp() {
        let dir = scratch("atomic");
        let path = dir.join("file.snap");
        write_atomic(&RealFs, &path, "first\n").expect("write");
        write_atomic(&RealFs, &path, "second\n").expect("rewrite");
        assert_eq!(fs::read_to_string(&path).expect("read"), "second\n");
        assert!(
            !RealFs.exists(&sibling(&path, ".tmp")),
            "tmp must be renamed away"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_uniquifies_instead_of_overwriting() {
        let dir = scratch("quarantine");
        let path = dir.join("file.snap");
        for round in 0..3 {
            RealFs
                .write(&path, format!("evidence {round}\n").as_bytes())
                .expect("write");
            quarantine(&RealFs, &path).expect("quarantine");
        }
        let q0 = sibling(&path, ".quarantined");
        let q1 = sibling(&path, ".quarantined.1");
        let q2 = sibling(&path, ".quarantined.2");
        assert_eq!(fs::read_to_string(&q0).expect("q0"), "evidence 0\n");
        assert_eq!(fs::read_to_string(&q1).expect("q1"), "evidence 1\n");
        assert_eq!(fs::read_to_string(&q2).expect("q2"), "evidence 2\n");
        assert!(!RealFs.exists(&path));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweeps_remove_only_tmp_orphans() {
        let dir = scratch("sweep");
        let snap = dir.join("job.snap");
        RealFs.write(&snap, b"keep\n").expect("write");
        RealFs
            .write(&sibling(&snap, ".tmp"), b"orphan\n")
            .expect("write");
        RealFs
            .write(&dir.join("serve.journal.tmp"), b"orphan\n")
            .expect("write");

        let one = sweep_tmp_sibling(&RealFs, &snap).expect("sibling sweep");
        assert_eq!(one, Some(sibling(&snap, ".tmp")));
        assert_eq!(sweep_tmp_sibling(&RealFs, &snap).expect("idempotent"), None);

        let many = sweep_tmp_dir(&RealFs, &dir).expect("dir sweep");
        assert_eq!(many, vec![dir.join("serve.journal.tmp")]);
        assert!(RealFs.exists(&snap), "durable files are never swept");
        assert!(sweep_tmp_dir(&RealFs, &dir.join("missing"))
            .expect("missing dir")
            .is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_carry_operation_and_path() {
        // ENOSPC rendering: the op and path survive stringification.
        let enospc = StorageError::new(
            StorageOp::Write,
            "/var/run/stem/campaign.snap.tmp",
            io::ErrorKind::StorageFull,
            "No space left on device (injected ENOSPC)",
        );
        let text = enospc.to_string();
        assert!(
            text.starts_with("write /var/run/stem/campaign.snap.tmp:"),
            "{text}"
        );
        assert!(text.contains("No space left"), "{text}");
        assert_eq!(enospc.kind, io::ErrorKind::StorageFull);

        // Rename-failure rendering: a real failed rename names the source.
        let dir = scratch("errors");
        let missing = dir.join("missing.tmp");
        let err = RealFs
            .rename(&missing, &dir.join("target"))
            .expect_err("missing source");
        assert_eq!(err.op, StorageOp::Rename);
        assert_eq!(err.path, missing);
        assert!(err.is_not_found());
        let rendered = err.to_string();
        assert!(rendered.starts_with("rename "), "{rendered}");
        assert!(rendered.contains("missing.tmp"), "{rendered}");

        // Read on a missing path is the fresh-start signal.
        let err = RealFs
            .read_bytes(&dir.join("absent"))
            .expect_err("missing file");
        assert_eq!(err.op, StorageOp::Read);
        assert!(err.is_not_found());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_lists_sorted_and_syncs() {
        let dir = scratch("list");
        RealFs.write(&dir.join("b"), b"b").expect("write");
        RealFs.write(&dir.join("a"), b"a").expect("write");
        let listed = RealFs.list_dir(&dir).expect("list");
        assert_eq!(listed, vec![dir.join("a"), dir.join("b")]);
        RealFs.sync_file(&dir.join("a")).expect("file sync");
        RealFs.sync_parent_dir(&dir.join("a")).expect("dir sync");
        let _ = fs::remove_dir_all(&dir);
    }
}
