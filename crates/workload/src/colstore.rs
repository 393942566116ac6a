//! `stem-colstore`: an out-of-core columnar store for invocation streams.
//!
//! A store is a directory holding fixed-width binary column blocks plus a
//! plain-text manifest, committed through the `stem-storage` durability
//! contract (`write_atomic` for every file, manifest last — the manifest
//! rename is the commit point, so a crash mid-write leaves either no
//! store or a complete one, never a torn one).
//!
//! # Block format (`block-NNNNN.col`)
//!
//! Column-major, little-endian, no header (the manifest carries all
//! metadata): for `rows` invocations,
//!
//! ```text
//! kernel id     u32 × rows
//! context id    u16 × rows
//! work bits     u32 × rows   (f32 work_scale, by bit pattern)
//! noise bits    u32 × rows   (f32 noise_z,   by bit pattern)
//! ```
//!
//! 14 bytes per row. Blocks are ~64K rows ([`DEFAULT_BLOCK_LEN`]), so one
//! block is ~900 KiB — the unit of streaming I/O and of pipelined
//! simulation.
//!
//! # Manifest (`manifest.txt`)
//!
//! A sealed file (`stem_storage::sealed`; DESIGN.md §14, "Sealed files")
//! under the header `STEM-COLSTORE v1`. Its record lines:
//!
//! ```text
//! block_len 65536
//! invocations 11600000
//! fingerprint 6b1c3f09a2...      ; Workload::fingerprint of the stream
//! tables 42
//! <42 lines: the skeleton workload in the io.rs v1 text format>
//! end_tables
//! block 0 65536 917504 9d41a2...  ; index, rows, bytes, FNV-1a of file
//! block 1 65536 917504 77120c...
//! ```
//!
//! The whole-stream `fingerprint` is the same FNV-1a fold as
//! [`Workload::fingerprint`](crate::Workload::fingerprint), so samplers
//! keyed by fingerprint (the clustering memo) hit whether the workload
//! arrived materialized or streamed from this store.
//!
//! # Quarantine, never trust
//!
//! A manifest failing the sealed-file checks or its record grammar is
//! quarantined. Readers then verify each block's byte length and
//! checksum and each row's table ranges before yielding it. A block
//! failing any check is renamed to `<file>.quarantined[.N]` (evidence is
//! never deleted, never overwritten) and the read returns a typed
//! [`ColStoreError`] — corrupt bytes can cost the cached stream, never
//! produce wrong cycles.

use crate::invocation::{Invocation, KernelId};
use crate::io::{from_text, to_text};
use crate::stream::{BlockSink, SinkError, StreamSummary};
use crate::trace::{FingerprintFold, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use stem_storage::sealed::{self, fnv1a64, fnv1a64_fold, Loaded, SnapshotError, FNV_OFFSET};
use stem_storage::{
    quarantine, write_atomic, write_atomic_bytes, Storage, StorageError, StorageOp,
};

/// The exact header this version writes and accepts.
const HEADER: &str = "STEM-COLSTORE v1";
/// Manifest file name inside a store directory.
pub const MANIFEST_NAME: &str = "manifest.txt";
/// Rows per block the streaming builder emits by default (~900 KiB of
/// column data per block at 14 bytes/row).
pub const DEFAULT_BLOCK_LEN: usize = 65_536;
/// Bytes per row across the four columns (u32 + u16 + u32 + u32).
const ROW_BYTES: usize = 14;

/// Why a store could not be written or was rejected (and quarantined).
#[derive(Debug, Clone, PartialEq)]
pub enum ColStoreError {
    /// Storage failure, with the operation and path that failed.
    Io(StorageError),
    /// The manifest failed a sealed-file check or its record grammar.
    Manifest(SnapshotError),
    /// A block file's byte length does not match its manifest entry.
    BlockSize {
        /// Block index.
        index: usize,
        /// Bytes the manifest promised.
        expected: usize,
        /// Bytes found on disk.
        found: usize,
    },
    /// A block file does not hash to its manifest checksum.
    BlockChecksumMismatch {
        /// Block index.
        index: usize,
    },
    /// A row references a kernel or context outside the tables, or has a
    /// work scale that is not positive and finite: read from a block, or
    /// handed to [`StoreWriter`] (which then writes no block file).
    InvalidRow {
        /// Block index.
        block: usize,
        /// Row within the block.
        row: usize,
        /// What was out of range.
        message: String,
    },
    /// The re-folded stream fingerprint does not match the manifest's
    /// (or a caller-expected) fingerprint.
    FingerprintMismatch {
        /// The fingerprint expected.
        expected: u64,
        /// The fingerprint computed from the stream.
        found: u64,
    },
}

impl std::fmt::Display for ColStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColStoreError::Io(e) => write!(f, "colstore io error: {e}"),
            ColStoreError::Manifest(e) => write!(f, "colstore manifest: {e}"),
            ColStoreError::BlockSize {
                index,
                expected,
                found,
            } => write!(
                f,
                "colstore block {index} is {found} bytes (manifest promises {expected})"
            ),
            ColStoreError::BlockChecksumMismatch { index } => {
                write!(f, "colstore block {index} checksum mismatch")
            }
            ColStoreError::InvalidRow {
                block,
                row,
                message,
            } => {
                write!(f, "colstore block {block} row {row}: {message}")
            }
            ColStoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "colstore fingerprint mismatch: expected {expected:016x}, found {found:016x}"
            ),
        }
    }
}

impl std::error::Error for ColStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColStoreError::Io(e) => Some(e),
            ColStoreError::Manifest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ColStoreError {
    fn from(e: StorageError) -> Self {
        ColStoreError::Io(e)
    }
}

impl From<SnapshotError> for ColStoreError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => ColStoreError::Io(e),
            other => ColStoreError::Manifest(other),
        }
    }
}

/// Path of block `index` inside `dir`.
pub fn block_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("block-{index:05}.col"))
}

/// The row check a store keeps on both sides: the kernel and its context
/// are in the skeleton's tables, and the work scale is positive and
/// finite. The writer runs it before it writes a block and the reader on
/// every row it decodes, so a store commits exactly the rows its reader
/// accepts. A failing row is [`ColStoreError::InvalidRow`] at `(block,
/// row)`, with what is wrong with it.
#[inline]
fn check_row(
    skeleton: &Workload,
    (block, row): (usize, usize),
    kernel: u32,
    context: u16,
    work: f32,
) -> Result<(), ColStoreError> {
    let in_tables = (kernel as usize) < skeleton.kernels().len()
        && usize::from(context) < skeleton.contexts_of(KernelId(kernel)).len();
    if in_tables && work.is_finite() && work > 0.0 {
        Ok(())
    } else {
        Err(ColStoreError::InvalidRow {
            block,
            row,
            message: row_fault(skeleton, kernel, context, work),
        })
    }
}

/// What is wrong with a row that fails [`check_row`].
#[cold]
fn row_fault(skeleton: &Workload, kernel: u32, context: u16, work: f32) -> String {
    let kernels = skeleton.kernels().len();
    if kernel as usize >= kernels {
        return format!("kernel {kernel} out of range ({kernels} kernels)");
    }
    let contexts = skeleton.contexts_of(KernelId(kernel)).len();
    if usize::from(context) >= contexts {
        return format!("context {context} out of range ({contexts} contexts of kernel {kernel})");
    }
    format!("work scale {work} not positive and finite")
}

/// The error of a stream that sent a block, or ended, before its tables.
fn no_tables() -> ColStoreError {
    ColStoreError::Manifest(SnapshotError::Malformed {
        line: 0,
        message: "stream sent a block or ended before its tables".to_string(),
    })
}

/// Encodes block `block` of invocations into the column-major layout,
/// checking each row against the skeleton's tables in the first column
/// pass.
fn encode_block(
    invocations: &[Invocation],
    block: usize,
    skeleton: &Workload,
) -> Result<Vec<u8>, ColStoreError> {
    let mut out = Vec::with_capacity(invocations.len() * ROW_BYTES);
    for (row, inv) in invocations.iter().enumerate() {
        check_row(
            skeleton,
            (block, row),
            inv.kernel.0,
            inv.context,
            inv.work_scale,
        )?;
        out.extend_from_slice(&inv.kernel.0.to_le_bytes());
    }
    for inv in invocations {
        out.extend_from_slice(&inv.context.to_le_bytes());
    }
    for inv in invocations {
        out.extend_from_slice(&inv.work_scale.to_bits().to_le_bytes());
    }
    for inv in invocations {
        out.extend_from_slice(&inv.noise_z.to_bits().to_le_bytes());
    }
    Ok(out)
}

/// The four little-endian column slices of one block.
struct Columns<'a> {
    kernels: &'a [[u8; 4]],
    contexts: &'a [[u8; 2]],
    works: &'a [[u8; 4]],
    noises: &'a [[u8; 4]],
}

impl<'a> Columns<'a> {
    /// Splits a block of exactly `rows * ROW_BYTES` bytes into its
    /// columns.
    fn of(bytes: &'a [u8], rows: usize) -> Self {
        let (kernels, rest) = bytes.split_at(rows * 4);
        let (contexts, rest) = rest.split_at(rows * 2);
        let (works, noises) = rest.split_at(rows * 4);
        Columns {
            kernels: kernels.as_chunks().0,
            contexts: contexts.as_chunks().0,
            works: works.as_chunks().0,
            noises: noises.as_chunks().0,
        }
    }

    /// Each row's four fields, in row order.
    fn rows(&self) -> impl Iterator<Item = (&'a [u8; 4], &'a [u8; 2], &'a [u8; 4], &'a [u8; 4])> {
        self.kernels
            .iter()
            .zip(self.contexts)
            .zip(self.works)
            .zip(self.noises)
            .map(|(((k, c), w), n)| (k, c, w, n))
    }
}

/// One pass over a block of exactly `rows * ROW_BYTES` bytes computing
/// two independent FNV-1a chains: the block checksum over the file bytes
/// in file order, and `fold` advanced over the rows in row order, read
/// straight from the four column slices. Each loop step feeds 14 bytes
/// to each chain; neither chain reads the other's state, so the CPU
/// overlaps their multiply latencies instead of running two serial
/// passes. Both values are the ones the separate folds would produce.
fn checksum_and_fingerprint(bytes: &[u8], rows: usize, fold: &mut FingerprintFold) -> u64 {
    let file_order = bytes.as_chunks::<ROW_BYTES>().0;
    let mut checksum = FNV_OFFSET;
    let mut row_fold = fold.clone();
    for (file, (k, c, w, n)) in file_order.iter().zip(Columns::of(bytes, rows).rows()) {
        checksum = fnv1a64_fold(checksum, file);
        row_fold.eat_row(*k, *c, *w, *n);
    }
    *fold = row_fold;
    checksum
}

/// Decodes a checksum-verified column-major block of exactly
/// `rows * ROW_BYTES` bytes into `out` (cleared first), validating every
/// row against the skeleton's tables. Allocation-free beyond the
/// caller-owned buffer: the hot loop only zips the columns and pushes.
fn decode_block(
    bytes: &[u8],
    rows: usize,
    block: usize,
    skeleton: &Workload,
    out: &mut Vec<Invocation>,
) -> Result<(), ColStoreError> {
    out.clear();
    out.reserve(rows);
    for (row, (k, c, w, z)) in Columns::of(bytes, rows).rows().enumerate() {
        let k = u32::from_le_bytes(*k);
        let c = u16::from_le_bytes(*c);
        let w = f32::from_bits(u32::from_le_bytes(*w));
        let z = f32::from_bits(u32::from_le_bytes(*z));
        check_row(skeleton, (block, row), k, c, w)?;
        out.push(Invocation::with_work(KernelId(k), c, w, z));
    }
    Ok(())
}

/// One manifest block entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockEntry {
    rows: usize,
    bytes: usize,
    checksum: u64,
}

/// A [`BlockSink`] committing the stream to a store directory. Every
/// block file lands via `write_atomic_bytes`; [`StoreWriter::finish`]
/// writes the manifest last, which is the store's commit point.
#[derive(Debug)]
pub struct StoreWriter<'a> {
    storage: &'a dyn Storage,
    dir: PathBuf,
    block_len: usize,
    /// The stream's tables, once received: every block's rows are
    /// checked against them, and the manifest records them.
    skeleton: Option<Workload>,
    blocks: Vec<BlockEntry>,
}

impl<'a> StoreWriter<'a> {
    /// Starts a store at `dir` (created if missing) with the given
    /// nominal block length.
    ///
    /// # Errors
    ///
    /// [`ColStoreError::Io`] if the directory cannot be created.
    pub fn create(
        storage: &'a dyn Storage,
        dir: &Path,
        block_len: usize,
    ) -> Result<Self, ColStoreError> {
        storage.create_dir_all(dir)?;
        Ok(StoreWriter {
            storage,
            dir: dir.to_path_buf(),
            block_len,
            skeleton: None,
            blocks: Vec::new(),
        })
    }

    /// Commits the manifest, completing the store. Call after the
    /// producer finished streaming; `summary` carries the stream's
    /// fingerprint and row count as computed by the producer's fold.
    ///
    /// # Errors
    ///
    /// [`ColStoreError::Io`] on a failed manifest write, or
    /// [`ColStoreError::Manifest`] if no tables were ever received.
    pub fn finish(self, summary: &StreamSummary) -> Result<(), ColStoreError> {
        let tables = to_text(self.skeleton.as_ref().ok_or_else(no_tables)?);
        let mut records = String::new();
        let _ = writeln!(records, "block_len {}", self.block_len);
        let _ = writeln!(records, "invocations {}", summary.invocations);
        let _ = writeln!(records, "fingerprint {:016x}", summary.fingerprint);
        let _ = writeln!(records, "tables {}", tables.lines().count());
        records.push_str(&tables);
        if !tables.ends_with('\n') {
            records.push('\n');
        }
        records.push_str("end_tables\n");
        for (i, b) in self.blocks.iter().enumerate() {
            let _ = writeln!(
                records,
                "block {i} {} {} {:016x}",
                b.rows, b.bytes, b.checksum
            );
        }
        let manifest = sealed::seal(HEADER, &records);
        write_atomic(self.storage, &self.dir.join(MANIFEST_NAME), &manifest)?;
        Ok(())
    }
}

impl BlockSink for StoreWriter<'_> {
    fn tables(&mut self, skeleton: &Workload) -> Result<(), SinkError> {
        self.skeleton = Some(skeleton.skeleton());
        Ok(())
    }

    /// Checks every row (see `check_row`) before the block's file is
    /// written: a bad row fails the block with
    /// [`ColStoreError::InvalidRow`], so the store is never committed.
    fn block(&mut self, invocations: &[Invocation]) -> Result<(), SinkError> {
        let index = self.blocks.len();
        let skeleton = self.skeleton.as_ref().ok_or_else(no_tables)?;
        let bytes = encode_block(invocations, index, skeleton)?;
        let entry = BlockEntry {
            rows: invocations.len(),
            bytes: bytes.len(),
            checksum: fnv1a64(&bytes),
        };
        write_atomic_bytes(self.storage, &block_path(&self.dir, index), &bytes)
            .map_err(|e| SinkError::from(ColStoreError::Io(e)))?;
        self.blocks.push(entry);
        Ok(())
    }
}

/// A parsed, checksum-verified manifest: the skeleton tables and the
/// block directory of a store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreManifest {
    skeleton: Workload,
    block_len: usize,
    invocations: u64,
    fingerprint: u64,
    blocks: Vec<BlockEntry>,
}

impl StoreManifest {
    /// The skeleton workload (tables only, zero invocations).
    pub fn skeleton(&self) -> &Workload {
        &self.skeleton
    }

    /// The nominal rows-per-block the writer used.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Total invocations across all blocks.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The whole-stream content fingerprint
    /// (`Workload::fingerprint`-compatible).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Parses a manifest's record lines. Pure (no storage): the loader
/// quarantines whatever this rejects.
fn parse_manifest(mut lines: sealed::Lines<'_>) -> Result<StoreManifest, SnapshotError> {
    // The trailer's line number, where whole-manifest faults are reported.
    let mut end = 2;
    let (mut block_len, mut invocations, mut fingerprint, mut skeleton) = (None, None, None, None);
    let mut blocks: Vec<BlockEntry> = Vec::new();
    while let Some((line_no, line)) = lines.next() {
        end = line_no + 1;
        let bad = |message: &str| SnapshotError::Malformed {
            line: line_no,
            message: message.to_string(),
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            ["block_len", v] => {
                let v = v.parse().ok().filter(|&v: &usize| v > 0);
                block_len = Some(v.ok_or_else(|| bad("block_len takes a positive integer"))?);
            }
            ["invocations", v] => {
                let v: u64 = v.parse().map_err(|_| bad("invocations takes an integer"))?;
                invocations = Some(v);
            }
            ["fingerprint", v] => {
                let v = u64::from_str_radix(v, 16).map_err(|_| bad("fingerprint takes hex"))?;
                fingerprint = Some(v);
            }
            ["tables", n] => {
                let n: usize = n.parse().map_err(|_| bad("tables takes a line count"))?;
                let section: Vec<&str> = lines.by_ref().take(n).map(|(_, l)| l).collect();
                match lines.next() {
                    Some((close, "end_tables")) => end = close + 1,
                    _ => return Err(bad("tables section not closed by end_tables")),
                }
                let tables = from_text(&section.join("\n"))
                    .map_err(|e| bad(&format!("tables section: {e}")))?;
                skeleton = Some(tables);
            }
            ["block", index, rows, bytes, checksum] => {
                if index.parse() != Ok(blocks.len()) {
                    return Err(bad("block entries out of order"));
                }
                let rows: usize = rows.parse().map_err(|_| bad("bad block row count"))?;
                let bytes: usize = bytes.parse().map_err(|_| bad("bad block byte count"))?;
                let checksum =
                    u64::from_str_radix(checksum, 16).map_err(|_| bad("bad block checksum"))?;
                if rows.checked_mul(ROW_BYTES) != Some(bytes) {
                    return Err(bad("block bytes disagree with rows"));
                }
                blocks.push(BlockEntry {
                    rows,
                    bytes,
                    checksum,
                });
            }
            [] => {}
            [..] => return Err(bad(&format!("unexpected record {line:?}"))),
        }
    }
    let missing = |what: &str| SnapshotError::Malformed {
        line: end,
        message: format!("manifest has no {what}"),
    };
    let skeleton = skeleton.ok_or_else(|| missing("tables section"))?;
    let block_len = block_len.ok_or_else(|| missing("block_len"))?;
    let invocations = invocations.ok_or_else(|| missing("invocations"))?;
    let fingerprint = fingerprint.ok_or_else(|| missing("fingerprint"))?;
    let total: u64 = blocks.iter().map(|b| b.rows as u64).sum();
    if total != invocations {
        return Err(SnapshotError::Malformed {
            line: end,
            message: "block rows do not sum to invocations".to_string(),
        });
    }
    Ok(StoreManifest {
        skeleton,
        block_len,
        invocations,
        fingerprint,
        blocks,
    })
}

/// Reads and verifies a store's manifest. A manifest failing any check
/// is quarantined (never trusted, never deleted) and the typed error
/// returned.
///
/// # Errors
///
/// [`ColStoreError::Io`] if the manifest is missing, cannot be read or
/// cannot be quarantined; [`ColStoreError::Manifest`] after quarantining
/// a rejected one.
pub fn open_store(storage: &dyn Storage, dir: &Path) -> Result<StoreManifest, ColStoreError> {
    let path = dir.join(MANIFEST_NAME);
    match sealed::load_or_quarantine(storage, &path, HEADER, parse_manifest)? {
        Loaded::Valid(manifest) => Ok(manifest),
        Loaded::Quarantined(q) => Err(ColStoreError::Manifest(q.reason)),
        Loaded::Absent => Err(ColStoreError::Io(StorageError::new(
            StorageOp::Read,
            path,
            std::io::ErrorKind::NotFound,
            "no manifest: the store was never committed",
        ))),
    }
}

/// Streams a store into `sink`: tables first, then every block in order,
/// verifying block sizes, block checksums, row ranges, and finally the
/// whole-stream fingerprint against the manifest. A block failing any
/// check is quarantined and the typed error returned — a corrupt store
/// can never stream wrong invocations.
///
/// # Errors
///
/// Any [`ColStoreError`]; sink failures surface as the sink's own
/// [`SinkError::Store`] payload or [`ColStoreError::Io`].
pub fn stream_store(
    storage: &dyn Storage,
    dir: &Path,
    sink: &mut dyn BlockSink,
) -> Result<StreamSummary, ColStoreError> {
    let manifest = open_store(storage, dir)?;
    let skeleton = manifest.skeleton();
    let mut fold = FingerprintFold::of_tables(skeleton);
    relay(sink.tables(skeleton))?;
    let mut decoded: Vec<Invocation> = Vec::new();
    let mut emitted = 0u64;
    for (index, entry) in manifest.blocks.iter().enumerate() {
        let path = block_path(dir, index);
        let bytes = storage.read_bytes(&path)?;
        let checked = (|| -> Result<(), ColStoreError> {
            if bytes.len() != entry.bytes {
                return Err(ColStoreError::BlockSize {
                    index,
                    expected: entry.bytes,
                    found: bytes.len(),
                });
            }
            // `parse_manifest` pinned `entry.bytes == entry.rows * ROW_BYTES`,
            // so the column split below is exact. The checksum is compared
            // before a single row is decoded.
            if checksum_and_fingerprint(&bytes, entry.rows, &mut fold) != entry.checksum {
                return Err(ColStoreError::BlockChecksumMismatch { index });
            }
            decode_block(&bytes, entry.rows, index, skeleton, &mut decoded)
        })();
        if let Err(e) = checked {
            let _ = quarantine(storage, &path);
            return Err(e);
        }
        emitted += decoded.len() as u64;
        relay(sink.block(&decoded))?;
    }
    let found = fold.finish();
    if found != manifest.fingerprint {
        let _ = quarantine(storage, &dir.join(MANIFEST_NAME));
        return Err(ColStoreError::FingerprintMismatch {
            expected: manifest.fingerprint,
            found,
        });
    }
    Ok(StreamSummary {
        fingerprint: found,
        invocations: emitted,
    })
}

/// Maps a sink failure back into the reader's error space.
fn relay(result: Result<(), SinkError>) -> Result<(), ColStoreError> {
    match result {
        Ok(()) => Ok(()),
        Err(SinkError::Store(e)) => Err(*e),
        Err(SinkError::Closed) => Err(ColStoreError::Io(StorageError::new(
            StorageOp::Write,
            "<block-sink>",
            std::io::ErrorKind::BrokenPipe,
            "block stream consumer hung up",
        ))),
    }
}

/// Materializes a store back into a validated [`Workload`] — the
/// round-trip counterpart of writing one, used by the equivalence gate
/// and by consumers (profiling, clustering) that need random access.
///
/// # Errors
///
/// Any [`ColStoreError`] from [`stream_store`].
pub fn load_store(storage: &dyn Storage, dir: &Path) -> Result<Workload, ColStoreError> {
    let mut sink = crate::stream::CollectSink::new();
    stream_store(storage, dir, &mut sink)?;
    Ok(sink.into_workload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkloadBuilder;
    use crate::context::{ContextSchedule, RuntimeContext};
    use crate::kernel::KernelClassBuilder;
    use crate::trace::SuiteKind;
    use stem_storage::RealFs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stem-colstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_workload() -> Workload {
        let mut b = WorkloadBuilder::new("colstore_sample", SuiteKind::Custom, 99);
        let k = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![
                RuntimeContext::neutral(),
                RuntimeContext::neutral().with_work(2.0),
            ],
        );
        b.schedule(k, &ContextSchedule::Weighted(vec![2.0, 1.0]), 1000);
        b.build()
    }

    /// Writes a materialized workload as a store with the given block
    /// length (test helper mirroring the streaming path).
    fn write_store(w: &Workload, dir: &Path, block_len: usize) {
        let mut writer = StoreWriter::create(&RealFs, dir, block_len).expect("create");
        let summary = w.stream_blocks(&mut writer, block_len).expect("blocks");
        writer.finish(&summary).expect("finish");
    }

    #[test]
    fn roundtrip_bit_identical() {
        let dir = scratch("roundtrip");
        let w = sample_workload();
        write_store(&w, &dir, 256);
        let back = load_store(&RealFs, &dir).expect("load");
        assert_eq!(back, w);
        assert_eq!(back.fingerprint(), w.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_is_the_commit_point() {
        let dir = scratch("commit");
        let w = sample_workload();
        let mut writer = StoreWriter::create(&RealFs, &dir, 256).expect("create");
        writer.tables(&w.skeleton()).expect("tables");
        let head: Vec<Invocation> = w.invocations().take(256).collect();
        writer.block(&head).expect("block");
        // No finish: the store is not committed, opening it is NotFound.
        let e = open_store(&RealFs, &dir).expect_err("no manifest yet");
        match e {
            ColStoreError::Io(io) => assert!(io.is_not_found()),
            other => panic!("unexpected error {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The writer checks every row as the reader does: a work scale that
    /// is not positive and finite fails its block before the block file is
    /// written, so no store is committed, while the valid rows of the same
    /// stream still round-trip.
    #[test]
    fn writer_rejects_the_rows_the_reader_would_quarantine() {
        let w = sample_workload();
        let rows: Vec<Invocation> = w.invocations().take(300).collect();
        for bad in [0.0, -0.0, -1.0, f32::NAN, f32::INFINITY] {
            let dir = scratch("badrow");
            let mut writer = StoreWriter::create(&RealFs, &dir, 256).expect("create");
            writer.tables(&w.skeleton()).expect("tables");
            writer.block(&rows[..256]).expect("a valid block");
            let mut tail = rows[256..].to_vec();
            tail[7].work_scale = bad;
            let e = writer.block(&tail).expect_err("a bad work scale");
            let SinkError::Store(e) = e else {
                panic!("work scale {bad}: unexpected error {e}");
            };
            assert!(
                matches!(
                    *e,
                    ColStoreError::InvalidRow {
                        block: 1,
                        row: 7,
                        ..
                    }
                ),
                "work scale {bad}: {e}"
            );
            assert!(RealFs.exists(&block_path(&dir, 0)));
            assert!(!RealFs.exists(&block_path(&dir, 1)), "work scale {bad}");
            assert!(!RealFs.exists(&dir.join(MANIFEST_NAME)), "work scale {bad}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = scratch("goodrows");
        let valid = Workload::new(
            "valid",
            SuiteKind::Custom,
            w.kernels().to_vec(),
            vec![w.contexts_of(KernelId(0)).to_vec()],
            rows,
        );
        write_store(&valid, &dir, 256);
        assert_eq!(load_store(&RealFs, &dir).expect("load"), valid);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_manifest_checksum_quarantines() {
        let dir = scratch("badsum");
        let w = sample_workload();
        write_store(&w, &dir, 256);
        let path = dir.join(MANIFEST_NAME);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text = text.replacen("block_len 256", "block_len 512", 1);
        RealFs.write(&path, text.as_bytes()).expect("tamper");
        let e = open_store(&RealFs, &dir).expect_err("tampered manifest");
        assert_eq!(e, ColStoreError::Manifest(SnapshotError::ChecksumMismatch));
        assert!(RealFs.exists(&stem_storage::sibling(&path, ".quarantined")));
        assert!(!RealFs.exists(&path));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_block_quarantines_with_typed_error() {
        let dir = scratch("tornblock");
        let w = sample_workload();
        write_store(&w, &dir, 256);
        let path = block_path(&dir, 1);
        let bytes = RealFs.read_bytes(&path).expect("read");
        RealFs
            .write(&path, &bytes[..bytes.len() / 2])
            .expect("tear");
        let e = load_store(&RealFs, &dir).expect_err("torn block");
        assert!(
            matches!(e, ColStoreError::BlockSize { index: 1, .. }),
            "{e}"
        );
        assert!(RealFs.exists(&stem_storage::sibling(&path, ".quarantined")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_fails_block_checksum() {
        let dir = scratch("bitflip");
        let w = sample_workload();
        write_store(&w, &dir, 256);
        let path = block_path(&dir, 0);
        let mut bytes = RealFs.read_bytes(&path).expect("read");
        bytes[7] ^= 0x40;
        RealFs.write(&path, &bytes).expect("flip");
        let e = load_store(&RealFs, &dir).expect_err("corrupt block");
        assert!(
            matches!(e, ColStoreError::BlockChecksumMismatch { index: 0 }),
            "{e}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the v1 manifest of a 2-block store: existing stores must keep
    /// opening, so the writer may never change a byte.
    #[test]
    fn small_store_manifest_matches_the_v1_golden_bytes() {
        let dir = scratch("golden");
        let mut b = WorkloadBuilder::new("golden", SuiteKind::Custom, 7);
        let k = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![
                RuntimeContext::neutral(),
                RuntimeContext::neutral().with_work(2.0),
            ],
        );
        b.schedule(k, &ContextSchedule::Weighted(vec![2.0, 1.0]), 6);
        write_store(&b.build(), &dir, 4);
        let golden = "STEM-COLSTORE v1\n\
            block_len 4\n\
            invocations 6\n\
            fingerprint 96b32295c278ccd5\n\
            tables 6\n\
            # stem-workload v1\n\
            name golden\n\
            suite custom\n\
            kernel k 128 256 32 8192 2000 0.55 0.1 0.15 0.08 0.07 0.03 0.02 8388608 4 \
            1,1,1,1,1,1,1,1\n\
            context 0 1 1 1 0.02\n\
            context 0 2 1 1 0.02\n\
            end_tables\n\
            block 0 4 56 0fab4f823168e432\n\
            block 1 2 28 1eca36e17fcda6f0\n\
            checksum ce315298d1d1e47b\n";
        let written = std::fs::read_to_string(dir.join(MANIFEST_NAME)).expect("manifest");
        assert_eq!(written, golden);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
