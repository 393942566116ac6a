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
//! # Manifest grammar (`manifest.txt`)
//!
//! ```text
//! STEM-COLSTORE v1
//! block_len 65536
//! invocations 11600000
//! fingerprint 6b1c3f09a2...      ; Workload::fingerprint of the stream
//! tables 42
//! <42 lines: the skeleton workload in the io.rs v1 text format>
//! end_tables
//! block 0 65536 917504 9d41a2...  ; index, rows, bytes, FNV-1a of file
//! block 1 65536 917504 77120c...
//! checksum 55aa90...              ; FNV-1a 64 over every line above
//! ```
//!
//! The whole-stream `fingerprint` is the same FNV-1a fold as
//! [`Workload::fingerprint`](crate::Workload::fingerprint), so samplers
//! keyed by fingerprint (the clustering memo) hit whether the workload
//! arrived materialized or streamed from this store.
//!
//! # Quarantine, never trust
//!
//! Readers verify the manifest's header, version, grammar, and trailing
//! checksum *before trusting any line*, then verify each block's byte
//! length and checksum and each row's table ranges before yielding it. A
//! file failing any check is renamed to `<file>.quarantined[.N]`
//! (evidence is never deleted, never overwritten) and the read returns a
//! typed [`ColStoreError`] — corrupt bytes can cost the cached stream,
//! never produce wrong cycles.

use crate::invocation::{Invocation, KernelId};
use crate::io::{from_text, to_text, ParseWorkloadError};
use crate::stream::{BlockSink, SinkError, StreamSummary};
use crate::trace::{FingerprintFold, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use stem_storage::{quarantine, write_atomic, write_atomic_bytes, Storage, StorageError};

/// First token of the manifest header; the version tag follows it.
const HEADER_PREFIX: &str = "STEM-COLSTORE";
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
    /// The manifest does not start with the store header.
    MissingHeader,
    /// The header names a version this build does not understand.
    VersionMismatch {
        /// The header line as found.
        found: String,
    },
    /// The manifest body does not hash to its recorded checksum.
    ManifestChecksumMismatch,
    /// A manifest line violates the grammar.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The embedded tables section failed workload parsing/validation.
    Tables(ParseWorkloadError),
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
    /// A decoded row references a kernel or context outside the tables.
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
            ColStoreError::MissingHeader => f.write_str("missing colstore manifest header"),
            ColStoreError::VersionMismatch { found } => {
                write!(f, "unsupported colstore version: {found:?} (expected {HEADER:?})")
            }
            ColStoreError::ManifestChecksumMismatch => {
                f.write_str("colstore manifest checksum mismatch")
            }
            ColStoreError::Malformed { line, message } => {
                write!(f, "malformed colstore manifest at line {line}: {message}")
            }
            ColStoreError::Tables(e) => write!(f, "colstore tables section: {e}"),
            ColStoreError::BlockSize { index, expected, found } => write!(
                f,
                "colstore block {index} is {found} bytes (manifest promises {expected})"
            ),
            ColStoreError::BlockChecksumMismatch { index } => {
                write!(f, "colstore block {index} checksum mismatch")
            }
            ColStoreError::InvalidRow { block, row, message } => {
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
            ColStoreError::Tables(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ColStoreError {
    fn from(e: StorageError) -> Self {
        ColStoreError::Io(e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a 64 fold from state `h` over `bytes`.
#[inline]
fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 over raw bytes (manifest body and block files use the same
/// fold as every other durable format in the workspace).
fn fnv64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// Path of block `index` inside `dir`.
pub fn block_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("block-{index:05}.col"))
}

/// Encodes one block of invocations into the column-major layout.
fn encode_block(invocations: &[Invocation]) -> Vec<u8> {
    let mut out = Vec::with_capacity(invocations.len() * ROW_BYTES);
    for inv in invocations {
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
    out
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
        checksum = fnv_fold(checksum, file);
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
    let kernels = skeleton.kernels().len();
    for (row, (k, c, w, z)) in Columns::of(bytes, rows).rows().enumerate() {
        let k = u32::from_le_bytes(*k);
        let c = u16::from_le_bytes(*c);
        let w = f32::from_bits(u32::from_le_bytes(*w));
        let z = f32::from_bits(u32::from_le_bytes(*z));
        if (k as usize) >= kernels {
            return Err(ColStoreError::InvalidRow {
                block,
                row,
                message: format!("kernel {k} out of range ({kernels} kernels)"),
            });
        }
        let contexts = skeleton.contexts_of(KernelId(k)).len();
        if (c as usize) >= contexts {
            return Err(ColStoreError::InvalidRow {
                block,
                row,
                message: format!("context {c} out of range ({contexts} contexts of kernel {k})"),
            });
        }
        if !(w.is_finite() && w > 0.0) {
            return Err(ColStoreError::InvalidRow {
                block,
                row,
                message: format!("work scale {w} not positive and finite"),
            });
        }
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
    tables_text: Option<String>,
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
            tables_text: None,
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
    /// [`ColStoreError::Malformed`] if no tables were ever received.
    pub fn finish(self, summary: &StreamSummary) -> Result<(), ColStoreError> {
        let tables = self.tables_text.ok_or(ColStoreError::Malformed {
            line: 0,
            message: "stream ended before tables were emitted".to_string(),
        })?;
        let mut body = String::new();
        body.push_str(HEADER);
        body.push('\n');
        writeln!(body, "block_len {}", self.block_len).expect("write to string");
        writeln!(body, "invocations {}", summary.invocations).expect("write to string");
        writeln!(body, "fingerprint {:016x}", summary.fingerprint).expect("write to string");
        writeln!(body, "tables {}", tables.lines().count()).expect("write to string");
        body.push_str(&tables);
        if !tables.ends_with('\n') {
            body.push('\n');
        }
        body.push_str("end_tables\n");
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(body, "block {i} {} {} {:016x}", b.rows, b.bytes, b.checksum)
                .expect("write to string");
        }
        let checksum = fnv64(body.as_bytes());
        writeln!(body, "checksum {checksum:016x}").expect("write to string");
        write_atomic(self.storage, &self.dir.join(MANIFEST_NAME), &body)?;
        Ok(())
    }
}

impl BlockSink for StoreWriter<'_> {
    fn tables(&mut self, skeleton: &Workload) -> Result<(), SinkError> {
        self.tables_text = Some(to_text(skeleton));
        Ok(())
    }

    fn block(&mut self, invocations: &[Invocation]) -> Result<(), SinkError> {
        let index = self.blocks.len();
        let bytes = encode_block(invocations);
        let entry = BlockEntry {
            rows: invocations.len(),
            bytes: bytes.len(),
            checksum: fnv64(&bytes),
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

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Parses and verifies a manifest body. Pure (no storage): callers
/// decide what to quarantine.
fn parse_manifest(text: &str) -> Result<StoreManifest, ColStoreError> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if !header.starts_with(HEADER_PREFIX) {
        return Err(ColStoreError::MissingHeader);
    }
    if header != HEADER {
        return Err(ColStoreError::VersionMismatch { found: header.to_string() });
    }
    // Checksum before trust: the last line must be `checksum <hex>` and
    // the body above it must hash to it.
    let body_end = text
        .trim_end_matches('\n')
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let last = text[body_end..].trim_end();
    let recorded = match last.strip_prefix("checksum ") {
        Some(hex) => u64::from_str_radix(hex.trim(), 16)
            .map_err(|_| ColStoreError::ManifestChecksumMismatch)?,
        None => return Err(ColStoreError::ManifestChecksumMismatch),
    };
    if fnv64(text[..body_end].as_bytes()) != recorded {
        return Err(ColStoreError::ManifestChecksumMismatch);
    }

    let malformed = |line: usize, message: &str| ColStoreError::Malformed {
        line,
        message: message.to_string(),
    };
    let all: Vec<&str> = text.lines().collect();
    let mut i = 1usize; // past the header
    let mut block_len = None;
    let mut invocations = None;
    let mut fingerprint = None;
    let mut skeleton = None;
    let mut blocks: Vec<BlockEntry> = Vec::new();
    while i < all.len() {
        let line_no = i + 1;
        let line = all[i];
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("block_len") => {
                let v: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(line_no, "block_len takes a positive integer"))?;
                if v == 0 {
                    return Err(malformed(line_no, "block_len must be positive"));
                }
                block_len = Some(v);
                i += 1;
            }
            Some("invocations") => {
                let v: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(line_no, "invocations takes an integer"))?;
                invocations = Some(v);
                i += 1;
            }
            Some("fingerprint") => {
                let v = parts
                    .next()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| malformed(line_no, "fingerprint takes 16 hex digits"))?;
                fingerprint = Some(v);
                i += 1;
            }
            Some("tables") => {
                let n: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(line_no, "tables takes a line count"))?;
                if i + n + 1 >= all.len() || all[i + n + 1] != "end_tables" {
                    return Err(malformed(line_no, "tables section not closed by end_tables"));
                }
                let section = all[i + 1..i + n + 1].join("\n");
                skeleton = Some(from_text(&section).map_err(ColStoreError::Tables)?);
                i += n + 2;
            }
            Some("block") => {
                let mut take = |what: &str| -> Result<&str, ColStoreError> {
                    parts.next().ok_or_else(|| malformed(line_no, what))
                };
                let idx: usize = take("block entry needs an index")?
                    .parse()
                    .map_err(|_| malformed(line_no, "bad block index"))?;
                if idx != blocks.len() {
                    return Err(malformed(line_no, "block entries out of order"));
                }
                let rows: usize = take("block entry needs a row count")?
                    .parse()
                    .map_err(|_| malformed(line_no, "bad block row count"))?;
                let bytes: usize = take("block entry needs a byte count")?
                    .parse()
                    .map_err(|_| malformed(line_no, "bad block byte count"))?;
                let checksum = take("block entry needs a checksum")?;
                let checksum = u64::from_str_radix(checksum, 16)
                    .map_err(|_| malformed(line_no, "bad block checksum"))?;
                if rows.checked_mul(ROW_BYTES) != Some(bytes) {
                    return Err(malformed(line_no, "block bytes disagree with rows"));
                }
                blocks.push(BlockEntry { rows, bytes, checksum });
                i += 1;
            }
            Some("checksum") => {
                i += 1; // verified above, must be last
                if i != all.len() {
                    return Err(malformed(line_no, "content after checksum"));
                }
            }
            Some(other) => {
                return Err(malformed(line_no, &format!("unknown record tag {other}")));
            }
            None => {
                i += 1;
            }
        }
    }
    let skeleton = skeleton
        .ok_or_else(|| malformed(all.len(), "manifest has no tables section"))?;
    let block_len =
        block_len.ok_or_else(|| malformed(all.len(), "manifest has no block_len"))?;
    let invocations =
        invocations.ok_or_else(|| malformed(all.len(), "manifest has no invocations"))?;
    let fingerprint =
        fingerprint.ok_or_else(|| malformed(all.len(), "manifest has no fingerprint"))?;
    let total: u64 = blocks.iter().map(|b| b.rows as u64).sum();
    if total != invocations {
        return Err(malformed(all.len(), "block rows do not sum to invocations"));
    }
    Ok(StoreManifest { skeleton, block_len, invocations, fingerprint, blocks })
}

/// Reads and verifies a store's manifest. A manifest failing any check
/// is quarantined (never trusted, never deleted) and the typed error
/// returned.
///
/// # Errors
///
/// [`ColStoreError::Io`] if the manifest cannot be read; any validation
/// variant after quarantining it.
pub fn open_store(storage: &dyn Storage, dir: &Path) -> Result<StoreManifest, ColStoreError> {
    let path = dir.join(MANIFEST_NAME);
    let text = storage.read_to_string(&path)?;
    match parse_manifest(&text) {
        Ok(manifest) => Ok(manifest),
        Err(e) => {
            let _ = quarantine(storage, &path);
            Err(e)
        }
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
    Ok(StreamSummary { fingerprint: found, invocations: emitted })
}

/// Maps a sink failure back into the reader's error space.
fn relay(result: Result<(), SinkError>) -> Result<(), ColStoreError> {
    match result {
        Ok(()) => Ok(()),
        Err(SinkError::Store(e)) => Err(*e),
        Err(SinkError::Closed) => Err(ColStoreError::Io(StorageError::new(
            stem_storage::StorageOp::Write,
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
        let dir =
            std::env::temp_dir().join(format!("stem-colstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_workload() -> Workload {
        let mut b = WorkloadBuilder::new("colstore_sample", SuiteKind::Custom, 99);
        let k = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![RuntimeContext::neutral(), RuntimeContext::neutral().with_work(2.0)],
        );
        b.schedule(k, &ContextSchedule::Weighted(vec![2.0, 1.0]), 1000);
        b.build()
    }

    /// Writes a materialized workload as a store with the given block
    /// length (test helper mirroring the streaming path).
    fn write_store(w: &Workload, dir: &Path, block_len: usize) {
        let mut writer = StoreWriter::create(&RealFs, dir, block_len).expect("create");
        writer.tables(&skeleton_of(w)).expect("tables");
        for chunk in w.invocations().chunks(block_len) {
            writer.block(chunk).expect("block");
        }
        writer
            .finish(&StreamSummary {
                fingerprint: w.fingerprint(),
                invocations: w.num_invocations() as u64,
            })
            .expect("finish");
    }

    fn skeleton_of(w: &Workload) -> Workload {
        Workload::new(
            w.name().to_string(),
            w.suite(),
            w.kernels().to_vec(),
            (0..w.kernels().len())
                .map(|k| w.contexts_of(KernelId(k as u32)).to_vec())
                .collect(),
            Vec::new(),
        )
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
        writer.tables(&skeleton_of(&w)).expect("tables");
        writer.block(&w.invocations()[..256]).expect("block");
        // No finish: the store is not committed, opening it is NotFound.
        let e = open_store(&RealFs, &dir).expect_err("no manifest yet");
        match e {
            ColStoreError::Io(io) => assert!(io.is_not_found()),
            other => panic!("unexpected error {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_manifest_checksum_quarantines() {
        let dir = scratch("badsum");
        let w = sample_workload();
        write_store(&w, &dir, 256);
        let path = dir.join(MANIFEST_NAME);
        let mut text = RealFs.read_to_string(&path).expect("read");
        text = text.replacen("block_len 256", "block_len 512", 1);
        RealFs.write(&path, text.as_bytes()).expect("tamper");
        let e = open_store(&RealFs, &dir).expect_err("tampered manifest");
        assert_eq!(e, ColStoreError::ManifestChecksumMismatch);
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
        RealFs.write(&path, &bytes[..bytes.len() / 2]).expect("tear");
        let e = load_store(&RealFs, &dir).expect_err("torn block");
        assert!(matches!(e, ColStoreError::BlockSize { index: 1, .. }), "{e}");
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
        assert!(matches!(e, ColStoreError::BlockChecksumMismatch { index: 0 }), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_header_are_checked() {
        let dir = scratch("header");
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join(MANIFEST_NAME);
        RealFs.write(&path, b"garbage\n").expect("write");
        assert_eq!(
            open_store(&RealFs, &dir).expect_err("garbage"),
            ColStoreError::MissingHeader
        );
        // Quarantined; write a future version next.
        RealFs.write(&path, b"STEM-COLSTORE v9\nchecksum 0\n").expect("write");
        assert!(matches!(
            open_store(&RealFs, &dir).expect_err("future version"),
            ColStoreError::VersionMismatch { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
