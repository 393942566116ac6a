//! Sealed files: the one checksummed text container under the campaign
//! snapshot, the serve journal and the columnar-store manifest, and the
//! workspace's only FNV-1a 64.
//!
//! ```text
//! STEM-CAMPAIGN-SNAPSHOT v1   ; the format's header, matched exactly
//! <record lines>              ; the format's own grammar
//! checksum 9d41a2c0b7e31f55   ; FNV-1a 64 over every byte above
//! ```
//!
//! [`open`] returns no record line until the bytes are UTF-8, the header
//! matches and the canonical trailer verifies; [`load_or_quarantine`]
//! quarantines whatever it or the format's parser rejects. DESIGN.md
//! §14, "Sealed files", has the full contract.

use std::collections::BTreeMap;
use std::iter::Zip;
use std::ops::RangeFrom;
use std::path::{Path, PathBuf};
use std::str::SplitTerminator;

use crate::{Storage, StorageError};

/// The FNV-1a 64 offset basis: the state of a fold over no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64 prime: each byte step is `(h ^ byte) * FNV_PRIME`.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a 64 fold from state `hash` over `bytes`. Inlined
/// across crates: the columnar store's block checksum and the workload
/// fingerprint run it once per row.
#[inline]
pub fn fnv1a64_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 over `bytes` — the workspace's std-only integrity hash.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

/// Why a sealed file was rejected (and quarantined) or could not be
/// read, written or quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Storage failure, with the operation and path that failed (the
    /// underlying `io::Error` is not `Clone`, so [`StorageError`] keeps
    /// its kind and text instead).
    Io(StorageError),
    /// The file does not start with the format's header.
    MissingHeader,
    /// The header names a version this build does not understand.
    VersionMismatch {
        /// The header line as found.
        found: String,
    },
    /// The file belongs to a different owner (campaign, daemon or
    /// stream) than the one reading it.
    FingerprintMismatch,
    /// The last line is not a canonical `checksum` trailer, or the body
    /// does not hash to it.
    ChecksumMismatch,
    /// A line violates the format's grammar (or is not UTF-8).
    Malformed {
        /// 1-based line number (0 when the fault is not one line's).
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::MissingHeader => f.write_str("missing header"),
            SnapshotError::VersionMismatch { found } => write!(f, "unsupported version: {found:?}"),
            SnapshotError::FingerprintMismatch => f.write_str("fingerprint of another owner"),
            SnapshotError::ChecksumMismatch => f.write_str("checksum mismatch"),
            SnapshotError::Malformed { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for SnapshotError {
    fn from(e: StorageError) -> Self {
        SnapshotError::Io(e)
    }
}

/// A sealed file that failed validation and was set aside rather than
/// deleted, so the evidence survives for inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedSnapshot {
    /// Where the rejected file was moved — the first free
    /// `<path>.quarantined[.N]` name, so repeated corruption never
    /// overwrites earlier evidence.
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: SnapshotError,
}

/// The trailer's fixed prefix.
const CHECKSUM_TAG: &[u8] = b"checksum ";
/// Bytes in the canonical trailer: tag, 16 hex digits, newline.
const TRAILER_LEN: usize = CHECKSUM_TAG.len() + 16 + 1;

/// Seals `records` (whole `\n`-terminated lines, or empty) under
/// `header`: the header line, the records, then the checksum trailer
/// over both.
pub fn seal(header: &str, records: &str) -> String {
    let mut text = String::with_capacity(header.len() + 1 + records.len() + TRAILER_LEN);
    text.push_str(header);
    text.push('\n');
    text.push_str(records);
    let checksum = fnv1a64(text.as_bytes());
    text.push_str(&format!("checksum {checksum:016x}\n"));
    text
}

/// The record lines of an opened sealed file — everything between the
/// header and the trailer — each with its 1-based line number in the
/// file (the first record is line 2).
pub type Lines<'a> = Zip<RangeFrom<usize>, SplitTerminator<'a, char>>;

/// The value of a canonical trailer — `checksum `, 16 lowercase hex
/// digits, `\n` — or `None` for any other form.
fn canonical_checksum(trailer: &[u8]) -> Option<u64> {
    let hex = trailer.strip_prefix(CHECKSUM_TAG)?.strip_suffix(b"\n")?;
    if hex.len() != 16 || !hex.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

/// Checks a sealed file and returns its record lines. The checks run in
/// order — UTF-8, exact header, canonical trailer, checksum — and no line
/// is returned unless all of them pass.
///
/// # Errors
///
/// `Malformed` for bytes that are not UTF-8; `VersionMismatch` for a
/// first line that starts like `header` but differs, `MissingHeader` for
/// any other; `ChecksumMismatch` for a non-canonical or wrong trailer.
pub fn open<'a>(bytes: &'a [u8], header: &str) -> Result<Lines<'a>, SnapshotError> {
    let text = std::str::from_utf8(bytes).map_err(|e| {
        let at = e.valid_up_to();
        SnapshotError::Malformed {
            line: 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count(),
            message: format!("byte {at} is not UTF-8"),
        }
    })?;
    let first = text.split_once('\n').map_or(text, |(first, _)| first);
    if first != header {
        let family = header.rsplit_once(' ').map_or(header, |(family, _)| family);
        return Err(if first.starts_with(family) {
            SnapshotError::VersionMismatch {
                found: first.to_string(),
            }
        } else {
            SnapshotError::MissingHeader
        });
    }
    let body_len = bytes
        .len()
        .checked_sub(TRAILER_LEN)
        .filter(|&n| n > header.len())
        .ok_or(SnapshotError::ChecksumMismatch)?;
    let (body, trailer) = bytes.split_at(body_len);
    let recorded = canonical_checksum(trailer).ok_or(SnapshotError::ChecksumMismatch)?;
    if body.last() != Some(&b'\n') || fnv1a64(body) != recorded {
        return Err(SnapshotError::ChecksumMismatch);
    }
    // Both cuts sit just past an ASCII `\n` (the header's and the
    // body's last), so they are char boundaries.
    Ok((2..).zip(text[header.len() + 1..body_len].split_terminator('\n')))
}

/// What [`load_or_quarantine`] found at a path.
#[derive(Debug, Clone, PartialEq)]
pub enum Loaded<T> {
    /// No file: a fresh start.
    Absent,
    /// The file passed every check and parsed to this value.
    Valid(T),
    /// The file failed a check and was moved aside.
    Quarantined(QuarantinedSnapshot),
}

impl<T: Default> Loaded<T> {
    /// The loaded value — `T::default()` for an absent or quarantined
    /// file, which start fresh — and the quarantine record, if any.
    pub fn or_default(self) -> (T, Option<QuarantinedSnapshot>) {
        match self {
            Loaded::Absent => (T::default(), None),
            Loaded::Valid(value) => (value, None),
            Loaded::Quarantined(q) => (T::default(), Some(q)),
        }
    }
}

/// Reads the sealed file at `path`, [`open`]s it under `header` and
/// hands its record lines to `parse`. A missing file is
/// [`Loaded::Absent`]; a file failing [`open`] or `parse` is renamed to
/// the first free `<path>.quarantined[.N]` name and reported with its
/// typed reason.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file exists but cannot be read, or
/// when the quarantine rename itself fails.
pub fn load_or_quarantine<T>(
    storage: &dyn Storage,
    path: &Path,
    header: &str,
    parse: impl FnOnce(Lines<'_>) -> Result<T, SnapshotError>,
) -> Result<Loaded<T>, SnapshotError> {
    let bytes = match storage.read_bytes(path) {
        Err(e) if e.is_not_found() => return Ok(Loaded::Absent),
        other => other?,
    };
    match open(&bytes, header).and_then(parse) {
        Ok(value) => Ok(Loaded::Valid(value)),
        Err(reason) => {
            let moved = crate::quarantine(storage, path)?;
            Ok(Loaded::Quarantined(QuarantinedSnapshot {
                path: moved,
                reason,
            }))
        }
    }
}

/// Parses the record grammar the campaign snapshot and the serve journal
/// share: one `fingerprint <hex>` line binding the file to its owner,
/// and `<keyword> <id> ...` records with unique ids, each payload (the
/// text after the keyword) parsed by `fields` given its line number.
/// Returns the fingerprint and the records by id.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] for an unknown line, a bad fingerprint,
/// a duplicate id, a missing fingerprint line, or whatever `fields`
/// rejects.
pub fn fingerprinted_records<T>(
    lines: Lines<'_>,
    keyword: &str,
    fields: impl Fn(&str, usize) -> Result<(u64, T), SnapshotError>,
) -> Result<(u64, BTreeMap<u64, T>), SnapshotError> {
    let mut fingerprint = None;
    let mut records = BTreeMap::new();
    for (line, text) in lines {
        let malformed = |message: String| SnapshotError::Malformed { line, message };
        if let Some(rest) = text.strip_prefix("fingerprint ") {
            let fp = u64::from_str_radix(rest.trim(), 16)
                .map_err(|_| malformed(format!("bad fingerprint {rest:?}")))?;
            fingerprint = Some(fp);
        } else if let Some(rest) = text
            .strip_prefix(keyword)
            .and_then(|rest| rest.strip_prefix(' '))
        {
            let (id, record) = fields(rest, line)?;
            if records.insert(id, record).is_some() {
                return Err(malformed(format!("duplicate {keyword} {id}")));
            }
        } else {
            return Err(malformed(format!("unrecognized line {text:?}")));
        }
    }
    let fingerprint = fingerprint.ok_or_else(|| SnapshotError::Malformed {
        line: 2,
        message: "missing fingerprint line".to_string(),
    })?;
    Ok((fingerprint, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sibling, RealFs};
    use std::fs;

    /// The headers of the three sealed formats in the workspace.
    const HEADERS: [&str; 3] = [
        "STEM-CAMPAIGN-SNAPSHOT v1",
        "STEM-SERVE-JOURNAL v1",
        "STEM-COLSTORE v1",
    ];

    fn sample(header: &str) -> String {
        seal(
            header,
            "fingerprint 00000000000000ff\nrecord 1 a b\nrecord 2 c d\n",
        )
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_fold(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn sealed_files_open_to_their_record_lines() {
        for header in HEADERS {
            let text = sample(header);
            let lines: Vec<_> = open(text.as_bytes(), header).expect("opens").collect();
            let records = [
                "fingerprint 00000000000000ff",
                "record 1 a b",
                "record 2 c d",
            ];
            assert_eq!(lines, (2..).zip(records).collect::<Vec<_>>(), "{header}");
            assert_eq!(
                open(seal(header, "").as_bytes(), header)
                    .expect("opens")
                    .count(),
                0
            );
        }
    }

    /// Every non-canonical spelling of the right checksum value is
    /// rejected, for every format's header. The sample's checksum has a
    /// zero top nibble, so short and `+`-prefixed spellings carry it too.
    #[test]
    fn only_the_canonical_trailer_is_accepted() {
        type Spelling = fn(u64) -> String;
        let forms: [(&str, Spelling); 9] = [
            ("uppercase", |c| format!("checksum {c:016X}\n")),
            ("plus-prefixed", |c| format!("checksum +{c:015x}\n")),
            ("short", |c| format!("checksum {c:x}\n")),
            ("long", |c| format!("checksum 0{c:016x}\n")),
            ("leading-space", |c| format!("checksum  {c:016x}\n")),
            ("trailing-space", |c| format!("checksum {c:016x} \n")),
            ("crlf", |c| format!("checksum {c:016x}\r\n")),
            ("no-newline", |c| format!("checksum {c:016x}")),
            ("blank-line-after", |c| format!("checksum {c:016x}\n\n")),
        ];
        for header in HEADERS {
            let (body, checksum) = (0u32..)
                .map(|nonce| format!("{header}\nnonce {nonce}\n"))
                .map(|body| (fnv1a64(body.as_bytes()), body))
                .find(|&(checksum, _)| checksum >> 60 == 0)
                .map(|(checksum, body)| (body, checksum))
                .expect("one in sixteen checksums qualifies");
            let canonical = format!("{body}checksum {checksum:016x}\n");
            assert!(
                open(canonical.as_bytes(), header).is_ok(),
                "{header}: canonical trailer"
            );
            for (form, spelling) in forms {
                let bytes = format!("{body}{}", spelling(checksum));
                let got = open(bytes.as_bytes(), header).err();
                assert_eq!(
                    got,
                    Some(SnapshotError::ChecksumMismatch),
                    "{header}: {form} trailer"
                );
            }
        }
    }

    #[test]
    fn damage_is_a_typed_rejection() {
        use SnapshotError::{ChecksumMismatch, MissingHeader, VersionMismatch};
        for header in HEADERS {
            let text = sample(header);
            let reject = |bytes: &[u8]| open(bytes, header).err();
            for cut in [
                header.len(),
                header.len() + 1,
                text.len() / 2,
                text.len() - 1,
            ] {
                assert_eq!(
                    reject(&text.as_bytes()[..cut]),
                    Some(ChecksumMismatch),
                    "cut {cut}"
                );
            }
            // A trailer sharing its line with a record, checksum forged.
            let joined = format!("{header}\nrecord 1");
            let joined = format!("{joined}checksum {:016x}\n", fnv1a64(joined.as_bytes()));
            assert_eq!(reject(joined.as_bytes()), Some(ChecksumMismatch));
            let mut flipped = text.clone().into_bytes();
            flipped[header.len() + 5] ^= 0x01;
            assert_eq!(reject(&flipped), Some(ChecksumMismatch));
            // A byte that is not UTF-8, on line 3.
            let mut invalid = text.clone().into_bytes();
            let at = text.find("record 1").expect("record") + 3;
            invalid[at] = 0xff;
            let message = format!("byte {at} is not UTF-8");
            assert_eq!(
                reject(&invalid),
                Some(SnapshotError::Malformed { line: 3, message })
            );
            let found = header.replace(" v1", " v999");
            let stale = text.replacen(header, &found, 1);
            assert_eq!(reject(stale.as_bytes()), Some(VersionMismatch { found }));
            let crlf = format!("{header}\r\n");
            let found = format!("{header}\r");
            assert_eq!(reject(crlf.as_bytes()), Some(VersionMismatch { found }));
            assert_eq!(reject(b""), Some(MissingHeader));
            assert_eq!(reject(b"not a sealed file\n"), Some(MissingHeader));
        }
        // Another format's file is not this format's.
        assert_eq!(
            open(sample(HEADERS[1]).as_bytes(), HEADERS[0]).err(),
            Some(MissingHeader)
        );
    }

    #[test]
    fn fingerprinted_records_reject_duplicates_and_strays() {
        let parse = |records: &str| -> Result<(u64, BTreeMap<u64, ()>), SnapshotError> {
            let text = seal(HEADERS[0], records);
            fingerprinted_records(
                open(text.as_bytes(), HEADERS[0])?,
                "record",
                |rest, line| {
                    let bad = || SnapshotError::Malformed {
                        line,
                        message: "bad id".to_string(),
                    };
                    Ok((rest.parse().map_err(|_| bad())?, ()))
                },
            )
        };
        let (fp, records) = parse("fingerprint ff\nrecord 1\nrecord 2\n").expect("valid");
        assert_eq!((fp, records.len()), (0xff, 2));
        for (records, line, message) in [
            (
                "fingerprint ff\nrecord 1\nrecord 1\n",
                4,
                "duplicate record 1",
            ),
            ("record 1\n", 2, "missing fingerprint line"),
            (
                "fingerprint ff\nrecords 1\n",
                3,
                "unrecognized line \"records 1\"",
            ),
            ("fingerprint zz\n", 2, "bad fingerprint \"zz\""),
            ("fingerprint ff\nrecord x\n", 3, "bad id"),
        ] {
            let message = message.to_string();
            assert_eq!(
                parse(records),
                Err(SnapshotError::Malformed { line, message })
            );
        }
    }

    #[test]
    fn loader_reports_absent_valid_and_quarantined() {
        let dir = std::env::temp_dir().join(format!("stem-sealed-load-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("file.sealed");
        let header = HEADERS[0];
        let count = |lines: Lines<'_>| Ok(lines.count());
        let load = || load_or_quarantine(&RealFs, &path, header, count);

        assert_eq!(load(), Ok(Loaded::Absent));
        fs::write(&path, sample(header)).expect("write");
        assert_eq!(load(), Ok(Loaded::Valid(3)));

        // A parser rejection quarantines exactly like a wrapper rejection.
        let refuse = |_: Lines<'_>| -> Result<(), _> { Err(SnapshotError::FingerprintMismatch) };
        let q = load_or_quarantine(&RealFs, &path, header, refuse).expect("quarantined");
        let evidence = QuarantinedSnapshot {
            path: sibling(&path, ".quarantined"),
            reason: SnapshotError::FingerprintMismatch,
        };
        assert_eq!(q, Loaded::Quarantined(evidence));
        assert!(!path.exists());

        // A byte that is not UTF-8 is a typed rejection, quarantined
        // beside the first piece of evidence — not an I/O error.
        let mut bytes = sample(header).into_bytes();
        bytes[header.len() + 3] = 0xff;
        fs::write(&path, &bytes).expect("write");
        let Ok(Loaded::Quarantined(q)) = load() else {
            panic!("wanted a quarantine")
        };
        assert!(
            matches!(q.reason, SnapshotError::Malformed { line: 2, .. }),
            "{:?}",
            q.reason
        );
        assert_eq!(q.path, sibling(&path, ".quarantined.1"));
        assert_eq!(fs::read(&q.path).expect("evidence kept"), bytes);
        let _ = fs::remove_dir_all(&dir);
    }
}
