//! The crash-safe job journal: which jobs this daemon has accepted.
//!
//! The journal is a sealed file (`stem_storage::sealed`; DESIGN.md §14,
//! "Sealed files") under the header `STEM-SERVE-JOURNAL v1`, rewritten
//! atomically after every admission. Its record lines:
//!
//! ```text
//! fingerprint 6b1c3f...        ; binds the file to one daemon identity
//! job <id> <SUBMIT arguments>  ; JobSpec::render, read back by JobSpec::parse
//! ```
//!
//! A `job` record is the job id followed by exactly the arguments of the
//! `SUBMIT` that admitted it, in the one job-spec grammar of
//! [`JobSpec::parse`]. The writer spells out every field up to the
//! sampler (`-` for no deadline); the reader accepts every form `SUBMIT`
//! does, so the older 8- and 9-field lines (written before samplers were
//! per-job, and before store-backed jobs) are just shorter argument lists
//! that default the sampler to `STEM` and carry no store. The reader
//! also takes `SUBMIT`'s 6-argument form (no deadline slot), which the
//! writer never emits. Upgrading the daemon never quarantines a healthy
//! journal.
//!
//! The journal records job *specs*, never results: a job's completed
//! units live in its own campaign snapshot (`job-<id>.snap` next to the
//! journal), and results are recomputed bit-identically from there on
//! restart via `Pipeline::resume_from`. Keeping results out of the
//! journal means a torn write can only ever cost queued work, not
//! correctness.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::job::{parse_u64, JobSpec};
use stem_storage::sealed::{self, QuarantinedSnapshot, SnapshotError};
use stem_storage::Storage;

/// The exact header this version writes and accepts.
pub(crate) const HEADER: &str = "STEM-SERVE-JOURNAL v1";

/// Serializes a sealed journal of `jobs`.
pub(crate) fn serialize_journal(fingerprint: u64, jobs: &BTreeMap<u64, JobSpec>) -> String {
    let mut records = String::new();
    let _ = writeln!(records, "fingerprint {fingerprint:016x}");
    for (id, spec) in jobs {
        let _ = writeln!(records, "job {id} {}", spec.render());
    }
    sealed::seal(HEADER, &records)
}

/// Parses one `job` record's payload (everything after the keyword): the
/// job id, then the spec's `SUBMIT` arguments.
fn parse_job_record(rest: &str, line: usize) -> Result<(u64, JobSpec), SnapshotError> {
    let malformed = |message: String| SnapshotError::Malformed { line, message };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let Some((id, spec)) = fields.split_first() else {
        return Err(malformed("job record has no id".to_string()));
    };
    let id = parse_u64(id, "job id").map_err(malformed)?;
    Ok((id, JobSpec::parse(spec).map_err(malformed)?))
}

/// Loads the journal at `path`, validating it against this daemon's
/// `fingerprint`. A missing file is an empty journal; a file failing any
/// check is quarantined and reported, and the daemon starts with an
/// empty job set (re-submitted jobs still resume from their per-job
/// snapshots — the journal never holds results).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] only when the file exists but cannot be
/// read or quarantined.
pub(crate) fn load_journal(
    storage: &dyn Storage,
    path: &Path,
    fingerprint: u64,
) -> Result<(BTreeMap<u64, JobSpec>, Option<QuarantinedSnapshot>), SnapshotError> {
    let loaded = sealed::load_or_quarantine(storage, path, HEADER, |lines| {
        let (fp, jobs) = sealed::fingerprinted_records(lines, "job", parse_job_record)?;
        if fp == fingerprint {
            Ok(jobs)
        } else {
            Err(SnapshotError::FingerprintMismatch)
        }
    })?;
    Ok(loaded.or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{StoreRef, SuiteId};
    use std::fs;
    use std::path::PathBuf;
    use stem_storage::{sibling, RealFs};

    fn spec(tenant: &str, idx: usize) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            suite: SuiteId::Casio,
            suite_seed: 5,
            workload_index: idx,
            reps: 2,
            seed: 9,
            deadline_ms: if idx.is_multiple_of(2) {
                Some(500)
            } else {
                None
            },
            sampler: if idx.is_multiple_of(2) { "STEM" } else { "RSS" }.to_string(),
            store: if idx.is_multiple_of(2) {
                None
            } else {
                Some(StoreRef {
                    path: PathBuf::from("/tmp/stores/bfs"),
                    fingerprint: 0xdead_beef,
                })
            },
        }
    }

    fn jobs() -> BTreeMap<u64, JobSpec> {
        let mut m = BTreeMap::new();
        m.insert(0, spec("alice", 0));
        m.insert(2, spec("bob", 1));
        m
    }

    fn parse_journal(text: &str) -> Result<(u64, BTreeMap<u64, JobSpec>), SnapshotError> {
        let lines = sealed::open(text.as_bytes(), HEADER)?;
        sealed::fingerprinted_records(lines, "job", parse_job_record)
    }

    #[test]
    fn journal_round_trips() {
        let text = serialize_journal(0xfeed, &jobs());
        assert_eq!(parse_journal(&text), Ok((0xfeed, jobs())));
    }

    /// Pins the v1 bytes of a journal holding one plain job and one
    /// store-backed job with no deadline: existing journals must keep
    /// loading, so the serializer may never change a byte.
    #[test]
    fn journal_matches_the_v1_golden_bytes() {
        let golden = "STEM-SERVE-JOURNAL v1\n\
            fingerprint 000000000000feed\n\
            job 0 alice casio 5 0 2 9 500 STEM\n\
            job 2 bob casio 5 1 2 9 - RSS /tmp/stores/bfs 00000000deadbeef\n\
            checksum 9e9bd30ffee3e98b\n";
        assert_eq!(serialize_journal(0xfeed, &jobs()), golden);
    }

    #[test]
    fn legacy_eight_field_job_lines_default_to_stem() {
        // Written before samplers were per-job (and so before stores).
        let records = "fingerprint 0000000000000003\n\
            job 0 alice casio 5 0 2 9 500\n\
            job 2 bob casio 5 1 2 9 -\n";
        let (fp, parsed) = parse_journal(&sealed::seal(HEADER, records)).expect("legacy parses");
        assert_eq!((fp, parsed.len()), (3, 2));
        for spec in parsed.values() {
            assert_eq!(spec.sampler, "STEM", "legacy jobs ran STEM");
            assert_eq!(spec.store, None);
        }
    }

    #[test]
    fn six_argument_job_lines_have_no_deadline() {
        let records = "fingerprint 0000000000000003\njob 4 alice casio 5 0 2 9\n";
        let (_, parsed) = parse_journal(&sealed::seal(HEADER, records)).expect("parses");
        let spec = &parsed[&4];
        assert_eq!((spec.deadline_ms, spec.sampler.as_str()), (None, "STEM"));
    }

    #[test]
    fn bad_job_lines_are_rejected() {
        let records = "fingerprint 0000000000000001\njob 0 alice nosuch 5 0 2 9 500 STEM\n";
        assert_eq!(
            parse_journal(&sealed::seal(HEADER, records)),
            Err(SnapshotError::Malformed {
                line: 3,
                message: "unknown suite \"nosuch\" (rodinia|casio|huggingface)".to_string()
            })
        );
    }

    #[test]
    fn load_quarantines_corruption_and_foreign_fingerprints() {
        let dir = std::env::temp_dir().join("stem-serve-journal-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("serve.journal");
        let storage = RealFs;

        // Missing file: empty journal, nothing quarantined.
        let (empty, q) = load_journal(&storage, &path, 7).expect("missing ok");
        assert!(empty.is_empty() && q.is_none());

        // Valid file, matching fingerprint.
        stem_storage::write_atomic(&storage, &path, &serialize_journal(7, &jobs())).expect("write");
        assert!(!sibling(&path, ".tmp").exists(), "tmp must be renamed away");
        let (loaded, q) = load_journal(&storage, &path, 7).expect("load");
        assert_eq!(loaded, jobs());
        assert!(q.is_none());

        // Foreign fingerprint: quarantined, empty start.
        let (loaded, q) = load_journal(&storage, &path, 8).expect("load");
        assert!(loaded.is_empty());
        let q = q.expect("quarantined");
        assert_eq!(q.reason, SnapshotError::FingerprintMismatch);
        assert!(q.path.exists());
        assert!(!path.exists());
        assert!(q.path.to_string_lossy().ends_with(".quarantined"));

        // Corrupt bytes: quarantined too — to a uniquified name, so the
        // first piece of evidence is never overwritten.
        fs::write(&path, "STEM-SERVE-JOURNAL v1\ngarbage\n").expect("write");
        let (loaded, q2) = load_journal(&storage, &path, 7).expect("load");
        assert!(loaded.is_empty());
        let q2 = q2.expect("quarantined");
        assert!(
            q2.path.to_string_lossy().ends_with(".quarantined.1"),
            "{:?}",
            q2.path
        );
        assert!(
            q.path.exists() && q2.path.exists(),
            "both evidence files retained"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
