//! Job model: what a tenant submits, and what the daemon knows about it.

use std::path::PathBuf;

use gpu_workload::suites::{casio_sources, huggingface_sources, rodinia_sources, HuggingfaceScale};
use gpu_workload::{Workload, WorkloadSource};
use stem_core::StemError;
use stem_storage::{RealFs, Storage};

/// The HuggingFace suite is scaled down for service jobs so a single
/// `SUBMIT` stays interactive; the scale is part of the job identity
/// (fixed, never client-controlled), so results are reproducible.
const SERVE_HF_SCALE: f64 = 0.02;

/// Which built-in benchmark suite a job draws its workload from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteId {
    /// Synthetic Rodinia benchmarks.
    Rodinia,
    /// Synthetic CASIO benchmarks.
    Casio,
    /// Synthetic HuggingFace benchmarks (service-scaled).
    Huggingface,
}

impl SuiteId {
    /// Parses the protocol token (`rodinia` / `casio` / `huggingface`).
    pub fn parse(token: &str) -> Option<SuiteId> {
        match token {
            "rodinia" => Some(SuiteId::Rodinia),
            "casio" => Some(SuiteId::Casio),
            "huggingface" => Some(SuiteId::Huggingface),
            _ => None,
        }
    }

    /// The protocol token (also the journal serialization).
    pub fn as_str(&self) -> &'static str {
        match self {
            SuiteId::Rodinia => "rodinia",
            SuiteId::Casio => "casio",
            SuiteId::Huggingface => "huggingface",
        }
    }

    /// The suite's deferred workload sources at `seed`. Listing them
    /// generates nothing; each source carries its own seed, so
    /// materializing source `i` alone yields exactly the suite's
    /// workload `i`.
    pub fn sources(&self, seed: u64) -> Vec<WorkloadSource> {
        match self {
            SuiteId::Rodinia => rodinia_sources(seed),
            SuiteId::Casio => casio_sources(seed),
            SuiteId::Huggingface => {
                huggingface_sources(seed, HuggingfaceScale::custom(SERVE_HF_SCALE))
            }
        }
    }
}

/// A pre-materialized on-disk columnar invocation store
/// (`gpu_workload::colstore`) a job draws its workload from instead of
/// materializing a suite. The expected fingerprint is part of the job
/// identity: admission verifies it against the store manifest, and
/// dispatch re-verifies the streamed bytes, so a swapped or corrupted
/// store is a typed rejection — never wrong cycles under a stale name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRef {
    /// Store directory (holds `manifest.txt` plus `block-NNNNN.col`).
    pub path: PathBuf,
    /// The `Workload::fingerprint` the client expects the store to
    /// stream.
    pub fingerprint: u64,
}

/// One accepted unit of service work: a single-workload campaign. The
/// spec is pure data — everything needed to (re)materialize the campaign
/// after a daemon restart, which is exactly what the journal persists.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant; `STATUS`/`RESULT`/`CANCEL` require a match.
    pub tenant: String,
    /// Which benchmark suite to draw from.
    pub suite: SuiteId,
    /// Seed the suite is materialized with.
    pub suite_seed: u64,
    /// Index of the workload within the suite.
    pub workload_index: usize,
    /// Campaign repetitions.
    pub reps: u32,
    /// Campaign base seed.
    pub seed: u64,
    /// Soft deadline per `(workload, rep)` unit, ms; a unit outliving it
    /// is flagged as a straggler in job status (never killed).
    pub deadline_ms: Option<u64>,
    /// Sampler to plan with, by `standard_registry` name (`STEM`, `RSS`,
    /// `TwoPhase`, `PKA`, ...). Part of the job identity: the journal
    /// persists it so a restarted daemon resumes the campaign under the
    /// same method.
    pub sampler: String,
    /// When set, the workload streams from this pre-materialized store
    /// instead of `suite`/`suite_seed`/`workload_index` (those fields
    /// remain part of the job identity but are not materialized).
    pub store: Option<StoreRef>,
}

/// Parses a `u64` field, naming it in the error.
pub(crate) fn parse_u64(token: &str, what: &str) -> Result<u64, String> {
    token.parse().map_err(|_| format!("bad {what}: {token:?}"))
}

/// True for tokens safe to embed in one-line plain-text records: tenant
/// ids and other fields the journal and protocol echo back verbatim.
pub(crate) fn valid_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

/// True for store paths safe to embed in one-line whitespace-split
/// records (the journal and the protocol): printable ASCII, no spaces.
pub(crate) fn valid_path_token(s: &str) -> bool {
    !s.is_empty() && s.len() <= 256 && s.chars().all(|c| c.is_ascii_graphic())
}

impl JobSpec {
    /// Parses the positional job-spec grammar, shared by the wire and the
    /// journal (a `SUBMIT` request's arguments; a journal `job` record's
    /// fields after the id):
    ///
    /// ```text
    /// <tenant> <suite> <suite_seed> <workload_index> <reps> <seed> [deadline_ms [sampler [store_path store_fp]]]
    /// ```
    ///
    /// `deadline_ms` may be `-` (no deadline) so a `sampler` can follow
    /// it; the sampler defaults to `STEM`. The parsed spec is validated.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first bad field.
    pub fn parse(fields: &[&str]) -> Result<JobSpec, String> {
        // 9 fields would be a store path without its fingerprint.
        if !(6..=10).contains(&fields.len()) || fields.len() == 9 {
            return Err(format!(
                "SUBMIT takes <tenant> <suite> <suite_seed> <workload_index> <reps> \
                 <seed> [deadline_ms [sampler [store_path store_fp]]], got {} fields",
                fields.len()
            ));
        }
        if !valid_token(fields[0]) {
            return Err(format!("bad tenant: {:?}", fields[0]));
        }
        let Some(suite) = SuiteId::parse(fields[1]) else {
            return Err(format!(
                "unknown suite {:?} (rodinia|casio|huggingface)",
                fields[1]
            ));
        };
        let spec = JobSpec {
            tenant: fields[0].to_string(),
            suite,
            suite_seed: parse_u64(fields[2], "suite seed")?,
            workload_index: parse_u64(fields[3], "workload index")? as usize,
            reps: u32::try_from(parse_u64(fields[4], "rep count")?)
                .map_err(|_| format!("rep count {} too large", fields[4]))?,
            seed: parse_u64(fields[5], "seed")?,
            // `-` keeps the positional slot free for a sampler token.
            deadline_ms: match fields.get(6) {
                Some(&"-") | None => None,
                Some(d) => Some(parse_u64(d, "deadline")?),
            },
            sampler: fields.get(7).unwrap_or(&"STEM").to_string(),
            store: match (fields.get(8), fields.get(9)) {
                (Some(path), Some(fp)) => Some(StoreRef {
                    path: PathBuf::from(path),
                    fingerprint: u64::from_str_radix(fp, 16)
                        .map_err(|_| format!("bad store fingerprint: {fp:?}"))?,
                }),
                _ => None,
            },
        };
        spec.validate().map_err(|e| e.to_string())?;
        Ok(spec)
    }

    /// Renders the spec in the [`JobSpec::parse`] grammar, every optional
    /// field up to the sampler spelled out (`-` for no deadline), the
    /// store pair only when set.
    pub fn render(&self) -> String {
        let deadline = match self.deadline_ms {
            Some(ms) => ms.to_string(),
            None => "-".to_string(),
        };
        let store = match &self.store {
            Some(s) => format!(" {} {:016x}", s.path.display(), s.fingerprint),
            None => String::new(),
        };
        format!(
            "{} {} {} {} {} {} {deadline} {}{store}",
            self.tenant,
            self.suite.as_str(),
            self.suite_seed,
            self.workload_index,
            self.reps,
            self.seed,
            self.sampler,
        )
    }

    /// Structural validation: tenant token shape and a positive rep
    /// count. (The workload index is range-checked against the suite at
    /// admission and again at materialization.)
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), StemError> {
        if !valid_token(&self.tenant) {
            return Err(StemError::InvalidConfig(format!(
                "tenant must be 1-64 chars of [A-Za-z0-9._-], got {:?}",
                self.tenant
            )));
        }
        if self.reps == 0 {
            return Err(StemError::InvalidConfig(
                "at least one repetition required".to_string(),
            ));
        }
        if !valid_token(&self.sampler) {
            return Err(StemError::InvalidConfig(format!(
                "sampler must be 1-64 chars of [A-Za-z0-9._-], got {:?}",
                self.sampler
            )));
        }
        if let Some(store) = &self.store {
            if !store.path.to_str().is_some_and(valid_path_token) {
                return Err(StemError::InvalidConfig(format!(
                    "store path must be 1-256 chars of printable ASCII with no spaces, got {:?}",
                    store.path
                )));
            }
        }
        // Registry membership is checked at admission, where the sampler
        // registry lives; this validation is purely structural.
        Ok(())
    }

    /// Materializes the job's workload (suite-drawn jobs against
    /// [`RealFs`]; see [`JobSpec::workload_via`] for store-backed jobs
    /// under an injected storage).
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] if `workload_index` is out
    /// of range for the suite, or — for store-backed jobs — if the store
    /// fails any integrity check or streams a fingerprint other than the
    /// one the job expects.
    pub fn workload(&self) -> Result<Workload, StemError> {
        self.workload_via(&RealFs)
    }

    /// [`JobSpec::workload`] with the storage behind a store-backed job
    /// injected (the daemon passes its configured storage here, so
    /// chaos-family filesystems see every store read).
    ///
    /// # Errors
    ///
    /// As [`JobSpec::workload`].
    pub fn workload_via(&self, storage: &dyn Storage) -> Result<Workload, StemError> {
        if let Some(store) = &self.store {
            let loaded = gpu_workload::load_store(storage, &store.path).map_err(|e| {
                StemError::InvalidConfig(format!("store {}: {e}", store.path.display()))
            })?;
            // `load_store` already proved the stream matches the
            // manifest; this check pins it to the *client's* expectation.
            if loaded.fingerprint() != store.fingerprint {
                return Err(StemError::InvalidConfig(format!(
                    "store {} streams fingerprint {:016x}, job expects {:016x}",
                    store.path.display(),
                    loaded.fingerprint(),
                    store.fingerprint
                )));
            }
            return Ok(loaded);
        }
        self.source().map(|s| s.materialize())
    }

    /// The one deferred source a suite-drawn job materializes (only that
    /// source is ever generated, never the rest of the suite).
    ///
    /// # Errors
    ///
    /// Returns [`StemError::InvalidConfig`] if `workload_index` is out
    /// of range for the suite.
    pub(crate) fn source(&self) -> Result<WorkloadSource, StemError> {
        let mut sources = self.suite.sources(self.suite_seed);
        if self.workload_index >= sources.len() {
            return Err(StemError::InvalidConfig(format!(
                "workload index {} out of range for suite {} ({} workloads)",
                self.workload_index,
                self.suite.as_str(),
                sources.len()
            )));
        }
        Ok(sources.swap_remove(self.workload_index))
    }
}

/// Lifecycle of a job inside the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a worker (also the phase a re-admitted
    /// journal job restarts in).
    Queued,
    /// A worker is computing units right now.
    Running,
    /// Complete; `RESULT` returns the payload.
    Done,
    /// Interrupted mid-campaign (simulated kill or daemon shutdown);
    /// completed units are in the snapshot, a restart resumes them.
    Interrupted,
    /// Cancelled by its tenant; never resumed.
    Cancelled,
    /// Failed past the job retry limit; the message says why.
    Failed,
}

impl JobPhase {
    /// The protocol token for `STATUS` lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Interrupted => "interrupted",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed => "failed",
        }
    }

    /// True once the job can never run again (terminal phases).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Cancelled | JobPhase::Failed
        )
    }
}

/// A point-in-time snapshot of one job, as reported by `STATUS`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Current lifecycle phase.
    pub phase: JobPhase,
    /// True if any unit outlived the job's soft deadline (the
    /// supervisor's straggler flag, surfaced per job).
    pub straggler: bool,
    /// Units loaded from the snapshot instead of recomputed.
    pub resumed_units: u64,
    /// Units computed by the most recent run of this job.
    pub executed_units: u64,
    /// Failure detail for [`JobPhase::Failed`].
    pub message: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "t1".to_string(),
            suite: SuiteId::Rodinia,
            suite_seed: 33,
            workload_index: 0,
            reps: 2,
            seed: 1,
            deadline_ms: None,
            sampler: "STEM".to_string(),
            store: None,
        }
    }

    #[test]
    fn suite_tokens_round_trip() {
        for s in [SuiteId::Rodinia, SuiteId::Casio, SuiteId::Huggingface] {
            assert_eq!(SuiteId::parse(s.as_str()), Some(s));
        }
        assert_eq!(SuiteId::parse("mystery"), None);
    }

    #[test]
    fn spec_validation_names_bad_fields() {
        assert!(spec().validate().is_ok());
        let mut bad = spec();
        bad.tenant = "has space".to_string();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.reps = 0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.sampler = "no spaces allowed".to_string();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.store = Some(StoreRef {
            path: PathBuf::from("has space/store"),
            fingerprint: 1,
        });
        assert!(bad.validate().is_err());
        let mut ok = spec();
        ok.store = Some(StoreRef {
            path: PathBuf::from("/tmp/stores/bfs"),
            fingerprint: 0xfeed,
        });
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn store_backed_workload_streams_and_pins_the_fingerprint() {
        use gpu_workload::{StoreWriter, WorkloadSource};
        let sources = gpu_workload::suites::rodinia_sources(33);
        let source: &WorkloadSource = &sources[0];
        let reference = source.materialize();
        let dir = std::env::temp_dir()
            .join(format!("stem-serve-jobstore-{}", std::process::id()))
            .join(source.name());
        let _ = std::fs::remove_dir_all(&dir);
        let storage = RealFs;
        let mut writer = StoreWriter::create(&storage, &dir, 512).expect("create");
        let summary = source.stream(&mut writer, 512).expect("stream");
        writer.finish(&summary).expect("commit");

        let mut job = spec();
        job.store = Some(StoreRef {
            path: dir.clone(),
            fingerprint: reference.fingerprint(),
        });
        let loaded = job.workload().expect("store-backed workload");
        assert_eq!(loaded, reference, "store job streams the exact workload");

        // A lying expectation is a typed rejection, not a wrong workload.
        let mut lied = spec();
        lied.store = Some(StoreRef {
            path: dir.clone(),
            fingerprint: reference.fingerprint() ^ 1,
        });
        assert!(matches!(lied.workload(), Err(StemError::InvalidConfig(_))));
        let _ = std::fs::remove_dir_all(dir.parent().expect("parent"));
    }

    #[test]
    fn one_source_materializes_exactly_the_suites_workload() {
        use gpu_workload::suites::{casio_suite, huggingface_suite, rodinia_suite};
        let seed = 33;
        for (suite, whole) in [
            (SuiteId::Rodinia, rodinia_suite(seed)),
            (SuiteId::Casio, casio_suite(seed)),
            (
                SuiteId::Huggingface,
                huggingface_suite(seed, HuggingfaceScale::custom(SERVE_HF_SCALE)),
            ),
        ] {
            assert_eq!(suite.sources(seed).len(), whole.len(), "{}", suite.as_str());
            for (i, expected) in whole.iter().enumerate() {
                let job = JobSpec {
                    suite,
                    suite_seed: seed,
                    workload_index: i,
                    ..spec()
                };
                let w = job.workload().expect("index in range");
                let label = format!("{} #{i}", suite.as_str());
                assert_eq!(w.fingerprint(), expected.fingerprint(), "{label}");
                assert!(w == *expected, "{label}: workload differs from the suite's");
            }
            let past = JobSpec {
                suite,
                suite_seed: seed,
                workload_index: whole.len(),
                ..spec()
            };
            assert!(matches!(past.workload(), Err(StemError::InvalidConfig(_))));
        }
    }

    #[test]
    fn phases_have_stable_tokens() {
        assert_eq!(JobPhase::Queued.as_str(), "queued");
        assert!(JobPhase::Done.is_terminal());
        assert!(!JobPhase::Interrupted.is_terminal());
    }
}
