//! The workspace-level typed error: everything that can go wrong between
//! raw ingested data and a finished sampling plan.
//!
//! Each substrate crate reports failures in its own vocabulary
//! ([`stem_stats::StatsError`], [`gpu_workload::WorkloadError`], the
//! profile crate's parse/validation errors); [`StemError`] unifies them so
//! that pipeline callers can `?` through the whole flow and still `match`
//! on the precise failure class afterwards. Conversions are provided via
//! `From`, so substrate errors propagate without explicit mapping.

use gpu_profile::{
    DataQualityReport, InvalidProfileError, ParseCsvError, ValidationError, WriteCsvError,
};
use gpu_workload::io::ParseWorkloadError;
use gpu_workload::WorkloadError;
use stem_par::TaskFailure;
use stem_stats::StatsError;
use stem_storage::sealed::SnapshotError;

/// Any failure on the path from ingested data to a sampling plan.
#[derive(Debug, Clone, PartialEq)]
pub enum StemError {
    /// A hyperparameter is out of range.
    InvalidConfig(String),
    /// A statistical routine rejected its inputs (degenerate cluster,
    /// non-finite moment, impossible bound).
    Stats(StatsError),
    /// A workload table is structurally inconsistent.
    Workload(WorkloadError),
    /// The plain-text workload format failed to parse.
    ParseWorkload(ParseWorkloadError),
    /// A CSV document failed to parse.
    ParseCsv(ParseCsvError),
    /// A CSV document failed to serialize.
    WriteCsv(WriteCsvError),
    /// An execution-time profile contains unusable values.
    InvalidProfile(InvalidProfileError),
    /// Trace validation could not recover anything usable.
    Validation(ValidationError),
    /// The trace is damaged and the pipeline runs under
    /// [`crate::degrade::RecoveryPolicy::FailFast`]; the report says how.
    DegradedTrace(Box<DataQualityReport>),
    /// The workload has no invocations to sample.
    EmptyWorkload,
    /// An external profile has the wrong number of entries.
    ProfileLengthMismatch {
        /// One entry per invocation required.
        expected: usize,
        /// What the caller supplied.
        got: usize,
    },
    /// A profiled execution time is nonpositive or non-finite.
    BadTime {
        /// Invocation index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A supervised worker task kept panicking after its retry budget was
    /// exhausted (see [`stem_par::Supervisor`]).
    TaskFailure(TaskFailure),
    /// A campaign snapshot could not be written or read back.
    Snapshot(SnapshotError),
    /// The campaign was interrupted (a simulated process kill from an
    /// injected fault plan); completed units are persisted in the snapshot
    /// and [`crate::Pipeline::resume_from`] picks up from there.
    Interrupted {
        /// Units persisted in the snapshot at the moment of interruption.
        completed_units: u64,
    },
    /// The streamed ground-truth executor rejected the block stream
    /// (malformed stream, or a producer/consumer fingerprint
    /// disagreement). Carries the stream error's rendered message.
    GroundTruth(String),
    /// An admission-controlled service refused new work because a bounded
    /// queue is full. Already-admitted jobs keep running; the caller should
    /// wait `retry_after_ms` and resubmit.
    Overloaded {
        /// Which queue refused admission (e.g. `"server"` or a tenant id).
        scope: String,
        /// Queue depth at the moment of rejection.
        depth: usize,
        /// Structured backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for StemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StemError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            StemError::Stats(e) => write!(f, "statistics error: {e}"),
            StemError::Workload(e) => write!(f, "workload error: {e}"),
            StemError::ParseWorkload(e) => e.fmt(f),
            StemError::ParseCsv(e) => e.fmt(f),
            StemError::WriteCsv(e) => e.fmt(f),
            StemError::InvalidProfile(e) => e.fmt(f),
            StemError::Validation(e) => write!(f, "trace validation error: {e}"),
            StemError::DegradedTrace(report) => {
                write!(
                    f,
                    "refusing degraded trace under fail-fast policy: {report}"
                )
            }
            StemError::EmptyWorkload => f.write_str("cannot sample an empty workload"),
            StemError::ProfileLengthMismatch { expected, got } => write!(
                f,
                "profile must have one entry per invocation: expected {expected}, got {got}"
            ),
            StemError::BadTime { index, value } => write!(
                f,
                "profiled time at invocation {index} must be positive and finite, got {value}"
            ),
            StemError::TaskFailure(e) => write!(f, "supervised execution failed: {e}"),
            StemError::Snapshot(e) => write!(f, "campaign snapshot error: {e}"),
            StemError::GroundTruth(msg) => {
                write!(f, "streamed ground truth failed: {msg}")
            }
            StemError::Interrupted { completed_units } => write!(
                f,
                "campaign interrupted after {completed_units} completed unit(s); \
                 resume from the snapshot to finish"
            ),
            StemError::Overloaded {
                scope,
                depth,
                retry_after_ms,
            } => write!(
                f,
                "overloaded: {scope} queue full at depth {depth}; \
                 retry after {retry_after_ms} ms"
            ),
        }
    }
}

impl std::error::Error for StemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StemError::Stats(e) => Some(e),
            StemError::Workload(e) => Some(e),
            StemError::ParseWorkload(e) => Some(e),
            StemError::ParseCsv(e) => Some(e),
            StemError::WriteCsv(e) => Some(e),
            StemError::InvalidProfile(e) => Some(e),
            StemError::Validation(e) => Some(e),
            StemError::TaskFailure(e) => Some(e),
            StemError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for StemError {
    fn from(e: StatsError) -> Self {
        StemError::Stats(e)
    }
}

impl From<WorkloadError> for StemError {
    fn from(e: WorkloadError) -> Self {
        StemError::Workload(e)
    }
}

impl From<ParseWorkloadError> for StemError {
    fn from(e: ParseWorkloadError) -> Self {
        StemError::ParseWorkload(e)
    }
}

impl From<ParseCsvError> for StemError {
    fn from(e: ParseCsvError) -> Self {
        StemError::ParseCsv(e)
    }
}

impl From<WriteCsvError> for StemError {
    fn from(e: WriteCsvError) -> Self {
        StemError::WriteCsv(e)
    }
}

impl From<InvalidProfileError> for StemError {
    fn from(e: InvalidProfileError) -> Self {
        StemError::InvalidProfile(e)
    }
}

impl From<ValidationError> for StemError {
    fn from(e: ValidationError) -> Self {
        StemError::Validation(e)
    }
}

impl From<TaskFailure> for StemError {
    fn from(e: TaskFailure) -> Self {
        StemError::TaskFailure(e)
    }
}

impl From<SnapshotError> for StemError {
    fn from(e: SnapshotError) -> Self {
        StemError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages() {
        assert_eq!(
            StemError::EmptyWorkload.to_string(),
            "cannot sample an empty workload"
        );
        assert_eq!(
            StemError::ProfileLengthMismatch {
                expected: 4,
                got: 3
            }
            .to_string(),
            "profile must have one entry per invocation: expected 4, got 3"
        );
        let bad = StemError::BadTime {
            index: 2,
            value: f64::NAN,
        };
        assert!(bad.to_string().contains("invocation 2"));
        assert!(StemError::InvalidConfig("epsilon must be in (0, 1)".into())
            .to_string()
            .starts_with("invalid config"));
    }

    #[test]
    fn wrapped_errors_expose_source() {
        let e: StemError = ValidationError::Empty.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("trace validation error"));
        assert!(StemError::EmptyWorkload.source().is_none());
    }

    #[test]
    fn from_conversions_preserve_payload() {
        let parse = ParseWorkloadError {
            line: 7,
            message: "bad number".to_string(),
        };
        let e: StemError = parse.clone().into();
        assert_eq!(e, StemError::ParseWorkload(parse));
    }
}
