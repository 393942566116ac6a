//! Persistent profile records: save and reload execution-time profiles.
//!
//! The paper's artifact distributes profiles as CSVs so sampling can run
//! without re-profiling; this module gives the same workflow. An
//! [`ExecTimeProfile`] pairs a workload identity with per-invocation times
//! and round-trips through the [`crate::csv`] format, ready to feed
//! `StemRootSampler::plan_from_times`. Construction and serialization are
//! fallible rather than panicking: profiles arrive from outside the
//! process, so a bad one is an input error, not a bug.

use crate::csv::{from_csv, to_csv, ParseCsvError, WriteCsvError};

/// The times handed to [`ExecTimeProfile::new`] were unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidProfileError {
    /// Workload the rejected profile claimed to describe.
    pub workload: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for InvalidProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid profile of {}: {}", self.workload, self.message)
    }
}

impl std::error::Error for InvalidProfileError {}

/// An execution-time profile of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecTimeProfile {
    workload: String,
    times: Vec<f64>,
}

impl ExecTimeProfile {
    /// Creates a profile.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProfileError`] if `times` is empty or contains
    /// nonpositive/non-finite entries (run such data through
    /// [`crate::validate::TraceValidator`] first to repair it).
    pub fn new(workload: impl Into<String>, times: Vec<f64>) -> Result<Self, InvalidProfileError> {
        let workload = workload.into();
        if times.is_empty() {
            return Err(InvalidProfileError {
                workload,
                message: "profile has no samples".to_string(),
            });
        }
        for (i, &t) in times.iter().enumerate() {
            if !t.is_finite() || t <= 0.0 {
                return Err(InvalidProfileError {
                    workload,
                    message: format!("nonpositive or non-finite time {t} at index {i}"),
                });
            }
        }
        Ok(ExecTimeProfile { workload, times })
    }

    /// Workload the profile belongs to.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Per-invocation times in stream order.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of profiled invocations.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the profile is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Serializes to the artifact CSV format (`index,time` rows).
    ///
    /// # Errors
    ///
    /// Returns [`WriteCsvError`] if the profile exceeds the CSV row cap —
    /// construction already guarantees finite positive times.
    pub fn to_csv_string(&self) -> Result<String, WriteCsvError> {
        let rows: Vec<Vec<f64>> = self
            .times
            .iter()
            .enumerate()
            .map(|(i, &t)| vec![i as f64, t])
            .collect();
        Ok(format!(
            "# workload: {}\n{}",
            self.workload,
            to_csv(&["index", "time"], &rows)?
        ))
    }

    /// Parses a profile written by [`ExecTimeProfile::to_csv_string`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseCsvError`] on malformed documents.
    pub fn from_csv_string(text: &str) -> Result<Self, ParseCsvError> {
        let mut workload = "unknown".to_string();
        let mut body = text;
        if let Some(rest) = text.strip_prefix("# workload: ") {
            if let Some((name, tail)) = rest.split_once('\n') {
                workload = name.trim().to_string();
                body = tail;
            }
        }
        let (header, rows) = from_csv(body)?;
        if header != ["index", "time"] {
            return Err(ParseCsvError {
                line: 1,
                message: format!("unexpected header {header:?}"),
            });
        }
        let mut times = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if row[1] <= 0.0 || !row[1].is_finite() {
                return Err(ParseCsvError {
                    line: i + 2,
                    message: format!("nonpositive time {}", row[1]),
                });
            }
            times.push(row[1]);
        }
        if times.is_empty() {
            return Err(ParseCsvError {
                line: 2,
                message: "profile has no rows".to_string(),
            });
        }
        Ok(ExecTimeProfile { workload, times })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = ExecTimeProfile::new("bert_infer", vec![1.5, 2.0, 99.25]).expect("valid");
        let csv = p.to_csv_string().expect("serializable");
        let back = ExecTimeProfile::from_csv_string(&csv).expect("valid profile csv");
        assert_eq!(p, back);
        assert_eq!(back.workload(), "bert_infer");
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn missing_header_comment_defaults_workload() {
        let p = ExecTimeProfile::from_csv_string("index,time\n0,5\n").expect("valid");
        assert_eq!(p.workload(), "unknown");
        assert_eq!(p.times(), &[5.0]);
    }

    #[test]
    fn wrong_header_rejected() {
        let err = ExecTimeProfile::from_csv_string("a,b\n0,5\n").expect_err("wrong header");
        assert!(err.message.contains("unexpected header"));
    }

    #[test]
    fn nonpositive_time_rejected() {
        let err = ExecTimeProfile::from_csv_string("index,time\n0,0\n").expect_err("bad time");
        assert!(err.message.contains("nonpositive"));
    }

    #[test]
    fn empty_rows_rejected() {
        assert!(ExecTimeProfile::from_csv_string("index,time\n").is_err());
    }

    #[test]
    fn empty_construction_rejected() {
        let err = ExecTimeProfile::new("x", vec![]).expect_err("no samples");
        assert!(err.to_string().contains("has no samples"));
        assert_eq!(err.workload, "x");
    }

    #[test]
    fn degenerate_times_rejected_with_index() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ExecTimeProfile::new("x", vec![1.0, bad]).expect_err("bad time");
            assert!(err.message.contains("at index 1"), "{}", err.message);
        }
    }
}
