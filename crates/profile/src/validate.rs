//! Trace validation and repair: the ingestion gate in front of STEM/ROOT.
//!
//! Every external trace passes through a [`TraceValidator`] before its
//! times reach clustering or sample-size optimization. The validator
//! detects each fault class of [`crate::chaos`], repairs what it can with
//! evidence (re-sort by launch index, dedup, reconstruct times from start
//! timestamps), imputes what it can't (median), and reports everything in
//! a structured [`DataQualityReport`] that downstream error accounting
//! consumes to inflate confidence intervals — corrupted inputs degrade the
//! bound, never the honesty of the bound.
//!
//! Repair rules per fault class:
//!
//! | Fault | Detection | Repair |
//! |---|---|---|
//! | reordered records | launch-index inversions | stable sort (exact) |
//! | duplicated records | repeated launch index | dedup, keep first |
//! | NaN/Inf/negative time | non-finite / nonpositive check | interval evidence, else median |
//! | clock-skewed time | time ≠ start-interval | overwrite with interval (exact) |
//! | dropped records | launch-index gaps | counted; median fill on request |
//! | truncated tail | last index < expected | counted; median fill on request |
//! | ragged CSV rows | cell-count mismatch | row quarantined, counted |

use crate::chaos::TraceRecord;
use std::fmt::Write as _;

/// Relative tolerance when comparing a reported time against the interval
/// to the next start timestamp; differences beyond this are treated as
/// clock skew and repaired from the interval.
const SKEW_REL_TOL: f64 = 0.05;

/// Structured account of everything the validator saw and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataQualityReport {
    /// Records handed to the validator (after any CSV-level quarantine).
    pub input_records: usize,
    /// Records surviving validation and repair.
    pub output_records: usize,
    /// CSV rows quarantined for wrong arity or unparsable cells.
    pub ragged_rows_skipped: usize,
    /// Records removed because their launch index was already seen.
    pub duplicates_removed: usize,
    /// Launch-index inversions fixed by re-sorting (an exact repair).
    pub out_of_order_fixed: usize,
    /// Times that were NaN or infinite, repaired or imputed.
    pub non_finite_repaired: usize,
    /// Times that were zero or negative, repaired or imputed.
    pub nonpositive_repaired: usize,
    /// Times contradicting the start-timestamp interval, overwritten with
    /// the interval evidence.
    pub clock_skew_repaired: usize,
    /// Invalid times with no interval evidence, filled with the median of
    /// valid times (subset of the two `*_repaired` counters above).
    pub median_imputed: usize,
    /// Launch indices missing from the trace interior or head.
    pub missing_detected: u64,
    /// Launch indices missing from the tail (only detectable when the
    /// expected trace length is known).
    pub truncated_tail: u64,
}

impl DataQualityReport {
    /// Whether the trace passed through untouched.
    pub fn is_clean(&self) -> bool {
        self.ragged_rows_skipped == 0
            && self.duplicates_removed == 0
            && self.out_of_order_fixed == 0
            && self.non_finite_repaired == 0
            && self.nonpositive_repaired == 0
            && self.clock_skew_repaired == 0
            && self.median_imputed == 0
            && self.missing_detected == 0
            && self.truncated_tail == 0
    }

    /// Total number of detected issues, including exactly-repaired ones.
    pub fn issue_count(&self) -> u64 {
        self.ragged_rows_skipped as u64
            + self.duplicates_removed as u64
            + self.out_of_order_fixed as u64
            + self.non_finite_repaired as u64
            + self.nonpositive_repaired as u64
            + self.clock_skew_repaired as u64
            + self.missing_detected
            + self.truncated_tail
    }

    /// Events that leave residual uncertainty after repair. Re-sorting is
    /// excluded (the launch index makes it exact); everything else either
    /// replaced data (repair/imputation) or lost it (gaps, quarantine).
    pub fn degraded_events(&self) -> u64 {
        self.ragged_rows_skipped as u64
            + self.duplicates_removed as u64
            + self.non_finite_repaired as u64
            + self.nonpositive_repaired as u64
            + self.clock_skew_repaired as u64
            + self.missing_detected
            + self.truncated_tail
    }

    /// Fraction of the (reconstructed) trace population affected by
    /// degrading events, clamped to `[0, 1]`. This is the knob downstream
    /// error accounting uses to inflate confidence intervals.
    pub fn degraded_fraction(&self) -> f64 {
        let population = self.output_records as u64 + self.missing_detected + self.truncated_tail;
        if population == 0 {
            return 0.0;
        }
        (self.degraded_events() as f64 / population as f64).min(1.0)
    }
}

impl std::fmt::Display for DataQualityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "trace clean: {} records", self.output_records);
        }
        let mut parts = String::new();
        let mut push = |label: &str, n: u64| {
            if n > 0 {
                if !parts.is_empty() {
                    parts.push_str(", ");
                }
                let _ = write!(parts, "{label}: {n}");
            }
        };
        push("ragged rows", self.ragged_rows_skipped as u64);
        push("duplicates", self.duplicates_removed as u64);
        push("out-of-order", self.out_of_order_fixed as u64);
        push("non-finite", self.non_finite_repaired as u64);
        push("nonpositive", self.nonpositive_repaired as u64);
        push("clock skew", self.clock_skew_repaired as u64);
        push("imputed", self.median_imputed as u64);
        push("missing", self.missing_detected);
        push("truncated", self.truncated_tail);
        write!(
            f,
            "trace degraded ({:.1}%): {} of {} records kept; {}",
            self.degraded_fraction() * 100.0,
            self.output_records,
            self.input_records,
            parts
        )
    }
}

/// Validation failed outright — nothing usable survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The trace had no records at all.
    Empty,
    /// Every record was quarantined; nothing valid remained to repair from.
    NoUsableRecords {
        /// How many records were inspected.
        total: usize,
    },
    /// The document's header was not a recognized trace header.
    BadHeader {
        /// The header actually found.
        found: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Empty => write!(f, "trace has no records"),
            ValidationError::NoUsableRecords { total } => {
                write!(f, "no usable records among {total}: every time was invalid")
            }
            ValidationError::BadHeader { found } => {
                write!(
                    f,
                    "unrecognized trace header {found:?} (want index,time or index,start,time)"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// The ingestion gate: detects, repairs and accounts for trace faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceValidator {
    expected_len: Option<u64>,
}

impl Default for TraceValidator {
    fn default() -> Self {
        TraceValidator::new()
    }
}

impl TraceValidator {
    /// A validator with no expected-length knowledge (tail truncation is
    /// then undetectable) and the default skew tolerance.
    pub fn new() -> Self {
        TraceValidator { expected_len: None }
    }

    /// Declares how many invocations the trace should contain (usually the
    /// workload's invocation count), enabling tail-truncation detection.
    pub fn with_expected_len(mut self, n: u64) -> Self {
        self.expected_len = Some(n);
        self
    }

    /// Validates and repairs a trace.
    ///
    /// Pipeline: re-sort by launch index (counting inversions) → dedup by
    /// index → repair each invalid or skew-contradicted time from the
    /// interval to the next start timestamp when available → median-impute
    /// the remainder → count index gaps and tail truncation.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError`] when the trace is empty or no record
    /// carries a repairable time.
    pub fn validate(
        &self,
        records: &[TraceRecord],
    ) -> Result<(Vec<TraceRecord>, DataQualityReport), ValidationError> {
        let mut report = DataQualityReport {
            input_records: records.len(),
            ..DataQualityReport::default()
        };
        if records.is_empty() {
            return Err(ValidationError::Empty);
        }
        let mut recs = records.to_vec();

        report.out_of_order_fixed = recs.windows(2).filter(|w| w[1].index < w[0].index).count();
        recs.sort_by_key(|r| r.index);
        let before = recs.len();
        recs.dedup_by_key(|r| r.index);
        report.duplicates_removed = before - recs.len();

        // Interval evidence: when record i+1 is the very next launch and
        // both timestamps are sane, start[i+1] - start[i] is the true
        // execution time of record i (kernels run back-to-back in stream
        // order). That both repairs invalid times exactly and exposes
        // clock-skewed ones.
        for i in 0..recs.len() {
            let interval = if i + 1 < recs.len() && recs[i + 1].index == recs[i].index + 1 {
                let d = recs[i + 1].start - recs[i].start;
                (recs[i].start.is_finite() && d.is_finite() && d > 0.0).then_some(d)
            } else {
                None
            };
            let t = recs[i].time;
            if !t.is_finite() || t <= 0.0 {
                if t.is_finite() {
                    report.nonpositive_repaired += 1;
                } else {
                    report.non_finite_repaired += 1;
                }
                // NaN marks the record for median imputation below.
                recs[i].time = interval.unwrap_or(f64::NAN);
            } else if let Some(d) = interval {
                if (t - d).abs() > SKEW_REL_TOL * d.max(t) {
                    recs[i].time = d;
                    report.clock_skew_repaired += 1;
                }
            }
        }

        let mut valid: Vec<f64> = recs
            .iter()
            .map(|r| r.time)
            .filter(|t| t.is_finite() && *t > 0.0)
            .collect();
        if valid.is_empty() {
            return Err(ValidationError::NoUsableRecords {
                total: report.input_records,
            });
        }
        valid.sort_by(|a, b| a.total_cmp(b));
        let median = valid[valid.len() / 2];
        for r in &mut recs {
            if !r.time.is_finite() || r.time <= 0.0 {
                r.time = median;
                report.median_imputed += 1;
            }
        }

        report.missing_detected = recs[0].index
            + recs
                .windows(2)
                .map(|w| w[1].index - w[0].index - 1)
                .sum::<u64>();
        if let Some(expected) = self.expected_len {
            let last = recs[recs.len() - 1].index;
            if last + 1 < expected {
                report.truncated_tail = expected - last - 1;
            }
        }
        report.output_records = recs.len();
        Ok((recs, report))
    }

    /// Validates a trace serialized as CSV (`index,time` or
    /// `index,start,time`), quarantining ragged or unparsable rows before
    /// record-level validation.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError`] on a missing/unrecognized header or
    /// when no usable record survives quarantine.
    pub fn validate_csv(
        &self,
        text: &str,
    ) -> Result<(Vec<TraceRecord>, DataQualityReport), ValidationError> {
        let (records, skipped) = trace_from_csv_lenient(text)?;
        if records.is_empty() {
            return Err(ValidationError::NoUsableRecords { total: skipped });
        }
        let (recs, mut report) = self.validate(&records)?;
        report.ragged_rows_skipped = skipped;
        Ok((recs, report))
    }
}

/// Serializes a trace in the artifact CSV format (`index,start,time`).
pub fn trace_to_csv(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(24 * records.len() + 24);
    out.push_str("index,start,time\n");
    for r in records {
        let _ = writeln!(out, "{},{},{}", r.index, r.start, r.time);
    }
    out
}

/// Lenient trace reader: parses `index,time` or `index,start,time`
/// documents, skipping (and counting) rows with the wrong cell count or
/// unparsable cells instead of failing. Comment lines (`#`) and blank
/// lines are ignored.
fn trace_from_csv_lenient(text: &str) -> Result<(Vec<TraceRecord>, usize), ValidationError> {
    let mut lines = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or(ValidationError::Empty)?;
    let cols: Vec<&str> = header.split(',').map(str::trim).collect();
    let has_start = match cols.as_slice() {
        ["index", "time"] => false,
        ["index", "start", "time"] => true,
        _ => {
            return Err(ValidationError::BadHeader {
                found: header.to_string(),
            })
        }
    };
    let arity = cols.len();
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != arity {
            skipped += 1;
            continue;
        }
        let parsed: Option<Vec<f64>> = cells.iter().map(|c| c.trim().parse::<f64>().ok()).collect();
        let Some(vals) = parsed else {
            skipped += 1;
            continue;
        };
        // The launch index must be a sane nonnegative integer; a NaN or
        // negative index is an unusable row, not a repairable time.
        let idx = vals[0];
        if !idx.is_finite() || idx < 0.0 || idx > u64::MAX as f64 {
            skipped += 1;
            continue;
        }
        let (start, time) = if has_start {
            (vals[1], vals[2])
        } else {
            (f64::NAN, vals[1])
        };
        records.push(TraceRecord {
            index: idx as u64,
            start,
            time,
        });
    }
    Ok((records, skipped))
}

/// Reconstructs a full-length time series from a validated trace: present
/// launch indices keep their (repaired) times; missing interior, head and
/// tail indices are filled with the median so the series lines up with the
/// workload's `expected_len` invocations. Records with out-of-range
/// indices are ignored.
pub fn reconstructed_times(records: &[TraceRecord], expected_len: u64) -> Vec<f64> {
    let mut valid: Vec<f64> = records
        .iter()
        .map(|r| r.time)
        .filter(|t| t.is_finite() && *t > 0.0)
        .collect();
    if valid.is_empty() || expected_len == 0 {
        return Vec::new();
    }
    valid.sort_by(|a, b| a.total_cmp(b));
    let median = valid[valid.len() / 2];
    let mut out = vec![median; expected_len as usize];
    for r in records {
        if r.index < expected_len && r.time.is_finite() && r.time > 0.0 {
            out[r.index as usize] = r.time;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Fault, FaultPlan};

    fn clean_times(n: usize) -> Vec<f64> {
        (0..n).map(|i| 10.0 + (i % 7) as f64).collect()
    }

    /// A trace whose back-end reports no timestamps (`start = NaN`): the
    /// validator has no interval evidence and falls back to median
    /// imputation for unrepairable times.
    fn sequence_without_timestamps(times: &[f64]) -> Vec<TraceRecord> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| TraceRecord {
                index: i as u64,
                start: f64::NAN,
                time: t,
            })
            .collect()
    }

    #[test]
    fn clean_trace_passes_untouched() {
        let times = clean_times(100);
        let recs = TraceRecord::sequence(&times);
        let v = TraceValidator::new().with_expected_len(100);
        let (out, report) = v.validate(&recs).expect("clean trace validates");
        assert_eq!(out, recs);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.degraded_fraction(), 0.0);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn reorder_repaired_exactly_and_not_degraded() {
        let recs = TraceRecord::sequence(&clean_times(100));
        let bad = FaultPlan::single(3, Fault::Reorder { fraction: 0.5 }).apply(&recs);
        let (out, report) = TraceValidator::new().validate(&bad).expect("validates");
        assert_eq!(out, recs);
        assert!(report.out_of_order_fixed > 0);
        assert_eq!(report.degraded_events(), 0, "sorting is an exact repair");
    }

    #[test]
    fn duplicates_removed() {
        let recs = TraceRecord::sequence(&clean_times(100));
        let bad = FaultPlan::single(3, Fault::Duplicate { fraction: 0.2 }).apply(&recs);
        let (out, report) = TraceValidator::new().validate(&bad).expect("validates");
        assert_eq!(out, recs);
        assert!(report.duplicates_removed > 0);
    }

    #[test]
    fn invalid_times_repaired_from_intervals() {
        let recs = TraceRecord::sequence(&clean_times(100));
        let bad = FaultPlan::single(3, Fault::NanTime { fraction: 0.1 }).apply(&recs);
        let (out, report) = TraceValidator::new().validate(&bad).expect("validates");
        assert!(report.non_finite_repaired > 0);
        // Timestamps survive the fault, so every interior corruption is
        // repaired to the exact value.
        for (a, b) in out.iter().zip(&recs).take(99) {
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn invalid_times_imputed_without_timestamps() {
        let times = clean_times(100);
        let recs = sequence_without_timestamps(&times);
        let bad = FaultPlan::single(3, Fault::InfTime { fraction: 0.1 }).apply(&recs);
        let (out, report) = TraceValidator::new().validate(&bad).expect("validates");
        assert!(report.non_finite_repaired > 0);
        assert_eq!(report.median_imputed, report.non_finite_repaired);
        assert!(out.iter().all(|r| r.time.is_finite() && r.time > 0.0));
    }

    #[test]
    fn negative_times_counted_as_nonpositive() {
        let recs = TraceRecord::sequence(&clean_times(100));
        let bad = FaultPlan::single(3, Fault::NegativeTime { fraction: 0.1 }).apply(&recs);
        let (_, report) = TraceValidator::new().validate(&bad).expect("validates");
        assert!(report.nonpositive_repaired > 0);
        assert_eq!(report.non_finite_repaired, 0);
    }

    #[test]
    fn clock_skew_repaired_from_intervals() {
        let times = clean_times(200);
        let recs = TraceRecord::sequence(&times);
        let bad = FaultPlan::single(
            3,
            Fault::ClockSkew {
                fraction: 0.1,
                factor: 8.0,
            },
        )
        .apply(&recs);
        let (out, report) = TraceValidator::new().validate(&bad).expect("validates");
        assert!(report.clock_skew_repaired >= 19, "window minus last record");
        // All but possibly the final record carry exact times again.
        for (a, b) in out.iter().zip(&recs).take(199) {
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn drops_and_truncation_counted() {
        let recs = TraceRecord::sequence(&clean_times(100));
        let bad = FaultPlan::single(3, Fault::Drop { fraction: 0.2 }).apply(&recs);
        let v = TraceValidator::new().with_expected_len(100);
        let (_, report) = v.validate(&bad).expect("validates");
        assert!(report.missing_detected + report.truncated_tail > 0);

        let cut = FaultPlan::single(3, Fault::TruncateTail { fraction: 0.3 }).apply(&recs);
        let (_, report) = v.validate(&cut).expect("validates");
        assert_eq!(report.truncated_tail, 30);
    }

    #[test]
    fn empty_and_hopeless_traces_rejected() {
        let v = TraceValidator::new();
        assert_eq!(v.validate(&[]), Err(ValidationError::Empty));
        let all_bad = sequence_without_timestamps(&[f64::NAN, -1.0]);
        assert_eq!(
            v.validate(&all_bad),
            Err(ValidationError::NoUsableRecords { total: 2 })
        );
    }

    #[test]
    fn csv_roundtrip_and_ragged_quarantine() {
        let recs = TraceRecord::sequence(&clean_times(50));
        let csv = trace_to_csv(&recs);
        let v = TraceValidator::new();
        let (out, report) = v.validate_csv(&csv).expect("clean csv");
        assert_eq!(out, recs);
        assert!(report.is_clean());

        let bad = FaultPlan::single(3, Fault::RaggedRows { fraction: 0.2 }).corrupt_csv(&csv);
        let (out, report) = v.validate_csv(&bad).expect("repairable csv");
        assert!(report.ragged_rows_skipped > 0);
        assert!(!report.is_clean());
        assert!(out.len() < recs.len());
        assert!(report.to_string().contains("ragged rows"));
    }

    #[test]
    fn csv_two_column_header_accepted() {
        let (out, report) = TraceValidator::new()
            .validate_csv("index,time\n0,5\n1,6\n")
            .expect("valid");
        assert_eq!(out.len(), 2);
        assert!(out[0].start.is_nan());
        assert!(report.is_clean());
    }

    #[test]
    fn csv_bad_header_rejected() {
        let err = TraceValidator::new()
            .validate_csv("a,b\n0,5\n")
            .expect_err("bad header");
        assert!(matches!(err, ValidationError::BadHeader { .. }));
        assert!(TraceValidator::new().validate_csv("").is_err());
    }

    #[test]
    fn csv_garbage_cells_quarantined() {
        let csv = "index,time\n0,5\nnot,a,row\nfoo,bar\n1,6\n";
        let (out, report) = TraceValidator::new().validate_csv(csv).expect("valid");
        assert_eq!(out.len(), 2);
        assert_eq!(report.ragged_rows_skipped, 2);
    }

    #[test]
    fn reconstruction_fills_gaps_with_median() {
        let recs = TraceRecord::sequence(&clean_times(10));
        let bad = FaultPlan::single(5, Fault::Drop { fraction: 0.4 }).apply(&recs);
        let (out, _) = TraceValidator::new().validate(&bad).expect("validates");
        let full = reconstructed_times(&out, 10);
        assert_eq!(full.len(), 10);
        assert!(full.iter().all(|t| t.is_finite() && *t > 0.0));
        for r in &out {
            assert_eq!(full[r.index as usize], r.time);
        }
        assert!(reconstructed_times(&[], 10).is_empty());
    }

    #[test]
    fn degraded_fraction_grows_with_severity() {
        let recs = sequence_without_timestamps(&clean_times(200));
        let v = TraceValidator::new();
        let mild = FaultPlan::single(3, Fault::NanTime { fraction: 0.05 }).apply(&recs);
        let harsh = FaultPlan::single(3, Fault::NanTime { fraction: 0.4 }).apply(&recs);
        let (_, mild_r) = v.validate(&mild).expect("validates");
        let (_, harsh_r) = v.validate(&harsh).expect("validates");
        assert!(harsh_r.degraded_fraction() > mild_r.degraded_fraction());
        assert!(harsh_r.degraded_fraction() <= 1.0);
    }
}
