//! Typed errors for the statistical substrate.
//!
//! Every quantity STEM's error model consumes (means, standard deviations,
//! error bounds, z-scores, sample counts) has a narrow legal domain; a NaN
//! or infinity slipping through Eq. (2)/(3) or the KKT solver would
//! silently poison every downstream sample size. The `try_*` entry points
//! in [`crate::clt`] and [`crate::kkt`] report domain violations as a
//! [`StatsError`] instead of panicking, so ingestion pipelines can degrade
//! gracefully; the original panicking functions remain as thin wrappers for
//! callers that treat a violation as a programming error.

/// A domain violation in a statistical computation.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A quantity that must be finite was NaN or infinite.
    NonFinite {
        /// What the quantity is (e.g. `"cluster mean"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A quantity that must be strictly positive was zero or negative.
    NonPositive {
        /// What the quantity is.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A quantity that must be nonnegative was negative.
    Negative {
        /// What the quantity is.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An input collection that must be nonempty was empty.
    Empty {
        /// What the collection is (e.g. `"cluster list"`).
        what: &'static str,
    },
    /// A count (sample size, population) below its legal minimum.
    TooFew {
        /// What is being counted.
        what: &'static str,
        /// The observed count.
        got: u64,
        /// The minimum legal count.
        min: u64,
    },
    /// A violation attributed to one cluster in a multi-cluster input.
    AtCluster {
        /// Zero-based index of the offending cluster in the input order.
        index: usize,
        /// The underlying violation.
        source: Box<StatsError>,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NonFinite { what, value } => {
                write!(f, "{what} must be finite, got {value}")
            }
            StatsError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            StatsError::Negative { what, value } => {
                write!(f, "{what} must be nonnegative, got {value}")
            }
            StatsError::Empty { what } => write!(f, "{what} must not be empty"),
            StatsError::TooFew { what, got, min } => {
                write!(f, "{what}: got {got}, need at least {min}")
            }
            StatsError::AtCluster { index, source } => {
                write!(f, "cluster {index}: {source}")
            }
        }
    }
}

impl std::error::Error for StatsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StatsError::AtCluster { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Checks that `value` is finite and strictly positive.
pub(crate) fn ensure_positive_finite(what: &'static str, value: f64) -> Result<(), StatsError> {
    if !value.is_finite() {
        return Err(StatsError::NonFinite { what, value });
    }
    if value <= 0.0 {
        return Err(StatsError::NonPositive { what, value });
    }
    Ok(())
}

/// Checks that `value` is finite and nonnegative.
pub(crate) fn ensure_nonnegative_finite(what: &'static str, value: f64) -> Result<(), StatsError> {
    if !value.is_finite() {
        return Err(StatsError::NonFinite { what, value });
    }
    if value < 0.0 {
        return Err(StatsError::Negative { what, value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StatsError::NonPositive {
            what: "mean execution time",
            value: 0.0,
        };
        assert_eq!(e.to_string(), "mean execution time must be positive, got 0");
        let e = StatsError::NonFinite {
            what: "std dev",
            value: f64::NAN,
        };
        assert!(e.to_string().contains("must be finite"));
        let e = StatsError::Empty {
            what: "cluster list",
        };
        assert!(e.to_string().contains("must not be empty"));
        let e = StatsError::TooFew {
            what: "samples",
            got: 1,
            min: 2,
        };
        assert!(e.to_string().contains("need at least 2"));
        let e = StatsError::AtCluster {
            index: 3,
            source: Box::new(StatsError::Empty { what: "cluster" }),
        };
        assert_eq!(e.to_string(), "cluster 3: cluster must not be empty");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn guards() {
        assert!(ensure_positive_finite("x", 1.0).is_ok());
        assert!(ensure_positive_finite("x", 0.0).is_err());
        assert!(ensure_positive_finite("x", f64::INFINITY).is_err());
        assert!(ensure_positive_finite("x", f64::NAN).is_err());
        assert!(ensure_nonnegative_finite("x", 0.0).is_ok());
        assert!(ensure_nonnegative_finite("x", -1.0).is_err());
        assert!(ensure_nonnegative_finite("x", f64::NEG_INFINITY).is_err());
    }
}
