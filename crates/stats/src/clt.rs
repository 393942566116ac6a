//! The single-cluster CLT error model (Sec. 3.2 of the paper).
//!
//! For a set `C` of invocations of one kernel with execution-time mean `mu`
//! and standard deviation `sigma`, the sample mean of `m` i.i.d. samples is
//! normally distributed (CLT), so the relative sampling error at confidence
//! `1 - alpha` is
//!
//! ```text
//! e = z_{1-alpha/2} * sigma / (mu * sqrt(m))        (Eq. 2)
//! ```
//!
//! and the minimal sample size guaranteeing `e <= epsilon` is
//!
//! ```text
//! m = ceil( (z_{1-alpha/2} / epsilon * sigma / mu)^2 )   (Eq. 3)
//! ```

use crate::error::{ensure_nonnegative_finite, ensure_positive_finite, StatsError};

/// Theoretical relative sampling error of the estimate `|C| * sample_mean`
/// (Eq. 2), as a fraction (not a percentage).
///
/// Returns `0.0` when `sigma == 0` (a perfectly stable kernel needs a single
/// sample and carries no sampling error).
///
/// # Errors
///
/// Returns [`StatsError`] if `mu` is nonpositive or non-finite, `sigma` is
/// negative or non-finite, `m == 0`, or `z` is nonpositive or non-finite.
pub fn try_sampling_error(mu: f64, sigma: f64, m: u64, z: f64) -> Result<f64, StatsError> {
    ensure_positive_finite("mean execution time", mu)?;
    ensure_nonnegative_finite("standard deviation", sigma)?;
    if m == 0 {
        return Err(StatsError::TooFew {
            what: "sample size",
            got: 0,
            min: 1,
        });
    }
    ensure_positive_finite("z-score", z)?;
    Ok(z * sigma / (mu * (m as f64).sqrt()))
}

/// Panicking convenience wrapper over [`try_sampling_error`].
///
/// # Panics
///
/// Panics on any input [`try_sampling_error`] rejects.
///
/// # Example
///
/// ```
/// use stem_stats::clt::sampling_error;
/// // CoV 0.5, 100 samples, z = 1.96  ->  e = 1.96 * 0.5 / 10 = 0.098
/// let e = sampling_error(10.0, 5.0, 100, 1.96);
/// assert!((e - 0.098).abs() < 1e-12);
/// ```
pub fn sampling_error(mu: f64, sigma: f64, m: u64, z: f64) -> f64 {
    match try_sampling_error(mu, sigma, m, z) {
        Ok(e) => e,
        Err(e) => panic!("{e}"),
    }
}

/// Minimal sample size ensuring the sampling error stays within `epsilon`
/// (Eq. 3). Always returns at least 1: even a zero-variance kernel must be
/// simulated once to learn its execution time.
///
/// # Errors
///
/// Returns [`StatsError`] if `mu` is nonpositive or non-finite, `sigma` is
/// negative or non-finite, or `epsilon`/`z` are nonpositive or non-finite.
pub fn try_sample_size(mu: f64, sigma: f64, epsilon: f64, z: f64) -> Result<u64, StatsError> {
    ensure_positive_finite("mean execution time", mu)?;
    ensure_nonnegative_finite("standard deviation", sigma)?;
    ensure_positive_finite("error bound", epsilon)?;
    ensure_positive_finite("z-score", z)?;
    let m = (z / epsilon * sigma / mu).powi(2).ceil();
    Ok((m as u64).max(1))
}

/// Panicking convenience wrapper over [`try_sample_size`].
///
/// # Panics
///
/// Panics on any input [`try_sample_size`] rejects.
///
/// # Example
///
/// ```
/// use stem_stats::clt::sample_size;
/// // Narrow kernel (CoV 0.05): a handful of samples suffice.
/// assert_eq!(sample_size(100.0, 5.0, 0.05, 1.96), 4);
/// // Wide kernel (CoV 1.0): thousands.
/// assert_eq!(sample_size(100.0, 100.0, 0.05, 1.96), 1537);
/// ```
pub fn sample_size(mu: f64, sigma: f64, epsilon: f64, z: f64) -> u64 {
    match try_sample_size(mu, sigma, epsilon, z) {
        Ok(m) => m,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_shrinks_with_sqrt_m() {
        let e1 = sampling_error(10.0, 4.0, 25, 1.96);
        let e2 = sampling_error(10.0, 4.0, 100, 1.96);
        assert!((e1 / e2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_sigma_zero_error() {
        assert_eq!(sampling_error(10.0, 0.0, 1, 1.96), 0.0);
        assert_eq!(sample_size(10.0, 0.0, 0.05, 1.96), 1);
    }

    #[test]
    fn paper_rule_of_thumb_magnitudes() {
        // CoV = 0.4, eps = 5%, z = 1.96: m = ceil((1.96*0.4/0.05)^2) = ceil(245.86) = 246.
        assert_eq!(sample_size(1000.0, 400.0, 0.05, 1.96), 246);
        // Only the CoV matters: the same CoV at unit mean.
        assert_eq!(sample_size(1.0, 0.4, 0.05, 1.96), 246);
    }

    #[test]
    fn sample_size_monotone_in_cov() {
        let mut last = 0;
        for cov10 in 1..=20 {
            let cov = cov10 as f64 / 10.0;
            let m = sample_size(1.0, cov, 0.05, 1.96);
            assert!(m >= last, "m must grow with CoV");
            last = m;
        }
    }

    #[test]
    fn sample_size_monotone_in_epsilon() {
        let m_tight = sample_size(1.0, 0.5, 0.01, 1.96);
        let m_loose = sample_size(1.0, 0.5, 0.25, 1.96);
        assert!(m_tight > m_loose);
    }

    #[test]
    fn sample_size_achieves_bound() {
        // With m from Eq. 3 the error from Eq. 2 is within epsilon.
        for &(mu, sigma) in &[(10.0, 1.0), (5.0, 6.0), (1000.0, 10.0), (3.0, 3.0)] {
            for &eps in &[0.01, 0.03, 0.05, 0.1, 0.25] {
                let m = sample_size(mu, sigma, eps, 1.96);
                let e = sampling_error(mu, sigma, m, 1.96);
                assert!(
                    e <= eps + 1e-12,
                    "bound violated: mu={mu} sigma={sigma} eps={eps} m={m} e={e}"
                );
            }
        }
    }

    #[test]
    fn sample_size_is_minimal() {
        // m - 1 samples would violate the bound (whenever m > 1).
        for &(mu, sigma, eps) in &[(10.0, 5.0, 0.05), (10.0, 2.0, 0.03), (7.0, 7.0, 0.1)] {
            let m = sample_size(mu, sigma, eps, 1.96);
            if m > 1 {
                let e = sampling_error(mu, sigma, m - 1, 1.96);
                assert!(
                    e > eps,
                    "m not minimal: mu={mu} sigma={sigma} eps={eps} m={m}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mean execution time must be positive")]
    fn rejects_nonpositive_mean() {
        sample_size(0.0, 1.0, 0.05, 1.96);
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn rejects_nonpositive_epsilon() {
        sample_size(1.0, 1.0, 0.0, 1.96);
    }

    #[test]
    fn try_variants_match_panicking_on_valid_input() {
        assert_eq!(try_sample_size(100.0, 5.0, 0.05, 1.96), Ok(4));
        let e = try_sampling_error(10.0, 5.0, 100, 1.96).expect("valid");
        assert!((e - sampling_error(10.0, 5.0, 100, 1.96)).abs() < 1e-15);
    }

    #[test]
    fn try_variants_reject_non_finite_inputs() {
        // NaN/Inf previously sailed through to `inf as u64` saturation.
        assert!(try_sample_size(f64::NAN, 1.0, 0.05, 1.96).is_err());
        assert!(try_sample_size(f64::INFINITY, 1.0, 0.05, 1.96).is_err());
        assert!(try_sample_size(10.0, f64::NAN, 0.05, 1.96).is_err());
        assert!(try_sample_size(10.0, f64::INFINITY, 0.05, 1.96).is_err());
        assert!(try_sample_size(10.0, 1.0, f64::NAN, 1.96).is_err());
        assert!(try_sample_size(10.0, 1.0, 0.05, f64::INFINITY).is_err());
        assert!(try_sampling_error(10.0, 1.0, 0, 1.96).is_err());
        assert!(try_sample_size(10.0, -0.1, 0.05, 1.96).is_err());
    }

    #[test]
    fn try_errors_are_typed() {
        use crate::error::StatsError;
        match try_sample_size(0.0, 1.0, 0.05, 1.96) {
            Err(StatsError::NonPositive { what, .. }) => {
                assert_eq!(what, "mean execution time");
            }
            other => panic!("expected NonPositive, got {other:?}"),
        }
        match try_sample_size(f64::NAN, 1.0, 0.05, 1.96) {
            Err(StatsError::NonFinite { what, .. }) => {
                assert_eq!(what, "mean execution time");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }
}
