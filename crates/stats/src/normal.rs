//! The standard normal distribution.
//!
//! The Central Limit Theorem argument at the heart of STEM (Sec. 3.2) needs
//! the standard score `z_{1-alpha/2}` for a given confidence level. This
//! module provides the pdf, cdf (via `erf`) and the quantile function
//! (Acklam's rational approximation, refined with one Halley step), all
//! accurate to well below the tolerances the sampling model needs.

/// Probability density function of the standard normal distribution.
///
/// # Example
///
/// ```
/// let p = stem_stats::normal::pdf(0.0);
/// assert!((p - 0.3989422804014327).abs() < 1e-15);
/// ```
pub fn pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Error function `erf(x)`, via the Abramowitz & Stegun 7.1.26 polynomial
/// with |error| < 1.5e-7, refined to full double precision by a series/
/// continued-fraction switch. We use a high-accuracy rational approximation
/// (W. J. Cody style) adequate for all uses in this crate.
pub fn erf(x: f64) -> f64 {
    // For |x| small use the Maclaurin series; for larger |x| use the
    // complementary error function via continued fraction.
    if x < 0.0 {
        return -erf(-x);
    }
    if x < 2.0 {
        // Series: erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        let mut n = 0u32;
        while term.abs() > 1e-17 * sum.abs() && n < 200 {
            n += 1;
            term *= -x2 / n as f64;
            sum += term / (2 * n + 1) as f64;
        }
        (2.0 / std::f64::consts::PI.sqrt()) * sum
    } else {
        1.0 - erfc_large(x)
    }
}

/// Complementary error function for x >= 2 via Lentz's continued fraction.
fn erfc_large(x: f64) -> f64 {
    // erfc(x) = exp(-x^2)/(x*sqrt(pi)) * 1/(1 + 1/(2x^2 + 2/(1 + 3/(2x^2 + ...))))
    let x2 = x * x;
    // Evaluate the continued fraction K = x + 1/2/(x + 1/(x + 3/2/(x + 2/(x + ...))))
    // using the classical form erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/2/(x + 1/(x + 3/2/(...))))
    let mut f = 0.0;
    for k in (1..=60).rev() {
        f = (k as f64 / 2.0) / (x + f);
    }
    (-x2).exp() / std::f64::consts::PI.sqrt() / (x + f)
}

/// Cumulative distribution function of the standard normal distribution.
///
/// # Example
///
/// ```
/// let p = stem_stats::normal::cdf(1.959963984540054);
/// assert!((p - 0.975).abs() < 1e-12);
/// ```
pub fn cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Quantile function (inverse cdf) of the standard normal distribution.
///
/// Uses Peter Acklam's rational approximation followed by one Halley
/// refinement step, giving ~1e-15 relative accuracy over `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// # Example
///
/// ```
/// let z = stem_stats::normal::quantile(0.975);
/// assert!((z - 1.959963984540054).abs() < 1e-9);
/// ```
pub fn quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal quantile requires p in (0, 1), got {p}"
    );

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// The standard score `z_{1-alpha/2}` for a two-sided confidence level.
///
/// For a 95% confidence level this is the familiar 1.96 used throughout the
/// paper's evaluation.
///
/// # Panics
///
/// Panics if `confidence` is not strictly inside `(0, 1)`.
///
/// # Example
///
/// ```
/// let z = stem_stats::normal::z_for_confidence(0.95);
/// assert!((z - 1.96).abs() < 1e-2);
/// ```
pub fn z_for_confidence(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    quantile(0.5 + confidence / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_symmetric_and_peaked_at_zero() {
        assert!((pdf(1.3) - pdf(-1.3)).abs() < 1e-16);
        assert!(pdf(0.0) > pdf(0.1));
    }

    #[test]
    fn cdf_known_values() {
        assert!((cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((cdf(1.0) - 0.8413447460685429).abs() < 1e-12);
        assert!((cdf(-1.0) - 0.15865525393145707).abs() < 1e-12);
        assert!((cdf(2.0) - 0.9772498680518208).abs() < 1e-12);
        assert!((cdf(3.0) - 0.9986501019683699).abs() < 1e-12);
        assert!((cdf(5.0) - 0.9999997133484281).abs() < 1e-13);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-16);
        assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
        assert!((erf(2.5) - 0.999593047982555).abs() < 1e-12);
        assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[
            0.001, 0.01, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.99, 0.999,
        ] {
            let x = quantile(p);
            assert!(
                (cdf(x) - p).abs() < 1e-12,
                "round-trip failed at p={p}: cdf({x}) = {}",
                cdf(x)
            );
        }
    }

    #[test]
    fn z_95_is_1_96() {
        let z = z_for_confidence(0.95);
        assert!((z - 1.959963984540054).abs() < 1e-9);
    }

    #[test]
    fn z_99_is_2_576() {
        let z = z_for_confidence(0.99);
        assert!((z - 2.5758293035489004).abs() < 1e-9);
    }

    #[test]
    fn quantile_symmetry() {
        for &p in &[0.01, 0.2, 0.35] {
            assert!((quantile(p) + quantile(1.0 - p)).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "p in (0, 1)")]
    fn quantile_rejects_zero() {
        quantile(0.0);
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn confidence_rejects_one() {
        z_for_confidence(1.0);
    }
}
