//! Distance and similarity functions over feature vectors.
//!
//! PKA clusters 12-metric vectors with euclidean distance; Photon compares
//! basic-block vectors (BBVs) with a similarity threshold on the
//! normalized-manhattan similarity SimPoint-family tools use.

/// Squared euclidean distance.
///
/// `#[inline]` because this is the innermost call of the k-means
/// assignment loop; cross-crate inlining lets the caller keep both slices
/// in registers.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// BBV similarity in `[0, 1]` following the SimPoint convention: vectors are
/// L1-normalized and similarity is `1 - L1 distance / 2`. Photon's "95%
/// threshold" is evaluated against this score.
///
/// Returns `1.0` for two zero vectors and `0.0` when exactly one is zero.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn bbv_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let sa: f64 = a.iter().map(|x| x.abs()).sum();
    let sb: f64 = b.iter().map(|x| x.abs()).sum();
    match (sa == 0.0, sb == 0.0) {
        (true, true) => return 1.0,
        (true, false) | (false, true) => return 0.0,
        _ => {}
    }
    let dist: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x.abs() / sa - y.abs() / sb).abs())
        .sum();
    1.0 - dist / 2.0
}

/// Magnitude-aware BBV similarity in `[0, 1]`:
/// `1 - sum|a_i - b_i| / sum(a_i + b_i)` (the Bray–Curtis similarity).
///
/// Unlike [`bbv_similarity`], which L1-normalizes first, this score is
/// sensitive to total execution volume — two invocations of a kernel whose
/// loop bodies ran 2x as often score well below 1 even when the *relative*
/// block distribution is unchanged. Photon's matching uses this form (its
/// per-warp BBVs carry magnitude).
///
/// Returns `1.0` for two zero vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths or contain negatives.
pub fn bbv_magnitude_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut diff = 0.0;
    let mut total = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        assert!(x >= 0.0 && y >= 0.0, "BBV entries must be nonnegative");
        diff += (x - y).abs();
        total += x + y;
    }
    if total == 0.0 {
        1.0
    } else {
        1.0 - diff / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_euclidean(&[1.0], &[4.0]), 9.0);
    }

    #[test]
    fn bbv_identical_is_one() {
        assert!((bbv_similarity(&[5.0, 3.0, 2.0], &[50.0, 30.0, 20.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bbv_disjoint_is_zero() {
        assert!(bbv_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn bbv_zero_vectors() {
        assert_eq!(bbv_similarity(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(bbv_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn bbv_symmetric() {
        let a = [3.0, 1.0, 0.5];
        let b = [1.0, 2.0, 4.0];
        assert!((bbv_similarity(&a, &b) - bbv_similarity(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn magnitude_similarity_sees_volume() {
        // Same relative shape, double the magnitude: normalized similarity
        // is 1, magnitude similarity is 2/3.
        let a = [2.0, 4.0];
        let b = [4.0, 8.0];
        assert!((bbv_similarity(&a, &b) - 1.0).abs() < 1e-12);
        assert!((bbv_magnitude_similarity(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn magnitude_similarity_identical_is_one() {
        let a = [3.0, 1.0, 0.0];
        assert_eq!(bbv_magnitude_similarity(&a, &a), 1.0);
        assert_eq!(bbv_magnitude_similarity(&[0.0], &[0.0]), 1.0);
    }

    #[test]
    fn magnitude_similarity_symmetric_and_bounded() {
        let a = [1.0, 5.0];
        let b = [4.0, 0.5];
        let s = bbv_magnitude_similarity(&a, &b);
        assert!((s - bbv_magnitude_similarity(&b, &a)).abs() < 1e-15);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_rejected() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }
}
