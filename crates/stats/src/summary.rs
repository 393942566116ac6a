//! Mergeable running summaries of a stream of observations.
//!
//! STEM's kernel signature is the *distribution of execution times* of a
//! kernel, summarized by its mean `mu`, standard deviation `sigma`, and their
//! ratio, the coefficient of variation (CoV). This module provides a
//! numerically stable, single-pass, mergeable accumulator (Welford / Chan et
//! al.) so that summaries can be computed over millions of kernel invocations
//! without holding them in memory, and combined across sub-clusters.

/// A running summary of a stream of `f64` observations.
///
/// Tracks count, mean, variance (via the sum of squared deviations `m2`),
/// minimum and maximum. Observations are added with [`Summary::push`] and two
/// summaries over disjoint streams can be combined with [`Summary::merge`].
///
/// # Example
///
/// ```
/// use stem_stats::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary over a slice in one pass.
    pub fn from_slice(values: &[f64]) -> Self {
        values.iter().copied().collect()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another summary (over a disjoint stream) into this one.
    ///
    /// Uses the parallel-variance combination of Chan, Golub & LeVeque, so
    /// `a.merge(b)` equals the summary of the concatenated streams up to
    /// floating-point rounding.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean. Returns `0.0` for an empty summary.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`). Returns `0.0` when `n < 1`.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation `sigma / mu` (population sigma).
    ///
    /// This is the hardware-robust signature highlighted in Sec. 2.3 of the
    /// paper: although absolute execution times are hardware dependent, the
    /// *relative* width of the distribution reflects the kernel's inherent
    /// runtime behaviour. Returns `0.0` when the mean is zero.
    pub fn cov(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.population_std_dev() / self.mean.abs()
        }
    }

    /// Sum of all observations (`n * mean`).
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Smallest observation. Returns `+inf` for an empty summary.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation. Returns `-inf` for an empty summary.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut s = Summary::new();
        s.push(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn matches_naive_two_pass() {
        let values = [1.5, 2.5, 2.5, 8.0, 13.25, 0.5, 99.0, 4.0];
        let s = Summary::from_slice(&values);
        let (mean, var) = naive_mean_var(&values);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a_vals = [3.0, 1.0, 4.0, 1.0, 5.0];
        let b_vals = [9.0, 2.0, 6.0];
        let mut a = Summary::from_slice(&a_vals);
        let b = Summary::from_slice(&b_vals);
        a.merge(&b);
        let all: Vec<f64> = a_vals.iter().chain(b_vals.iter()).copied().collect();
        let whole = Summary::from_slice(&all);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::from_slice(&[1.0, 2.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn cov_of_constant_stream_is_zero() {
        let s = Summary::from_slice(&[7.0; 100]);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn cov_scale_invariant() {
        let base = [10.0, 12.0, 9.0, 11.0, 13.0];
        let scaled: Vec<f64> = base.iter().map(|v| v * 1000.0).collect();
        let a = Summary::from_slice(&base);
        let b = Summary::from_slice(&scaled);
        assert!((a.cov() - b.cov()).abs() < 1e-12);
    }

    #[test]
    fn sum_matches() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.5]);
        assert!((s.sum() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn extend_matches_push() {
        let mut a = Summary::new();
        a.extend([1.0, 2.0, 3.0]);
        let b = Summary::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }
}
