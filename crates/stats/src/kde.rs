//! Gaussian kernel density estimation.
//!
//! Used in two places: (1) as a smoother peak detector for the motivation
//! figures (Fig. 1/2), and (2) by the Sieve baseline, whose paper-described
//! variant optionally sub-clusters same-name kernels with KDE before
//! stratification (Sec. 5.1 notes the authors turned this off for CASIO
//! because it over-sampled — our reproduction keeps it available).

use crate::normal;

/// A Gaussian KDE over a fixed set of observations.
///
/// # Example
///
/// ```
/// use stem_stats::kde::Kde;
///
/// // Two well-separated peaks.
/// let mut samples = Vec::new();
/// for i in 0..100 {
///     samples.push(1.0 + (i % 5) as f64 * 0.01);
///     samples.push(50.0 + (i % 5) as f64 * 0.01);
/// }
/// let kde = Kde::new(&samples);
/// assert_eq!(kde.modes(256, 0.2).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kde {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Builds a KDE with Silverman's rule-of-thumb bandwidth
    /// `0.9 * min(sigma, IQR/1.34) * n^(-1/5)`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "KDE needs at least one sample");
        for &s in samples {
            assert!(s.is_finite(), "KDE samples must be finite");
        }
        let summary: crate::Summary = samples.iter().copied().collect();
        let sigma = summary.population_std_dev();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let iqr = crate::quantile::quantile_sorted(&sorted, 0.75)
            - crate::quantile::quantile_sorted(&sorted, 0.25);
        let spread = if iqr > 0.0 {
            sigma.min(iqr / 1.34)
        } else {
            sigma
        };
        let n = samples.len() as f64;
        let bandwidth = (0.9 * spread * n.powf(-0.2)).max(f64::MIN_POSITIVE);
        Kde {
            samples: samples.to_vec(),
            bandwidth,
        }
    }

    /// Evaluates the density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let n = self.samples.len() as f64;
        self.samples
            .iter()
            .map(|&s| normal::pdf((x - s) / h))
            .sum::<f64>()
            / (n * h)
    }

    /// Evaluates the density on a uniform grid of `points` spanning the data
    /// range padded by three bandwidths on each side. Returns `(xs, ys)`.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn grid(&self, points: usize) -> (Vec<f64>, Vec<f64>) {
        assert!(points >= 2, "grid needs at least two points");
        let lo = self.samples.iter().cloned().fold(f64::INFINITY, f64::min) - 3.0 * self.bandwidth;
        let hi = self
            .samples
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            + 3.0 * self.bandwidth;
        let step = (hi - lo) / (points - 1) as f64;
        let xs: Vec<f64> = (0..points).map(|i| lo + i as f64 * step).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| self.density(x)).collect();
        (xs, ys)
    }

    /// Finds modes (local maxima of the density on a grid) whose density is
    /// at least `min_fraction` of the global maximum. Returns mode locations
    /// in ascending order.
    pub fn modes(&self, grid_points: usize, min_fraction: f64) -> Vec<f64> {
        let (xs, ys) = self.grid(grid_points);
        let max = ys.iter().cloned().fold(0.0_f64, f64::max);
        if max <= 0.0 {
            return Vec::new();
        }
        let mut modes = Vec::new();
        for i in 1..ys.len() - 1 {
            if ys[i] >= ys[i - 1] && ys[i] > ys[i + 1] && ys[i] >= min_fraction * max {
                modes.push(xs[i]);
            }
        }
        modes
    }

    /// Splits the observations at density minima between detected modes —
    /// the KDE-based sub-clustering Sieve optionally applies. Returns
    /// per-cluster observation vectors (ascending by value).
    pub fn split_at_valleys(&self, grid_points: usize, min_fraction: f64) -> Vec<Vec<f64>> {
        let modes = self.modes(grid_points, min_fraction);
        if modes.len() <= 1 {
            return vec![self.samples.clone()];
        }
        let (xs, ys) = self.grid(grid_points);
        // Find the minimum-density grid point between consecutive modes.
        let mut cuts = Vec::new();
        for pair in modes.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let mut best_x = lo;
            let mut best_y = f64::INFINITY;
            for (&x, &y) in xs.iter().zip(&ys) {
                if x > lo && x < hi && y < best_y {
                    best_y = y;
                    best_x = x;
                }
            }
            cuts.push(best_x);
        }
        let mut clusters = vec![Vec::new(); cuts.len() + 1];
        for &s in &self.samples {
            let idx = cuts.iter().take_while(|&&c| s > c).count();
            clusters[idx].push(s);
        }
        clusters.retain(|c| !c.is_empty());
        clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_integrates_to_one() {
        let kde = Kde::new(&[1.0, 2.0, 2.5, 8.0, 8.2]);
        let (xs, ys) = kde.grid(2000);
        let step = xs[1] - xs[0];
        let integral: f64 = ys.iter().sum::<f64>() * step;
        assert!((integral - 1.0).abs() < 0.01, "integral = {integral}");
    }

    #[test]
    fn bimodal_detection() {
        let mut samples = Vec::new();
        for i in 0..200 {
            samples.push(10.0 + (i % 7) as f64 * 0.05);
            samples.push(100.0 + (i % 7) as f64 * 0.05);
        }
        let kde = Kde::new(&samples);
        let modes = kde.modes(512, 0.2);
        assert_eq!(modes.len(), 2, "modes: {modes:?}");
        assert!((modes[0] - 10.0).abs() < 2.0);
        assert!((modes[1] - 100.0).abs() < 2.0);
    }

    #[test]
    fn valley_split_separates_modes() {
        let mut samples = Vec::new();
        for i in 0..100 {
            samples.push(1.0 + (i % 5) as f64 * 0.01);
            samples.push(5.0 + (i % 5) as f64 * 0.01);
        }
        let kde = Kde::new(&samples);
        let clusters = kde.split_at_valleys(512, 0.2);
        assert_eq!(clusters.len(), 2);
        assert!(clusters[0].iter().all(|&v| v < 3.0));
        assert!(clusters[1].iter().all(|&v| v > 3.0));
        let n: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(n, samples.len());
    }

    #[test]
    fn unimodal_no_split() {
        let samples: Vec<f64> = (0..100).map(|i| 5.0 + (i % 10) as f64 * 0.1).collect();
        let kde = Kde::new(&samples);
        let clusters = kde.split_at_valleys(256, 0.2);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn constant_samples_do_not_panic() {
        let kde = Kde::new(&[4.0; 10]);
        assert!(kde.bandwidth > 0.0);
        assert!(kde.density(4.0).is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_rejected() {
        Kde::new(&[]);
    }
}
