//! Execution-time histograms (Figure 1 style) and peak detection.
//!
//! The paper's key observation is that repeated invocations of one kernel
//! produce execution-time histograms that are multi-peaked (multiple runtime
//! contexts) and/or wide (runtime jitter). This module builds fixed-width
//! histograms, renders them as ASCII (for the `repro fig1` harness) and
//! counts local maxima as a peak diagnostic.

/// A fixed-bin-width histogram over `f64` observations.
///
/// # Example
///
/// ```
/// use stem_stats::histogram::Histogram;
///
/// let h = Histogram::from_values(&[1.0, 1.1, 1.2, 9.0, 9.1], 10);
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.peak_count(0.2), 2); // bimodal
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins spanning the data
    /// range. A degenerate range (all values equal) produces one bin holding
    /// everything.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, `bins == 0`, or any value is non-finite.
    pub fn from_values(values: &[f64], bins: usize) -> Self {
        assert!(!values.is_empty(), "histogram needs at least one value");
        assert!(bins > 0, "histogram needs at least one bin");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in values {
            assert!(v.is_finite(), "histogram values must be finite");
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo == hi {
            return Histogram {
                lo,
                hi,
                counts: vec![values.len() as u64],
            };
        }
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f64;
        for &v in values {
            let idx = (((v - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Histogram { lo, hi, counts }
    }

    /// Lower edge of the first bin.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the last bin.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of bounds");
        if self.counts.len() == 1 {
            return self.lo;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Counts local maxima whose height is at least `min_fraction` of the
    /// tallest bin — a simple multi-peak diagnostic matching the visual
    /// reading of Figure 1. Neighbouring equal-height bins count once.
    pub fn peak_count(&self, min_fraction: f64) -> usize {
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0;
        }
        let threshold = (min_fraction * max as f64).max(1.0);
        let c = &self.counts;
        let n = c.len();
        let mut peaks = 0;
        let mut i = 0;
        while i < n {
            if (c[i] as f64) < threshold {
                i += 1;
                continue;
            }
            // Extend over a plateau.
            let mut j = i;
            while j + 1 < n && c[j + 1] == c[i] {
                j += 1;
            }
            let left_ok = i == 0 || c[i - 1] < c[i];
            let right_ok = j + 1 == n || c[j + 1] < c[i];
            if left_ok && right_ok {
                peaks += 1;
            }
            i = j + 1;
        }
        peaks
    }

    /// Renders a small ASCII histogram (one line per bin), used by the
    /// figure-reproduction harness.
    pub fn to_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = (c as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "{:>12.3} | {} {}\n",
                self.bin_center(i),
                "#".repeat(bar),
                c
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_partition_the_data() {
        let values = [1.0, 2.0, 2.5, 3.0, 10.0];
        let h = Histogram::from_values(&values, 4);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bins(), 4);
    }

    #[test]
    fn degenerate_range_single_bin() {
        let h = Histogram::from_values(&[3.0; 7], 10);
        assert_eq!(h.bins(), 1);
        assert_eq!(h.counts()[0], 7);
        assert_eq!(h.bin_center(0), 3.0);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let h = Histogram::from_values(&[0.0, 1.0], 10);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn bimodal_data_two_peaks() {
        let mut values = Vec::new();
        for i in 0..100 {
            values.push(10.0 + (i % 5) as f64 * 0.01);
            values.push(50.0 + (i % 5) as f64 * 0.01);
        }
        let h = Histogram::from_values(&values, 40);
        assert_eq!(h.peak_count(0.2), 2);
    }

    #[test]
    fn trimodal_data_three_peaks() {
        let mut values = Vec::new();
        for i in 0..60 {
            let j = (i % 3) as f64 * 0.002;
            values.push(1.0 + j);
            values.push(2.0 + j);
            values.push(3.0 + j);
        }
        let h = Histogram::from_values(&values, 30);
        assert_eq!(h.peak_count(0.2), 3);
    }

    #[test]
    fn unimodal_data_one_peak() {
        let values: Vec<f64> = (0..1000)
            .map(|i| {
                (i as f64 / 1000.0 - 0.5) * 6.0 // uniform ramp -> flat histogram -> 1 plateau peak
            })
            .collect();
        let h = Histogram::from_values(&values, 10);
        assert!(h.peak_count(0.5) <= 1);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let h = Histogram::from_values(&[1.0, 2.0, 3.0], 5);
        let s = h.to_ascii(20);
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_rejected() {
        Histogram::from_values(&[], 4);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_rejected() {
        Histogram::from_values(&[1.0, f64::NAN], 4);
    }
}
