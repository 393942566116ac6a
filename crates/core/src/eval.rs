//! Evaluation metrics: sampling error (Eq. 1), speedup, and the paper's
//! aggregation conventions (harmonic-mean speedup, arithmetic-mean error —
//! Sec. 4, citing Eeckhout's "RIP geomean speedup").

/// One repetition's outcome on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Method name.
    pub method: String,
    /// Workload name.
    pub workload: String,
    /// Sampling error in percent (Eq. 1).
    pub error_pct: f64,
    /// Speedup over full simulation (full cycles / sampled cycles).
    pub speedup: f64,
    /// Number of sampled invocations.
    pub num_samples: usize,
    /// The method's own theoretical error prediction, percent (0 if none).
    pub predicted_error_pct: f64,
}

/// Aggregated outcome over repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSummary {
    /// Method name.
    pub method: String,
    /// Workload name.
    pub workload: String,
    /// Arithmetic mean of per-rep errors, percent.
    pub mean_error_pct: f64,
    /// Harmonic mean of per-rep speedups.
    pub harmonic_speedup: f64,
    /// All repetitions.
    pub results: Vec<EvalResult>,
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Harmonic mean (the paper's speedup aggregation).
///
/// # Panics
///
/// Panics on an empty slice or nonpositive values.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "harmonic mean of empty slice");
    let recip: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "harmonic mean requires positive values");
            1.0 / v
        })
        .sum();
    values.len() as f64 / recip
}

/// One-pass streaming aggregation of per-rep (error, speedup) pairs.
///
/// Replaces the collect-two-vectors-then-mean pattern: both
/// [`arithmetic_mean`] and [`harmonic_mean`] are plain left-to-right
/// sums, so folding each repetition once, in repetition order, produces
/// bit-identical aggregates without materializing the intermediate
/// vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingAggregate {
    count: usize,
    error_sum: f64,
    recip_speedup_sum: f64,
}

impl StreamingAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one repetition's error (percent) and speedup.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is nonpositive (harmonic means require positive
    /// values, exactly as [`harmonic_mean`] enforces).
    pub fn push(&mut self, error_pct: f64, speedup: f64) {
        assert!(speedup > 0.0, "harmonic mean requires positive values");
        self.count += 1;
        self.error_sum += error_pct;
        self.recip_speedup_sum += 1.0 / speedup;
    }

    /// Number of repetitions folded so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean of the folded errors.
    ///
    /// # Panics
    ///
    /// Panics if nothing was folded.
    pub fn mean_error_pct(&self) -> f64 {
        assert!(self.count > 0, "mean of empty slice");
        self.error_sum / self.count as f64
    }

    /// Harmonic mean of the folded speedups.
    ///
    /// # Panics
    ///
    /// Panics if nothing was folded.
    pub fn harmonic_speedup(&self) -> f64 {
        assert!(self.count > 0, "harmonic mean of empty slice");
        self.count as f64 / self.recip_speedup_sum
    }
}

/// Seed of repetition `rep` under `base_seed`: the affine golden-ratio
/// map `(base + rep) * 0x9e3779b97f4a7c15`. Every evaluation driver
/// ([`crate::Pipeline::run`], [`crate::Pipeline::run_from_profile`] and
/// the campaign) seeds its reps here, so a campaign unit replays the
/// exact stream of the matching plain rep. The seed depends on the rep
/// index only — never on a worker or a retry attempt — so it is the same
/// at every thread count. The coverage calibration seeds its reps here
/// too. It predates `stem_par::split_seed`; moving to that would re-key
/// every committed `results/*.csv` figure.
pub fn rep_seed(base_seed: u64, rep: u64) -> u64 {
    base_seed.wrapping_add(rep).wrapping_mul(0x9e3779b97f4a7c15)
}

impl EvalSummary {
    /// Folds per-rep results, in rep order, into a summary: arithmetic
    /// mean error and harmonic mean speedup through one
    /// [`StreamingAggregate`] pass.
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty or a speedup is nonpositive.
    pub(crate) fn fold(method: &str, workload: &str, results: Vec<EvalResult>) -> Self {
        let mut agg = StreamingAggregate::new();
        for r in &results {
            agg.push(r.error_pct, r.speedup);
        }
        EvalSummary {
            method: method.to_string(),
            workload: workload.to_string(),
            mean_error_pct: agg.mean_error_pct(),
            harmonic_speedup: agg.harmonic_speedup(),
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), 2.0);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[2.0, 2.0]), 2.0);
    }

    #[test]
    fn streaming_aggregate_matches_two_pass_means() {
        let errors = [1.25, 0.875, 3.5, 0.0625, 2.0];
        let speedups = [2.0, 8.0, 32.0, 5.0, 11.0];
        let mut agg = StreamingAggregate::new();
        for (&e, &s) in errors.iter().zip(&speedups) {
            agg.push(e, s);
        }
        assert_eq!(agg.count(), errors.len());
        // Bit-identical, not merely close: both sides are the same
        // left-to-right folds.
        assert_eq!(agg.mean_error_pct(), arithmetic_mean(&errors));
        assert_eq!(agg.harmonic_speedup(), harmonic_mean(&speedups));
    }

    #[test]
    #[should_panic(expected = "mean of empty slice")]
    fn empty_aggregate_rejected() {
        StreamingAggregate::new().mean_error_pct();
    }

    #[test]
    fn harmonic_below_arithmetic() {
        let v = [2.0, 8.0, 32.0];
        assert!(harmonic_mean(&v) < arithmetic_mean(&v));
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn harmonic_rejects_zero() {
        harmonic_mean(&[1.0, 0.0]);
    }
}
