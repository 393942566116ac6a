//! Degradation accounting: keeping STEM's bound honest on damaged traces.
//!
//! When an ingested profile needed repair (see
//! [`gpu_profile::TraceValidator`]), some per-invocation times are no
//! longer measurements but reconstructions — interval-evidence fills,
//! median imputations, or plain gaps. STEM's cluster statistics computed
//! from such a trace *understate* the uncertainty of the plan they shape.
//! This module quantifies that and widens the model accordingly.
//!
//! The mechanism is variance inflation. A repaired event contributes an
//! unknown true time; the most we can say a priori is that its deviation
//! from the cluster mean is on the order of the mean itself. With a
//! degraded fraction `d` (from
//! [`DataQualityReport::degraded_fraction`](gpu_profile::DataQualityReport::degraded_fraction)),
//! each cluster's standard deviation `sigma` becomes
//!
//! ```text
//! sigma' = sqrt(sigma^2 + d * mu^2)
//! ```
//!
//! i.e. the sample variance plus a `d`-weighted worst-case term. The KKT
//! solver then sizes clusters against `sigma'`, so a damaged trace buys
//! its confidence interval back with *more samples* rather than silently
//! reporting an unearned bound. A clean trace (`d = 0`) is untouched.

use stem_stats::kkt::ClusterStat;

/// How the pipeline responds to a trace that needed repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Refuse any trace with at least one detected fault: return
    /// [`StemError::DegradedTrace`](crate::error::StemError::DegradedTrace)
    /// carrying the quality report.
    FailFast,
    /// Repair what can be repaired, quarantine the rest, and inflate the
    /// error model by the degraded fraction (the default).
    #[default]
    RepairAndDegrade,
}

/// Widens a standard deviation by the degraded fraction of the trace:
/// `sqrt(std_dev^2 + degraded_fraction * mean^2)`.
///
/// Inputs outside their domain (negative fraction, non-finite moments) are
/// clamped rather than rejected — this runs after validation, as pure
/// arithmetic on already-vetted summaries.
pub fn inflate_std(mean: f64, std_dev: f64, degraded_fraction: f64) -> f64 {
    let d = if degraded_fraction.is_finite() {
        degraded_fraction.clamp(0.0, 1.0)
    } else {
        1.0
    };
    (std_dev * std_dev + d * mean * mean).sqrt()
}

/// Applies [`inflate_std`] to every cluster summary, returning the widened
/// statistics the KKT solver should size against. With a degraded fraction
/// of zero the input is returned bit-for-bit unchanged, so clean traces
/// plan identically with or without degradation accounting. Take the
/// fraction from
/// [`DataQualityReport::degraded_fraction`](gpu_profile::DataQualityReport::degraded_fraction).
pub fn inflate_cluster_stats(stats: &[ClusterStat], degraded_fraction: f64) -> Vec<ClusterStat> {
    if degraded_fraction <= 0.0 {
        return stats.to_vec();
    }
    stats
        .iter()
        .map(|s| ClusterStat {
            n: s.n,
            mean: s.mean,
            std_dev: inflate_std(s.mean, s.std_dev, degraded_fraction),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fraction_is_identity() {
        assert_eq!(inflate_std(10.0, 2.0, 0.0), 2.0);
    }

    #[test]
    fn inflation_grows_with_fraction() {
        let a = inflate_std(10.0, 2.0, 0.1);
        let b = inflate_std(10.0, 2.0, 0.5);
        assert!(a > 2.0);
        assert!(b > a);
        // Full degradation: sqrt(4 + 100).
        assert!((inflate_std(10.0, 2.0, 1.0) - 104.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pathological_fractions_clamped() {
        assert_eq!(inflate_std(10.0, 2.0, -0.5), 2.0);
        assert_eq!(inflate_std(10.0, 2.0, 7.0), inflate_std(10.0, 2.0, 1.0));
        assert_eq!(
            inflate_std(10.0, 2.0, f64::NAN),
            inflate_std(10.0, 2.0, 1.0)
        );
    }

    #[test]
    fn clean_fraction_returns_stats_unchanged() {
        let stats = vec![ClusterStat::new(100, 5.0, 1.0)];
        assert_eq!(inflate_cluster_stats(&stats, 0.0), stats);
    }

    #[test]
    fn degraded_fraction_widens_every_cluster() {
        let stats = vec![
            ClusterStat::new(100, 5.0, 1.0),
            ClusterStat::new(50, 20.0, 0.5),
        ];
        let wide = inflate_cluster_stats(&stats, 0.1);
        for (w, s) in wide.iter().zip(&stats) {
            assert_eq!(w.n, s.n);
            assert_eq!(w.mean, s.mean);
            assert!(w.std_dev > s.std_dev);
        }
    }

    #[test]
    fn default_policy_is_repair() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::RepairAndDegrade);
    }
}
