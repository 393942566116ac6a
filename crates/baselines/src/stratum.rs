//! Shared stratified-sampling arithmetic for the RSS and two-phase
//! baselines: their one profile rig, clamped moment estimates and
//! deterministic integer allocation of a sample budget across strata.
//!
//! The degenerate-stratum guard lives here: a stratum whose members all
//! have *identical* times must report `sigma = 0` (the naive
//! `E[x²] − E[x]²` form can go negative by rounding and produce a NaN
//! under the square root), and a Neyman allocation whose every weight is
//! zero must fall back to population-proportional allocation instead of
//! dividing by zero.

use gpu_profile::ExecTimeProfiler;
use gpu_workload::Workload;
use stem_core::StemConfig;

/// Per-invocation profile times on STEM's paper profile rig (its profile
/// machine and measurement-noise seed, so all samplers see the same
/// profile), the strata measurements of the RSS and two-phase baselines.
pub(crate) fn profile_times(workload: &Workload) -> Vec<f64> {
    let StemConfig {
        profile_config,
        profile_seed,
        ..
    } = StemConfig::paper();
    ExecTimeProfiler::new(profile_config, profile_seed).profile(workload)
}

/// Mean and *population* standard deviation of `values`, with the
/// variance clamped at zero before the square root so that a constant
/// stratum yields exactly `sigma = 0`, never NaN. Empty input yields
/// `(0, 0)`.
pub fn mean_and_sigma(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    if is_constant(values) {
        // Identical cycles: sigma is 0 by definition. Short-circuiting
        // avoids the ~1e-14 residue the summed mean would otherwise leak
        // into the squared deviations.
        return (values[0], 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let ss: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
    (mean, (ss / n).max(0.0).sqrt())
}

/// Whether every value is bit-for-bit the first one.
fn is_constant(values: &[f64]) -> bool {
    values.iter().all(|&v| v == values[0])
}

/// Sample standard deviation (`n − 1` denominator) with the same
/// clamp-at-zero guard; fewer than two values yield `0`.
pub fn sample_sigma(values: &[f64]) -> f64 {
    if values.len() < 2 || is_constant(values) {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let ss: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
    (ss / (n - 1.0)).max(0.0).sqrt()
}

/// Distributes `budget` samples over strata proportionally to weights,
/// guaranteeing at least one sample per stratum. Deterministic
/// largest-remainder rounding; the result sums to `max(budget, strata)`.
/// A zero (or non-finite) total weight falls back to equal weights — the
/// Neyman degenerate case where every stratum looks constant.
fn allocate_by_weight(weights: &[f64], budget: u64) -> Vec<u64> {
    let strata = weights.len();
    if strata == 0 {
        return Vec::new();
    }
    let mut alloc = vec![1u64; strata];
    let spare = budget.saturating_sub(strata as u64);
    if spare == 0 {
        return alloc;
    }
    let total: f64 = weights.iter().sum();
    let uniform = vec![1.0; strata];
    let weights = if total > 0.0 && total.is_finite() {
        weights
    } else {
        &uniform[..]
    };
    let total: f64 = weights.iter().sum();

    let mut granted = 0u64;
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(strata);
    for (h, &w) in weights.iter().enumerate() {
        let ideal = spare as f64 * w / total;
        let floor = ideal.floor() as u64;
        alloc[h] += floor;
        granted += floor;
        remainders.push((ideal - floor as f64, h));
    }
    // Hand the rounding leftovers (at most one per stratum, since the
    // fractional parts sum below `strata`) to the largest fractional
    // remainders, ties broken by stratum index for determinism.
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = spare - granted;
    for &(_, h) in &remainders {
        if leftover == 0 {
            break;
        }
        alloc[h] += 1;
        leftover -= 1;
    }
    alloc
}

/// Population-proportional allocation: `m_h ∝ N_h`, at least one sample
/// per stratum (ranked-set sampling's balanced allocation).
pub fn proportional_allocation(sizes: &[u64], budget: u64) -> Vec<u64> {
    let weights: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    allocate_by_weight(&weights, budget)
}

/// Neyman allocation: `m_h ∝ N_h · σ_h`, at least one sample per stratum.
/// When every `N_h σ_h` is zero (all strata constant under the pilot),
/// falls back to population-proportional weights rather than dividing by
/// zero.
///
/// # Panics
///
/// Panics if `sizes` and `sigmas` differ in length.
pub fn neyman_allocation(sizes: &[u64], sigmas: &[f64], budget: u64) -> Vec<u64> {
    assert_eq!(sizes.len(), sigmas.len(), "one sigma per stratum required");
    let weights: Vec<f64> = sizes
        .iter()
        .zip(sigmas)
        .map(|(&n, &s)| {
            let w = n as f64 * s.max(0.0);
            if w.is_finite() {
                w
            } else {
                0.0
            }
        })
        .collect();
    if weights.iter().sum::<f64>() <= 0.0 {
        return proportional_allocation(sizes, budget);
    }
    allocate_by_weight(&weights, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stratum_yields_zero_sigma_not_nan() {
        // The regression this module exists for: identical values must
        // produce sigma exactly 0 under both estimators.
        let constant = vec![123.456789; 40];
        let (mean, sigma) = mean_and_sigma(&constant);
        assert_eq!(sigma, 0.0);
        assert!((mean - 123.456789).abs() < 1e-12);
        assert_eq!(sample_sigma(&constant), 0.0);
        // Values whose naive E[x²]−E[x]² cancels catastrophically.
        let offset: Vec<f64> = (0..64).map(|_| 1.0e9 + 0.5).collect();
        let (_, sigma) = mean_and_sigma(&offset);
        assert!(sigma.is_finite() && sigma >= 0.0, "got {sigma}");
    }

    #[test]
    fn tiny_strata_sigmas_are_defined() {
        assert_eq!(mean_and_sigma(&[]), (0.0, 0.0));
        assert_eq!(mean_and_sigma(&[7.0]).1, 0.0);
        assert_eq!(sample_sigma(&[7.0]), 0.0);
    }

    #[test]
    fn proportional_allocation_is_exact_and_floored() {
        let sizes = [100u64, 10, 1];
        let alloc = proportional_allocation(&sizes, 50);
        assert_eq!(alloc.iter().sum::<u64>(), 50);
        assert!(alloc.iter().all(|&m| m >= 1));
        assert!(alloc[0] > alloc[1] && alloc[1] >= alloc[2]);
    }

    #[test]
    fn budget_below_strata_count_still_covers_every_stratum() {
        let alloc = proportional_allocation(&[5, 5, 5, 5], 2);
        assert_eq!(alloc, vec![1, 1, 1, 1]);
    }

    #[test]
    fn neyman_follows_n_sigma_weights() {
        let sizes = [100u64, 100, 100];
        let sigmas = [10.0, 1.0, 0.0];
        let alloc = neyman_allocation(&sizes, &sigmas, 60);
        assert_eq!(alloc.iter().sum::<u64>(), 60);
        assert!(
            alloc[0] > 5 * alloc[1],
            "high-variance stratum dominates: {alloc:?}"
        );
        assert_eq!(alloc[2], 1, "constant stratum gets the floor");
    }

    #[test]
    fn all_degenerate_strata_fall_back_without_dividing_by_zero() {
        // Every stratum constant: Neyman weights are all zero. The guard
        // must hand out a population-proportional allocation, not 0/0.
        let sizes = [30u64, 10, 10];
        let sigmas = [0.0, 0.0, 0.0];
        let alloc = neyman_allocation(&sizes, &sigmas, 10);
        assert_eq!(alloc.iter().sum::<u64>(), 10);
        assert!(alloc.iter().all(|&m| m >= 1));
        assert!(
            alloc[0] > alloc[1],
            "fallback is population-proportional: {alloc:?}"
        );
    }

    #[test]
    fn allocation_is_deterministic_under_remainder_ties() {
        let sizes = [10u64, 10, 10];
        let a = proportional_allocation(&sizes, 10);
        let b = proportional_allocation(&sizes, 10);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<u64>(), 10);
    }

    #[test]
    #[should_panic(expected = "one sigma per stratum")]
    fn mismatched_tables_rejected() {
        neyman_allocation(&[1, 2], &[0.5], 4);
    }
}
