//! The multi-cluster joint sample-size optimization (Sec. 3.3, Problem 1).
//!
//! Given kernel clusters `C_0..C_{k-1}` with sizes `N_i`, execution-time
//! means `mu_i` and standard deviations `sigma_i`, STEM minimizes the total
//! sampled simulation time `tau = sum_i m_i * mu_i` subject to the joint
//! error-bound constraint (Eq. 5)
//!
//! ```text
//! sum_i N_i^2 sigma_i^2 / m_i  <=  ( epsilon * sum_i N_i mu_i / z )^2 = c
//! ```
//!
//! The KKT conditions give the closed-form optimum (appendix 9.1):
//!
//! ```text
//! m_i = ( sum_j sqrt(a_j b_j) / c ) * sqrt(b_i / a_i),
//! a_i = mu_i,  b_i = N_i^2 sigma_i^2.
//! ```
//!
//! (The body's Eq. (6) typesets the leading factor as `sqrt(sum_j a_j b_j)`;
//! the appendix derivation — `lambda_k = (sum_i sqrt(a_i b_i) / c)^2`,
//! `m_i = sqrt(lambda_k b_i / a_i)` — yields `sum_j sqrt(a_j b_j)`, which is
//! the stationary point actually satisfying the constraint with equality. We
//! implement the appendix form.)
//!
//! Practical refinements on top of the closed form:
//!
//! * `m_i` is rounded up to an integer (minor sub-optimality, as the paper
//!   notes) and floored at 1.
//! * When the optimum wants more samples than a cluster has invocations
//!   (`m_i > N_i`), the cluster is *fully simulated* (`m_i = N_i`, exact
//!   contribution) and the solver re-optimizes the remaining clusters against
//!   the residual error budget — the standard capped Neyman-allocation
//!   iteration. This situation is common in small Rodinia-style workloads.

use crate::error::{ensure_nonnegative_finite, ensure_positive_finite, StatsError};

/// Per-cluster statistics consumed by the solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterStat {
    /// Number of invocations in the cluster (`N_i`).
    pub n: u64,
    /// Mean execution time (`mu_i`).
    pub mean: f64,
    /// Population standard deviation of execution time (`sigma_i`).
    pub std_dev: f64,
}

impl ClusterStat {
    /// Validating constructor.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if `n == 0`, `mean` is nonpositive or
    /// non-finite, or `std_dev` is negative or non-finite.
    pub fn try_new(n: u64, mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if n == 0 {
            return Err(StatsError::TooFew {
                what: "cluster invocation count",
                got: 0,
                min: 1,
            });
        }
        ensure_positive_finite("cluster mean", mean)?;
        ensure_nonnegative_finite("cluster std dev", std_dev)?;
        Ok(ClusterStat { n, mean, std_dev })
    }

    /// Panicking convenience wrapper over [`ClusterStat::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any input [`ClusterStat::try_new`] rejects.
    pub fn new(n: u64, mean: f64, std_dev: f64) -> Self {
        match ClusterStat::try_new(n, mean, std_dev) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Total execution time contributed by the cluster (`N_i * mu_i`).
    pub fn total_time(&self) -> f64 {
        self.n as f64 * self.mean
    }

    /// The constraint coefficient `b_i = N_i^2 sigma_i^2`.
    fn b(&self) -> f64 {
        let n = self.n as f64;
        n * n * self.std_dev * self.std_dev
    }
}

/// Result of the joint optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct KktSolution {
    /// Optimal sample size per cluster, aligned with the input order.
    pub sizes: Vec<u64>,
    /// Objective value `tau = sum_i m_i mu_i` — the expected total execution
    /// time of the sampled kernels, a proxy for sampled simulation time.
    pub tau: f64,
    /// Theoretical relative error of the resulting estimator
    /// (`z * sqrt(sum b_i / m_i) / sum N_i mu_i`), excluding fully-simulated
    /// clusters, which contribute exactly.
    pub predicted_error: f64,
    /// Whether the error-bound constraint is met. Always true except in the
    /// degenerate case where even full simulation of every cluster cannot
    /// satisfy it (impossible by construction: full simulation has zero
    /// sampling error, so this is true whenever the inputs are finite).
    pub bound_met: bool,
}

/// Solves Problem 1: minimal-`tau` sample sizes meeting the joint error
/// bound `epsilon` at standard score `z` (Eq. 6 / appendix 9.1).
///
/// Returns one sample size per input cluster. Clusters whose optimum exceeds
/// their population are fully simulated and excluded from the error budget
/// (their estimate is exact), with the remaining clusters re-optimized.
///
/// # Errors
///
/// Returns [`StatsError`] if `clusters` is empty, `epsilon`/`z` are
/// nonpositive or non-finite, or any cluster carries a degenerate statistic
/// (empty, nonpositive/non-finite mean, negative/non-finite std dev) — the
/// offending cluster is identified by [`StatsError::AtCluster`].
pub fn try_solve_sample_sizes(
    clusters: &[ClusterStat],
    epsilon: f64,
    z: f64,
) -> Result<KktSolution, StatsError> {
    if clusters.is_empty() {
        return Err(StatsError::Empty {
            what: "cluster list",
        });
    }
    ensure_positive_finite("error bound", epsilon)?;
    ensure_positive_finite("z-score", z)?;
    for (i, c) in clusters.iter().enumerate() {
        // Re-validate: `ClusterStat` fields are public, so a stat built by
        // struct literal (or mutated since `try_new`) can be degenerate.
        if let Err(e) = ClusterStat::try_new(c.n, c.mean, c.std_dev) {
            return Err(StatsError::AtCluster {
                index: i,
                source: Box::new(e),
            });
        }
    }
    Ok(solve_validated(clusters, epsilon, z))
}

/// Panicking convenience wrapper over [`try_solve_sample_sizes`].
///
/// # Panics
///
/// Panics on any input [`try_solve_sample_sizes`] rejects.
///
/// # Example
///
/// ```
/// use stem_stats::{ClusterStat, solve_sample_sizes};
///
/// let clusters = vec![
///     ClusterStat::new(100_000, 10.0, 4.0),  // wide, cheap kernel
///     ClusterStat::new(50_000, 200.0, 2.0),  // narrow, expensive kernel
/// ];
/// let sol = solve_sample_sizes(&clusters, 0.05, 1.96);
/// assert!(sol.bound_met);
/// // The wide kernel receives far more samples relative to its stability.
/// assert!(sol.sizes[0] > sol.sizes[1]);
/// ```
pub fn solve_sample_sizes(clusters: &[ClusterStat], epsilon: f64, z: f64) -> KktSolution {
    match try_solve_sample_sizes(clusters, epsilon, z) {
        Ok(sol) => sol,
        Err(e) => panic!("{e}"),
    }
}

/// The capped Neyman-allocation iteration over pre-validated inputs.
fn solve_validated(clusters: &[ClusterStat], epsilon: f64, z: f64) -> KktSolution {
    let total_time: f64 = clusters.iter().map(ClusterStat::total_time).sum();
    let c_budget = (epsilon * total_time / z).powi(2);

    let mut sizes = vec![0u64; clusters.len()];
    // `active` holds indices still being jointly optimized; capped clusters
    // drop out and their (zero) error contribution leaves the budget intact.
    let mut active: Vec<usize> = (0..clusters.len()).collect();
    // Zero-variance clusters need exactly one sample and contribute no error.
    active.retain(|&i| {
        if clusters[i].std_dev == 0.0 {
            sizes[i] = 1;
            false
        } else {
            true
        }
    });

    let budget = c_budget;
    loop {
        if active.is_empty() {
            break;
        }
        if budget <= 0.0 {
            // No slack left: fully simulate everything still active.
            for &i in &active {
                sizes[i] = clusters[i].n;
            }
            break;
        }
        // Closed-form optimum over the active set.
        let s: f64 = active
            .iter()
            .map(|&i| (clusters[i].mean * clusters[i].b()).sqrt())
            .sum();
        let mut any_capped = false;
        let mut next_active = Vec::with_capacity(active.len());
        for &i in &active {
            let c = &clusters[i];
            let m_real = s / budget * (c.b() / c.mean).sqrt();
            if m_real >= c.n as f64 {
                // Fully simulate: exact estimate, drop from the error budget.
                sizes[i] = c.n;
                any_capped = true;
            } else {
                next_active.push(i);
            }
        }
        if !any_capped {
            for &i in &next_active {
                let c = &clusters[i];
                let m_real = s / budget * (c.b() / c.mean).sqrt();
                sizes[i] = (m_real.ceil() as u64).clamp(1, c.n);
            }
            break;
        }
        active = next_active;
    }

    // Evaluate the achieved bound over partially-sampled clusters only.
    let mut var_sum = 0.0;
    let mut tau = 0.0;
    for (i, c) in clusters.iter().enumerate() {
        tau += sizes[i] as f64 * c.mean;
        if sizes[i] < c.n && c.std_dev > 0.0 {
            var_sum += c.b() / sizes[i] as f64;
        }
    }
    let predicted_error = if total_time > 0.0 {
        z * var_sum.sqrt() / total_time
    } else {
        0.0
    };
    let bound_met = predicted_error <= epsilon + 1e-12;

    KktSolution {
        sizes,
        tau,
        predicted_error,
        bound_met,
    }
}

/// Baseline allocation applying the single-cluster Eq. (3) independently to
/// every cluster (each cluster gets its own full `epsilon` budget).
///
/// The paper reports that joint KKT optimization reduces the total sample
/// size by 2–3x versus this per-cluster allocation; the `ablation-kkt`
/// harness reproduces that comparison.
///
/// # Panics
///
/// Panics on any cluster statistic or `epsilon`/`z` that
/// [`crate::clt::sample_size`] rejects.
pub fn per_cluster_sample_sizes(clusters: &[ClusterStat], epsilon: f64, z: f64) -> Vec<u64> {
    clusters
        .iter()
        .map(|c| {
            let m = crate::clt::sample_size(c.mean, c.std_dev, epsilon, z);
            m.min(c.n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(n: u64, mean: f64, sd: f64) -> ClusterStat {
        ClusterStat::new(n, mean, sd)
    }

    #[test]
    fn single_cluster_matches_eq3() {
        // With one (large) cluster the KKT optimum degenerates to Eq. 3:
        // m = (z sigma / eps mu)^2 because c = (eps N mu / z)^2 and
        // m = (sqrt(mu) N sigma / c) * N sigma / sqrt(mu) = N^2 sigma^2 / c.
        let c = big(1_000_000, 10.0, 3.0);
        let sol = solve_sample_sizes(&[c], 0.05, 1.96);
        let eq3 = crate::clt::sample_size(10.0, 3.0, 0.05, 1.96);
        assert_eq!(sol.sizes[0], eq3);
    }

    #[test]
    fn constraint_satisfied() {
        let clusters = vec![
            big(10_000, 5.0, 2.0),
            big(200_000, 50.0, 10.0),
            big(3_000, 500.0, 400.0),
            big(1_000_000, 1.0, 0.9),
        ];
        let sol = solve_sample_sizes(&clusters, 0.05, 1.96);
        assert!(sol.bound_met);
        assert!(sol.predicted_error <= 0.05 + 1e-12);
    }

    #[test]
    fn joint_beats_per_cluster() {
        // The paper's Sec. 3.3 claim: joint optimization needs fewer samples.
        let clusters = vec![
            big(100_000, 10.0, 5.0),
            big(100_000, 12.0, 6.0),
            big(100_000, 8.0, 3.0),
            big(100_000, 20.0, 9.0),
        ];
        let joint: u64 = solve_sample_sizes(&clusters, 0.05, 1.96).sizes.iter().sum();
        let per: u64 = per_cluster_sample_sizes(&clusters, 0.05, 1.96).iter().sum();
        assert!(joint < per, "joint {joint} should beat per-cluster {per}");
        // The paper reports a 2-3x reduction on average; with equal-weight
        // clusters of similar CoV the reduction approaches k (here 4).
        assert!(per as f64 / joint as f64 > 1.5);
    }

    #[test]
    fn zero_variance_cluster_gets_one_sample() {
        let clusters = vec![big(1000, 10.0, 0.0), big(100_000, 10.0, 5.0)];
        let sol = solve_sample_sizes(&clusters, 0.05, 1.96);
        assert_eq!(sol.sizes[0], 1);
        assert!(sol.sizes[1] > 1);
        assert!(sol.bound_met);
    }

    #[test]
    fn all_zero_variance() {
        let clusters = vec![big(10, 1.0, 0.0), big(20, 2.0, 0.0)];
        let sol = solve_sample_sizes(&clusters, 0.05, 1.96);
        assert_eq!(sol.sizes, vec![1, 1]);
        assert_eq!(sol.predicted_error, 0.0);
        assert!(sol.bound_met);
    }

    #[test]
    fn tiny_cluster_is_fully_simulated_and_budget_reused() {
        // A tiny, wildly varying cluster would demand m >> N; the solver must
        // cap it to full simulation and still meet the bound overall.
        let clusters = vec![
            big(5, 1.0e6, 3.0e6), // heartwall-style outlier group dominating variance
            big(100_000, 10.0, 2.0),
        ];
        let sol = solve_sample_sizes(&clusters, 0.05, 1.96);
        assert_eq!(sol.sizes[0], 5);
        assert!(sol.bound_met);
        // The big cluster should not be over-sampled once the outlier group
        // is exact: its own Eq. 3 size is an upper bound here.
        let eq3 = crate::clt::sample_size(10.0, 2.0, 0.05, 1.96);
        assert!(sol.sizes[1] <= eq3);
    }

    #[test]
    fn sizes_never_exceed_population() {
        let clusters = vec![big(3, 10.0, 50.0), big(7, 5.0, 20.0), big(2, 1.0, 9.0)];
        let sol = solve_sample_sizes(&clusters, 0.01, 1.96);
        for (s, c) in sol.sizes.iter().zip(&clusters) {
            assert!(*s <= c.n);
            assert!(*s >= 1);
        }
        // Everything fully simulated -> exact - bound trivially met.
        assert!(sol.bound_met);
        assert_eq!(sol.predicted_error, 0.0);
    }

    #[test]
    fn tau_matches_sizes() {
        let clusters = vec![big(1000, 2.0, 1.0), big(1000, 3.0, 1.5)];
        let sol = solve_sample_sizes(&clusters, 0.1, 1.96);
        let tau: f64 = sol
            .sizes
            .iter()
            .zip(&clusters)
            .map(|(m, c)| *m as f64 * c.mean)
            .sum();
        assert!((sol.tau - tau).abs() < 1e-9);
    }

    #[test]
    fn tighter_epsilon_needs_more_samples() {
        let clusters = vec![big(100_000, 10.0, 4.0), big(100_000, 7.0, 3.0)];
        let total = |eps| -> u64 { solve_sample_sizes(&clusters, eps, 1.96).sizes.iter().sum() };
        assert!(total(0.01) > total(0.25));
    }

    #[test]
    fn allocation_favors_high_variance_contributors() {
        // Two clusters identical except sigma: the wider one gets more samples
        // (proportional to N sigma / sqrt(mu)).
        let clusters = vec![big(100_000, 10.0, 8.0), big(100_000, 10.0, 2.0)];
        let sol = solve_sample_sizes(&clusters, 0.05, 1.96);
        assert!(sol.sizes[0] > sol.sizes[1]);
        let ratio = sol.sizes[0] as f64 / sol.sizes[1] as f64;
        assert!((ratio - 4.0).abs() < 0.1, "expected ~4x, got {ratio}");
    }

    #[test]
    #[should_panic(expected = "cluster list must not be empty")]
    fn rejects_empty_input() {
        solve_sample_sizes(&[], 0.05, 1.96);
    }

    #[test]
    #[should_panic(expected = "cluster invocation count: got 0, need at least 1")]
    fn rejects_empty_cluster() {
        ClusterStat::new(0, 1.0, 0.0);
    }

    #[test]
    fn try_solver_matches_panicking_on_valid_input() {
        let clusters = vec![big(100_000, 10.0, 4.0), big(50_000, 200.0, 2.0)];
        let sol = try_solve_sample_sizes(&clusters, 0.05, 1.96).expect("valid");
        assert_eq!(sol, solve_sample_sizes(&clusters, 0.05, 1.96));
    }

    #[test]
    fn try_solver_pinpoints_degenerate_cluster() {
        // A NaN mean smuggled in via struct literal must be caught and
        // attributed to the right cluster index.
        let clusters = vec![
            big(1000, 10.0, 4.0),
            ClusterStat {
                n: 1000,
                mean: f64::NAN,
                std_dev: 1.0,
            },
        ];
        match try_solve_sample_sizes(&clusters, 0.05, 1.96) {
            Err(StatsError::AtCluster { index, source }) => {
                assert_eq!(index, 1);
                assert!(matches!(*source, StatsError::NonFinite { .. }));
            }
            other => panic!("expected AtCluster, got {other:?}"),
        }
        assert!(try_solve_sample_sizes(&[], 0.05, 1.96).is_err());
        assert!(try_solve_sample_sizes(&clusters[..1], f64::NAN, 1.96).is_err());
        assert!(try_solve_sample_sizes(&clusters[..1], 0.05, 0.0).is_err());
    }
}
