//! Theoretical error bounds: Eq. (5) and the union bound of Theorem 3.1.
//!
//! ROOT recursively partitions kernel clusters, producing many *cluster
//! sets* (one per kernel name). Theorem 3.1 guarantees that if each cluster
//! set is individually error-bounded by `epsilon` under its sample sizes,
//! their union is too — which is what licenses running a single sampled
//! simulation over all kernels at once.

use crate::kkt::ClusterStat;

/// Theoretical relative error of an estimator over `clusters` when `m[i]`
/// samples are drawn from cluster `i` (the left-hand side of Eq. (5),
/// normalized):
///
/// ```text
/// e = z * sqrt( sum_i N_i^2 sigma_i^2 / m_i ) / sum_i N_i mu_i
/// ```
///
/// Clusters that are fully simulated (`m_i >= N_i`) contribute no sampling
/// variance (their total is known exactly).
///
/// # Panics
///
/// Panics if `clusters.len() != sizes.len()`, any `sizes[i] == 0`, or the
/// total time is not positive.
pub fn theoretical_error(clusters: &[ClusterStat], sizes: &[u64], z: f64) -> f64 {
    assert_eq!(
        clusters.len(),
        sizes.len(),
        "one sample size per cluster required"
    );
    let mut var = 0.0;
    let mut total = 0.0;
    for (c, &m) in clusters.iter().zip(sizes) {
        assert!(m > 0, "sample sizes must be positive");
        total += c.total_time();
        if m < c.n {
            let n = c.n as f64;
            var += n * n * c.std_dev * c.std_dev / m as f64;
        }
    }
    assert!(total > 0.0, "total execution time must be positive");
    z * var.sqrt() / total
}

/// Checks the error-bound inequality Eq. (5): `theoretical_error <= epsilon`.
pub fn bound_holds(clusters: &[ClusterStat], sizes: &[u64], epsilon: f64, z: f64) -> bool {
    theoretical_error(clusters, sizes, z) <= epsilon + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kkt::solve_sample_sizes;

    #[test]
    fn error_matches_hand_computation() {
        // One cluster: N=100, mu=10, sigma=4, m=16.
        // e = z * sqrt(100^2 * 16 / 16) / 1000 = z * 100 / 1000 = 0.196.
        let c = ClusterStat::new(100, 10.0, 4.0);
        let e = theoretical_error(&[c], &[16], 1.96);
        assert!((e - 0.196).abs() < 1e-12);
    }

    #[test]
    fn fully_simulated_cluster_contributes_nothing() {
        let c = ClusterStat::new(100, 10.0, 4.0);
        let e = theoretical_error(&[c], &[100], 1.96);
        assert_eq!(e, 0.0);
    }

    /// Theorem 3.1 made executable: the error of the union of cluster
    /// sets, each under its own sample sizes.
    fn union_error(sets: &[(Vec<ClusterStat>, Vec<u64>)], z: f64) -> f64 {
        let clusters: Vec<ClusterStat> = sets.iter().flat_map(|(c, _)| c.clone()).collect();
        let sizes: Vec<u64> = sets.iter().flat_map(|(_, m)| m.clone()).collect();
        theoretical_error(&clusters, &sizes, z)
    }

    #[test]
    fn union_of_bounded_sets_is_bounded() {
        // Two independently-solved kernel groups (as ROOT produces).
        let set_a = vec![
            ClusterStat::new(50_000, 10.0, 3.0),
            ClusterStat::new(20_000, 25.0, 10.0),
        ];
        let set_b = vec![
            ClusterStat::new(80_000, 2.0, 1.0),
            ClusterStat::new(5_000, 400.0, 100.0),
        ];
        let eps = 0.05;
        let sol_a = solve_sample_sizes(&set_a, eps, 1.96);
        let sol_b = solve_sample_sizes(&set_b, eps, 1.96);
        assert!(sol_a.bound_met && sol_b.bound_met);
        let e = union_error(&[(set_a, sol_a.sizes), (set_b, sol_b.sizes)], 1.96);
        assert!(e <= eps + 1e-12, "union error {e} exceeded bound {eps}");
    }

    #[test]
    fn union_error_below_max_component_error() {
        // The proof uses sum x_j^2 <= (sum x_j)^2; the union's error is in
        // fact <= sqrt(sum e_j^2 w_j^2)/w <= max_j e_j where w_j are time
        // weights. Spot-check the weaker executable claim.
        let set_a = vec![ClusterStat::new(1000, 10.0, 5.0)];
        let set_b = vec![ClusterStat::new(1000, 10.0, 5.0)];
        let sizes = vec![25u64];
        let e_a = theoretical_error(&set_a, &sizes, 1.96);
        let e_union = union_error(&[(set_a, sizes.clone()), (set_b, sizes.clone())], 1.96);
        assert!(e_union <= e_a + 1e-12);
    }

    #[test]
    #[should_panic(expected = "one sample size per cluster")]
    fn mismatched_lengths_rejected() {
        let c = ClusterStat::new(10, 1.0, 0.5);
        theoretical_error(&[c], &[], 1.96);
    }
}
