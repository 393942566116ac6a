//! Property-style tests for the statistical substrate.
//!
//! Formerly `proptest`-based; rewritten as deterministic seeded-loop
//! property tests so the workspace builds hermetically (no registry
//! dependencies). Every case is driven by `StdRng::seed_from_u64`, so a
//! failure reproduces exactly from the printed case number.

use stem_stats::bound::{bound_holds, theoretical_error};
use stem_stats::clt::{sample_size, sampling_error};
use stem_stats::kkt::{per_cluster_sample_sizes, solve_sample_sizes, ClusterStat};
use stem_stats::normal;
use stem_stats::rng::{RngExt, SeedableRng, StdRng};
use stem_stats::Summary;

const CASES: u64 = 64;

fn rng_for(test_tag: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0x57A7_5000 ^ (test_tag << 32) ^ case)
}

fn vec_in(rng: &mut StdRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.random_range(min_len..max_len);
    (0..len).map(|_| rng.random_range(lo..hi)).collect()
}

fn cluster(rng: &mut StdRng) -> ClusterStat {
    let n = rng.random_range(1u64..1_000_000);
    let mean = rng.random_range(0.01..10_000.0);
    let cov = rng.random_range(0.0..5.0);
    ClusterStat::new(n, mean, mean * cov)
}

fn clusters(rng: &mut StdRng, min: usize, max: usize) -> Vec<ClusterStat> {
    let k = rng.random_range(min..max);
    (0..k).map(|_| cluster(rng)).collect()
}

#[test]
fn welford_matches_two_pass() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let values = vec_in(&mut rng, -1e6, 1e6, 1, 200);
        let s = Summary::from_slice(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        assert!(
            (s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "case {case}"
        );
        assert!(
            (s.population_variance() - var).abs() <= 1e-5 * (1.0 + var.abs()),
            "case {case}"
        );
    }
}

#[test]
fn welford_merge_associative() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        // (a + b) + c == a + (b + c) up to fp rounding.
        let a = vec_in(&mut rng, -1e4, 1e4, 0, 50);
        let b = vec_in(&mut rng, -1e4, 1e4, 0, 50);
        let c = vec_in(&mut rng, -1e4, 1e4, 1, 50);
        let sa = Summary::from_slice(&a);
        let sb = Summary::from_slice(&b);
        let sc = Summary::from_slice(&c);
        let mut left = sa;
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb;
        bc.merge(&sc);
        let mut right = sa;
        right.merge(&bc);
        assert_eq!(left.count(), right.count(), "case {case}");
        assert!(
            (left.mean() - right.mean()).abs() <= 1e-6 * (1.0 + left.mean().abs()),
            "case {case}"
        );
        assert!(
            (left.population_variance() - right.population_variance()).abs()
                <= 1e-4 * (1.0 + left.population_variance().abs()),
            "case {case}"
        );
    }
}

#[test]
fn normal_cdf_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let x = rng.random_range(-8.0..8.0);
        let dx = rng.random_range(0.001..4.0);
        assert!(
            normal::cdf(x + dx) >= normal::cdf(x),
            "case {case}: x={x} dx={dx}"
        );
    }
}

#[test]
fn normal_quantile_roundtrip() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let p = rng.random_range(0.0005..0.9995);
        let x = normal::quantile(p);
        assert!((normal::cdf(x) - p).abs() < 1e-9, "case {case}: p={p}");
    }
}

#[test]
fn eq3_sample_size_achieves_eq2_bound() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let mean = rng.random_range(0.01..1e6);
        let cov = rng.random_range(0.0..10.0);
        let eps = rng.random_range(0.001..0.5);
        let sigma = mean * cov;
        let m = sample_size(mean, sigma, eps, 1.96);
        let e = sampling_error(mean, sigma, m, 1.96);
        assert!(e <= eps * (1.0 + 1e-9), "case {case}: e={e} eps={eps}");
    }
}

#[test]
fn kkt_meets_bound() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let cs = clusters(&mut rng, 1, 12);
        let eps = rng.random_range(0.005..0.5);
        let sol = solve_sample_sizes(&cs, eps, 1.96);
        assert!(
            sol.bound_met,
            "case {case}: predicted error {} > {eps}",
            sol.predicted_error
        );
        assert!(bound_holds(&cs, &sol.sizes, eps, 1.96), "case {case}");
        for (m, c) in sol.sizes.iter().zip(&cs) {
            assert!(*m >= 1 && *m <= c.n, "case {case}");
        }
    }
}

#[test]
fn kkt_satisfies_stationarity() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        // At the KKT optimum, the Lagrange multiplier
        // lambda = m_i^2 * a_i / b_i is the same for every *interior*
        // cluster (not capped at N_i, not floored at 1, sigma > 0). Check
        // the real-valued pre-ceil condition within rounding slack.
        let cs = clusters(&mut rng, 2, 10);
        let eps = rng.random_range(0.01..0.2);
        let sol = solve_sample_sizes(&cs, eps, 1.96);
        let lambdas: Vec<f64> = sol
            .sizes
            .iter()
            .zip(&cs)
            .filter(|(&m, c)| m > 1 && m < c.n && c.std_dev > 0.0)
            .map(|(&m, c)| {
                let a = c.mean;
                let b = (c.n as f64 * c.std_dev).powi(2);
                (m as f64).powi(2) * a / b
            })
            .collect();
        if lambdas.len() >= 2 {
            let max = lambdas.iter().cloned().fold(f64::MIN, f64::max);
            let min = lambdas.iter().cloned().fold(f64::MAX, f64::min);
            // Ceil rounding: the real-valued optimum behind an integer m
            // lies in (m-1, m], so the observed lambda can exceed the true
            // shared lambda by up to (m/(m-1))^2. Bound the ratio by that
            // worst case at the smallest interior m.
            let m_min = sol
                .sizes
                .iter()
                .zip(&cs)
                .filter(|(&m, c)| m > 1 && m < c.n && c.std_dev > 0.0)
                .map(|(&m, _)| m)
                .min()
                .expect("interior cluster exists");
            let mf = m_min as f64;
            let slack = (mf / (mf - 1.0)).powi(2) * 1.05;
            assert!(
                max / min <= slack,
                "case {case}: stationarity violated: lambda ratio {} > slack {slack}",
                max / min
            );
        }
    }
}

#[test]
fn kkt_never_worse_than_per_cluster() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        // The joint optimum's tau cannot exceed the per-cluster allocation's
        // tau by more than the integer-rounding slack (one extra sample per
        // cluster at most on each side).
        let cs = clusters(&mut rng, 1, 12);
        let eps = rng.random_range(0.005..0.5);
        let sol = solve_sample_sizes(&cs, eps, 1.96);
        let per = per_cluster_sample_sizes(&cs, eps, 1.96);
        let tau_per: f64 = per.iter().zip(&cs).map(|(m, c)| *m as f64 * c.mean).sum();
        let slack: f64 = cs.iter().map(|c| c.mean).sum();
        assert!(
            sol.tau <= tau_per + slack,
            "case {case}: joint tau {} vs per-cluster tau {tau_per}",
            sol.tau
        );
    }
}

#[test]
fn theoretical_error_decreases_with_more_samples() {
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let cs = clusters(&mut rng, 1, 8);
        let small: Vec<u64> = cs.iter().map(|c| 1u64.min(c.n)).collect();
        let large: Vec<u64> = cs.iter().map(|c| c.n).collect();
        let e_small = theoretical_error(&cs, &small, 1.96);
        let e_large = theoretical_error(&cs, &large, 1.96);
        assert!(e_large <= e_small + 1e-12, "case {case}");
    }
}

#[test]
fn histogram_total_preserved() {
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let values = vec_in(&mut rng, -1e3, 1e3, 1, 300);
        let bins = rng.random_range(1usize..64);
        let h = stem_stats::histogram::Histogram::from_values(&values, bins);
        assert_eq!(h.total(), values.len() as u64, "case {case}");
    }
}

#[test]
fn quantile_bounded_by_extremes() {
    for case in 0..CASES {
        let mut rng = rng_for(11, case);
        let values = vec_in(&mut rng, -1e3, 1e3, 1, 100);
        let q = rng.random_range(0.0..1.0);
        let x = stem_stats::quantile::quantile(&values, q);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(x >= lo - 1e-9 && x <= hi + 1e-9, "case {case}: q={q}");
    }
}
