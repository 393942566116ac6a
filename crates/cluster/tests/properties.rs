//! Property-style tests for the clustering substrate.
//!
//! Formerly `proptest`-based; rewritten as deterministic seeded-loop
//! property tests so the workspace builds hermetically. Each case derives
//! from a fixed seed and reproduces exactly from the printed case number.

use stem_cluster::distance::{bbv_magnitude_similarity, bbv_similarity, euclidean, sq_euclidean};
use stem_cluster::{best_two_split, kmeans_1d, KMeans, KMeansConfig};
use stem_stats::rng::{RngExt, SeedableRng, StdRng};

const CASES: u64 = 64;

fn rng_for(test_tag: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(0xC105_7E00 ^ (test_tag << 32) ^ case)
}

fn vec_in(rng: &mut StdRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.random_range(min_len..max_len);
    (0..len).map(|_| rng.random_range(lo..hi)).collect()
}

fn points_in(
    rng: &mut StdRng,
    lo: f64,
    hi: f64,
    dim: usize,
    min_n: usize,
    max_n: usize,
) -> Vec<Vec<f64>> {
    let n = rng.random_range(min_n..max_n);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.random_range(lo..hi)).collect())
        .collect()
}

#[test]
fn two_split_partitions_and_never_beats_total_sse() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let values = vec_in(&mut rng, 0.001, 1e6, 2, 300);
        let split = best_two_split(&values);
        let below = values.iter().filter(|&&v| v < split.threshold).count();
        // The threshold realizes the reported partition, the no-split
        // case (everything lower) included.
        assert_eq!(below, split.lower_count, "case {case}");
        // Split SSE never exceeds the unsplit SSE.
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let total: f64 = values.iter().map(|v| (v - mean).powi(2)).sum();
        assert!(
            split.sse <= total + 1e-6 * total.abs().max(1.0),
            "case {case}"
        );
    }
}

#[test]
fn two_split_matches_dp() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let values = vec_in(&mut rng, 0.001, 1e4, 2, 60);
        let split = best_two_split(&values);
        let (_, dp_sse) = kmeans_1d(&values, 2);
        assert!(
            (split.sse - dp_sse).abs() <= 1e-6 * (1.0 + dp_sse),
            "case {case}"
        );
    }
}

#[test]
fn kmeans_1d_clusters_contiguous() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let values = vec_in(&mut rng, -1e4, 1e4, 3, 80);
        let k = rng.random_range(1usize..6);
        let (assign, _) = kmeans_1d(&values, k);
        // Sort indices by value; cluster ids must be nondecreasing.
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let sorted_ids: Vec<usize> = order.iter().map(|&i| assign[i]).collect();
        for w in sorted_ids.windows(2) {
            assert!(w[1] >= w[0], "case {case}");
        }
    }
}

#[test]
fn kmeans_assignments_are_nearest() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let points = points_in(&mut rng, -100.0, 100.0, 2, 2, 50);
        let k = rng.random_range(1usize..5);
        let seed = rng.random_range(0u64..100);
        let km = KMeans::fit(&points, KMeansConfig::new(k, seed));
        for (p, &a) in points.iter().zip(km.assignments()) {
            let d = sq_euclidean(p, &km.centroids()[a]);
            for c in km.centroids() {
                assert!(d <= sq_euclidean(p, c) + 1e-9, "case {case}");
            }
        }
    }
}

#[test]
fn kmeans_weighted_total_preserved() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let points = points_in(&mut rng, -10.0, 10.0, 1, 2, 30);
        let seed = rng.random_range(0u64..50);
        let weights = vec![2.0; points.len()];
        let km = KMeans::fit_weighted(&points, &weights, KMeansConfig::new(2, seed));
        assert_eq!(km.assignments().len(), points.len(), "case {case}");
        assert!(km.inertia() >= 0.0, "case {case}");
    }
}

#[test]
fn distances_satisfy_identity_and_symmetry() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let a = vec_in(&mut rng, -1e3, 1e3, 1, 20);
        assert!(euclidean(&a, &a) < 1e-9, "case {case}");
        let b: Vec<f64> = a.iter().map(|v| v + 1.0).collect();
        assert!(
            (euclidean(&a, &b) - euclidean(&b, &a)).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn bbv_similarities_bounded() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let a = vec_in(&mut rng, 0.0, 1e6, 1, 30);
        let b_scale = rng.random_range(0.1..10.0);
        let b: Vec<f64> = a.iter().map(|v| v * b_scale).collect();
        let s1 = bbv_similarity(&a, &b);
        let s2 = bbv_magnitude_similarity(&a, &b);
        assert!((0.0..=1.0 + 1e-12).contains(&s1), "case {case}");
        assert!((0.0..=1.0 + 1e-12).contains(&s2), "case {case}");
        // Pure rescaling: normalized similarity is 1; magnitude similarity
        // penalizes the volume change.
        if a.iter().any(|&v| v > 0.0) {
            assert!(s1 > 1.0 - 1e-9, "case {case}");
            if (b_scale - 1.0).abs() > 0.01 {
                assert!(s2 < 1.0, "case {case}");
            }
        }
    }
}
