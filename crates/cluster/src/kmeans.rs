//! d-dimensional k-means with k-means++ seeding (Lloyd's algorithm).
//!
//! Used by the PKA baseline (k-means over 12 instruction-level metrics,
//! sweeping `k = 1..20`) and by ROOT when clustering in more than one
//! dimension. Fully deterministic under a seed.
//!
//! # Hot-path layout
//!
//! Internally the fit runs on a flat row-major [`Matrix`] (one allocation
//! for all points, one for all centroids) and prunes the assignment step
//! with Hamerly-style distance bounds: each point carries an upper bound on
//! its distance to its assigned centroid and a lower bound on its distance
//! to every other centroid, maintained across iterations from per-centroid
//! movement. A point whose upper bound sits strictly below both its lower
//! bound and half the distance from its centroid to the nearest other
//! centroid provably cannot change assignment, so the inner centroid loop
//! is skipped entirely. The bounds are padded with a relative slack that
//! dominates all accumulated floating-point error, and every undecided
//! point falls back to the exact scan used before the rewrite — so
//! assignments, centroids, and inertia are bit-identical to the naive
//! per-point scan (kept in [`reference`] as the executable specification).

use crate::distance::sq_euclidean;
use crate::matrix::Matrix;
use stem_par::Parallelism;
use stem_stats::rng::{RngExt, SeedableRng, StdRng};

/// Point count above which the default entry points opt into the
/// env-configured parallelism; smaller fits stay serial (thread spawn
/// overhead would dominate).
const PAR_POINT_THRESHOLD: usize = 4096;

/// Relative padding applied to the Hamerly bounds. Accumulated
/// floating-point error in the bound arithmetic is below 1e-12 relative
/// (distances are computed to ~1e-15 relative accuracy and bounds survive
/// at most `max_iter = O(100)` updates), so a 1e-9 pad guarantees a skip
/// is only taken when the exact scan would provably keep the assignment —
/// including its lowest-index tie-breaking, because a padded strict
/// inequality rules out ties.
const BOUND_SLACK: f64 = 1e-9;

#[inline]
fn inflate(x: f64) -> f64 {
    if x.is_finite() {
        x + BOUND_SLACK * x.abs() + f64::MIN_POSITIVE
    } else {
        x
    }
}

#[inline]
fn deflate(x: f64) -> f64 {
    if x.is_finite() {
        x - BOUND_SLACK * x.abs() - f64::MIN_POSITIVE
    } else {
        x
    }
}

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// A configuration with sensible defaults (`max_iter = 100`,
    /// `tol = 1e-9`).
    pub fn new(k: usize, seed: u64) -> Self {
        KMeansConfig {
            k,
            max_iter: 100,
            tol: 1e-9,
            seed,
        }
    }
}

/// A fitted k-means model.
///
/// # Example
///
/// ```
/// use stem_cluster::{KMeans, KMeansConfig};
///
/// let points = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![9.0, 9.0], vec![9.1, 9.0]];
/// let km = KMeans::fit(&points, KMeansConfig::new(2, 42));
/// assert_eq!(km.k(), 2);
/// assert_eq!(km.assignments()[0], km.assignments()[1]);
/// assert_ne!(km.assignments()[0], km.assignments()[2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    assignments: Vec<usize>,
    inertia: f64,
}

/// CSR-style view of cluster membership: every cluster's member indices,
/// ascending, packed into one flat buffer. Replaces eager
/// `Vec<Vec<usize>>` gathers on hot paths.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMembership {
    /// `offsets[j]..offsets[j + 1]` spans cluster `j` inside `indices`.
    offsets: Vec<usize>,
    indices: Vec<usize>,
}

impl ClusterMembership {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Member point indices of `cluster`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn members_of(&self, cluster: usize) -> &[usize] {
        &self.indices[self.offsets[cluster]..self.offsets[cluster + 1]]
    }

    /// Iterates clusters in index order, yielding each member slice.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.num_clusters()).map(|j| self.members_of(j))
    }
}

impl KMeans {
    /// Runs k-means++ initialization followed by Lloyd iterations.
    ///
    /// If there are fewer distinct points than `k`, the effective number of
    /// clusters shrinks (empty clusters are dropped, so
    /// `self.centroids().len() <= k`).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, `config.k == 0`, or points have
    /// inconsistent dimensionality.
    pub fn fit(points: &[Vec<f64>], config: KMeansConfig) -> Self {
        Self::fit_weighted(points, &vec![1.0; points.len()], config)
    }

    /// Weighted k-means: point `i` counts as `weights[i]` identical copies.
    /// Used when clustering deduplicated feature vectors (PKA's invocation
    /// streams contain huge runs of identical vectors).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, lengths mismatch, any weight is
    /// nonpositive, `config.k == 0`, or points have inconsistent
    /// dimensionality.
    pub fn fit_weighted(points: &[Vec<f64>], weights: &[f64], config: KMeansConfig) -> Self {
        let par = if points.len() >= PAR_POINT_THRESHOLD {
            Parallelism::from_env()
        } else {
            Parallelism::serial()
        };
        Self::fit_weighted_par(points, weights, config, par)
    }

    /// [`KMeans::fit_weighted`] with an explicit thread budget for the
    /// assignment steps. Seeding and the weighted centroid update stay
    /// serial (they thread an RNG / accumulate across points), so the fit
    /// is bit-identical at every thread count.
    ///
    /// This is a thin adapter: it validates, copies the points into a flat
    /// [`Matrix`], and runs the bounds-pruned fit.
    ///
    /// # Panics
    ///
    /// Same conditions as [`KMeans::fit_weighted`].
    pub fn fit_weighted_par(
        points: &[Vec<f64>],
        weights: &[f64],
        config: KMeansConfig,
        par: Parallelism,
    ) -> Self {
        assert!(!points.is_empty(), "k-means needs at least one point");
        assert_eq!(points.len(), weights.len(), "one weight per point required");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        assert!(config.k > 0, "k must be positive");
        let dim = points[0].len();
        for p in points {
            assert_eq!(p.len(), dim, "points must share a dimensionality");
        }
        fit_flat(&Matrix::from_rows(points), weights, config, par)
    }

    /// Cluster centroids (at most `k`, fewer if clusters emptied).
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Cluster index assigned to each input point, aligned with the input.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Sum of squared distances from points to their assigned centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of (non-empty) clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Flat per-cluster membership (counting sort over the assignments —
    /// one pass, two allocations total regardless of cluster count).
    pub fn membership(&self) -> ClusterMembership {
        let k = self.centroids.len();
        let mut counts = vec![0usize; k];
        for &a in &self.assignments {
            counts[a] += 1;
        }
        let mut offsets = vec![0usize; k + 1];
        for j in 0..k {
            offsets[j + 1] = offsets[j] + counts[j];
        }
        let mut cursor: Vec<usize> = offsets[..k].to_vec();
        let mut indices = vec![0usize; self.assignments.len()];
        for (i, &a) in self.assignments.iter().enumerate() {
            indices[cursor[a]] = i;
            cursor[a] += 1;
        }
        ClusterMembership { offsets, indices }
    }

    /// Per-cluster member indices as owned vectors. Prefer
    /// [`KMeans::membership`] on hot paths; this allocates per cluster.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        self.membership().iter().map(<[usize]>::to_vec).collect()
    }
}

/// The bounds-pruned Lloyd fit over flat storage. Produces bit-identical
/// results to [`reference::fit_weighted_par`]: the pruning only ever skips
/// distance evaluations whose outcome is already decided (see
/// [`BOUND_SLACK`]), and every arithmetic expression that does run is the
/// same expression, on the same values, in the same order.
fn fit_flat(m: &Matrix, weights: &[f64], config: KMeansConfig, par: Parallelism) -> KMeans {
    let n = m.rows();
    let dim = m.dim();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = plus_plus_init(m, weights, config.k, &mut rng);
    let k = centroids.rows();

    // Per-point state: (assigned centroid, padded upper bound on the
    // euclidean distance to it, padded lower bound on the distance to any
    // other centroid). The initial exact scan doubles as the first
    // assignment step of the reference loop.
    let mut state: Vec<(usize, f64, f64)> = stem_par::par_map_range(par, n, |i| {
        let (a, best_sq, second_sq) = nearest_and_second(m.row(i), &centroids);
        (a, inflate(best_sq.sqrt()), deflate(second_sq.sqrt()))
    });

    let mut sums = vec![0.0f64; k * dim];
    let mut totals = vec![0.0f64; k];
    let mut moves = vec![0.0f64; k];
    let mut new_row = vec![0.0f64; dim];
    for iter in 0..config.max_iter {
        // Update step (weighted centroids) — same accumulation order as
        // the reference: points in stream order into their cluster's sum.
        sums.fill(0.0);
        totals.fill(0.0);
        for i in 0..n {
            let a = state[i].0;
            let w = weights[i];
            totals[a] += w;
            for (s, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(m.row(i)) {
                *s += x * w;
            }
        }
        let mut movement = 0.0;
        for j in 0..k {
            moves[j] = 0.0;
            if totals[j] == 0.0 {
                continue; // keep the old centroid; it will be pruned later
            }
            for (nr, s) in new_row.iter_mut().zip(&sums[j * dim..(j + 1) * dim]) {
                *nr = s / totals[j];
            }
            let mv = sq_euclidean(centroids.row(j), &new_row).sqrt();
            movement += mv;
            moves[j] = mv;
            centroids.row_mut(j).copy_from_slice(&new_row);
        }
        // Bound maintenance: the assigned centroid moved by moves[a], any
        // other by at most max_move.
        let max_move = moves.iter().fold(0.0f64, |acc, &mv| acc.max(mv));
        for st in &mut state {
            st.1 = inflate(st.1 + moves[st.0]);
            st.2 = deflate(st.2 - max_move);
        }
        if movement <= config.tol || iter + 1 == config.max_iter {
            break;
        }
        state = assign_step(m, &centroids, &state, par);
    }

    // Final assignment, then prune empty clusters and re-index.
    state = assign_step(m, &centroids, &state, par);
    let mut assignments: Vec<usize> = state.iter().map(|st| st.0).collect();
    let mut used = vec![false; k];
    for &a in &assignments {
        used[a] = true;
    }
    let mut remap = vec![usize::MAX; k];
    let mut kept = Vec::new();
    for (old, u) in used.iter().enumerate() {
        if *u {
            remap[old] = kept.len();
            kept.push(centroids.row(old).to_vec());
        }
    }
    for a in &mut assignments {
        *a = remap[*a];
    }
    let inertia = (0..n)
        .zip(&assignments)
        .zip(weights)
        .map(|((i, &a), &w)| w * sq_euclidean(m.row(i), &kept[a]))
        .sum();
    KMeans {
        centroids: kept,
        assignments,
        inertia,
    }
}

/// One bounds-pruned assignment step. For each point: keep the assignment
/// outright if the padded upper bound beats both the lower bound and half
/// the distance to the assigned centroid's nearest neighbor; otherwise
/// tighten the upper bound with one exact distance and retest; otherwise
/// fall back to the exact full scan of the reference implementation.
fn assign_step(
    m: &Matrix,
    centroids: &Matrix,
    state: &[(usize, f64, f64)],
    par: Parallelism,
) -> Vec<(usize, f64, f64)> {
    let k = centroids.rows();
    // Half the distance from each centroid to its nearest other centroid:
    // a point strictly inside that radius cannot have a nearer centroid
    // (triangle inequality).
    let half_seps: Vec<f64> = (0..k)
        .map(|j| {
            let mut min_sq = f64::INFINITY;
            for j2 in 0..k {
                if j2 != j {
                    let d = sq_euclidean(centroids.row(j), centroids.row(j2));
                    if d < min_sq {
                        min_sq = d;
                    }
                }
            }
            deflate(0.5 * min_sq.sqrt())
        })
        .collect();
    stem_par::par_map_range(par, m.rows(), |i| {
        let (a, mut upper, lower) = state[i];
        let bound = if half_seps[a] > lower {
            half_seps[a]
        } else {
            lower
        };
        if upper < bound {
            return (a, upper, lower);
        }
        let p = m.row(i);
        upper = inflate(sq_euclidean(p, centroids.row(a)).sqrt());
        if upper < bound {
            return (a, upper, lower);
        }
        let (best, best_sq, second_sq) = nearest_and_second(p, centroids);
        (best, inflate(best_sq.sqrt()), deflate(second_sq.sqrt()))
    })
}

/// Exact scan: the nearest centroid (lowest index wins ties, exactly like
/// [`reference`]'s `nearest`) plus the runner-up squared distance for the
/// Hamerly lower bound.
fn nearest_and_second(p: &[f64], centroids: &Matrix) -> (usize, f64, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    let mut second_d = f64::INFINITY;
    for i in 0..centroids.rows() {
        let d = sq_euclidean(p, centroids.row(i));
        if d < best_d {
            second_d = best_d;
            best_d = d;
            best = i;
        } else if d < second_d {
            second_d = d;
        }
    }
    (best, best_d, second_d)
}

/// k-means++ seeding: first centroid weight-proportional, subsequent
/// centroids sampled proportionally to weighted squared distance from the
/// nearest chosen centroid. Draws the same RNG sequence and computes the
/// same distances as the reference nested-`Vec` version.
fn plus_plus_init(m: &Matrix, weights: &[f64], k: usize, rng: &mut StdRng) -> Matrix {
    let mut centroids = Matrix::with_dim(m.dim());
    let total_w: f64 = weights.iter().sum();
    let mut target = rng.random::<f64>() * total_w;
    let mut first = m.rows() - 1;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            first = i;
            break;
        }
    }
    centroids.push_row(m.row(first));
    let mut dists: Vec<f64> = (0..m.rows())
        .zip(weights)
        .map(|(i, &w)| w * sq_euclidean(m.row(i), centroids.row(0)))
        .collect();
    while centroids.rows() < k {
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            break; // all remaining points coincide with a centroid
        }
        let mut target = rng.random::<f64>() * total;
        let mut chosen = m.rows() - 1;
        for (i, &d) in dists.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push_row(m.row(chosen));
        for (i, (d, &w)) in dists.iter_mut().zip(weights).enumerate() {
            let nd = w * sq_euclidean(m.row(i), m.row(chosen));
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// The pre-overhaul naive Lloyd fit, kept verbatim as the executable
/// specification for the bounds-pruned fast path. `tests/` compare the two
/// bit-for-bit over seeded random instances.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Per-point full-scan [`KMeans::fit_weighted_par`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`KMeans::fit_weighted`].
    pub fn fit_weighted_par(
        points: &[Vec<f64>],
        weights: &[f64],
        config: KMeansConfig,
        par: Parallelism,
    ) -> KMeans {
        assert!(!points.is_empty(), "k-means needs at least one point");
        assert_eq!(points.len(), weights.len(), "one weight per point required");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        assert!(config.k > 0, "k must be positive");
        let dim = points[0].len();
        for p in points {
            assert_eq!(p.len(), dim, "points must share a dimensionality");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = plus_plus_init(points, weights, config.k, &mut rng);

        let mut assignments = vec![0usize; points.len()];
        for _ in 0..config.max_iter {
            // Assignment step: a pure per-point map, spread across threads.
            assignments = stem_par::par_map_indexed(par, points, |_, p| nearest(p, &centroids).0);
            // Update step (weighted centroids).
            let mut sums = vec![vec![0.0; dim]; centroids.len()];
            let mut totals = vec![0.0f64; centroids.len()];
            for ((p, &a), &w) in points.iter().zip(&assignments).zip(weights) {
                totals[a] += w;
                for (s, &x) in sums[a].iter_mut().zip(p) {
                    *s += x * w;
                }
            }
            let mut movement = 0.0;
            for (c, (sum, &total)) in centroids.iter_mut().zip(sums.iter().zip(&totals)) {
                if total == 0.0 {
                    continue; // keep the old centroid; it will be pruned later
                }
                let new: Vec<f64> = sum.iter().map(|s| s / total).collect();
                movement += sq_euclidean(c, &new).sqrt();
                *c = new;
            }
            if movement <= config.tol {
                break;
            }
        }

        // Final assignment, then prune empty clusters and re-index.
        assignments = stem_par::par_map_indexed(par, points, |_, p| nearest(p, &centroids).0);
        let mut used = vec![false; centroids.len()];
        for &a in &assignments {
            used[a] = true;
        }
        let mut remap = vec![usize::MAX; centroids.len()];
        let mut kept = Vec::new();
        for (old, (u, c)) in used.iter().zip(&centroids).enumerate() {
            if *u {
                remap[old] = kept.len();
                kept.push(c.clone());
            }
        }
        for a in &mut assignments {
            *a = remap[*a];
        }
        let inertia = points
            .iter()
            .zip(&assignments)
            .zip(weights)
            .map(|((p, &a), &w)| w * sq_euclidean(p, &kept[a]))
            .sum();
        KMeans {
            centroids: kept,
            assignments,
            inertia,
        }
    }

    fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = sq_euclidean(p, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        (best, best_d)
    }

    fn plus_plus_init(
        points: &[Vec<f64>],
        weights: &[f64],
        k: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        let mut centroids = Vec::with_capacity(k);
        let total_w: f64 = weights.iter().sum();
        let mut target = rng.random::<f64>() * total_w;
        let mut first = points.len() - 1;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                first = i;
                break;
            }
        }
        centroids.push(points[first].clone());
        let mut dists: Vec<f64> = points
            .iter()
            .zip(weights)
            .map(|(p, &w)| w * sq_euclidean(p, &centroids[0]))
            .collect();
        while centroids.len() < k {
            let total: f64 = dists.iter().sum();
            if total <= 0.0 {
                break; // all remaining points coincide with a centroid
            }
            let mut target = rng.random::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            centroids.push(points[chosen].clone());
            for ((d, p), &w) in dists.iter_mut().zip(points).zip(weights) {
                let nd = w * sq_euclidean(p, &points[chosen]);
                if nd < *d {
                    *d = nd;
                }
            }
        }
        centroids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..50 {
            let j = (i % 5) as f64 * 0.01;
            pts.push(vec![0.0 + j, 0.0 + j]);
            pts.push(vec![10.0 + j, 10.0 + j]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let km = KMeans::fit(&pts, KMeansConfig::new(2, 7));
        assert_eq!(km.k(), 2);
        // All even-index points (blob A) share a cluster, odd (blob B) the other.
        let a = km.assignments()[0];
        let b = km.assignments()[1];
        assert_ne!(a, b);
        for (i, &asgn) in km.assignments().iter().enumerate() {
            assert_eq!(asgn, if i % 2 == 0 { a } else { b });
        }
    }

    #[test]
    fn k1_centroid_is_mean() {
        let pts = vec![vec![1.0, 0.0], vec![3.0, 4.0]];
        let km = KMeans::fit(&pts, KMeansConfig::new(1, 0));
        assert_eq!(km.k(), 1);
        assert!((km.centroids()[0][0] - 2.0).abs() < 1e-12);
        assert!((km.centroids()[0][1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_fit_is_bit_identical() {
        let pts = two_blobs();
        let weights = vec![1.0; pts.len()];
        let serial = KMeans::fit_weighted_par(
            &pts,
            &weights,
            KMeansConfig::new(3, 42),
            Parallelism::serial(),
        );
        for threads in [1usize, 2, 3, 8] {
            let par = KMeans::fit_weighted_par(
                &pts,
                &weights,
                KMeansConfig::new(3, 42),
                Parallelism::with_threads(threads),
            );
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let pts = two_blobs();
        let a = KMeans::fit(&pts, KMeansConfig::new(3, 42));
        let b = KMeans::fit(&pts, KMeansConfig::new(3, 42));
        assert_eq!(a, b);
    }

    #[test]
    fn more_k_than_distinct_points_shrinks() {
        let pts = vec![vec![1.0], vec![1.0], vec![2.0]];
        let km = KMeans::fit(&pts, KMeansConfig::new(10, 5));
        assert!(km.k() <= 2);
        assert!(km.inertia() < 1e-12);
    }

    #[test]
    fn inertia_nonincreasing_in_k() {
        let pts = two_blobs();
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let km = KMeans::fit(&pts, KMeansConfig::new(k, 9));
            assert!(
                km.inertia() <= last + 1e-9,
                "inertia grew at k={k}: {} > {last}",
                km.inertia()
            );
            last = km.inertia();
        }
    }

    #[test]
    fn clusters_partition_points() {
        let pts = two_blobs();
        let km = KMeans::fit(&pts, KMeansConfig::new(2, 11));
        let clusters = km.clusters();
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, pts.len());
        assert!(clusters.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn membership_matches_clusters() {
        let pts = two_blobs();
        let km = KMeans::fit(&pts, KMeansConfig::new(2, 11));
        let membership = km.membership();
        assert_eq!(membership.num_clusters(), km.k());
        let eager = km.clusters();
        for (j, members) in membership.iter().enumerate() {
            assert_eq!(members, eager[j].as_slice());
            // Ascending, and each index assigned to this cluster.
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            assert!(members.iter().all(|&i| km.assignments()[i] == j));
        }
        let total: usize = (0..membership.num_clusters())
            .map(|j| membership.members_of(j).len())
            .sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn assignment_is_nearest_centroid() {
        let pts = two_blobs();
        let km = KMeans::fit(&pts, KMeansConfig::new(2, 3));
        for (p, &a) in pts.iter().zip(km.assignments()) {
            let d_assigned = sq_euclidean(p, &km.centroids()[a]);
            for c in km.centroids() {
                assert!(d_assigned <= sq_euclidean(p, c) + 1e-12);
            }
        }
    }

    #[test]
    fn weighted_centroid_pulls_toward_heavy_point() {
        let pts = vec![vec![0.0], vec![10.0]];
        let km = KMeans::fit_weighted(&pts, &[9.0, 1.0], KMeansConfig::new(1, 0));
        assert!((km.centroids()[0][0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_matches_replication() {
        // Clustering {a x3, b x1} weighted equals clustering the
        // replicated point set.
        let pts = vec![vec![1.0, 0.0], vec![5.0, 0.0]];
        let weighted = KMeans::fit_weighted(&pts, &[3.0, 1.0], KMeansConfig::new(1, 7));
        let replicated = KMeans::fit(
            &[
                vec![1.0, 0.0],
                vec![1.0, 0.0],
                vec![1.0, 0.0],
                vec![5.0, 0.0],
            ],
            KMeansConfig::new(1, 7),
        );
        assert!((weighted.centroids()[0][0] - replicated.centroids()[0][0]).abs() < 1e-9);
    }

    #[test]
    fn pruned_fit_matches_reference_bit_for_bit() {
        // Seeded pseudo-random instances spanning awkward shapes:
        // duplicates, k >= n, single point, collinear points.
        let mut x = 0x243f6a8885a308d3u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..24 {
            let n = 1 + (case * 7) % 40;
            let dim = 1 + case % 4;
            let k = 1 + (case * 3) % 9; // frequently k >= n
            let mut pts: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| (next() * 10.0).floor() / 2.0).collect())
                .collect();
            if n > 2 {
                pts[n - 1] = pts[0].clone(); // force duplicates
            }
            let weights: Vec<f64> = (0..n).map(|_| 0.5 + next()).collect();
            let config = KMeansConfig::new(k, 1000 + case as u64);
            let fast = KMeans::fit_weighted_par(&pts, &weights, config, Parallelism::serial());
            let naive = reference::fit_weighted_par(&pts, &weights, config, Parallelism::serial());
            assert_eq!(fast, naive, "case {case}: n={n} dim={dim} k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_rejected() {
        KMeans::fit(&[], KMeansConfig::new(2, 0));
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        KMeans::fit_weighted(&[vec![1.0]], &[0.0], KMeansConfig::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "share a dimensionality")]
    fn ragged_rejected() {
        KMeans::fit(&[vec![1.0], vec![1.0, 2.0]], KMeansConfig::new(1, 0));
    }
}
