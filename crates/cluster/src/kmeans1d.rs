//! Exact one-dimensional k-means.
//!
//! ROOT's recursion splits a cluster of execution times into `k = 2`
//! sub-clusters at every step (the paper notes any `k >= 2` works; they use
//! 2). In one dimension the optimal 2-means partition is a *contiguous*
//! split of the sorted values, so instead of iterative Lloyd steps we find
//! the globally optimal split in O(n) after sorting via prefix sums
//! ([`best_two_split`]; [`TwoSplitScan`] is its allocation-free prefix
//! pass, which ROOT feeds cut by cut). A general exact DP (`O(k n^2)`) is
//! provided for arbitrary `k` ([`kmeans_1d`]).

/// The optimal two-way split of a set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSplit {
    /// Values `< threshold` go to the lower cluster, the rest to the upper.
    /// With `a` the lower cluster's largest value and `b` the upper's
    /// smallest, `a < threshold <= b`: the midpoint of the two, or `b`
    /// itself when the midpoint rounds onto `a` (adjacent floats). So the
    /// threshold realizes exactly the cut that `lower_count` reports.
    pub threshold: f64,
    /// Within-cluster sum of squared deviations after the split.
    pub sse: f64,
    /// Number of values in the lower cluster.
    pub lower_count: usize,
}

/// Finds the globally optimal 2-means partition of `values` (O(n log n)).
///
/// Returns the split with minimal within-cluster SSE. If all values are
/// equal the "split" places everything in the lower cluster
/// (`lower_count == values.len()`, `sse == 0`, `threshold == +inf`) —
/// callers should treat that as "no useful split".
///
/// # Panics
///
/// Panics if `values` is empty or contains non-finite values.
///
/// # Example
///
/// ```
/// use stem_cluster::best_two_split;
/// let split = best_two_split(&[1.0, 1.1, 0.9, 100.0, 101.0]);
/// assert_eq!(split.lower_count, 3);
/// ```
pub fn best_two_split(values: &[f64]) -> TwoSplit {
    assert!(!values.is_empty(), "cannot split an empty set");
    for &v in values {
        assert!(v.is_finite(), "values must be finite");
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    best_two_split_sorted(&sorted)
}

/// [`best_two_split`] for values already sorted by [`f64::total_cmp`].
/// The arithmetic is exactly [`best_two_split`]'s post-sort arithmetic, so
/// `best_two_split(v)` and `best_two_split_sorted(sort(v))` return
/// identical bits. Validates its input, sums it, and runs one
/// [`TwoSplitScan`] over it: two passes, no allocation.
///
/// # Panics
///
/// Panics if `sorted` is empty, contains non-finite values, or is not
/// sorted by `total_cmp`.
pub fn best_two_split_sorted(sorted: &[f64]) -> TwoSplit {
    assert!(!sorted.is_empty(), "cannot split an empty set");
    assert!(sorted[0].is_finite(), "values must be finite");
    for w in sorted.windows(2) {
        assert!(w[1].is_finite(), "values must be finite");
        assert!(
            w[0].total_cmp(&w[1]).is_le(),
            "values must be sorted by total_cmp"
        );
    }
    let n = sorted.len();
    if n == 1 || sorted[0] == sorted[n - 1] {
        return TwoSplit {
            threshold: f64::INFINITY,
            sse: 0.0,
            lower_count: n,
        };
    }
    let (sum, sum_sq) = sorted
        .iter()
        .fold((0.0, 0.0), |(s, s2), &v| (s + v, s2 + v * v));
    TwoSplitScan::run(sorted, sum, sum_sq).best()
}

/// The prefix pass of the optimal two-way split, one cut at a time — the
/// single implementation of its arithmetic. [`best_two_split_sorted`] runs
/// it over a whole slice; ROOT feeds it a child's cuts inside the loop
/// that folds the child's statistics, so a split costs no pass of its own.
///
/// The scan needs the slice's totals up front: `sum` and `sum_sq` are the
/// left-to-right sums `Σ v` and `Σ v * v` from `0.0`, exactly the last
/// entries of the prefix-sum arrays the split used to build, and the
/// upper segment's sums are taken as `total - prefix`. The values fed must
/// be finite and sorted by `total_cmp`; that is not re-checked (a
/// violation gives a meaningless split, never undefined behavior).
#[derive(Debug, Clone, Copy)]
pub struct TwoSplitScan {
    len: usize,
    sum: f64,
    sum_sq: f64,
    pre: f64,
    pre2: f64,
    best: TwoSplit,
    lower_sums: (f64, f64),
}

impl TwoSplitScan {
    /// An empty scan over `len` sorted values with the given totals.
    pub fn new(len: usize, sum: f64, sum_sq: f64) -> Self {
        TwoSplitScan {
            len,
            sum,
            sum_sq,
            pre: 0.0,
            pre2: 0.0,
            best: TwoSplit {
                threshold: 0.0,
                sse: f64::INFINITY,
                lower_count: 0,
            },
            lower_sums: (0.0, 0.0),
        }
    }

    /// A scan fed every cut of `sorted` (see [`TwoSplitScan::new`] for
    /// what `sum` and `sum_sq` must be).
    pub fn run(sorted: &[f64], sum: f64, sum_sq: f64) -> Self {
        let mut scan = TwoSplitScan::new(sorted.len(), sum, sum_sq);
        for (i, w) in sorted.windows(2).enumerate() {
            scan.step(i + 1, w[0], w[1]);
        }
        scan
    }

    /// Feeds the cut between `a = sorted[cut - 1]` and `b = sorted[cut]`.
    /// Cuts must be fed in order, `cut = 1, 2, ..., len - 1`.
    #[inline]
    pub fn step(&mut self, cut: usize, a: f64, b: f64) {
        self.pre += a;
        self.pre2 += a * a;
        if b == a {
            return; // equal values must not straddle the cut
        }
        // sse(l..r) = sum x^2 - (sum x)^2 / len, per segment.
        let (pre, pre2) = (self.pre, self.pre2);
        let (s, s2) = (self.sum - pre, self.sum_sq - pre2);
        let sse = (pre2 - pre * pre / cut as f64).max(0.0)
            + (s2 - s * s / (self.len - cut) as f64).max(0.0);
        if sse < self.best.sse {
            let mid = (a + b) / 2.0;
            self.best = TwoSplit {
                threshold: if a < mid && mid <= b { mid } else { b },
                sse,
                lower_count: cut,
            };
            self.lower_sums = (pre, pre2);
        }
    }

    /// The best split among the cuts fed so far; `lower_count == 0` when
    /// none was admissible (no cut fed, or all values equal).
    pub fn best(&self) -> TwoSplit {
        self.best
    }

    /// `(Σ v, Σ v * v)` over the best split's lower cluster, left to
    /// right from `0.0`: exactly the totals a scan of that cluster needs.
    pub fn lower_sums(&self) -> (f64, f64) {
        self.lower_sums
    }
}

/// Exact 1-D k-means by dynamic programming over the sorted order
/// (`O(k n^2)` time, fine for the cluster sizes ROOT produces).
///
/// Returns per-value cluster assignments (aligned with the *input* order)
/// with cluster ids in ascending value order, and the total within-cluster
/// SSE. If fewer than `k` distinct values exist the number of clusters
/// shrinks accordingly.
///
/// # Panics
///
/// Panics if `values` is empty, `k == 0`, or values are non-finite.
pub fn kmeans_1d(values: &[f64], k: usize) -> (Vec<usize>, f64) {
    assert!(!values.is_empty(), "cannot cluster an empty set");
    assert!(k > 0, "k must be positive");
    for &v in values {
        assert!(v.is_finite(), "values must be finite");
    }
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();

    let distinct = {
        let mut d = 1;
        for w in sorted.windows(2) {
            if w[1] > w[0] {
                d += 1;
            }
        }
        d
    };
    let k = k.min(distinct);

    let mut pre = vec![0.0; n + 1];
    let mut pre2 = vec![0.0; n + 1];
    for (i, &v) in sorted.iter().enumerate() {
        pre[i + 1] = pre[i] + v;
        pre2[i + 1] = pre2[i] + v * v;
    }
    let seg_sse = |l: usize, r: usize| -> f64 {
        let len = (r - l) as f64;
        let s = pre[r] - pre[l];
        let s2 = pre2[r] - pre2[l];
        (s2 - s * s / len).max(0.0)
    };

    // dp[j][i] = min SSE of splitting sorted[0..i] into j clusters.
    let mut dp = vec![vec![f64::INFINITY; n + 1]; k + 1];
    let mut back = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0.0;
    for j in 1..=k {
        for i in j..=n {
            for l in (j - 1)..i {
                if dp[j - 1][l].is_finite() {
                    let cand = dp[j - 1][l] + seg_sse(l, i);
                    if cand < dp[j][i] {
                        dp[j][i] = cand;
                        back[j][i] = l;
                    }
                }
            }
        }
    }

    // Recover boundaries.
    let mut bounds = vec![n];
    let mut i = n;
    for j in (1..=k).rev() {
        i = back[j][i];
        bounds.push(i);
    }
    bounds.reverse(); // [0, b1, ..., n]

    let mut assignment_sorted = vec![0usize; n];
    for (cluster, w) in bounds.windows(2).enumerate() {
        for a in assignment_sorted.iter_mut().take(w[1]).skip(w[0]) {
            *a = cluster;
        }
    }
    let mut assignments = vec![0usize; n];
    for (pos, &orig) in order.iter().enumerate() {
        assignments[orig] = assignment_sorted[pos];
    }
    (assignments, dp[k][n])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_split_bimodal() {
        let values = [1.0, 1.2, 0.8, 10.0, 10.5, 9.5];
        let s = best_two_split(&values);
        assert_eq!(s.lower_count, 3);
        assert!(s.threshold > 1.2 && s.threshold < 9.5);
    }

    #[test]
    fn two_split_constant_values() {
        let s = best_two_split(&[5.0; 8]);
        assert_eq!(s.lower_count, 8);
        assert_eq!(s.sse, 0.0);
    }

    #[test]
    fn two_split_threshold_realizes_adjacent_ulp_cut() {
        // The midpoint of `a` and `next_up(a)` rounds onto `a`; the
        // threshold must still put exactly the two `a`s below it.
        let a = 1000.0_f64;
        let b = a.next_up();
        let s = best_two_split(&[a, b, a, b]);
        assert_eq!(s.lower_count, 2);
        assert!(
            a < s.threshold && s.threshold <= b,
            "threshold {}",
            s.threshold
        );
        assert_eq!([a, b, a, b].iter().filter(|&&v| v < s.threshold).count(), 2);
    }

    #[test]
    fn two_split_constant_above_2_pow_53_keeps_everything_lower() {
        // `max + 1.0 == max` up here; the no-split threshold is +inf.
        let v = 2f64.powi(60);
        let s = best_two_split(&[v; 5]);
        assert_eq!(s.lower_count, 5);
        assert_eq!(s.threshold, f64::INFINITY);
    }

    #[test]
    fn scan_lower_sums_are_the_lower_clusters_totals() {
        let mut sorted = vec![3.0, 1.0, 4.0, 1.5, 9.2, 2.6, 5.3, 5.8, 9.7, 9.3, 9.3];
        sorted.sort_by(f64::total_cmp);
        let (sum, sum_sq) = sorted
            .iter()
            .fold((0.0, 0.0), |(s, s2), &v| (s + v, s2 + v * v));
        let scan = TwoSplitScan::run(&sorted, sum, sum_sq);
        assert_eq!(scan.best(), best_two_split_sorted(&sorted));
        let lower = &sorted[..scan.best().lower_count];
        let totals = lower
            .iter()
            .fold((0.0, 0.0), |(s, s2), &v| (s + v, s2 + v * v));
        assert_eq!(scan.lower_sums(), totals);
    }

    #[test]
    fn two_split_single_value() {
        let s = best_two_split(&[3.0]);
        assert_eq!(s.lower_count, 1);
    }

    #[test]
    fn two_split_reduces_sse() {
        let values = [1.0, 2.0, 3.0, 100.0, 101.0, 102.0];
        let total_sse = {
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
        };
        let s = best_two_split(&values);
        assert!(s.sse < total_sse / 10.0);
    }

    #[test]
    fn two_split_matches_dp_k2() {
        let values = [3.0, 1.0, 4.0, 1.5, 9.2, 2.6, 5.3, 5.8, 9.7, 9.3];
        let s = best_two_split(&values);
        let (_, dp_sse) = kmeans_1d(&values, 2);
        assert!((s.sse - dp_sse).abs() < 1e-9);
    }

    #[test]
    fn dp_k1_is_total_sse() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let (assign, sse) = kmeans_1d(&values, 1);
        assert!(assign.iter().all(|&a| a == 0));
        assert!((sse - 5.0).abs() < 1e-12); // mean 2.5, sum of sq dev = 5
    }

    #[test]
    fn dp_k_equals_n_zero_sse() {
        let values = [4.0, 1.0, 3.0, 2.0];
        let (assign, sse) = kmeans_1d(&values, 4);
        assert!(sse < 1e-12);
        // Ascending cluster ids follow value order.
        assert_eq!(assign, vec![3, 0, 2, 1]);
    }

    #[test]
    fn dp_trimodal_k3() {
        let mut values = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.01;
            values.push(1.0 + j);
            values.push(50.0 + j);
            values.push(200.0 + j);
        }
        let (assign, sse) = kmeans_1d(&values, 3);
        assert!(sse < 1.0);
        for (i, &a) in assign.iter().enumerate() {
            assert_eq!(a, i % 3);
        }
    }

    #[test]
    fn dp_handles_fewer_distinct_than_k() {
        let values = [1.0, 1.0, 2.0];
        let (assign, sse) = kmeans_1d(&values, 5);
        assert!(sse < 1e-12);
        assert_eq!(assign[0], assign[1]);
        assert_ne!(assign[0], assign[2]);
    }

    #[test]
    fn dp_sse_nonincreasing_in_k() {
        let values = [9.0, 4.0, 1.0, 16.0, 25.0, 2.0, 8.0, 13.0];
        let mut last = f64::INFINITY;
        for k in 1..=6 {
            let (_, sse) = kmeans_1d(&values, k);
            assert!(sse <= last + 1e-9);
            last = sse;
        }
    }

    #[test]
    fn clusters_are_contiguous_in_value() {
        let values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let (assign, _) = kmeans_1d(&values, 3);
        // For any two values in the same cluster, no value between them may
        // belong to a different cluster.
        for i in 0..values.len() {
            for j in 0..values.len() {
                if assign[i] == assign[j] {
                    for l in 0..values.len() {
                        if values[l] > values[i].min(values[j])
                            && values[l] < values[i].max(values[j])
                        {
                            assert_eq!(assign[l], assign[i]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        best_two_split(&[]);
    }
}
