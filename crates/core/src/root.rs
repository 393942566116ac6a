//! ROOT: fine-grained hierarchical GPU kernel clustering (Sec. 3.4).
//!
//! Kernel invocations are first grouped by kernel (name), then each group's
//! execution-time distribution is recursively split in two. A split is
//! accepted exactly when STEM projects it to *reduce sampled simulation
//! time*: the parent's projected time `tau_old = m * mean` (Eq. 7, with `m`
//! from the single-cluster Eq. 3) is compared against the children's joint
//! KKT projection `tau_new = sum_i m_i * mean_i` (Eq. 8). Multi-peak
//! distributions split until each cluster holds a single peak; unimodal
//! ones stop immediately — no `k` needs to be known in advance, which is
//! ROOT's point.

use crate::config::StemConfig;
use gpu_workload::{KernelId, Workload};
use stem_cluster::{kmeans_1d, TwoSplitScan};
use stem_par::Parallelism;
use stem_stats::clt::sample_size;
use stem_stats::kkt::{solve_sample_sizes, ClusterStat};
use stem_stats::Summary;

/// A leaf cluster produced by ROOT.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCluster {
    /// The kernel whose invocations this cluster holds.
    pub kernel: KernelId,
    /// Invocation indices (into the workload's stream) as `u32`: half the
    /// bytes of `usize` members in the planning memo. Grouping a workload
    /// by kernel rejects one whose indices do not fit.
    pub members: Vec<u32>,
    /// Profiled execution-time statistics of the members.
    pub stat: ClusterStat,
}

/// A leaf cluster over arbitrary indexed items (used by the execution-trace
/// extension, where items are DAG nodes rather than stream invocations).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexCluster {
    /// Item indices.
    pub members: Vec<usize>,
    /// Profiled time statistics of the members.
    pub stat: ClusterStat,
}

/// Runs ROOT's recursive splitting over one pre-grouped set of items.
/// `times` is indexed by the values in `members`.
///
/// # Panics
///
/// Panics if `members` is empty, any index is out of range or does not
/// fit in a `u32`, or any referenced time is nonpositive/non-finite.
pub fn cluster_indices(
    members: Vec<usize>,
    times: &[f64],
    config: &StemConfig,
) -> Vec<IndexCluster> {
    assert!(!members.is_empty(), "cannot cluster an empty group");
    for &m in &members {
        assert!(m < times.len(), "member index {m} out of range");
        assert!(
            times[m].is_finite() && times[m] > 0.0,
            "profiled times must be positive and finite"
        );
    }
    config.validate();
    let members = members.into_iter().map(narrow).collect();
    let mut leaves = Vec::new();
    split_group(KernelId(0), members, |m| times[m], config, &mut leaves);
    leaves
        .into_iter()
        .map(|c| IndexCluster {
            members: widen(c.members),
            stat: c.stat,
        })
        .collect()
}

/// A leaf's `u32` members as `usize` item indices.
fn widen(members: Vec<u32>) -> Vec<usize> {
    members.into_iter().map(|m| m as usize).collect()
}

/// Narrows an item index to a [`KernelCluster`] member.
///
/// # Panics
///
/// Panics if `m` does not fit in a `u32`.
fn narrow(m: usize) -> u32 {
    assert!(m <= MAX_MEMBER, "member index {m} does not fit in u32");
    m as u32
}

/// The largest item index a [`KernelCluster`] can hold.
const MAX_MEMBER: usize = u32::MAX as usize;

/// Runs ROOT over a whole workload: groups invocations by kernel and
/// recursively splits each group. `times[i]` is the profiled execution time
/// of invocation `i`.
///
/// # Panics
///
/// Panics if `times.len()` differs from the workload's invocation count, if
/// any time is nonpositive/non-finite, or if the workload is empty.
pub fn cluster_workload(
    workload: &Workload,
    times: &[f64],
    config: &StemConfig,
) -> Vec<KernelCluster> {
    cluster_workload_par(workload, times, config, Parallelism::serial())
}

/// [`cluster_workload`] with the per-kernel groups split across `par`
/// threads: [`cluster_kernels`] timing each call by `times[i]`.
/// Bit-identical to the serial clustering at any thread count.
///
/// # Panics
///
/// Same conditions as [`cluster_workload`].
pub fn cluster_workload_par(
    workload: &Workload,
    times: &[f64],
    config: &StemConfig,
    par: Parallelism,
) -> Vec<KernelCluster> {
    validate_workload_times(workload, times, config);
    cluster_kernels(workload, |i| times[i], config, par)
}

/// Below this many invocations ROOT splits its kernels serially: at
/// ~80 ns a row, a smaller workload (Rodinia's are at most a few thousand
/// calls) takes less time than starting a pool.
const MIN_PARALLEL_ROWS: usize = 1 << 13;

/// ROOT's one entry point: groups the workload's calls by kernel
/// ([`Workload::invocations_by_kernel`]) and splits each kernel as one
/// task under `par`. A task gathers its kernel's times through `time`
/// (`time(i)` is invocation `i`'s profiled time), in stream order, folds
/// their [`Summary`] in the same pass and runs the recursion, so only the
/// kernels in flight hold rows, and each frees them when it finishes.
/// Each kernel's recursive splitting is independent of every other
/// kernel's (no RNG, no shared accumulators, buffers owned by the task),
/// and the leaf clusters are concatenated in kernel order, so the result
/// is bit-identical to the serial clustering at any thread count.
///
/// # Panics
///
/// Panics if the workload is empty or any time is nonpositive or
/// non-finite.
pub fn cluster_kernels(
    workload: &Workload,
    time: impl Fn(usize) -> f64 + Sync,
    config: &StemConfig,
    par: Parallelism,
) -> Vec<KernelCluster> {
    assert!(
        workload.num_invocations() > 0,
        "cannot cluster an empty workload"
    );
    config.validate();
    let par = par.serial_below(workload.num_invocations(), MIN_PARALLEL_ROWS);
    let kernels: Vec<_> = workload.invocations_by_kernel().into_iter().collect();
    let per_kernel = stem_par::par_map_owned(par, kernels, |_, (kernel, members)| {
        let mut leaves = Vec::new();
        split_group(kernel, members, &time, config, &mut leaves);
        leaves
    });
    per_kernel.into_iter().flatten().collect()
}

/// The entry checks of [`cluster_workload_par`], shared with
/// [`reference::cluster_workload`].
fn validate_workload_times(workload: &Workload, times: &[f64], config: &StemConfig) {
    assert_eq!(
        times.len(),
        workload.num_invocations(),
        "one profiled time per invocation required"
    );
    assert!(!times.is_empty(), "cannot cluster an empty workload");
    for &t in times {
        assert!(
            t.is_finite() && t > 0.0,
            "profiled times must be positive and finite"
        );
    }
    config.validate();
}

/// One node of the recursion: rows `lo..hi` of its kernel's buffers and
/// sorted times, the node's stream-order statistics, and (k = 2) its
/// optimal cut, scanned while its parent folded it. A node owns no
/// allocation.
#[derive(Clone, Copy)]
struct Node {
    lo: usize,
    hi: usize,
    stat: ClusterStat,
    /// `None` at the root (whose times are not sorted yet) and for k > 2.
    scan: Option<TwoSplitScan>,
}

/// One kernel group's recursion state, allocated once per group:
///
/// - `members` and `times`: a ping-pong pair of packed row buffers, a
///   row being a `u32` member and its `f64` time at the same index
///   (12 bytes). A node at depth `d` holds its rows, in stream order, at
///   `lo..hi` of buffer `d % 2` (the root's are the group's member list,
///   moved in, and its gathered times). Splitting it partitions them
///   stably into buffer `1 - d % 2`, lower child first, so each child
///   keeps stream order (its `Summary` bits equal a fold over the
///   original stream) and nothing is copied back. A child's subtree only
///   touches its own range of either buffer, and a node whose split is
///   rejected still has its rows intact.
/// - `sorted`: the group's times, sorted once, when the root first needs
///   to split. A node's sorted values are `sorted[lo..hi]`: the children
///   of a sorted range are contiguous subranges, so nothing is re-sorted
///   or copied below the root.
struct Recursion<'a> {
    kernel: KernelId,
    config: &'a StemConfig,
    rows: PingPong,
    sorted: Vec<f64>,
    out: &'a mut Vec<KernelCluster>,
}

/// The two row buffers of a kernel group's recursion (see [`Recursion`]).
struct PingPong {
    members: [Vec<u32>; 2],
    times: [Vec<f64>; 2],
}

/// Runs ROOT over one kernel group, appending its leaves to `out` in
/// depth-first, lower-child-first order. `members` (in stream order)
/// become the root's rows; their times are gathered through `time` and
/// folded into the root's statistics in the same pass.
fn split_group(
    kernel: KernelId,
    members: Vec<u32>,
    time: impl Fn(usize) -> f64,
    config: &StemConfig,
    out: &mut Vec<KernelCluster>,
) {
    assert!(!members.is_empty(), "cannot cluster an empty group");
    let mut summary = Summary::new();
    let times = members
        .iter()
        .map(|&m| {
            let t = time(m as usize);
            summary.push(t);
            t
        })
        .collect();
    // The summary is the fold over the times, so its extremes and mean
    // vouch for every row: the minimum is positive, the maximum finite,
    // and a NaN would have poisoned the mean.
    assert!(
        summary.min() > 0.0 && summary.max().is_finite() && !summary.mean().is_nan(),
        "profiled times must be positive and finite"
    );
    let root = Node {
        lo: 0,
        hi: members.len(),
        stat: cluster_stat(members.len(), &summary),
        scan: None,
    };
    let mut recursion = Recursion {
        kernel,
        config,
        rows: PingPong {
            members: [members, Vec::new()],
            times: [times, Vec::new()],
        },
        sorted: Vec::new(),
        out,
    };
    recursion.split(root, 0);
}

impl Recursion<'_> {
    /// Splits `node` (at `depth`) while STEM projects the split to reduce
    /// sampled simulation time, emitting the leaves it ends at.
    fn split(&mut self, node: Node, depth: usize) {
        let config = self.config;
        let stat = node.stat;
        if node.hi - node.lo < config.min_split_size
            || stat.std_dev == 0.0
            || depth >= config.max_depth
        {
            return self.leaf(node, depth);
        }

        // tau_old (Eq. 7): projected sampled time without splitting.
        let eps = config.epsilon;
        let z = config.z();
        let m_old = sample_size(stat.mean, stat.std_dev, eps, z).min(stat.n);
        let tau_old = m_old as f64 * stat.mean;
        // tau_new (Eq. 8): joint KKT projection across the children.
        let pays = |stats: &[ClusterStat]| solve_sample_sizes(stats, eps, z).tau < tau_old;

        if config.k_split == 2 {
            match self.split_two(node, depth) {
                Some([lower, upper]) if pays(&[lower.stat, upper.stat]) => {
                    self.split(lower, depth + 1);
                    self.split(upper, depth + 1);
                }
                _ => self.leaf(node, depth),
            }
        } else {
            let children = self.split_k(node, depth);
            let stats: Vec<ClusterStat> = children.iter().map(|c| c.stat).collect();
            if children.len() >= 2 && pays(&stats) {
                for child in children {
                    self.split(child, depth + 1);
                }
            } else {
                self.leaf(node, depth);
            }
        }
    }

    /// The k = 2 split (the paper's setting): the node's optimal cut, a
    /// stable partition of its rows at that cut into the other buffer, and
    /// one fold over both children that also scans their own cuts. `None`
    /// when the values admit no cut.
    fn split_two(&mut self, node: Node, depth: usize) -> Option<[Node; 2]> {
        let Node { lo, hi, .. } = node;
        let scan = match node.scan {
            Some(scan) => scan,
            None => self.sort_root(),
        };
        let cut = scan.best();
        if cut.lower_count == 0 || cut.lower_count == hi - lo {
            return None;
        }
        let [src, mut dst] = self.rows.pair(depth, lo..hi);
        partition(&src, &mut dst, cut.threshold, cut.lower_count);
        Some(fold_children(
            dst.times,
            &self.sorted[lo..hi],
            lo,
            cut.lower_count,
            scan.lower_sums(),
        ))
    }

    /// Sorts the group's times, once, and scans the root's cuts. For
    /// positive finite floats the `u64` bit order is exactly the
    /// `total_cmp` order, and an integer sort is the cheaper one.
    fn sort_root(&mut self) -> TwoSplitScan {
        let mut bits: Vec<u64> = self.rows.times[0].iter().map(|v| v.to_bits()).collect();
        bits.sort_unstable();
        self.sorted = bits.into_iter().map(f64::from_bits).collect();
        // The group's one sortedness check, fused with the root's totals.
        let (mut prev, mut sum, mut sum_sq) = (0.0, 0.0, 0.0);
        for &v in &self.sorted {
            assert!(
                prev <= v,
                "kernel times must sort as positive finite floats"
            );
            prev = v;
            sum += v;
            sum_sq += v * v;
        }
        TwoSplitScan::run(&self.sorted, sum, sum_sq)
    }

    /// The k > 2 split (an ablation; the paper uses k = 2): the exact DP
    /// over the node's stream-order times, then a stable counting
    /// partition of its rows into the other buffer in cluster order, with
    /// empty clusters dropped. Allocates per node, as the DP does anyway.
    fn split_k(&mut self, node: Node, depth: usize) -> Vec<Node> {
        let Node { lo, hi, .. } = node;
        let k = self.config.k_split;
        let [src, dst] = self.rows.pair(depth, lo..hi);
        let (assignments, _) = kmeans_1d(src.times, k);
        let clusters = assignments.iter().max().map_or(0, |&a| a + 1);
        // starts[c] = first row of cluster c in `dst`.
        let mut starts = vec![0; clusters + 1];
        for &a in &assignments {
            starts[a + 1] += 1;
        }
        for c in 1..=clusters {
            starts[c] += starts[c - 1];
        }
        let mut next = starts.clone();
        for ((&m, &t), &a) in src.members.iter().zip(src.times.iter()).zip(&assignments) {
            dst.members[next[a]] = m;
            dst.times[next[a]] = t;
            next[a] += 1;
        }
        starts
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| Node {
                lo: lo + w[0],
                hi: lo + w[1],
                stat: stream_stat(&dst.times[w[0]..w[1]]),
                scan: None,
            })
            .collect()
    }

    /// Emits `node` (at `depth`) as a leaf; its members are its rows, in
    /// stream order. A leaf at the root takes the group's member list
    /// itself, which the recursion is done with.
    fn leaf(&mut self, node: Node, depth: usize) {
        let members = if depth == 0 {
            std::mem::take(&mut self.rows.members[0])
        } else {
            self.rows.members[depth % 2][node.lo..node.hi].to_vec()
        };
        self.out.push(KernelCluster {
            kernel: self.kernel,
            members,
            stat: node.stat,
        });
    }
}

impl PingPong {
    /// Rows `range` of the nodes at `depth` and of the buffer their
    /// children go to; the second buffer is allocated on first use.
    fn pair(&mut self, depth: usize, range: std::ops::Range<usize>) -> [Rows<'_>; 2] {
        if self.times[1].is_empty() {
            let len = self.times[0].len();
            self.members[1] = vec![0; len];
            self.times[1] = vec![0.0; len];
        }
        let [even_members, odd_members] = &mut self.members;
        let [even_times, odd_times] = &mut self.times;
        let even = Rows {
            members: &mut even_members[range.clone()],
            times: &mut even_times[range.clone()],
        };
        let odd = Rows {
            members: &mut odd_members[range.clone()],
            times: &mut odd_times[range],
        };
        if depth.is_multiple_of(2) {
            [even, odd]
        } else {
            [odd, even]
        }
    }
}

/// One range of a ping-pong buffer: each row's member and its time.
struct Rows<'a> {
    members: &'a mut [u32],
    times: &'a mut [f64],
}

/// Stable branchless partition of `src` into `dst` (same length): rows
/// timed `< threshold` fill `dst[..lower_count]`, the rest
/// `dst[lower_count..]`, each side in `src` order.
fn partition(src: &Rows<'_>, dst: &mut Rows<'_>, threshold: f64, lower_count: usize) {
    let (mut lower, mut upper) = (0, lower_count);
    for (&m, &t) in src.members.iter().zip(src.times.iter()) {
        let below = t < threshold;
        let at = if below { lower } else { upper };
        dst.members[at] = m;
        dst.times[at] = t;
        lower += usize::from(below);
        upper += usize::from(!below);
    }
    assert_eq!(
        lower, lower_count,
        "a split's threshold must realize its cut"
    );
}

/// One child's running fold: its stream-order [`Summary`] and the scan of
/// its own cuts over its sorted range.
struct Fold {
    summary: Summary,
    scan: TwoSplitScan,
}

impl Fold {
    fn new(len: usize, (sum, sum_sq): (f64, f64)) -> Self {
        Fold {
            summary: Summary::new(),
            scan: TwoSplitScan::new(len, sum, sum_sq),
        }
    }

    /// Folds the child's stream-order row `cut` and scans its sorted cut
    /// `w = [sorted[cut - 1], sorted[cut]]`.
    #[inline]
    fn push(&mut self, cut: usize, streamed: f64, w: &[f64]) {
        self.summary.push(streamed);
        self.scan.step(cut, w[0], w[1]);
    }

    /// Folds the child's times and cuts from `cut` (at least 1) to its
    /// end.
    fn push_from(&mut self, cut: usize, times: &[f64], sorted: &[f64]) {
        let cuts = times[cut..].iter().zip(sorted[cut - 1..].windows(2));
        for (cut, (&t, w)) in (cut..).zip(cuts) {
            self.push(cut, t, w);
        }
    }

    fn node(&self, lo: usize, hi: usize) -> Node {
        Node {
            lo,
            hi,
            stat: cluster_stat(hi - lo, &self.summary),
            scan: Some(self.scan),
        }
    }
}

/// Folds both children of a split at `lo + lower_count` in one loop;
/// `times` and `sorted` are the parent's partitioned times and sorted range,
/// `lower_sums` the lower child's sorted totals (from the parent's scan).
/// Per child that is its stream-order `Summary` (its statistics) and the
/// scan of its own cuts, so a child that splits needs no pass of its own.
/// The children's chains are independent, so the loop overlaps them while
/// every bit equals a separate fold and scan per child.
fn fold_children(
    times: &[f64],
    sorted: &[f64],
    lo: usize,
    lower_count: usize,
    lower_sums: (f64, f64),
) -> [Node; 2] {
    let (lower_times, upper_times) = times.split_at(lower_count);
    let (lower_sorted, upper_sorted) = sorted.split_at(lower_count);
    let upper_sums = upper_sorted
        .iter()
        .fold((0.0, 0.0), |(s, s2), &v| (s + v, s2 + v * v));
    let mut lower = Fold::new(lower_count, lower_sums);
    let mut upper = Fold::new(upper_sorted.len(), upper_sums);
    lower.summary.push(lower_times[0]);
    upper.summary.push(upper_times[0]);
    // Row `cut >= 1` of a child pairs with its sorted cut `cut`.
    let lower_cuts = lower_times[1..].iter().zip(lower_sorted.windows(2));
    let upper_cuts = upper_times[1..].iter().zip(upper_sorted.windows(2));
    for (cut, ((&l, lw), (&u, uw))) in (1..).zip(lower_cuts.zip(upper_cuts)) {
        lower.push(cut, l, lw);
        upper.push(cut, u, uw);
    }
    let both = lower_times.len().min(upper_times.len());
    lower.push_from(both, lower_times, lower_sorted);
    upper.push_from(both, upper_times, upper_sorted);
    let mid = lo + lower_count;
    [lower.node(lo, mid), upper.node(mid, lo + times.len())]
}

/// A node's statistics: the stream-order [`Summary`] fold over its times.
fn stream_stat(times: &[f64]) -> ClusterStat {
    let summary: Summary = times.iter().copied().collect();
    cluster_stat(times.len(), &summary)
}

/// The [`ClusterStat`] of `n` rows folded into `summary`.
fn cluster_stat(n: usize, summary: &Summary) -> ClusterStat {
    ClusterStat::new(n as u64, summary.mean(), summary.population_std_dev())
}

/// The recursion ROOT ran before the sort-once, ping-pong rewrite: every
/// node owns fresh `members`/`values`/`sorted` vectors, re-checks its
/// sorted input, and folds each child's statistics separately. Kept as the
/// executable specification the equivalence suites pin the production
/// path to, bit for bit.
#[doc(hidden)]
pub mod reference {
    use super::{narrow, validate_workload_times, widen, IndexCluster, KernelCluster};
    use crate::config::StemConfig;
    use gpu_workload::{KernelId, Workload};
    use stem_cluster::{best_two_split_sorted, kmeans_1d};
    use stem_stats::clt::sample_size;
    use stem_stats::kkt::{solve_sample_sizes, ClusterStat};
    use stem_stats::Summary;

    /// Reference [`super::cluster_indices`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`super::cluster_indices`].
    pub fn cluster_indices(
        members: Vec<usize>,
        times: &[f64],
        config: &StemConfig,
    ) -> Vec<IndexCluster> {
        assert!(!members.is_empty(), "cannot cluster an empty group");
        for &m in &members {
            assert!(m < times.len(), "member index {m} out of range");
            assert!(
                times[m].is_finite() && times[m] > 0.0,
                "profiled times must be positive and finite"
            );
        }
        config.validate();
        let mut tagged = Vec::new();
        let (node, stat) = root_node(members, times);
        split_recursive(KernelId(0), node, stat, config, 0, &mut tagged);
        tagged
            .into_iter()
            .map(|c| IndexCluster {
                members: widen(c.members),
                stat: c.stat,
            })
            .collect()
    }

    /// Reference [`super::cluster_workload`] (serial).
    ///
    /// # Panics
    ///
    /// Same conditions as [`super::cluster_workload`].
    pub fn cluster_workload(
        workload: &Workload,
        times: &[f64],
        config: &StemConfig,
    ) -> Vec<KernelCluster> {
        validate_workload_times(workload, times, config);
        let mut out = Vec::new();
        for (kernel, members) in workload.invocations_by_kernel() {
            let (node, stat) = root_node(widen(members), times);
            split_recursive(kernel, node, stat, config, 0, &mut out);
        }
        out
    }

    /// Per-node state: member indices and their times in stream order,
    /// plus the same times sorted by `total_cmp`.
    struct Node {
        members: Vec<usize>,
        values: Vec<f64>,
        sorted: Vec<f64>,
    }

    /// Builds a root [`Node`] plus its statistics from raw member indices.
    fn root_node(members: Vec<usize>, times: &[f64]) -> (Node, ClusterStat) {
        let values: Vec<f64> = members.iter().map(|&i| times[i]).collect();
        let summary: Summary = values.iter().copied().collect();
        let stat = ClusterStat::new(
            members.len() as u64,
            summary.mean(),
            summary.population_std_dev(),
        );
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        (
            Node {
                members,
                values,
                sorted,
            },
            stat,
        )
    }

    /// A leaf of `kernel` holding `members`, narrowed to `u32`.
    fn leaf(kernel: KernelId, members: Vec<usize>, stat: ClusterStat) -> KernelCluster {
        KernelCluster {
            kernel,
            members: members.into_iter().map(narrow).collect(),
            stat,
        }
    }

    /// Recursive splitter for one cluster of one kernel; `stat` is the
    /// node's statistics, computed by the parent.
    fn split_recursive(
        kernel: KernelId,
        node: Node,
        stat: ClusterStat,
        config: &StemConfig,
        depth: usize,
        out: &mut Vec<KernelCluster>,
    ) {
        let Node {
            members,
            values,
            sorted,
        } = node;
        let stop_here = members.len() < config.min_split_size
            || stat.std_dev == 0.0
            || depth >= config.max_depth;
        if stop_here {
            out.push(leaf(kernel, members, stat));
            return;
        }

        let eps = config.epsilon;
        let z = config.z();
        let m_old = sample_size(stat.mean, stat.std_dev, eps, z).min(stat.n);
        let tau_old = m_old as f64 * stat.mean;

        let children = split_once(&members, &values, &sorted, config.k_split);
        if children.len() < 2 {
            out.push(leaf(kernel, members, stat));
            return;
        }

        let child_stats: Vec<ClusterStat> = children
            .iter()
            .map(|c| {
                let s: Summary = c.values.iter().copied().collect();
                ClusterStat::new(c.members.len() as u64, s.mean(), s.population_std_dev())
            })
            .collect();
        let sol = solve_sample_sizes(&child_stats, eps, z);
        let tau_new = sol.tau;

        if tau_new < tau_old {
            for (child, child_stat) in children.into_iter().zip(child_stats) {
                split_recursive(kernel, child, child_stat, config, depth + 1, out);
            }
        } else {
            out.push(leaf(kernel, members, stat));
        }
    }

    /// One k-way 1-D split: the exact two-way split over the node's sorted
    /// values for `k = 2`, the exact DP for larger `k`. Children that would
    /// be empty are dropped.
    fn split_once(members: &[usize], values: &[f64], sorted: &[f64], k: usize) -> Vec<Node> {
        if k == 2 {
            let split = best_two_split_sorted(sorted);
            if split.lower_count == 0 || split.lower_count == members.len() {
                return vec![Node {
                    members: members.to_vec(),
                    values: values.to_vec(),
                    sorted: sorted.to_vec(),
                }];
            }
            let boundary = sorted.partition_point(|&v| v < split.threshold);
            let mut lower = Node {
                members: Vec::with_capacity(boundary),
                values: Vec::with_capacity(boundary),
                sorted: sorted[..boundary].to_vec(),
            };
            let mut upper = Node {
                members: Vec::with_capacity(members.len() - boundary),
                values: Vec::with_capacity(members.len() - boundary),
                sorted: sorted[boundary..].to_vec(),
            };
            for (&idx, &v) in members.iter().zip(values) {
                let child = if v < split.threshold {
                    &mut lower
                } else {
                    &mut upper
                };
                child.members.push(idx);
                child.values.push(v);
            }
            vec![lower, upper]
        } else {
            let (assignments, _) = kmeans_1d(values, k);
            let num = assignments.iter().copied().max().unwrap_or(0) + 1;
            let mut children: Vec<Node> = (0..num)
                .map(|_| Node {
                    members: Vec::new(),
                    values: Vec::new(),
                    sorted: Vec::new(),
                })
                .collect();
            for ((&idx, &v), &a) in members.iter().zip(values).zip(&assignments) {
                children[a].members.push(idx);
                children[a].values.push(v);
            }
            children.retain(|c| !c.members.is_empty());
            for c in &mut children {
                c.sorted = c.values.clone();
                c.sorted.sort_by(f64::total_cmp);
            }
            children
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::kernel::KernelClassBuilder;
    use gpu_workload::{RuntimeContext, SuiteKind, WorkloadBuilder};

    /// A workload with one kernel and a synthetic time array we control.
    fn flat_workload(n: usize) -> Workload {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let id = b.add_kernel(
            KernelClassBuilder::new("k").build(),
            vec![RuntimeContext::neutral()],
        );
        for _ in 0..n {
            b.invoke(id, 0, 1.0);
        }
        b.build()
    }

    fn config() -> StemConfig {
        StemConfig::paper()
    }

    #[test]
    fn parallel_clustering_is_bit_identical() {
        // Two kernels with bimodal time mixtures so splitting actually
        // recurses, then every thread count must reproduce the serial
        // leaves exactly (same order, same stats bits). The smaller
        // workload stays on the calling thread, the larger one does not.
        for n in [600, MIN_PARALLEL_ROWS + 600] {
            let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
            let a = b.add_kernel(
                KernelClassBuilder::new("a").build(),
                vec![RuntimeContext::neutral()],
            );
            let c = b.add_kernel(
                KernelClassBuilder::new("c").build(),
                vec![RuntimeContext::neutral()],
            );
            for i in 0..n {
                b.invoke(if i % 2 == 0 { a } else { c }, 0, 1.0);
            }
            let w = b.build();
            let times: Vec<f64> = (0..n)
                .map(|i| {
                    if i % 4 < 2 {
                        100.0 + (i % 7) as f64
                    } else {
                        900.0 + (i % 5) as f64
                    }
                })
                .collect();
            let serial = cluster_workload(&w, &times, &config());
            for threads in [1usize, 2, 3, 8] {
                let par =
                    cluster_workload_par(&w, &times, &config(), Parallelism::with_threads(threads));
                assert_eq!(par, serial, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn adjacent_ulp_values_split_at_their_cut() {
        // `(a + next_up(a)) / 2` rounds onto `a`; the cut must still put
        // both `a`s in the lower child (an empty child used to panic).
        let w = flat_workload(8);
        let (a, b) = (1000.0_f64, 1000.0_f64.next_up());
        let times = vec![a, b, a, b, a, b, a, b];
        let mut cfg = config();
        cfg.min_split_size = 2;
        let fast = cluster_workload(&w, &times, &cfg);
        assert_eq!(fast, reference::cluster_workload(&w, &times, &cfg));
        let total: usize = fast.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn constant_group_above_2_pow_53_is_one_leaf() {
        let w = flat_workload(16);
        let times = vec![2f64.powi(60); 16];
        let clusters = cluster_workload(&w, &times, &config());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters, reference::cluster_workload(&w, &times, &config()));
    }

    #[test]
    fn unimodal_stays_single_cluster() {
        let n = 1000;
        let w = flat_workload(n);
        // Times tightly clustered around 100 with tiny spread.
        let times: Vec<f64> = (0..n).map(|i| 100.0 + (i % 10) as f64 * 0.01).collect();
        let clusters = cluster_workload(&w, &times, &config());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].members.len(), n);
    }

    #[test]
    fn bimodal_splits_into_two() {
        let n = 1000;
        let w = flat_workload(n);
        let times: Vec<f64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    10.0 + (i % 20) as f64 * 0.01
                } else {
                    200.0 + (i % 20) as f64 * 0.05
                }
            })
            .collect();
        let clusters = cluster_workload(&w, &times, &config());
        assert_eq!(clusters.len(), 2, "clusters: {clusters:?}");
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, n);
        // Members of each cluster come from one mode.
        for c in &clusters {
            let all_low = c.members.iter().all(|&i| times[i as usize] < 50.0);
            let all_high = c.members.iter().all(|&i| times[i as usize] > 50.0);
            assert!(all_low || all_high);
        }
    }

    #[test]
    fn trimodal_splits_into_three_with_k2() {
        // Recursion with k = 2 still isolates three peaks.
        let n = 1200;
        let w = flat_workload(n);
        let times: Vec<f64> = (0..n)
            .map(|i| match i % 3 {
                0 => 10.0 + (i % 30) as f64 * 0.005,
                1 => 100.0 + (i % 30) as f64 * 0.02,
                _ => 1000.0 + (i % 30) as f64 * 0.2,
            })
            .collect();
        let clusters = cluster_workload(&w, &times, &config());
        assert_eq!(clusters.len(), 3, "got {} clusters", clusters.len());
    }

    #[test]
    fn splits_reduce_projected_time() {
        // The accepted clustering's joint KKT tau never exceeds the
        // no-split tau.
        let n = 2000;
        let w = flat_workload(n);
        let times: Vec<f64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    10.0 + (i % 40) as f64 * 0.01
                } else {
                    500.0 + (i % 40) as f64 * 0.3
                }
            })
            .collect();
        let cfg = config();
        let clusters = cluster_workload(&w, &times, &cfg);
        let stats: Vec<_> = clusters.iter().map(|c| c.stat).collect();
        let tau_split = solve_sample_sizes(&stats, cfg.epsilon, cfg.z()).tau;

        let all: Summary = times.iter().copied().collect();
        let whole = ClusterStat::new(n as u64, all.mean(), all.population_std_dev());
        let m = sample_size(whole.mean, whole.std_dev, cfg.epsilon, cfg.z()).min(whole.n);
        let tau_whole = m as f64 * whole.mean;
        assert!(
            tau_split <= tau_whole,
            "tau_split {tau_split} vs tau_whole {tau_whole}"
        );
    }

    #[test]
    fn tiny_clusters_not_split() {
        let w = flat_workload(4);
        let times = vec![1.0, 100.0, 1.0, 100.0];
        let clusters = cluster_workload(&w, &times, &config());
        assert_eq!(clusters.len(), 1); // below min_split_size
    }

    #[test]
    fn constant_times_never_split() {
        let w = flat_workload(100);
        let times = vec![5.0; 100];
        let clusters = cluster_workload(&w, &times, &config());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].stat.std_dev, 0.0);
    }

    #[test]
    fn multiple_kernels_grouped_separately() {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let a = b.add_kernel(
            KernelClassBuilder::new("a").build(),
            vec![RuntimeContext::neutral()],
        );
        let k2 = b.add_kernel(
            KernelClassBuilder::new("b").build(),
            vec![RuntimeContext::neutral()],
        );
        for _ in 0..50 {
            b.invoke(a, 0, 1.0);
            b.invoke(k2, 0, 1.0);
        }
        let w = b.build();
        let times: Vec<f64> = (0..100).map(|i| 10.0 + (i % 7) as f64 * 0.01).collect();
        let clusters = cluster_workload(&w, &times, &config());
        assert_eq!(clusters.len(), 2);
        assert_ne!(clusters[0].kernel, clusters[1].kernel);
    }

    #[test]
    fn k3_splitting_works() {
        let n = 600;
        let w = flat_workload(n);
        let times: Vec<f64> = (0..n)
            .map(|i| match i % 3 {
                0 => 1.0 + (i % 20) as f64 * 0.001,
                1 => 50.0 + (i % 20) as f64 * 0.01,
                _ => 900.0 + (i % 20) as f64 * 0.1,
            })
            .collect();
        let mut cfg = config();
        cfg.k_split = 3;
        let clusters = cluster_workload(&w, &times, &cfg);
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn members_narrow_to_u32_and_no_further() {
        assert_eq!(narrow(MAX_MEMBER), u32::MAX);
        let past = std::panic::catch_unwind(|| narrow(MAX_MEMBER + 1));
        assert!(past.is_err(), "an index past u32 must be rejected");
    }

    #[test]
    #[should_panic(expected = "one profiled time per invocation")]
    fn mismatched_times_rejected() {
        let w = flat_workload(10);
        cluster_workload(&w, &[1.0], &config());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nonpositive_times_rejected() {
        let w = flat_workload(2);
        cluster_workload(&w, &[1.0, 0.0], &config());
    }

    /// Times from a closure reach ROOT unchecked, through each kernel's
    /// gathered summary, which must still reject every bad row.
    #[test]
    fn bad_times_through_the_time_closure_are_rejected() {
        let w = flat_workload(4);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let times = [1.0, 2.0, bad, 3.0];
            let rejected = std::panic::catch_unwind(|| {
                cluster_kernels(&w, |i| times[i], &config(), Parallelism::serial())
            });
            assert!(rejected.is_err(), "time {bad} was accepted");
        }
    }

    /// The one-kernel-at-a-time entry point against the reference
    /// recursion, through both time sources, at every thread count. The
    /// workload has a kernel registered but never called, a one-call
    /// kernel, a kernel above `MIN_PARALLEL_ROWS` with a bimodal profile
    /// (so it recurses) and more kernels than threads.
    #[test]
    fn kernels_cluster_as_the_reference_at_every_thread_count() {
        let mut b = WorkloadBuilder::new("t", SuiteKind::Custom, 1);
        let kernels: Vec<KernelId> = (0..12)
            .map(|k| {
                b.add_kernel(
                    KernelClassBuilder::new(format!("k{k}")).build(),
                    vec![RuntimeContext::neutral()],
                )
            })
            .collect();
        // Kernel 0 is never called, kernel 1 once, kernel 2 on every
        // other call, and kernels 3..12 share the rest.
        let n = 2 * MIN_PARALLEL_ROWS + 1200;
        b.invoke(kernels[1], 0, 1.0);
        for i in 1..n {
            let k = if i % 2 == 0 { 2 } else { 3 + i % 9 };
            b.invoke(kernels[k], 0, 1.0);
        }
        let w = b.build();
        let groups = w.invocations_by_kernel();
        assert!(!groups.contains_key(&kernels[0]));
        assert_eq!(groups[&kernels[1]].len(), 1);
        assert!(groups[&kernels[2]].len() > MIN_PARALLEL_ROWS);
        let times: Vec<f64> = (0..n)
            .map(|i| {
                let mode = if i % 4 < 2 { 100.0 } else { 900.0 };
                mode + (i % 7) as f64 + (i % 13) as f64 * 0.5
            })
            .collect();
        let expected = reference::cluster_workload(&w, &times, &config());
        let splits = expected.iter().filter(|c| c.kernel == kernels[2]).count();
        assert!(splits >= 2, "the large kernel must recurse");
        for threads in [1usize, 2, 3, 8] {
            let par = Parallelism::with_threads(threads);
            assert_eq!(
                cluster_kernels(&w, |i| times[i], &config(), par),
                expected,
                "threads = {threads}"
            );
            assert_eq!(
                cluster_workload_par(&w, &times, &config(), par),
                expected,
                "threads = {threads}"
            );
        }
    }
}
