//! The 13 microarchitectural metrics of the paper's Sec. 5.5 validation.
//!
//! Four categories: (1) shared/global memory access patterns, (2) L1/L2
//! cache accesses, (3) 16/32-bit floating-point operation counts, and
//! (4) warp execution/branch efficiencies. The *types* live here (pure
//! data); the values are computed per invocation by `gpu-sim`'s metric
//! model, and Figure 14 compares full-workload sums against weighted
//! sampled estimates.

/// Number of metrics collected (the paper's 13).
pub const METRIC_COUNT: usize = 13;

/// The four metric categories of Sec. 5.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricCategory {
    /// Shared/global memory access patterns.
    MemoryAccess,
    /// L1/L2 cache accesses.
    Cache,
    /// 16/32-bit floating point operation counts.
    FloatingPoint,
    /// Warp execution / branch efficiencies.
    Efficiency,
}

/// The 13 collected metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MetricKind {
    /// Global load transactions.
    GlobalLoadTransactions = 0,
    /// Global store transactions.
    GlobalStoreTransactions = 1,
    /// Shared load transactions.
    SharedLoadTransactions = 2,
    /// Shared store transactions.
    SharedStoreTransactions = 3,
    /// L1 accesses.
    L1Accesses = 4,
    /// L1 hit rate (reads).
    L1HitRate = 5,
    /// L2 accesses.
    L2Accesses = 6,
    /// L2 read hit rate (writes always hit per GPU cache policy; Sec. 5.5).
    L2ReadHitRate = 7,
    /// DRAM bytes read.
    DramReadBytes = 8,
    /// FP16 operations executed.
    Fp16Ops = 9,
    /// FP32 operations executed.
    Fp32Ops = 10,
    /// Warp execution efficiency (active-lane fraction).
    WarpExecutionEfficiency = 11,
    /// Branch efficiency (non-divergent branch fraction).
    BranchEfficiency = 12,
}

impl MetricKind {
    /// All metrics, in index order.
    pub const ALL: [MetricKind; METRIC_COUNT] = [
        MetricKind::GlobalLoadTransactions,
        MetricKind::GlobalStoreTransactions,
        MetricKind::SharedLoadTransactions,
        MetricKind::SharedStoreTransactions,
        MetricKind::L1Accesses,
        MetricKind::L1HitRate,
        MetricKind::L2Accesses,
        MetricKind::L2ReadHitRate,
        MetricKind::DramReadBytes,
        MetricKind::Fp16Ops,
        MetricKind::Fp32Ops,
        MetricKind::WarpExecutionEfficiency,
        MetricKind::BranchEfficiency,
    ];

    /// The metric's vector index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Category grouping (Sec. 5.5's four categories).
    pub fn category(self) -> MetricCategory {
        use MetricKind::*;
        match self {
            GlobalLoadTransactions
            | GlobalStoreTransactions
            | SharedLoadTransactions
            | SharedStoreTransactions => MetricCategory::MemoryAccess,
            L1Accesses | L1HitRate | L2Accesses | L2ReadHitRate | DramReadBytes => {
                MetricCategory::Cache
            }
            Fp16Ops | Fp32Ops => MetricCategory::FloatingPoint,
            WarpExecutionEfficiency | BranchEfficiency => MetricCategory::Efficiency,
        }
    }

    /// Whether the metric is a *rate* in `[0, 1]` (aggregated by weighted
    /// average) rather than a count (aggregated by weighted sum).
    pub fn is_rate(self) -> bool {
        matches!(
            self,
            MetricKind::L1HitRate
                | MetricKind::L2ReadHitRate
                | MetricKind::WarpExecutionEfficiency
                | MetricKind::BranchEfficiency
        )
    }

    /// Short display name matching profiler output conventions.
    pub fn short_name(self) -> &'static str {
        use MetricKind::*;
        match self {
            GlobalLoadTransactions => "gld_transactions",
            GlobalStoreTransactions => "gst_transactions",
            SharedLoadTransactions => "shared_ld_transactions",
            SharedStoreTransactions => "shared_st_transactions",
            L1Accesses => "l1_accesses",
            L1HitRate => "l1_hit_rate",
            L2Accesses => "l2_accesses",
            L2ReadHitRate => "l2_read_hit_rate",
            DramReadBytes => "dram_read_bytes",
            Fp16Ops => "fp16_ops",
            Fp32Ops => "fp32_ops",
            WarpExecutionEfficiency => "warp_exec_efficiency",
            BranchEfficiency => "branch_efficiency",
        }
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A per-invocation metric vector, indexed by [`MetricKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricVector(pub [f64; METRIC_COUNT]);

impl MetricVector {
    /// All-zero vector.
    pub fn zero() -> Self {
        MetricVector([0.0; METRIC_COUNT])
    }

    /// Value of one metric.
    pub fn get(&self, kind: MetricKind) -> f64 {
        self.0[kind.index()]
    }

    /// Sets one metric.
    pub fn set(&mut self, kind: MetricKind, value: f64) {
        self.0[kind.index()] = value;
    }

    /// Accumulates counts by sum and rates by `weight`-weighted mean
    /// bookkeeping: the caller accumulates `rate * weight` here and divides
    /// by total weight at the end via [`MetricVector::finish_rates`].
    pub fn accumulate(&mut self, other: &MetricVector, weight: f64) {
        for kind in MetricKind::ALL {
            let i = kind.index();
            self.0[i] += other.0[i] * weight;
        }
    }

    /// Divides rate metrics by `total_weight`, turning accumulated
    /// `rate * weight` sums into weighted means. Count metrics are left as
    /// weighted sums.
    ///
    /// # Panics
    ///
    /// Panics if `total_weight <= 0`.
    pub fn finish_rates(&mut self, total_weight: f64) {
        assert!(total_weight > 0.0, "total weight must be positive");
        for kind in MetricKind::ALL {
            if kind.is_rate() {
                self.0[kind.index()] /= total_weight;
            }
        }
    }
}

impl Default for MetricVector {
    fn default() -> Self {
        MetricVector::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_index_once() {
        let mut seen = [false; METRIC_COUNT];
        for kind in MetricKind::ALL {
            assert!(!seen[kind.index()], "duplicate index {}", kind.index());
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn four_categories_all_present() {
        use std::collections::HashSet;
        let cats: HashSet<_> = MetricKind::ALL.iter().map(|k| k.category()).collect();
        assert_eq!(cats.len(), 4);
    }

    #[test]
    fn rates_are_exactly_four() {
        let rates = MetricKind::ALL.iter().filter(|k| k.is_rate()).count();
        assert_eq!(rates, 4);
    }

    #[test]
    fn accumulate_and_finish() {
        let mut acc = MetricVector::zero();
        let mut a = MetricVector::zero();
        a.set(MetricKind::Fp32Ops, 100.0);
        a.set(MetricKind::L1HitRate, 0.8);
        let mut b = MetricVector::zero();
        b.set(MetricKind::Fp32Ops, 50.0);
        b.set(MetricKind::L1HitRate, 0.4);
        acc.accumulate(&a, 2.0);
        acc.accumulate(&b, 2.0);
        acc.finish_rates(4.0);
        assert_eq!(acc.get(MetricKind::Fp32Ops), 300.0); // weighted sum
        assert!((acc.get(MetricKind::L1HitRate) - 0.6).abs() < 1e-12); // weighted mean
    }

    #[test]
    fn display_short_names() {
        assert_eq!(MetricKind::L2ReadHitRate.to_string(), "l2_read_hit_rate");
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn finish_rejects_zero_weight() {
        MetricVector::zero().finish_rates(0.0);
    }
}
