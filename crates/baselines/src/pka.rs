//! PKA — Principal Kernel Analysis (Avalos Baddouh et al., MICRO '21).
//!
//! Clusters kernel invocations by 12 instruction-level metrics with
//! k-means, sweeping `k = 1..20` and keeping the BIC-best clustering, then
//! simulates the *first-chronological* kernel of each cluster and projects
//! the cluster's total as `|C_i| * t_rep`.
//!
//! Implementation notes:
//!
//! * Invocation streams contain long runs of byte-identical feature
//!   vectors, so vectors are deduplicated and clustered with weighted
//!   k-means — mathematically identical, orders of magnitude faster.
//! * The paper's Sec. 5.1 hand-tuning (random representative instead of
//!   first-chronological, needed on gaussian/heartwall) is exposed via
//!   [`PkaSampler::with_random_representative`].

use gpu_profile::{FeatureProfiler, PKA_FEATURE_COUNT};
use gpu_sim::WeightedSample;
use gpu_workload::Workload;
use std::collections::HashMap;
use stem_cluster::{KMeans, KMeansConfig};
use stem_core::plan::{ClusterSummary, SamplingPlan};
use stem_core::rng::{RngExt, SeedableRng, StdRng};
use stem_core::sampler::KernelSampler;

/// The largest `k` of PKA's sweep (the paper's `k = 1..20`).
const MAX_K: usize = 20;

/// The PKA baseline sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PkaSampler {
    random_representative: bool,
}

impl PkaSampler {
    /// Creates PKA with the paper's `k = 1..20` sweep and
    /// first-chronological representatives.
    pub fn new() -> Self {
        PkaSampler {
            random_representative: false,
        }
    }

    /// The hand-tuned variant that samples a random cluster member instead
    /// of the first-chronological one (what the STEM paper applied to
    /// gaussian and heartwall to pull PKA's error from 99.9% down to ~38%).
    pub fn with_random_representative(mut self) -> Self {
        self.random_representative = true;
        self
    }
}

impl Default for PkaSampler {
    fn default() -> Self {
        PkaSampler::new()
    }
}

/// Deduplicated feature matrix: distinct vectors, their weights (counts)
/// and each distinct vector's member invocation indices.
struct Dedup {
    distinct: Vec<Vec<f64>>,
    counts: Vec<f64>,
    members: Vec<Vec<usize>>,
}

fn dedup(features: &[[f64; PKA_FEATURE_COUNT]]) -> Dedup {
    let mut index: HashMap<[u64; PKA_FEATURE_COUNT], usize> = HashMap::new();
    let mut distinct = Vec::new();
    let mut counts = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, f) in features.iter().enumerate() {
        let key: [u64; PKA_FEATURE_COUNT] = std::array::from_fn(|d| f[d].to_bits());
        let slot = *index.entry(key).or_insert_with(|| {
            distinct.push(f.to_vec());
            counts.push(0.0);
            members.push(Vec::new());
            distinct.len() - 1
        });
        counts[slot] += 1.0;
        members[slot].push(i);
    }
    Dedup {
        distinct,
        counts,
        members,
    }
}

/// Weighted BIC under identical spherical Gaussians (Pelleg & Moore,
/// X-means), each distinct vector weighted by its count. Higher is better.
fn weighted_bic(points: &[Vec<f64>], weights: &[f64], km: &KMeans) -> f64 {
    let n: f64 = weights.iter().sum();
    let k = km.k() as f64;
    let d = points[0].len() as f64;
    let mut totals = vec![0.0f64; km.k()];
    let mut rss = 0.0;
    for ((p, &a), &w) in points.iter().zip(km.assignments()).zip(weights) {
        totals[a] += w;
        rss += w * stem_cluster::distance::sq_euclidean(p, &km.centroids()[a]);
    }
    let dof = (n - k).max(1.0);
    let variance = (rss / (d * dof)).max(1e-12);
    let mut ll = 0.0;
    for &cn in &totals {
        if cn == 0.0 {
            continue;
        }
        ll += cn * cn.ln()
            - cn * n.ln()
            - cn * d / 2.0 * (2.0 * std::f64::consts::PI * variance).ln()
            - (cn - 1.0) * d / 2.0;
    }
    ll - k * (d + 1.0) / 2.0 * n.ln()
}

impl KernelSampler for PkaSampler {
    fn name(&self) -> &'static str {
        "PKA"
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        assert!(
            workload.num_invocations() > 0,
            "cannot sample an empty workload"
        );
        let raw = FeatureProfiler::new().profile(workload);
        let normalized_rows = FeatureProfiler::normalize(&raw);
        // Re-materialize as fixed arrays for dedup.
        let normalized: Vec<[f64; PKA_FEATURE_COUNT]> = normalized_rows
            .iter()
            .map(|r| std::array::from_fn(|d| r[d]))
            .collect();
        let dd = dedup(&normalized);

        // Sweep k, keep the BIC-best clustering.
        let mut best: Option<(f64, KMeans)> = None;
        for k in 1..=MAX_K.min(dd.distinct.len()) {
            let km = KMeans::fit_weighted(
                &dd.distinct,
                &dd.counts,
                KMeansConfig::new(k, rep_seed ^ (k as u64) << 8),
            );
            let score = weighted_bic(&dd.distinct, &dd.counts, &km);
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, km));
            }
        }
        let (_, km) = best.expect("at least one k was tried");

        // Gather each final cluster's member invocations (in stream order).
        // The CSR membership view walks the assignment vector once; only
        // one member buffer is live at a time instead of k eager vectors.
        let membership = km.membership();
        let mut rng = StdRng::seed_from_u64(rep_seed ^ 0x9ca1_0b5e);
        let mut samples = Vec::new();
        let mut summaries = Vec::new();
        let mut members: Vec<usize> = Vec::new();
        for slots in membership.iter() {
            members.clear();
            for &slot in slots {
                members.extend_from_slice(&dd.members[slot]);
            }
            if members.is_empty() {
                continue;
            }
            members.sort_unstable();
            let rep = if self.random_representative {
                members[rng.random_range(0..members.len())]
            } else {
                members[0]
            };
            let population = members.len() as f64;
            samples.push(WeightedSample::new(rep, population));
            summaries.push(ClusterSummary {
                kernel: workload.kernel_of(&workload.invocation(rep)).name.clone(),
                population: members.len() as u64,
                mean_time: 0.0, // PKA never profiles execution time
                std_time: 0.0,
                samples: 1,
            });
        }
        SamplingPlan::new(self.name(), samples, summaries, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, Simulator};
    use gpu_workload::suites::rodinia_suite;
    use stem_core::sampler::KernelSampler;

    #[test]
    fn one_sample_per_cluster() {
        let suite = rodinia_suite(21);
        let w = &suite[0];
        let plan = PkaSampler::new().plan(w, 1);
        assert_eq!(plan.num_samples(), plan.num_clusters());
        // Weights cover the population.
        let total: f64 = plan.samples().iter().map(|s| s.weight).sum();
        assert_eq!(total, w.num_invocations() as f64);
    }

    #[test]
    fn heartwall_first_chronological_fails_catastrophically() {
        // The paper's Sec. 5.1 observation: the first heartwall call is
        // ~1500x shorter, PKA's metrics cannot see it, so sampling the
        // first-chronological kernel underestimates by ~99.9%.
        let suite = rodinia_suite(21);
        let h = suite
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("heartwall");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(h);
        let plan = PkaSampler::new().plan(h, 1);
        let run = sim.run_sampled(h, plan.samples());
        let err = run.error(full.total_cycles);
        assert!(err > 0.9, "expected catastrophic error, got {err}");
    }

    #[test]
    fn hand_tuned_random_rep_reduces_heartwall_error() {
        let suite = rodinia_suite(21);
        let h = suite
            .iter()
            .find(|w| w.name() == "heartwall")
            .expect("heartwall");
        let sim = Simulator::new(GpuConfig::rtx2080());
        let full = sim.run_full(h);
        // Average over reps: a random rep is usually a full-length call.
        let tuned = PkaSampler::new().with_random_representative();
        let mut errs = Vec::new();
        for r in 0..10 {
            let run = sim.run_sampled(h, tuned.plan(h, r).samples());
            errs.push(run.error(full.total_cycles));
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.5, "tuned PKA error {mean_err}");
    }

    #[test]
    fn distinct_kernels_land_in_distinct_clusters() {
        let suite = rodinia_suite(21);
        let w = suite.iter().find(|w| w.name() == "cfd").expect("cfd");
        let plan = PkaSampler::new().plan(w, 1);
        // cfd has 3 very different kernels; PKA should find >= 2 clusters.
        assert!(plan.num_clusters() >= 2, "got {}", plan.num_clusters());
    }

    #[test]
    fn merges_same_rate_kernels_across_work_levels() {
        // pathfinder's short and long kernels share mix and geometry; PKA's
        // rate-based metrics cannot separate them, so they land in one
        // cluster (the Sec. 5.1 failure mechanism on pf_*).
        let suite = rodinia_suite(21);
        let p = suite
            .iter()
            .find(|w| w.name() == "pf_float")
            .expect("pf_float");
        let plan = PkaSampler::new().plan(p, 1);
        assert_eq!(
            plan.num_clusters(),
            1,
            "short and long dynproc kernels should merge"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let suite = rodinia_suite(21);
        let w = &suite[1];
        let s = PkaSampler::new();
        assert_eq!(s.plan(w, 5), s.plan(w, 5));
    }
}
