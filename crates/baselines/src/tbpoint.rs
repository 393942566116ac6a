//! TBPoint-style sampling (Huang et al., IPDPS '14) — related work used as
//! an extra ablation point.
//!
//! TBPoint clusters kernels with microarchitecture-independent metrics and
//! samples the kernel *closest to each cluster's center* (rather than the
//! first-chronological one). We reuse PKA's 12 instruction-level features
//! and a fixed-k clustering chosen by BIC, differing from PKA only in the
//! representative choice — which isolates how much of PKA's error comes
//! from chronological sampling versus the signature itself.

use gpu_profile::{FeatureProfiler, PKA_FEATURE_COUNT};
use gpu_sim::WeightedSample;
use gpu_workload::Workload;
use std::collections::HashMap;
use stem_cluster::distance::sq_euclidean;
use stem_cluster::{KMeans, KMeansConfig};
use stem_core::plan::{ClusterSummary, SamplingPlan};
use stem_core::sampler::KernelSampler;

/// The TBPoint-style baseline sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbPointSampler {
    max_k: usize,
}

impl TbPointSampler {
    /// Creates the sampler with a `k <= 20` sweep.
    pub fn new() -> Self {
        TbPointSampler { max_k: 20 }
    }
}

impl Default for TbPointSampler {
    fn default() -> Self {
        TbPointSampler::new()
    }
}

impl KernelSampler for TbPointSampler {
    fn name(&self) -> &'static str {
        "TBPoint"
    }

    fn plan(&self, workload: &Workload, rep_seed: u64) -> SamplingPlan {
        assert!(
            workload.num_invocations() > 0,
            "cannot sample an empty workload"
        );
        let raw = FeatureProfiler::new().profile(workload);
        let normalized = FeatureProfiler::normalize(&raw);

        // Dedup identical rows (streams repeat the same kernels).
        let mut index: HashMap<[u64; PKA_FEATURE_COUNT], usize> = HashMap::new();
        let mut distinct: Vec<Vec<f64>> = Vec::new();
        let mut counts: Vec<f64> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (i, row) in normalized.iter().enumerate() {
            let key: [u64; PKA_FEATURE_COUNT] = std::array::from_fn(|d| row[d].to_bits());
            let slot = *index.entry(key).or_insert_with(|| {
                distinct.push(row.clone());
                counts.push(0.0);
                members.push(Vec::new());
                distinct.len() - 1
            });
            counts[slot] += 1.0;
            members[slot].push(i);
        }

        // Choose k by inertia elbow: smallest k whose inertia is within 5%
        // of the k_max inertia (a simple, deterministic stand-in for the
        // original's quality criterion).
        let k_cap = self.max_k.min(distinct.len());
        let fits: Vec<KMeans> = (1..=k_cap)
            .map(|k| {
                KMeans::fit_weighted(
                    &distinct,
                    &counts,
                    KMeansConfig::new(k, rep_seed ^ ((k as u64) << 4)),
                )
            })
            .collect();
        let floor = fits.last().expect("k >= 1").inertia();
        let km = fits
            .iter()
            .find(|f| f.inertia() <= floor * 1.05 + 1e-12)
            .expect("last fit always qualifies");

        let mut samples = Vec::new();
        let mut summaries = Vec::new();
        let mut cluster_slots: Vec<Vec<usize>> = vec![Vec::new(); km.k()];
        for (slot, &a) in km.assignments().iter().enumerate() {
            cluster_slots[a].push(slot);
        }
        for (c, slots) in cluster_slots.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            // Representative: the distinct vector closest to the centroid;
            // within it, the first invocation in stream order.
            let centroid = &km.centroids()[c];
            let best_slot = slots
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    sq_euclidean(&distinct[a], centroid)
                        .total_cmp(&sq_euclidean(&distinct[b], centroid))
                })
                .expect("nonempty cluster");
            let rep = members[best_slot][0];
            let population: f64 = slots.iter().map(|&s| counts[s]).sum();
            samples.push(WeightedSample::new(rep, population));
            summaries.push(ClusterSummary {
                kernel: workload.kernel_of(&workload.invocation(rep)).name.clone(),
                population: population as u64,
                mean_time: 0.0,
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
    use gpu_workload::suites::rodinia_suite;

    #[test]
    fn weights_cover_population() {
        let suite = rodinia_suite(51);
        let w = &suite[0];
        let plan = TbPointSampler::new().plan(w, 1);
        let total: f64 = plan.samples().iter().map(|s| s.weight).sum();
        assert_eq!(total, w.num_invocations() as f64);
    }

    #[test]
    fn one_sample_per_cluster() {
        let suite = rodinia_suite(51);
        let w = suite.iter().find(|w| w.name() == "cfd").expect("cfd");
        let plan = TbPointSampler::new().plan(w, 1);
        assert_eq!(plan.num_samples(), plan.num_clusters());
        assert!(plan.num_clusters() >= 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let suite = rodinia_suite(51);
        let w = &suite[1];
        let s = TbPointSampler::new();
        assert_eq!(s.plan(w, 2), s.plan(w, 2));
    }
}
