//! Node sampling on Chakra-style execution traces — the paper's Sec. 6.2
//! future-work direction, implemented.
//!
//! Multi-GPU workloads are DAGs of compute and communication operators.
//! Kernel-level sampling generalizes to *node* sampling: group nodes by
//! operator signature (compute: kernel + context; communication: kind +
//! payload magnitude), run ROOT's hierarchical splitting on each group's
//! durations, size samples with the joint KKT solution, simulate only the
//! sampled nodes, and reconstruct both estimates the multi-GPU setting
//! cares about:
//!
//! * **total device time** — the plain weighted sum (as in single-GPU
//!   sampling), and
//! * **makespan** — by assigning every node its cluster's estimated mean
//!   duration and re-running list scheduling over the *dependency
//!   structure*, which is fully known from the trace (dependencies need no
//!   sampling; only durations do).

use crate::config::StemConfig;
use crate::rng::{RngExt, SeedableRng, StdRng};
use crate::root::{cluster_indices, IndexCluster};
use gpu_sim::multi_gpu::{node_durations, schedule, simulate_trace, ClusterConfig};
use gpu_workload::chakra::{EtOp, ExecutionTrace};
use std::collections::BTreeMap;

/// Operator signature used for the initial grouping (the analogue of
/// "group kernels by name").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NodeGroup {
    Compute { kernel: u32, context: u16 },
    AllReduce { bytes_log2: u8 },
    P2p { bytes_log2: u8 },
}

fn group_of(op: &EtOp) -> NodeGroup {
    match *op {
        EtOp::Compute {
            kernel, context, ..
        } => NodeGroup::Compute {
            kernel: kernel.0,
            context,
        },
        EtOp::AllReduce { bytes } => NodeGroup::AllReduce {
            bytes_log2: bytes.max(1).ilog2() as u8,
        },
        EtOp::P2p { bytes, .. } => NodeGroup::P2p {
            bytes_log2: bytes.max(1).ilog2() as u8,
        },
    }
}

/// A node-sampling plan for an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EtPlan {
    /// The clusters (over node indices) with their sample draws.
    clusters: Vec<EtCluster>,
}

#[derive(Debug, Clone, PartialEq)]
struct EtCluster {
    members: Vec<usize>,
    sampled: Vec<usize>,
}

impl EtPlan {
    /// Total nodes that must actually be simulated.
    pub fn num_samples(&self) -> usize {
        self.clusters.iter().map(|c| c.sampled.len()).sum()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }
}

/// Builds a node-sampling plan from profiled node durations.
///
/// # Panics
///
/// Panics if `profiled.len() != trace.len()` or the trace is empty.
pub fn plan_trace(
    trace: &ExecutionTrace,
    profiled: &[f64],
    config: &StemConfig,
    seed: u64,
) -> EtPlan {
    assert_eq!(profiled.len(), trace.len(), "one profiled time per node");
    assert!(!trace.is_empty(), "cannot sample an empty trace");

    // Group by operator signature.
    let mut groups: BTreeMap<NodeGroup, Vec<usize>> = BTreeMap::new();
    for (i, node) in trace.nodes().iter().enumerate() {
        groups.entry(group_of(&node.op)).or_default().push(i);
    }

    // ROOT per group, then joint KKT sizing across all leaves.
    let mut leaves: Vec<IndexCluster> = Vec::new();
    for (_, members) in groups {
        leaves.extend(cluster_indices(members, profiled, config));
    }
    let stats: Vec<_> = leaves.iter().map(|c| c.stat).collect();
    let sol = stem_stats::kkt::solve_sample_sizes(&stats, config.epsilon, config.z());

    let mut rng = StdRng::seed_from_u64(seed ^ 0xe7_e7_e7);
    let clusters = leaves
        .into_iter()
        .zip(&sol.sizes)
        .map(|(leaf, &m)| {
            let n = leaf.members.len();
            let m = (m as usize).clamp(1, n);
            let sampled = if m == n {
                leaf.members.clone()
            } else {
                (0..m)
                    .map(|_| leaf.members[rng.random_range(0..n)])
                    .collect()
            };
            EtCluster {
                members: leaf.members,
                sampled,
            }
        })
        .collect();
    EtPlan { clusters }
}

/// Outcome of evaluating node sampling against full trace simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct EtReport {
    /// Nodes actually simulated.
    pub simulated_nodes: usize,
    /// Total nodes in the trace.
    pub total_nodes: usize,
    /// Ground-truth total device cycles.
    pub true_total: f64,
    /// Weighted-sum estimate of total device cycles.
    pub estimated_total: f64,
    /// Ground-truth makespan.
    pub true_makespan: f64,
    /// Makespan from scheduling estimated per-cluster mean durations.
    pub estimated_makespan: f64,
}

impl EtReport {
    /// Relative error of the device-time estimate.
    pub fn total_error(&self) -> f64 {
        (self.estimated_total - self.true_total).abs() / self.true_total
    }

    /// Relative error of the makespan estimate.
    pub fn makespan_error(&self) -> f64 {
        (self.estimated_makespan - self.true_makespan).abs() / self.true_makespan
    }

    /// Speedup in simulated nodes (proxy for simulation-time savings).
    pub fn node_speedup(&self) -> f64 {
        self.total_nodes as f64 / self.simulated_nodes.max(1) as f64
    }
}

/// End-to-end evaluation: profile (with measurement noise), plan, simulate
/// only the sampled nodes, reconstruct totals and makespan, compare to the
/// full simulation.
pub fn evaluate_trace_sampling(
    trace: &ExecutionTrace,
    cluster_config: &ClusterConfig,
    stem_config: &StemConfig,
    seed: u64,
) -> EtReport {
    // Ground truth.
    let full = simulate_trace(trace, cluster_config);

    // "Profile": duration measurement with light profiler noise.
    let durations = node_durations(trace, cluster_config);
    let profiled: Vec<f64> = durations
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let z = profile_noise(seed, i as u64);
            d * (0.01 * z - 0.00005).exp()
        })
        .collect();

    let plan = plan_trace(trace, &profiled, stem_config, seed);

    // Simulate only sampled nodes; estimate each cluster's mean.
    let mut estimated = vec![0.0f64; trace.len()];
    let mut estimated_total = 0.0;
    let mut simulated_nodes = 0usize;
    for cluster in &plan.clusters {
        let sampled_durs: Vec<f64> = cluster
            .sampled
            .iter()
            .map(|&i| durations[i]) // the sim would compute exactly this
            .collect();
        simulated_nodes += sampled_durs.len();
        let mean = sampled_durs.iter().sum::<f64>() / sampled_durs.len() as f64;
        estimated_total += mean * cluster.members.len() as f64;
        for &m in &cluster.members {
            estimated[m] = mean;
        }
    }
    let estimated_run = schedule(trace, &estimated);

    EtReport {
        simulated_nodes,
        total_nodes: trace.len(),
        true_total: full.total_device_cycles,
        estimated_total,
        true_makespan: full.makespan_cycles,
        estimated_makespan: estimated_run.makespan_cycles,
    }
}

fn profile_noise(seed: u64, index: u64) -> f64 {
    let z = stem_par::split_seed(seed, index);
    let u1 = ((z >> 11) as f64 / (1u64 << 53) as f64).max(f64::MIN_POSITIVE);
    let u2 = (z.wrapping_mul(0x2545f4914f6cdd1d) >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::chakra::data_parallel_training;

    fn setup() -> (ExecutionTrace, ClusterConfig, StemConfig) {
        (
            data_parallel_training("ddp", 4, 12, 24, 5),
            ClusterConfig::h100_nvlink(),
            StemConfig::paper(),
        )
    }

    #[test]
    fn node_sampling_estimates_totals_and_makespan() {
        let (trace, cluster, stem) = setup();
        let report = evaluate_trace_sampling(&trace, &cluster, &stem, 1);
        assert!(
            report.total_error() < 0.05,
            "total error {}",
            report.total_error()
        );
        assert!(
            report.makespan_error() < 0.05,
            "makespan error {}",
            report.makespan_error()
        );
        assert!(
            report.node_speedup() > 5.0,
            "node speedup {}",
            report.node_speedup()
        );
    }

    #[test]
    fn plan_covers_all_groups() {
        let (trace, cluster, stem) = setup();
        let durations = node_durations(&trace, &cluster);
        let plan = plan_trace(&trace, &durations, &stem, 1);
        // Every node belongs to exactly one cluster.
        let total: usize = plan.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, trace.len());
        // Communication and compute nodes never share a cluster.
        for c in &plan.clusters {
            let comm = trace.nodes()[c.members[0]].op.is_communication();
            for &m in &c.members {
                assert_eq!(trace.nodes()[m].op.is_communication(), comm);
            }
        }
    }

    #[test]
    fn deterministic() {
        let (trace, cluster, stem) = setup();
        let a = evaluate_trace_sampling(&trace, &cluster, &stem, 3);
        let b = evaluate_trace_sampling(&trace, &cluster, &stem, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn pipeline_parallel_trace_sampled_accurately() {
        // Exercises the P2p path end to end.
        use gpu_workload::chakra::pipeline_parallel_inference;
        let trace = pipeline_parallel_inference("pp", 4, 8, 64, 9);
        let report = evaluate_trace_sampling(
            &trace,
            &ClusterConfig::h100_nvlink(),
            &StemConfig::paper(),
            1,
        );
        assert!(
            report.total_error() < 0.05,
            "total {}",
            report.total_error()
        );
        assert!(
            report.makespan_error() < 0.06,
            "makespan {}",
            report.makespan_error()
        );
        assert!(report.node_speedup() > 5.0);
    }

    #[test]
    fn single_gpu_trace_works() {
        let trace = data_parallel_training("solo", 1, 6, 10, 2);
        let report = evaluate_trace_sampling(
            &trace,
            &ClusterConfig::h100_nvlink(),
            &StemConfig::paper(),
            1,
        );
        assert!(report.total_error() < 0.05);
    }

    #[test]
    #[should_panic(expected = "one profiled time per node")]
    fn mismatched_profile_rejected() {
        let (trace, _, stem) = setup();
        plan_trace(&trace, &[1.0], &stem, 0);
    }
}
