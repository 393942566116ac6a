//! Multi-GPU execution-trace simulation (the paper's Sec. 6.2 extension).
//!
//! Simulates a Chakra-style [`ExecutionTrace`]: compute nodes run on their
//! GPU through the same per-kernel timing model as single-GPU simulation;
//! collectives and point-to-point transfers run over the inter-GPU links
//! with a bandwidth/latency model (ring all-reduce cost
//! `2(n-1)/n * bytes / link_bw`). Scheduling is list scheduling in
//! topological order: a node starts when its dependencies have finished
//! *and* the devices it occupies are free.

use crate::config::GpuConfig;
use crate::exec::{time_kernel, SimOptions};
use gpu_workload::chakra::{EtOp, ExecutionTrace};

/// Configuration of a multi-GPU node.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Per-GPU configuration.
    pub gpu: GpuConfig,
    /// Inter-GPU link bandwidth (GB/s, per direction; NVLink-class).
    pub link_bandwidth_gbps: f64,
    /// Link latency in GPU core cycles.
    pub link_latency_cycles: f64,
    /// Jitter CoV of communication operations (congestion, stragglers).
    pub comm_jitter_cov: f64,
}

impl ClusterConfig {
    /// An H100 NVLink-class node.
    pub fn h100_nvlink() -> Self {
        ClusterConfig {
            gpu: GpuConfig::h100(),
            link_bandwidth_gbps: 450.0,
            link_latency_cycles: 4_000.0,
            comm_jitter_cov: 0.08,
        }
    }

    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics on nonpositive bandwidth or out-of-range jitter.
    pub fn validate(&self) {
        self.gpu.validate();
        assert!(self.link_bandwidth_gbps > 0.0, "zero link bandwidth");
        assert!(self.link_latency_cycles >= 0.0, "negative link latency");
        assert!(
            (0.0..=1.0).contains(&self.comm_jitter_cov),
            "comm jitter CoV out of range"
        );
    }

    fn link_bytes_per_cycle(&self) -> f64 {
        self.link_bandwidth_gbps / self.gpu.clock_ghz
    }
}

/// Result of simulating a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRun {
    /// End-to-end completion time (cycles) — the critical-path quantity a
    /// multi-GPU simulator reports.
    pub makespan_cycles: f64,
    /// Sum of all node durations (device-time; the analogue of the
    /// single-GPU total the samplers estimate).
    pub total_device_cycles: f64,
    /// Per-node durations in node order.
    pub durations: Vec<f64>,
    /// Per-node start times in node order.
    pub starts: Vec<f64>,
}

/// Simulates a trace on a cluster.
///
/// # Panics
///
/// Panics if the config is invalid or the trace is empty.
pub fn simulate_trace(trace: &ExecutionTrace, config: &ClusterConfig) -> TraceRun {
    config.validate();
    assert!(!trace.is_empty(), "cannot simulate an empty trace");
    let durations = node_durations(trace, config);
    schedule(trace, &durations)
}

/// Computes every node's duration without scheduling (the "profile" a
/// kernel-level tracer would collect).
pub fn node_durations(trace: &ExecutionTrace, config: &ClusterConfig) -> Vec<f64> {
    trace
        .nodes()
        .iter()
        .map(|node| node_duration(trace, config, &node.op, node.noise_z as f64))
        .collect()
}

/// Duration of a single node.
pub fn node_duration(
    trace: &ExecutionTrace,
    config: &ClusterConfig,
    op: &EtOp,
    noise_z: f64,
) -> f64 {
    match *op {
        EtOp::Compute {
            kernel,
            context,
            work_scale,
        } => {
            let k = &trace.kernels()[kernel.index()];
            let ctx = &trace.contexts_of(kernel)[context as usize];
            time_kernel(
                k,
                ctx,
                work_scale as f64,
                noise_z,
                &config.gpu,
                SimOptions::default(),
            )
            .cycles
        }
        EtOp::AllReduce { bytes } => {
            let n = trace.num_gpus() as f64;
            let transfer = 2.0 * (n - 1.0) / n * bytes as f64 / config.link_bytes_per_cycle();
            comm_jitter(transfer + config.link_latency_cycles * 2.0, config, noise_z)
        }
        EtOp::P2p { bytes, .. } => {
            let transfer = bytes as f64 / config.link_bytes_per_cycle();
            comm_jitter(transfer + config.link_latency_cycles, config, noise_z)
        }
    }
}

fn comm_jitter(base: f64, config: &ClusterConfig, z: f64) -> f64 {
    let s = config.comm_jitter_cov;
    base * (s * z - s * s / 2.0).exp()
}

/// List scheduling with given durations. Exposed separately so estimated
/// durations (from a sampled plan) can be scheduled the same way.
///
/// # Panics
///
/// Panics if `durations.len() != trace.len()`.
pub fn schedule(trace: &ExecutionTrace, durations: &[f64]) -> TraceRun {
    assert_eq!(durations.len(), trace.len(), "one duration per node");
    let num_gpus = trace.num_gpus() as usize;
    let mut gpu_free = vec![0.0f64; num_gpus];
    let mut finish = vec![0.0f64; trace.len()];
    let mut starts = vec![0.0f64; trace.len()];
    for (i, node) in trace.nodes().iter().enumerate() {
        let deps_ready = node
            .deps
            .iter()
            .map(|&d| finish[d as usize])
            .fold(0.0f64, f64::max);
        let devices: Vec<usize> = match node.op {
            EtOp::Compute { .. } => vec![node.gpu as usize],
            EtOp::AllReduce { .. } => (0..num_gpus).collect(),
            EtOp::P2p { src, dst, .. } => vec![src as usize, dst as usize],
        };
        let device_ready = devices.iter().map(|&g| gpu_free[g]).fold(0.0f64, f64::max);
        let start = deps_ready.max(device_ready);
        let end = start + durations[i];
        for &g in &devices {
            gpu_free[g] = end;
        }
        starts[i] = start;
        finish[i] = end;
    }
    TraceRun {
        makespan_cycles: finish.iter().copied().fold(0.0, f64::max),
        total_device_cycles: durations.iter().sum(),
        durations: durations.to_vec(),
        starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_workload::chakra::data_parallel_training;

    fn cluster() -> ClusterConfig {
        ClusterConfig::h100_nvlink()
    }

    #[test]
    fn makespan_bounded_by_device_time() {
        let t = data_parallel_training("ddp", 4, 6, 2, 3);
        let run = simulate_trace(&t, &cluster());
        assert!(run.makespan_cycles > 0.0);
        // Makespan can't exceed serial execution of everything...
        assert!(run.makespan_cycles <= run.total_device_cycles + 1e-6);
        // ...and can't beat the per-GPU lower bound (its own serial work).
        let per_gpu_work: f64 = run
            .durations
            .iter()
            .zip(t.nodes())
            .filter(|(_, n)| matches!(n.op, EtOp::Compute { .. }) && n.gpu == 0)
            .map(|(d, _)| d)
            .sum();
        assert!(run.makespan_cycles >= per_gpu_work);
    }

    #[test]
    fn dependencies_respected() {
        let t = data_parallel_training("ddp", 2, 4, 1, 3);
        let run = simulate_trace(&t, &cluster());
        for (i, node) in t.nodes().iter().enumerate() {
            for &d in &node.deps {
                let dep_end = run.starts[d as usize] + run.durations[d as usize];
                assert!(
                    run.starts[i] >= dep_end - 1e-6,
                    "node {i} started before dep {d} finished"
                );
            }
        }
    }

    #[test]
    fn devices_never_double_booked() {
        let t = data_parallel_training("ddp", 3, 4, 2, 5);
        let run = simulate_trace(&t, &cluster());
        // Collect per-GPU intervals of compute nodes and check no overlap.
        for g in 0..3u8 {
            let mut intervals: Vec<(f64, f64)> = t
                .nodes()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.gpu == g || n.op.is_communication())
                .map(|(i, _)| (run.starts[i], run.starts[i] + run.durations[i]))
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in intervals.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-6, "GPU {g} double-booked: {:?}", w);
            }
        }
    }

    #[test]
    fn communication_accounts_for_the_multi_gpu_overhead() {
        // Same per-GPU compute; the 2-GPU makespan exceeds the 1-GPU one
        // only by (at most) the communication time it added.
        let t2 = data_parallel_training("ddp", 2, 6, 2, 3);
        let run2 = simulate_trace(&t2, &cluster());
        let t1 = data_parallel_training("solo", 1, 6, 2, 3);
        let run1 = simulate_trace(&t1, &cluster());
        assert!(run2.makespan_cycles > run1.makespan_cycles);
        let comm_total: f64 = t2
            .nodes()
            .iter()
            .zip(&run2.durations)
            .filter(|(n, _)| n.op.is_communication())
            .map(|(_, d)| d)
            .sum();
        assert!(
            run2.makespan_cycles <= run1.makespan_cycles * 1.2 + comm_total,
            "makespan2 {} vs makespan1 {} + comm {comm_total}",
            run2.makespan_cycles,
            run1.makespan_cycles
        );
    }

    #[test]
    fn faster_links_shrink_allreduce() {
        let t = data_parallel_training("ddp", 4, 4, 1, 3);
        let slow = simulate_trace(&t, &cluster());
        let mut fast_cfg = cluster();
        fast_cfg.link_bandwidth_gbps *= 4.0;
        let fast = simulate_trace(&t, &fast_cfg);
        assert!(fast.makespan_cycles < slow.makespan_cycles);
    }

    #[test]
    fn deterministic() {
        let t = data_parallel_training("ddp", 2, 3, 2, 7);
        assert_eq!(
            simulate_trace(&t, &cluster()),
            simulate_trace(&t, &cluster())
        );
    }

    #[test]
    #[should_panic(expected = "one duration per node")]
    fn mismatched_durations_rejected() {
        let t = data_parallel_training("ddp", 2, 2, 1, 1);
        schedule(&t, &[1.0]);
    }
}
