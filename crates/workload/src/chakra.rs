//! Chakra-style execution traces: multi-GPU workloads as operator DAGs.
//!
//! The paper's Sec. 6.2 names multi-GPU support as future work and
//! suggests Chakra ETs (execution traces) — a standard DAG representation
//! of multi-device ML workloads with compute and communication operators
//! and explicit dependencies — as the substrate, with "node and edge
//! sampling on such DAG-style ETs" as the starting point. This module
//! implements that substrate: an [`ExecutionTrace`] of [`EtNode`]s (compute
//! kernels pinned to a GPU, collectives spanning all GPUs, point-to-point
//! transfers), a validated-DAG invariant, and a synthetic data-parallel
//! training-trace generator.
//!
//! Simulation lives in `gpu-sim::multi_gpu`; node sampling in
//! `stem-core::et`.

use crate::context::RuntimeContext;
use crate::invocation::KernelId;
use crate::kernel::KernelClass;
use crate::normal;
use stem_stats::rng::{RngExt, SeedableRng, StdRng};

/// One node's jitter draw: Box–Muller through the builder's transform
/// ([`normal::box_muller`]), with a zero `u1` clamped to
/// `f64::MIN_POSITIVE` rather than redrawn.
fn jitter_draw(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    normal::box_muller(u1, u2)
}

/// The operator performed by one ET node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EtOp {
    /// A kernel launch on one GPU.
    Compute {
        /// Kernel class (index into the trace's kernel table).
        kernel: KernelId,
        /// Runtime context index for that kernel.
        context: u16,
        /// Extra work multiplier.
        work_scale: f32,
    },
    /// A ring all-reduce across every GPU (gradient synchronization).
    AllReduce {
        /// Payload bytes per GPU.
        bytes: u64,
    },
    /// A point-to-point transfer between two GPUs (pipeline parallelism).
    P2p {
        /// Payload bytes.
        bytes: u64,
        /// Source GPU.
        src: u8,
        /// Destination GPU.
        dst: u8,
    },
}

impl EtOp {
    /// Whether this is a communication operator.
    pub fn is_communication(&self) -> bool {
        !matches!(self, EtOp::Compute { .. })
    }
}

/// One node of the execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EtNode {
    /// The operator.
    pub op: EtOp,
    /// GPU the node runs on (compute and P2p-src side; collectives span
    /// all GPUs and ignore this beyond scheduling bookkeeping).
    pub gpu: u8,
    /// Indices of nodes that must finish first. Must all be smaller than
    /// this node's own index (topological numbering), which makes cycles
    /// impossible by construction.
    pub deps: Vec<u32>,
    /// Standard-normal jitter draw for this node's runtime.
    pub noise_z: f32,
}

/// A multi-GPU workload as a DAG of operators.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    name: String,
    num_gpus: u8,
    kernels: Vec<KernelClass>,
    contexts: Vec<Vec<RuntimeContext>>,
    nodes: Vec<EtNode>,
}

impl ExecutionTrace {
    /// Assembles and validates a trace.
    ///
    /// # Panics
    ///
    /// Panics if there are no GPUs or kernels, any dependency points
    /// forward (or at itself), any GPU index is out of range, or any
    /// compute node references a missing kernel/context.
    pub fn new(
        name: impl Into<String>,
        num_gpus: u8,
        kernels: Vec<KernelClass>,
        contexts: Vec<Vec<RuntimeContext>>,
        nodes: Vec<EtNode>,
    ) -> Self {
        let name = name.into();
        assert!(num_gpus > 0, "trace {name} has no GPUs");
        assert!(!kernels.is_empty(), "trace {name} has no kernels");
        assert_eq!(
            kernels.len(),
            contexts.len(),
            "trace {name}: one context table per kernel"
        );
        for k in &kernels {
            k.validate();
        }
        for ctxs in &contexts {
            assert!(!ctxs.is_empty(), "trace {name}: kernel without contexts");
            for c in ctxs {
                c.validate();
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                (node.gpu as usize) < num_gpus as usize,
                "trace {name}: node {i} on GPU {} of {num_gpus}",
                node.gpu
            );
            for &d in &node.deps {
                assert!(
                    (d as usize) < i,
                    "trace {name}: node {i} depends on {d} (not topological)"
                );
            }
            match node.op {
                EtOp::Compute {
                    kernel, context, ..
                } => {
                    assert!(
                        kernel.index() < kernels.len(),
                        "trace {name}: node {i} kernel out of range"
                    );
                    assert!(
                        (context as usize) < contexts[kernel.index()].len(),
                        "trace {name}: node {i} context out of range"
                    );
                }
                EtOp::AllReduce { bytes } => {
                    assert!(bytes > 0, "trace {name}: node {i} empty all-reduce");
                }
                EtOp::P2p { bytes, src, dst } => {
                    assert!(bytes > 0, "trace {name}: node {i} empty p2p");
                    assert!(
                        (src as usize) < num_gpus as usize && (dst as usize) < num_gpus as usize,
                        "trace {name}: node {i} p2p endpoints out of range"
                    );
                    assert_ne!(src, dst, "trace {name}: node {i} p2p to itself");
                }
            }
        }
        ExecutionTrace {
            name,
            num_gpus,
            kernels,
            contexts,
            nodes,
        }
    }

    /// Trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> u8 {
        self.num_gpus
    }

    /// Kernel table.
    pub fn kernels(&self) -> &[KernelClass] {
        &self.kernels
    }

    /// Context table of kernel `k`.
    pub fn contexts_of(&self, k: KernelId) -> &[RuntimeContext] {
        &self.contexts[k.index()]
    }

    /// The DAG nodes in topological order.
    pub fn nodes(&self) -> &[EtNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Generates a synthetic data-parallel training trace: `steps` iterations
/// of per-GPU forward and backward passes over `layers` layers, a ring
/// all-reduce per layer gradient (dependent on that layer's backward on
/// *every* GPU), and an optimizer step gated on all reductions — the
/// classic DDP dependence structure Chakra ETs capture.
pub fn data_parallel_training(
    name: &str,
    num_gpus: u8,
    layers: usize,
    steps: usize,
    seed: u64,
) -> ExecutionTrace {
    assert!(num_gpus >= 1, "need at least one GPU");
    assert!(layers >= 1 && steps >= 1, "need work to trace");
    let mut rng = StdRng::seed_from_u64(seed);

    let kernels = vec![
        super::suites::trace_kernels::layer_fwd(),
        super::suites::trace_kernels::layer_bwd(),
        super::suites::trace_kernels::optimizer_step(),
    ];
    let contexts = vec![
        vec![RuntimeContext::neutral().with_jitter(0.05)],
        vec![RuntimeContext::neutral()
            .with_jitter(0.07)
            .with_locality(0.8)],
        vec![RuntimeContext::neutral().with_jitter(0.03)],
    ];
    let (fwd, bwd, opt) = (KernelId(0), KernelId(1), KernelId(2));

    let grad_bytes = 64u64 << 20;
    let mut nodes: Vec<EtNode> = Vec::new();
    // Last node per GPU (serialization of that GPU's stream).
    let mut gpu_tail: Vec<Option<u32>> = vec![None; num_gpus as usize];
    for _step in 0..steps {
        // Forward: layers in sequence per GPU.
        let mut fwd_ids = vec![vec![0u32; layers]; num_gpus as usize];
        #[allow(clippy::needless_range_loop)] // layer indexes fwd_ids per GPU
        for layer in 0..layers {
            for g in 0..num_gpus {
                let mut deps = Vec::new();
                if let Some(t) = gpu_tail[g as usize] {
                    deps.push(t);
                }
                let id = nodes.len() as u32;
                nodes.push(EtNode {
                    op: EtOp::Compute {
                        kernel: fwd,
                        context: 0,
                        work_scale: 1.0,
                    },
                    gpu: g,
                    deps,
                    noise_z: jitter_draw(&mut rng),
                });
                gpu_tail[g as usize] = Some(id);
                fwd_ids[g as usize][layer] = id;
            }
        }
        // Backward: reverse layer order; each layer's all-reduce waits for
        // that layer's backward on every GPU.
        let mut allreduce_ids = Vec::with_capacity(layers);
        for layer in (0..layers).rev() {
            let mut bwd_ids = Vec::with_capacity(num_gpus as usize);
            for g in 0..num_gpus {
                let mut deps = vec![fwd_ids[g as usize][layer]];
                if let Some(t) = gpu_tail[g as usize] {
                    deps.push(t);
                }
                let id = nodes.len() as u32;
                nodes.push(EtNode {
                    op: EtOp::Compute {
                        kernel: bwd,
                        context: 0,
                        work_scale: 1.6,
                    },
                    gpu: g,
                    deps,
                    noise_z: jitter_draw(&mut rng),
                });
                gpu_tail[g as usize] = Some(id);
                bwd_ids.push(id);
            }
            if num_gpus > 1 {
                let id = nodes.len() as u32;
                nodes.push(EtNode {
                    op: EtOp::AllReduce { bytes: grad_bytes },
                    gpu: 0,
                    deps: bwd_ids,
                    noise_z: jitter_draw(&mut rng),
                });
                for t in gpu_tail.iter_mut() {
                    *t = Some(id); // collectives occupy every GPU
                }
                allreduce_ids.push(id);
            }
        }
        // Optimizer step per GPU, gated on all reductions of this step.
        for g in 0..num_gpus {
            let mut deps = allreduce_ids.clone();
            if let Some(t) = gpu_tail[g as usize] {
                deps.push(t);
            }
            deps.sort_unstable();
            deps.dedup();
            let id = nodes.len() as u32;
            nodes.push(EtNode {
                op: EtOp::Compute {
                    kernel: opt,
                    context: 0,
                    work_scale: 1.0,
                },
                gpu: g,
                deps,
                noise_z: jitter_draw(&mut rng),
            });
            gpu_tail[g as usize] = Some(id);
        }
    }
    ExecutionTrace::new(name, num_gpus, kernels, contexts, nodes)
}

/// Generates a pipeline-parallel inference trace: the model's layers are
/// partitioned into `num_gpus` stages; each microbatch flows through the
/// stages with a point-to-point activation transfer between consecutive
/// GPUs (the other standard multi-GPU pattern, exercising [`EtOp::P2p`]).
pub fn pipeline_parallel_inference(
    name: &str,
    num_gpus: u8,
    layers_per_stage: usize,
    microbatches: usize,
    seed: u64,
) -> ExecutionTrace {
    assert!(num_gpus >= 1, "need at least one GPU");
    assert!(
        layers_per_stage >= 1 && microbatches >= 1,
        "need work to trace"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    let kernels = vec![super::suites::trace_kernels::layer_fwd()];
    let contexts = vec![vec![RuntimeContext::neutral().with_jitter(0.05)]];
    let fwd = KernelId(0);
    let activation_bytes = 16u64 << 20;

    let mut nodes: Vec<EtNode> = Vec::new();
    let mut gpu_tail: Vec<Option<u32>> = vec![None; num_gpus as usize];
    // prev_stage_out[g] = the node whose output stage g+1 consumes next.
    for _mb in 0..microbatches {
        let mut carry: Option<u32> = None;
        for stage in 0..num_gpus {
            // Inter-stage activation transfer. `carry` is always `Some` at
            // stage > 0 when layers_per_stage >= 1 (the previous stage's
            // layer loop set it); with zero layers there is nothing to ship.
            if let Some(prev) = carry.filter(|_| stage > 0) {
                let mut deps = vec![prev];
                if let Some(t) = gpu_tail[stage as usize] {
                    deps.push(t);
                }
                deps.sort_unstable();
                deps.dedup();
                let id = nodes.len() as u32;
                nodes.push(EtNode {
                    op: EtOp::P2p {
                        bytes: activation_bytes,
                        src: stage - 1,
                        dst: stage,
                    },
                    gpu: stage,
                    deps,
                    noise_z: jitter_draw(&mut rng),
                });
                gpu_tail[(stage - 1) as usize] = Some(id);
                gpu_tail[stage as usize] = Some(id);
                carry = Some(id);
            }
            // The stage's layers, serialized on its GPU.
            for _layer in 0..layers_per_stage {
                let mut deps = Vec::new();
                if let Some(c) = carry {
                    deps.push(c);
                }
                if let Some(t) = gpu_tail[stage as usize] {
                    deps.push(t);
                }
                deps.sort_unstable();
                deps.dedup();
                let id = nodes.len() as u32;
                nodes.push(EtNode {
                    op: EtOp::Compute {
                        kernel: fwd,
                        context: 0,
                        work_scale: 1.0,
                    },
                    gpu: stage,
                    deps,
                    noise_z: jitter_draw(&mut rng),
                });
                gpu_tail[stage as usize] = Some(id);
                carry = Some(id);
            }
        }
    }
    ExecutionTrace::new(name, num_gpus, kernels, contexts, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn communication_nodes(t: &ExecutionTrace) -> usize {
        t.nodes().iter().filter(|n| n.op.is_communication()).count()
    }

    #[test]
    fn generator_produces_valid_dag() {
        let t = data_parallel_training("ddp", 4, 8, 3, 1);
        assert_eq!(t.num_gpus(), 4);
        // steps * (layers fwd * gpus + layers bwd * gpus + layers allreduce
        // + gpus optimizer)
        assert_eq!(t.len(), 3 * (8 * 4 + 8 * 4 + 8 + 4));
        assert_eq!(communication_nodes(&t), 3 * 8);
    }

    #[test]
    fn single_gpu_has_no_collectives() {
        let t = data_parallel_training("solo", 1, 4, 2, 1);
        assert_eq!(communication_nodes(&t), 0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            data_parallel_training("a", 2, 4, 2, 9),
            data_parallel_training("a", 2, 4, 2, 9)
        );
    }

    #[test]
    fn allreduce_depends_on_every_gpus_backward() {
        let t = data_parallel_training("ddp", 2, 2, 1, 1);
        let ar = t
            .nodes()
            .iter()
            .find(|n| matches!(n.op, EtOp::AllReduce { .. }))
            .expect("has an all-reduce");
        assert_eq!(ar.deps.len(), 2);
    }

    #[test]
    fn pipeline_generator_produces_valid_dag_with_p2p() {
        let t = pipeline_parallel_inference("pp", 4, 6, 8, 2);
        // Per microbatch: 4 stages x 6 layers + 3 transfers.
        assert_eq!(t.len(), 8 * (4 * 6 + 3));
        assert_eq!(communication_nodes(&t), 8 * 3);
        // Every communication node is a P2p between consecutive stages.
        for n in t.nodes() {
            if let EtOp::P2p { src, dst, .. } = n.op {
                assert_eq!(dst, src + 1);
            }
        }
    }

    #[test]
    fn single_stage_pipeline_has_no_transfers() {
        let t = pipeline_parallel_inference("pp1", 1, 4, 5, 2);
        assert_eq!(communication_nodes(&t), 0);
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn forward_dependency_rejected() {
        let t = data_parallel_training("ddp", 1, 1, 1, 1);
        let mut nodes = t.nodes().to_vec();
        nodes[0].deps = vec![1];
        ExecutionTrace::new(
            "bad",
            1,
            t.kernels().to_vec(),
            vec![
                t.contexts_of(KernelId(0)).to_vec(),
                t.contexts_of(KernelId(1)).to_vec(),
                t.contexts_of(KernelId(2)).to_vec(),
            ],
            nodes,
        );
    }

    #[test]
    #[should_panic(expected = "p2p to itself")]
    fn self_p2p_rejected() {
        let t = data_parallel_training("ddp", 2, 1, 1, 1);
        let mut nodes = t.nodes().to_vec();
        nodes.push(EtNode {
            op: EtOp::P2p {
                bytes: 1024,
                src: 1,
                dst: 1,
            },
            gpu: 1,
            deps: vec![],
            noise_z: 0.0,
        });
        ExecutionTrace::new(
            "bad",
            2,
            t.kernels().to_vec(),
            vec![
                t.contexts_of(KernelId(0)).to_vec(),
                t.contexts_of(KernelId(1)).to_vec(),
                t.contexts_of(KernelId(2)).to_vec(),
            ],
            nodes,
        );
    }
}
