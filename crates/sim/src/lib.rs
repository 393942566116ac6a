//! Kernel-level GPU timing simulator — the cycle-count substrate standing in
//! for MacSim in this reproduction.
//!
//! STEM+ROOT and all baseline samplers consume nothing from a simulator but
//! *per-kernel cycle counts* and (for validation) per-kernel
//! microarchitectural metrics. This crate produces both from an analytic
//! timing model with the properties the paper's experiments rely on:
//!
//! * identical kernels produce context-dependent, multi-modal, jittery cycle
//!   distributions (Sec. 2.1's heterogeneity — the input to ROOT);
//! * cycle counts respond to microarchitectural changes (cache size, SM
//!   count, memory bandwidth) in a kernel-dependent way — memory-bound
//!   kernels move more than compute-bound ones (the premise of the DSE and
//!   H100→H200 experiments, Sec. 5.4);
//! * the model is a pure function of `(workload, invocation, config)` plus
//!   the invocation's pre-drawn jitter, so "running" the same invocation on
//!   two configurations yields correlated times, exactly like observing one
//!   physical execution on two machines.
//!
//! # Model sketch
//!
//! For each invocation the model computes SM occupancy from CTA resources
//! ([`occupancy`]), splits dynamic instructions into compute-rail cycles by
//! instruction-class throughput ([`exec`]), drives an L1/L2 capacity-based
//! hit-rate model and a DRAM bandwidth roofline ([`cache`], [`dram`]), and
//! takes the max of the compute and memory rails plus imperfect-overlap and
//! launch-overhead terms. Runtime jitter is lognormal with a CoV that grows
//! with the kernel's memory-boundedness under the *simulated* config.

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod energy;
pub mod exec;
pub mod hardware;
pub mod memo;
pub mod metrics;
pub mod multi_gpu;
pub mod occupancy;
pub mod sampled;
pub mod simulator;
pub mod streaming;
pub mod waves;

pub use config::{DseTransform, GpuConfig};
pub use energy::EnergyModel;
pub use exec::{DeterministicTiming, KernelTiming, SimOptions};
pub use hardware::{HardwareRunner, Measurements};
pub use memo::SimCache;
pub use multi_gpu::{simulate_trace, ClusterConfig, TraceRun};
pub use sampled::{SampledRun, WeightedSample};
pub use simulator::{FullRun, Simulator};
pub use streaming::{
    run_streaming_total, source_total, store_total, workload_total, StreamRunError, StreamingTotal,
    DEFAULT_CHANNEL_BLOCKS,
};
