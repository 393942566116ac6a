//! STEM+ROOT: statistical error modeling and fine-grained hierarchical
//! clustering for swift and trustworthy sampled GPU simulation.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * [`stem`] — **STEM** (Statistical Error Modeling): given kernel
//!   clusters with execution-time summaries, determine the minimal sample
//!   sizes meeting a user-chosen error bound `epsilon` at a confidence
//!   level, via the CLT single-cluster model (Eq. 3) and the joint KKT
//!   optimization across clusters (Eq. 6).
//! * [`root`] — **ROOT** (fine-grained hierarchical clustering): group
//!   kernel invocations by kernel, then recursively 2-means-split each
//!   group's execution-time distribution, accepting a split exactly when
//!   STEM says it reduces projected simulation time (Eqs. 7–8).
//! * [`plan`] — sampling plans: which invocations to simulate, with which
//!   extrapolation weights, plus the theoretical error prediction.
//! * [`sampler`] — the [`sampler::KernelSampler`] trait all sampling
//!   methods (STEM+ROOT and the baselines crate) implement.
//! * [`pipeline`] — the end-to-end flow of Fig. 5: profile → cluster →
//!   size → select → sampled simulation → error/speedup report.
//! * [`eval`] — the paper's metrics: sampling error (Eq. 1), speedup,
//!   harmonic-mean speedup and arithmetic-mean error aggregation.
//!
//! # Quickstart
//!
//! ```
//! use gpu_sim::{GpuConfig, Simulator};
//! use gpu_workload::suites::rodinia_suite;
//! use stem_core::{StemConfig, StemRootSampler};
//! use stem_core::sampler::KernelSampler;
//!
//! let workload = &rodinia_suite(7)[0];
//! let sampler = StemRootSampler::new(StemConfig::default());
//! let plan = sampler.plan(workload, 0);
//!
//! let sim = Simulator::new(GpuConfig::rtx2080());
//! let full = sim.run_full(workload);
//! let sampled = sim.run_sampled(workload, plan.samples());
//! assert!(sampled.error(full.total_cycles) < 0.05);
//! ```

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod config;
pub mod degrade;
pub mod error;
pub mod et;
/// Deterministic seeded PRNG shared by the whole workspace.
///
/// The implementation lives in the leaf crate [`stem_stats`] (so that
/// `stem-cluster` and `gpu-workload`, which `stem-core` depends on, can use
/// it without a dependency cycle); this re-export is the canonical path for
/// samplers and downstream code.
pub use stem_stats::rng;
pub mod eval;
pub mod intra;
pub mod pipeline;
pub mod plan;
pub mod registry;
pub mod root;
pub mod sampler;
pub mod stem;

pub use campaign::CampaignReport;
pub use config::StemConfig;
pub use degrade::RecoveryPolicy;
pub use error::StemError;
pub use eval::{EvalResult, EvalSummary, StreamingAggregate};
pub use pipeline::Pipeline;
pub use plan::SamplingPlan;
pub use registry::SamplerRegistry;
pub use sampler::KernelSampler;
pub use stem::StemRootSampler;
pub use stem_storage::sealed::{QuarantinedSnapshot, SnapshotError};
