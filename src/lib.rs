//! STEM+ROOT — swift and trustworthy large-scale GPU simulation with
//! fine-grained error modeling and hierarchical clustering.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] (`stem-core`) — the paper's contribution: the STEM error
//!   model, ROOT hierarchical clustering, sampling plans and the
//!   profile→sample→simulate pipeline.
//! * [`baselines`] (`stem-baselines`) — PKA, Sieve, Photon, uniform
//!   random and TBPoint samplers, plus the Ekman-style RSS
//!   (ranked-set, repeated subsampling) and two-phase (pilot + Neyman)
//!   stratified baselines and the [`baselines::standard_registry`] that
//!   builds any of them by name.
//! * [`workload`] (`gpu-workload`) — the workload model plus synthetic
//!   Rodinia / CASIO / HuggingFace suites and the adversarial scenario
//!   generators (phase drift, bursty interference, long-tail skew).
//! * [`sim`] (`gpu-sim`) — the kernel-level GPU timing simulator with
//!   configurable microarchitecture.
//! * [`profile`] (`gpu-profile`) — NSYS/NCU/NVBit/BBV-style profilers and
//!   the Table 5 overhead models.
//! * [`stats`] (`stem-stats`) — CLT sample sizing, the KKT solver, error
//!   bounds, KDE and summaries.
//! * [`cluster`] (`stem-cluster`) — k-means, exact 1-D k-means.
//! * [`par`] (`stem-par`) — the deterministic parallel runtime: a scoped
//!   thread pool with index-ordered map/reduce whose results are
//!   bit-identical at every thread count (`STEM_THREADS` override).
//! * [`storage`] (`stem-storage`) — the [`storage::Storage`] abstraction
//!   behind every durable write (campaign snapshots, the serve journal,
//!   committed bench results): atomic tmp+fsync+rename writes,
//!   uniquified quarantine, and orphan-tmp sweeps. The chaos-family
//!   [`profile::FaultFs`] implements it with injected torn writes,
//!   ENOSPC, rename/fsync failures, and crash-at-syscall boundaries.
//!
//! # Quickstart
//!
//! ```
//! use stem::prelude::*;
//!
//! // Build a workload (here: a synthetic Rodinia benchmark).
//! let workload = &rodinia_suite(7)[0];
//!
//! // Sample it with STEM+ROOT at the paper's settings (eps = 5%, 95%).
//! let sampler = StemRootSampler::new(StemConfig::default());
//! let plan = sampler.plan(workload, 0);
//!
//! // Run the sampled simulation and compare against ground truth.
//! let sim = Simulator::new(GpuConfig::rtx2080());
//! let full = sim.run_full(workload);
//! let sampled = sim.run_sampled(workload, plan.samples());
//! println!(
//!     "error {:.3}%  speedup {:.1}x",
//!     sampled.error(full.total_cycles) * 100.0,
//!     sampled.speedup(full.total_cycles),
//! );
//! assert!(sampled.error(full.total_cycles) < 0.05);
//! ```

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub use gpu_profile as profile;
pub use gpu_sim as sim;
pub use gpu_workload as workload;
pub use stem_baselines as baselines;
pub use stem_cluster as cluster;
pub use stem_core as core;
pub use stem_par as par;
pub use stem_serve as serve;
pub use stem_stats as stats;
pub use stem_storage as storage;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use gpu_profile::{
        CrashMode, DataQualityReport, ExecFaultPlan, Fault, FaultFs, FaultPlan, SnapshotFault,
        StorageFault, StorageFaultPlan, TraceRecord, TraceValidator,
    };
    pub use gpu_sim::{
        run_streaming_total, source_total, store_total, workload_total, DseTransform, GpuConfig,
        SampledRun, Simulator, StreamRunError, StreamingTotal, WeightedSample,
        DEFAULT_CHANNEL_BLOCKS,
    };
    pub use gpu_workload::scenarios::{
        adversarial_sources, adversarial_suite, bursty_interference, longtail_skew, phase_drift,
        SCENARIO_NAMES,
    };
    pub use gpu_workload::suites::{
        casio_sources, casio_suite, huggingface_sources, huggingface_suite, rodinia_sources,
        rodinia_suite, HuggingfaceScale,
    };
    pub use gpu_workload::{
        load_store, open_store, stream_store, BlockSink, ChannelSink, ColStoreError, CollectSink,
        ContextSchedule, InstructionMix, KernelClass, RuntimeContext, SinkError, StoreManifest,
        StoreWriter, StreamSummary, SuiteKind, Workload, WorkloadBuilder, WorkloadSource,
        DEFAULT_BLOCK_LEN,
    };
    pub use stem_baselines::{
        standard_registry, PhotonSampler, PkaSampler, RandomSampler, RssSampler, SieveSampler,
        TbPointSampler, TwoPhaseSampler,
    };
    pub use stem_core::sampler::KernelSampler;
    pub use stem_core::{
        CampaignReport, Pipeline, QuarantinedSnapshot, RecoveryPolicy, SamplerRegistry,
        SamplingPlan, SnapshotError, StemConfig, StemError, StemRootSampler,
    };
    pub use stem_par::{ExecLog, Parallelism, Supervisor, TaskFailure};
    pub use stem_serve::{JobPhase, JobSpec, ServeConfig, Server, StoreRef, SuiteId};
    pub use stem_storage::{RealFs, Storage, StorageError, StorageOp};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links() {
        use crate::prelude::*;
        let cfg = StemConfig::default();
        assert_eq!(cfg.epsilon, 0.05);
        let _ = GpuConfig::rtx2080();
    }
}
