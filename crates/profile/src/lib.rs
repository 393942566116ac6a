//! Profiler substrate: the four instrumentation back-ends of the paper's
//! evaluation, each with a cost model reproducing Table 5's overhead
//! comparison.
//!
//! | Back-end | Paper tool | Collects | Used by |
//! |---|---|---|---|
//! | [`exec_time`] | Nsight Systems | execution time per kernel | STEM |
//! | [`features`]  | Nsight Compute | 12 instruction-level metrics | PKA |
//! | [`instr`]     | NVBit | instruction count per warp | Sieve |
//! | [`bbv`]       | NVBit (instr_count_bb) | basic-block vectors | Photon |
//!
//! The profilers read the same ground truth (the `gpu-sim` hardware mode or
//! static kernel signatures) but at very different modelled costs: NSYS pays
//! a small per-kernel trace cost; NCU replays kernels and serializes; NVBit
//! pays per *dynamic instruction*; the BBV path pays per instruction for
//! collection plus a quadratically growing comparison bill. [`overhead`]
//! turns those cost models into Table 5's "x original wall time" numbers.

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bbv;
pub mod chaos;
pub mod chaos_fs;
pub mod csv;
pub mod exec_time;
pub mod features;
pub mod instr;
pub mod overhead;
pub mod record;
pub mod tracegen;
pub mod validate;

pub use bbv::BbvProfiler;
pub use chaos::{
    ExecFaultPlan, Fault, FaultPlan, SnapshotFault, TraceRecord, WireExchange, WireFault,
    WireFaultPlan,
};
pub use chaos_fs::{CrashMode, FaultFs, StorageFault, StorageFaultPlan, SyscallRecord};
pub use csv::{ParseCsvError, WriteCsvError};
pub use exec_time::ExecTimeProfiler;
pub use features::{FeatureProfiler, PKA_FEATURE_COUNT};
pub use instr::InstrProfiler;
pub use overhead::{OverheadModel, OverheadReport};
pub use record::{ExecTimeProfile, InvalidProfileError};
pub use tracegen::{TraceGenModel, TraceGenReport};
pub use validate::{DataQualityReport, TraceValidator, ValidationError};
