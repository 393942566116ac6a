//! GPU workload substrate for the STEM+ROOT reproduction.
//!
//! A *workload* is a sequence of kernel invocations, exactly as a GPU
//! command stream appears to a kernel-level sampler: each invocation names a
//! [`kernel::KernelClass`] (static code signature — launch geometry,
//! instruction mix, basic-block vector, memory footprint) and carries the
//! *runtime context* that makes identical kernels behave differently
//! (Sec. 2.1 of the paper): which data it touches, how much locality it
//! enjoys, how much work this particular call performs, and its draw of
//! runtime jitter.
//!
//! The paper's three benchmark suites are reproduced as synthetic
//! generators in [`suites`]:
//!
//! * [`suites::rodinia_suite`] — 13 small, irregular GPGPU workloads including the
//!   pathological patterns the paper calls out (gaussian's shrinking
//!   kernels, heartwall's 1500x first-call asymmetry, pathfinder's 100x
//!   outliers).
//! * [`suites::casio_suite`] — 11 ML workloads with tens of thousands of kernel
//!   calls exhibiting Figure 1's multi-peak and wide histograms.
//! * [`suites::huggingface_suite`] — 6 large LLM/ML serving workloads with
//!   millions of repeated kernel calls (scaled by a factor the caller
//!   chooses; `scale = 1.0` approximates the paper's 11.6M-call average).
//!
//! Execution *times* are not stored here: they are produced by the
//! `gpu-sim` crate's timing model from `(kernel, context, config)` so that
//! the same invocation can be "run" on different (micro)architectures — the
//! mechanism behind the paper's DSE and H100→H200 experiments.

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod chakra;
pub mod colstore;
pub mod context;
pub mod error;
pub mod invocation;
pub mod io;
pub mod kernel;
pub mod metrics;
pub mod normal;
pub mod scenarios;
pub mod stream;
pub mod suites;
pub mod trace;

pub use builder::{WorkloadBuilder, WorkloadSource};
pub use chakra::{EtNode, EtOp, ExecutionTrace};
pub use colstore::{
    load_store, open_store, stream_store, ColStoreError, StoreManifest, StoreWriter,
    DEFAULT_BLOCK_LEN, MANIFEST_NAME,
};
pub use context::{ContextSchedule, RuntimeContext};
pub use error::{WorkloadError, WorkloadErrorKind};
pub use invocation::{Invocation, KernelId};
pub use kernel::{InstructionMix, KernelClass};
pub use metrics::{MetricCategory, MetricKind, MetricVector, METRIC_COUNT};
pub use stream::{BlockSink, ChannelSink, CollectSink, SinkError, StreamItem, StreamSummary};
pub use trace::{
    FingerprintFold, GroupKey, GroupSlots, Invocations, MemoFold, Row, SlotError, SuiteKind,
    Workload,
};
