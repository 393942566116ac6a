//! `stem-serve` — a fault-tolerant multi-tenant campaign service.
//!
//! The paper's economic argument is that sampled simulation makes
//! what-if GPU studies cheap enough for *many* users to run *many*
//! small campaigns. This crate is the service form of that story: a
//! std-only daemon that accepts campaigns over a plain-text, line-framed
//! TCP protocol and runs them through the existing crash-safe campaign
//! engine, keeping the repo's two invariants under service conditions:
//!
//! * **Bit-identical results** — every `RESULT` payload encodes `f64`s
//!   as `to_bits()` hex and is byte-identical across thread counts,
//!   daemon restarts, worker panics, and resumes.
//! * **Bounded resources** — a bounded admission queue with typed
//!   [`stem_core::StemError::Overloaded`] rejection, per-tenant queue
//!   quotas, per-tenant thread carving, a hard-capped shared memo cache,
//!   and load shedding past a high-water mark.
//!
//! # Protocol
//!
//! See [`proto`] for the full grammar.
//! Each job plans with any sampler from the standard registry (`STEM`,
//! `RSS`, `TwoPhase`, `PKA`, ...), selected by an optional trailing
//! `SUBMIT` field and persisted in the journal. A session:
//!
//! ```text
//! > SUBMIT alice rodinia 33 0 2 1
//! < OK job 0
//! > STATUS alice 0
//! < OK status done straggler=0 resumed=0 executed=2
//! > RESULT alice 0
//! < OK result
//! < summary stem+root rodinia-bfs 3fe... 405... 2
//! < rep 0 3fd... 405... 12 400...
//! < rep 1 3fe... 405... 12 400...
//! < END
//! ```
//!
//! # Crash safety
//!
//! Accepted jobs are recorded in a `STEM-SERVE-JOURNAL v1` file (see
//! [`journal`]) with the same atomic-write + fingerprint + checksum +
//! quarantine discipline as campaign snapshots; per-job campaign
//! snapshots hold every completed `(workload, rep)` unit. Kill the
//! daemon at any instant, start a new one on the same directory, and
//! every in-flight job resumes bit-identically; a corrupt journal is
//! quarantined, never trusted.

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod config;
pub mod job;
pub mod journal;
pub mod proto;
pub mod server;

pub use config::ServeConfig;
pub use job::{JobPhase, JobSpec, JobStatus, StoreRef, SuiteId};
pub use proto::{parse_request, render_error, render_result_payload, Request};
pub use server::{AccessError, RecoveryReport, Server};
