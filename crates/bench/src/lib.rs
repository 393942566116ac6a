//! Experiment harness reproducing every table and figure of the paper.
//!
//! The `repro` binary (in `src/bin/repro.rs`) exposes one subcommand per
//! table/figure; this library holds the shared machinery:
//!
//! * [`harness`] — method roster (with the paper's per-workload hand-tuning
//!   of PKA/Sieve), suite evaluation loops, experiment options.
//! * [`report`] — aligned text tables and CSV output under `results/`.
//! * [`experiments`] — one module per table/figure, each returning the rows
//!   it printed so integration tests can assert the paper's *shape* claims
//!   (who wins, by roughly what factor).
//!
//! The `perf` binary is the timing harness: it writes `BENCH_hotpath.json`
//! (per-stage times, and the Sec. 5.6 sweep of STEM's planning cost
//! against Photon's matching) and `BENCH_paperscale.json` (streamed
//! ground truth at paper scale). [`microbench`] holds the same-process
//! ratio probes that `tests/scaling_smoke.rs` gates on.

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod memuse;
pub mod microbench;
pub mod report;

pub use harness::{build_sampler, ExperimentOptions, MethodKind};
