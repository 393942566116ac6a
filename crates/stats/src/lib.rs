//! Statistical substrate for the STEM+ROOT sampled-simulation framework.
//!
//! This crate implements every piece of statistics the paper's methodology
//! rests on:
//!
//! * [`summary`] — mergeable running summaries (Welford) producing the mean,
//!   standard deviation and coefficient of variation (CoV) that STEM uses as
//!   the kernel signature.
//! * [`normal`] — the standard normal distribution: pdf, cdf and quantile
//!   (the `z`-scores of Eq. (2)).
//! * [`clt`] — the single-cluster error model: sampling error Eq. (2) and the
//!   optimal sample size Eq. (3).
//! * [`kkt`] — the multi-cluster joint optimization (Problem 1) solved in
//!   closed form by the Karush–Kuhn–Tucker conditions (Eq. (6), appendix 9.1).
//! * [`bound`] — the error-bound inequality Eq. (5) and the union-of-cluster-
//!   sets bound of Theorem 3.1.
//! * [`histogram`] — execution-time histograms (Figure 1 style) and peak
//!   counting.
//! * [`kde`] — Gaussian kernel density estimation, used both for peak
//!   detection diagnostics and by the Sieve baseline's sub-clustering.
//! * [`quantile`] — order-statistics helpers.
//! * [`student_t`] — Student's t distribution for small-sample confidence
//!   corrections (the CLT's m >= 30 rule of thumb breaks on ROOT's finest
//!   clusters).
//!
//! # Example
//!
//! Determine how many samples of a kernel are needed for a 5% error bound at
//! 95% confidence:
//!
//! ```
//! use stem_stats::clt::sample_size;
//! use stem_stats::normal::z_for_confidence;
//!
//! let z = z_for_confidence(0.95);
//! // A memory-bound kernel with CoV = sigma/mu = 0.4:
//! let m = sample_size(1000.0, 400.0, 0.05, z);
//! assert_eq!(m, 246); // ceil((1.96 * 0.4 / 0.05)^2)
//! ```

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bound;
pub mod clt;
pub mod error;
pub mod histogram;
pub mod kde;
pub mod kkt;
pub mod normal;
pub mod quantile;
pub mod rng;
pub mod student_t;
pub mod summary;

pub use bound::theoretical_error;
pub use clt::{sample_size, sampling_error, try_sample_size, try_sampling_error};
pub use error::StatsError;
pub use kkt::{solve_sample_sizes, try_solve_sample_sizes, ClusterStat, KktSolution};
pub use normal::z_for_confidence;
pub use summary::Summary;
