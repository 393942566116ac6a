//! Clustering substrate for the STEM+ROOT sampled-simulation framework.
//!
//! ROOT (the paper's hierarchical clustering layer) needs a fast, seeded
//! 2-means split over one-dimensional execution times; the baseline methods
//! need d-dimensional k-means (PKA sweeps `k = 1..20` over 12-metric feature
//! vectors) and BBV distance functions.
//!
//! * [`kmeans`] — d-dimensional Lloyd's algorithm with k-means++ seeding,
//!   Hamerly-style bounds pruning on a flat point matrix.
//! * [`matrix`] — the flat row-major storage the hot paths run on.
//! * [`kmeans1d`] — exact 1-D k-means by dynamic programming, plus the O(n)
//!   optimal two-way split ROOT uses at every recursion step.
//! * [`distance`] — euclidean distance and BBV similarity.
//!
//! # Example
//!
//! Split a bimodal execution-time profile the way ROOT does:
//!
//! ```
//! use stem_cluster::best_two_split;
//!
//! let times = [10.0, 10.5, 9.8, 50.0, 51.2, 49.7];
//! let split = best_two_split(&times);
//! assert!(split.threshold > 11.0 && split.threshold < 49.0);
//! ```

// Workspace lint headers, enforced by `stem-tidy` (rule `lint-headers`).
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod distance;
pub mod kmeans;
pub mod kmeans1d;
pub mod matrix;

pub use kmeans::{ClusterMembership, KMeans, KMeansConfig};
pub use kmeans1d::{best_two_split, best_two_split_sorted, kmeans_1d, TwoSplit, TwoSplitScan};
pub use matrix::Matrix;
