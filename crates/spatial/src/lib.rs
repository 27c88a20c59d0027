//! # dbs-spatial
//!
//! Spatial indexing substrate for the density-biased sampling reproduction:
//!
//! * [`KdTree`] — a static kd-tree over a [`dbs_core::Dataset`] supporting
//!   nearest-neighbor, k-nearest, radius counting/reporting and box queries.
//!   Used by the hierarchical clustering algorithm (closest-pair merges) and
//!   by the exact outlier verifiers.
//! * [`GridIndex`] — a uniform bucket grid, used to prune kernel-center
//!   evaluations in the KDE and to find the candidates near each point in
//!   the outlier detector's verification pass.
//! * [`RepIndex`] — a dynamic bucket grid mapping cluster representative
//!   points to owning cluster ids, with an exact lowest-owner-tie-broken
//!   nearest-neighbor query; the engine under the hierarchical clustering
//!   merge loop.

// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod gridindex;
pub mod kdtree;
pub mod repindex;

pub use gridindex::GridIndex;
pub use kdtree::KdTree;
pub use repindex::RepIndex;
