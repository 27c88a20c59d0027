//! # dbs-density
//!
//! Density estimation substrate for the density-biased sampling
//! reproduction.
//!
//! The paper (§2.1) requires a density estimator `f : [0,1]^d -> R` such
//! that for any region `R`, `∫_R f ≈ |D ∩ R|` — a *frequency* estimator
//! whose integral over the whole domain is the dataset size `n`. Three
//! estimators implement the [`DensityEstimator`] trait:
//!
//! * [`KernelDensityEstimator`] — the paper's choice: product Epanechnikov
//!   kernels centered on a reservoir sample of `ks` points (default 1000),
//!   built in one dataset pass (§2.1, §4.2). Gaussian and biweight kernels
//!   and several bandwidth rules are provided for the ablation experiments.
//! * [`WaveletEstimator`] — a Haar-wavelet-compressed histogram, the
//!   transform-based alternative the paper cites (\[30\]\[19\]).
//! * [`ShiftedGrids`] — the one histogram engine: `m` uniform grids,
//!   shifted by seeded offsets or not, over exact ([`Dense`]) or hashed
//!   ([`Hashed`]) `u64` counters, averaged at query time: one pass,
//!   exact merges, O(m) queries. Its four presets are the histogram
//!   backends:
//!   - `grid` ([`ShiftedGrids::grid`]) — one exact unshifted grid;
//!   - `hashgrid` ([`ShiftedGrids::hashgrid`]) — one unshifted grid hashed
//!     into a fixed table whose collisions merge cell counts: the storage
//!     scheme of the Palmer–Faloutsos comparison method \[22\];
//!   - `agrid` ([`ShiftedGrids::agrid`]) — the Wells–Ting averaged-grid
//!     ensemble of `m` shifted exact grids, the sub-linear backend for
//!     high-dimensional runs;
//!   - `sketch` ([`DensitySketch::new`]) — `m` shifted grids hashed into
//!     salted Count-Min rows: bounded memory regardless of stream length,
//!     the ingest path for unbounded sources.
//!
//! Callers pick a backend through [`EstimatorSpec`] — a parse-from-string
//! configuration (`kde:1000`, `grid:32`, `hashgrid`, `wavelet:5`,
//! `agrid:8`, `sketch:4:65536`, …) whose [`EstimatorSpec::fit`] returns a boxed
//! [`DensityEstimator`], so the CLI and experiment harness never hardwire
//! a concrete estimator type.
//!
//! [`ball::expected_neighbors`] estimates `∫_{Ball(O,r)} f` over an L2, L1
//! or L∞ ball, the quantity the approximate outlier detector of §3.2 uses
//! to prune non-outliers.

// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod agrid;
pub mod ball;
pub mod bandwidth;
pub mod batch;
pub mod grid;
pub mod hashgrid;
pub mod kde;
pub mod kernel;
pub mod shifted;
pub mod sketch;
pub mod spec;
#[cfg(test)]
mod test_util;
pub mod traits;
pub mod wavelet;

pub use bandwidth::Bandwidth;
pub use kde::{KdeConfig, KernelDensityEstimator};
pub use kernel::Kernel;
pub use shifted::{CounterStore, Dense, Hashed, ShiftedGrids};
pub use sketch::{DensitySketch, SketchConfig};
pub use spec::{EstimatorKind, EstimatorSpec};
pub use traits::{batch_densities, batch_densities_obs, DensityEstimator};
pub use wavelet::WaveletEstimator;
