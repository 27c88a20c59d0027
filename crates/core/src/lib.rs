//! # dbs-core
//!
//! Core data model for the reproduction of *Kollios, Gunopulos, Koudas,
//! Berchtold: "An Efficient Approximation Scheme for Data Mining Tasks"*
//! (ICDE 2001).
//!
//! This crate contains the substrate shared by every other crate in the
//! workspace:
//!
//! * [`Dataset`] — a dense, row-major collection of `d`-dimensional points,
//!   the unit of data every estimator, sampler, clusterer and outlier
//!   detector operates on.
//! * [`BoundingBox`] and [`Metric`] — geometry primitives.
//! * [`MinMaxScaler`] — the paper assumes data scaled to the unit cube
//!   `[0,1]^d`; the scaler performs (and inverts) that mapping.
//! * [`WeightedSample`] — biased samples carry per-point inverse-probability
//!   weights so that a weight-aware downstream algorithm (§3.1 of the
//!   paper) can debias its objective.
//! * [`rng`] — deterministic seeding helpers plus a small Box–Muller normal
//!   sampler (the `rand_distr` crate is outside the allowed dependency set).
//! * [`Reservoir`] — Algorithm R, the one uniform reservoir every fixed-size
//!   uniform sample in the workspace is kept in.
//! * [`scan::PointSource`] — the one read path for every point source:
//!   positional chunk reads, with scans, materialization and index fetches
//!   built on them. The paper's algorithms are expressed as "one pass to
//!   build the estimator, one or two passes to sample"; implementing against
//!   this trait keeps that structure honest for in-memory and on-disk data.
//! * [`par`] — the deterministic parallel executor every multi-threaded code
//!   path uses: fixed chunk grids and chunk-ordered merging make results
//!   independent of the thread count.
//! * [`obs`] — the deterministic observability layer: named monotonic
//!   counters and hierarchical timing spans, merged per par-chunk in chunk
//!   order so enabling metrics never changes any computed output.
//! * [`shard`] — the out-of-core storage engine: columnar on-disk shards
//!   aligned to the executor's chunk grid, read back by positional chunk
//!   reads as a [`ShardedSource`] whose pipeline outputs are byte-identical
//!   to the in-memory path.

#![forbid(unsafe_code)]
// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod bbox;
pub mod dataset;
pub mod error;
pub mod io;
pub mod metric;
pub mod normalize;
pub mod obs;
pub mod par;
pub mod reservoir;
pub mod rng;
pub mod scan;
pub mod shard;
pub mod stats;
pub mod weighted;

pub use bbox::BoundingBox;
pub use dataset::Dataset;
pub use error::{Error, Result};
pub use metric::Metric;
pub use normalize::MinMaxScaler;
pub use reservoir::Reservoir;
pub use scan::{PointBlock, PointSource};
pub use shard::ShardedSource;
pub use weighted::WeightedSample;
