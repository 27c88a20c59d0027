//! # dbs-cluster
//!
//! The "off-the-shelf" clustering algorithms the paper runs on its samples
//! (§3.1, §4.2), plus the evaluation machinery of §4.3.
//!
//! * [`hierarchical`] — a CURE-style hierarchical agglomerative algorithm:
//!   every cluster is represented by a set of well-scattered points shrunk
//!   toward the cluster mean by a factor `α`; the two clusters with the
//!   closest representatives merge until the target count remains. This is
//!   the algorithm the paper runs on both biased and uniform samples
//!   (settings from §4.2: `α = 0.3`, 10 representatives, one partition).
//! * [`birch`] — the BIRCH comparison method \[31\]: a CF-tree summarizing
//!   the *entire* dataset under a memory budget equal to the sample size,
//!   followed by hierarchical global clustering of the leaf entries.
//! * [`mod@kmeans`] / [`mod@kmedoids`] — weight-aware partitional algorithms; §3.1
//!   explains that biased samples must be debiased with `1/p_i` weights for
//!   these objectives.
//! * [`partitioned`] — the scalable path around the quadratic merge loop:
//!   CURE's partitioning scheme, sample-fed clustering, and full-dataset
//!   label map-back, all bit-reproducible at any thread count.
//! * [`eval`] — the "cluster found" criterion of §4.3 (≥ 90 % of a found
//!   cluster's representatives inside one true cluster; BIRCH centers
//!   inside a true cluster) and generic label-based metrics.

// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod birch;
pub mod eval;
pub mod hierarchical;
pub mod kmeans;
pub mod kmedoids;
pub mod partitioned;

pub use birch::{Birch, BirchClustering, BirchConfig};
pub use eval::{clusters_found, clusters_found_by_centers, EvalConfig};
pub use hierarchical::{
    hierarchical_cluster, hierarchical_cluster_obs, hierarchical_cluster_reference, Clustering,
    FoundCluster, HierarchicalConfig, NOISE,
};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use kmedoids::{kmedoids, KMedoidsConfig, KMedoidsResult};
pub use partitioned::{
    map_back_labels, map_back_labels_obs, partitioned_cluster, partitioned_cluster_obs,
    sample_fed_cluster, sample_fed_cluster_obs, sample_target_size,
};
