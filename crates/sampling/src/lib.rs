//! # dbs-sampling
//!
//! The paper's primary contribution: **density-biased sampling** (§2), plus
//! every sampler it is compared against.
//!
//! * [`biased`] — the proposed technique (Figure 1 of the paper): include
//!   point `x` with probability `(b/k) · f(x)^a`, where `f` is any
//!   [`dbs_density::DensityEstimator`], `a` the tuning exponent, and
//!   `k = Σ_x f(x)^a` the normalizer. Exact, in one pass over the data
//!   after the estimator is built (a second pass only when its exactness
//!   test fails, an ~8σ event).
//! * [`onepass`] — the integrated single-pass variant mentioned at the end
//!   of §2.2: the normalizer is *approximated* from the kernel centers, so
//!   sampling happens during the only data pass.
//! * [`uniform`] — Bernoulli uniform sampling (the paper's §4.2 baseline).
//!   Exact-size uniform samples come from `dbs_core::Reservoir`
//!   (Algorithm R, reference \[29\]).
//! * [`grid_biased`] — the Palmer–Faloutsos grid/hash comparison method
//!   (reference \[22\], compared in Figure 5(c)).
//! * [`theory`] — Guha et al.'s uniform-sample-size bound and the paper's
//!   Theorem 1, used by the analytical experiment.

// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod biased;
pub mod grid_biased;
pub mod onepass;
pub mod theory;
pub mod uniform;

pub use biased::{
    density_biased_sample, density_biased_sample_obs, BiasedConfig, BiasedSampleStats,
    DENSITY_FLOOR,
};
pub use grid_biased::{grid_biased_sample, GridBiasedConfig};
pub use onepass::{one_pass_biased_sample, one_pass_biased_sample_obs};
pub use uniform::bernoulli_sample;
