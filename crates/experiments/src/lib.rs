//! # dbs-experiments
//!
//! One module per figure/table of the paper's evaluation (§4), each
//! producing the same series the paper plots. The `experiments` binary
//! exposes them as subcommands; `--paper` switches from the quick
//! (CI-sized) workloads to the paper's full sizes.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`theorem1`] | the §2 analytical comparison (Guha bound vs Theorem 1) |
//! | [`fig2`] | Figure 2 — clustering runtime vs sample count |
//! | [`fig3`] | Figure 3 — dataset1, biased vs uniform sample |
//! | [`fig4`] | Figure 4(a–c) — found clusters vs noise |
//! | [`fig5`] | Figure 5(a–c) — variable-density clusters vs sample size |
//! | [`fig6`] | Figure 6 — 3-d noise sweep at 2 % sample |
//! | [`fig7`] | Figure 7 — found clusters vs number of kernels |
//! | [`scaling`] | §4.3 runtime-scaling claims (linear in n and kernels) |
//! | [`scalable`] | full vs partitioned vs sample-fed CURE quality/runtime |
//! | [`geo`] | §4.3 real-data experiments (NorthEast / California) |
//! | [`outliers`] | §4.5 outlier detection (recall, passes, pruning) |
//! | [`ablation`] | exponent sweep, one-pass vs two-pass, kernel/bandwidth |
//!
//! All experiments are deterministic given their seeds; EXPERIMENTS.md
//! records the paper-vs-measured comparison for each.

// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod geo;
pub mod outliers;
pub mod pipeline;
pub mod report;
pub mod scalable;
pub mod scaling;
pub mod theorem1;

/// Global scale switch: quick workloads for CI, paper workloads for the
/// real reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dataset sizes; minutes for the whole suite.
    Quick,
    /// The paper's sizes (100k–1M points); hours for the whole suite.
    Paper,
}

impl Scale {
    /// Base clustered-point count for the synthetic workloads.
    pub fn base_points(self) -> usize {
        match self {
            Scale::Quick => 30_000,
            Scale::Paper => 100_000,
        }
    }

    /// Kernel count for density estimation (the paper's recommended 1000).
    pub fn kernels(self) -> usize {
        match self {
            Scale::Quick => 500,
            Scale::Paper => 1000,
        }
    }
}
