//! # dbs-outlier
//!
//! Distance-based (DB) outlier detection — §3.2 of the paper.
//!
//! Definition 1 (Knorr & Ng \[13\]): *an object `O` in a dataset `D` is a
//! DB(p,k)-outlier if at most `p` objects in `D` lie at distance at most
//! `k` from `O`* (the object itself excluded here, consistently across all
//! detectors).
//!
//! * [`nested`] — exact baselines: the classic nested-loop detector with
//!   early termination under any metric, and a kd-tree-accelerated L2
//!   variant.
//! * [`approx`] — the paper's contribution: prune with the *density
//!   estimate* (`N'(O,k) = ∫_Ball(O,k) f ≤ threshold` keeps `O` as a likely
//!   outlier, the integral taken in closed form over the cube of the
//!   ball's volume), then verify all survivors in one more dataset pass. The
//!   paper reports this finds all outliers "with at most two dataset passes
//!   plus the dataset pass that is required to compute the density
//!   estimator" (§4.5) — the pass structure this module reproduces. The
//!   distance is [`ApproxConfig::metric`]: L2, or L1/L∞, since "different
//!   distance metrics ... can be used equally well" (§3.2).

// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod approx;
pub mod dbout;
pub mod nested;

pub use approx::{approx_outliers, approx_outliers_obs, ApproxConfig, OutlierReport};
pub use dbout::DbOutlierParams;
pub use nested::{kdtree_outliers, nested_loop_outliers};

/// End-to-end checks of the L1/L∞ path (§3.2: "different distance metrics
/// ... can be used equally well"): the metric ball's volume, the exact
/// nested loop and the approximate detector under one
/// [`Metric`](dbs_core::Metric).
#[cfg(test)]
mod metric_general {
    mod tests {
        use crate::{approx_outliers, kdtree_outliers, nested_loop_outliers};
        use crate::{ApproxConfig, DbOutlierParams, OutlierReport};
        use dbs_core::rng::seeded;
        use dbs_core::{BoundingBox, Dataset, Error, Metric, Result};
        use dbs_density::{KdeConfig, KernelDensityEstimator};
        use rand::Rng;

        fn planted(seed: u64) -> (Dataset, Vec<usize>) {
            let mut rng = seeded(seed);
            let mut ds = Dataset::with_capacity(2, 2003);
            for i in 0..2000 {
                let (cx, cy) = if i < 1000 { (0.3, 0.3) } else { (0.7, 0.7) };
                ds.push(&[
                    cx + (rng.gen::<f64>() - 0.5) * 0.15,
                    cy + (rng.gen::<f64>() - 0.5) * 0.15,
                ])
                .unwrap();
            }
            let start = ds.len();
            for o in [[0.05, 0.95], [0.95, 0.05], [0.5, 0.02]] {
                ds.push(&o).unwrap();
            }
            (ds, (start..start + 3).collect())
        }

        fn kde(ds: &Dataset, centers: usize) -> KernelDensityEstimator {
            let cfg = KdeConfig {
                domain: Some(BoundingBox::unit(2)),
                ..KdeConfig::with_centers(centers)
            };
            KernelDensityEstimator::fit_dataset(ds, &cfg).unwrap()
        }

        /// The approximate detector under `metric`, slack 10.
        fn detect(
            ds: &Dataset,
            est: &KernelDensityEstimator,
            params: DbOutlierParams,
            metric: Metric,
        ) -> Result<OutlierReport> {
            let config = ApproxConfig {
                slack: 10.0,
                metric,
                ..ApproxConfig::new(params)
            };
            approx_outliers(ds, est, &config)
        }

        #[test]
        fn metric_ball_volumes_match_closed_forms() {
            // 2-d: the L1 ball is a square rotated 45°, area 2r².
            assert!((Metric::Manhattan.ball_volume(2, 1.0) - 2.0).abs() < 1e-12);
            assert!((Metric::Manhattan.ball_volume(3, 1.0) - 4.0 / 3.0).abs() < 1e-12);
            assert!((Metric::Chebyshev.ball_volume(2, 0.5) - 1.0).abs() < 1e-12);
            let l2 = Metric::Euclidean.ball_volume(2, 1.0);
            assert!((l2 - std::f64::consts::PI).abs() < 1e-12);
        }

        #[test]
        fn euclidean_variant_matches_default_detector() {
            // `ApproxConfig::new` picks L2; its report, the L2 nested loop and
            // the kd-tree detector agree.
            let (ds, _) = planted(3);
            let params = DbOutlierParams::new(0.08, 2).unwrap();
            let nested = nested_loop_outliers(&ds, &params, Metric::Euclidean);
            assert_eq!(kdtree_outliers(&ds, &params), nested);
            let est = kde(&ds, 400);
            let default = approx_outliers(&ds, &est, &ApproxConfig::new(params)).unwrap();
            let explicit = detect(&ds, &est, params, Metric::Euclidean).unwrap();
            assert_eq!(default.outliers, nested);
            assert_eq!(explicit.outliers, nested);
        }

        #[test]
        fn manhattan_detector_finds_planted_outliers() {
            let (ds, planted_idx) = planted(4);
            let params = DbOutlierParams::new(0.1, 2).unwrap();
            let exact = nested_loop_outliers(&ds, &params, Metric::Manhattan);
            for p in &planted_idx {
                assert!(exact.contains(p), "missed planted outlier {p}");
            }
            let report = detect(&ds, &kde(&ds, 400), params, Metric::Manhattan).unwrap();
            assert_eq!(report.outliers, exact, "approx must match exact under L1");
            assert_eq!(report.passes, 2);
        }

        #[test]
        fn chebyshev_detector_agrees_with_exact() {
            let (ds, _) = planted(6);
            let params = DbOutlierParams::new(0.07, 2).unwrap();
            let exact = nested_loop_outliers(&ds, &params, Metric::Chebyshev);
            let report = detect(&ds, &kde(&ds, 400), params, Metric::Chebyshev).unwrap();
            assert_eq!(report.outliers, exact);
        }

        #[test]
        fn rejects_bad_slack() {
            let (ds, _) = planted(8);
            let params = DbOutlierParams::new(0.1, 2).unwrap();
            let config = ApproxConfig {
                slack: 0.5,
                metric: Metric::Manhattan,
                ..ApproxConfig::new(params)
            };
            assert!(approx_outliers(&ds, &kde(&ds, 100), &config).is_err());
        }

        #[test]
        fn infinite_slack_is_rejected() {
            let (ds, _) = planted(8);
            let params = DbOutlierParams::new(0.1, 2).unwrap();
            let est =
                KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(50)).unwrap();
            let config = ApproxConfig {
                slack: f64::INFINITY,
                metric: Metric::Chebyshev,
                ..ApproxConfig::new(params)
            };
            match approx_outliers(&ds, &est, &config) {
                Err(Error::InvalidParameter(msg)) => assert!(msg.contains("slack"), "{msg}"),
                other => panic!("infinite slack: {other:?}"),
            }
        }
    }
}
