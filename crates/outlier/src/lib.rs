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
//! * [`cellgrid`] — the exact cell-based detector of Knorr & Ng: cells of
//!   side `k/(2√d)` let whole cells be ruled in or out by ring counts.
//! * [`approx`] — the paper's contribution: prune with the *density
//!   estimate* (`N'(O,k) = ∫_Ball(O,k) f ≤ threshold` keeps `O` as a likely
//!   outlier), then verify all survivors in one more dataset pass. The
//!   paper reports this finds all outliers "with at most two dataset passes
//!   plus the dataset pass that is required to compute the density
//!   estimator" (§4.5) — the pass structure this module reproduces. The
//!   distance is [`ApproxConfig::metric`]: L2, or L1/L∞, since "different
//!   distance metrics ... can be used equally well" (§3.2).

// Numeric-kernel loops in this crate index several parallel slices at once,
// and NaN-rejecting guards are written as negated comparisons on purpose.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
pub mod approx;
pub mod cellgrid;
pub mod dbout;
pub mod nested;

pub use approx::{
    approx_outliers, approx_outliers_obs, estimate_outlier_count, estimate_outlier_count_obs,
    ApproxConfig, OutlierReport,
};
pub use cellgrid::cell_based_outliers;
pub use dbout::DbOutlierParams;
pub use nested::{kdtree_outliers, nested_loop_outliers};

/// End-to-end checks of the L1/L∞ path (§3.2: "different distance metrics
/// ... can be used equally well"): the metric ball's volume and sampler,
/// the exact nested loop and the approximate detector under one
/// [`Metric`](dbs_core::Metric).
#[cfg(test)]
mod metric_general {
    mod tests {
        use crate::{approx_outliers, kdtree_outliers, nested_loop_outliers};
        use crate::{ApproxConfig, DbOutlierParams, OutlierReport};
        use dbs_core::rng::seeded;
        use dbs_core::{BoundingBox, Dataset, Error, Metric, Result};
        use dbs_density::ball::sample_in_ball;
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

        /// The approximate detector under `metric`, slack 10, 64 ball samples.
        fn detect(
            ds: &Dataset,
            est: &KernelDensityEstimator,
            params: DbOutlierParams,
            metric: Metric,
            seed: u64,
        ) -> Result<OutlierReport> {
            let config = ApproxConfig {
                slack: 10.0,
                ball_samples: 64,
                seed,
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
        fn metric_ball_samples_stay_in_ball() {
            let mut rng = seeded(1);
            let center = [0.5, 0.5, 0.5];
            let mut x = [0.0; 3];
            for metric in [Metric::Manhattan, Metric::Chebyshev, Metric::Euclidean] {
                for _ in 0..500 {
                    sample_in_ball(&mut rng, metric, &center, 0.2, &mut x);
                    assert!(
                        metric.distance(&center, &x) <= 0.2 + 1e-12,
                        "{metric:?} sample escaped the ball"
                    );
                }
            }
        }

        #[test]
        fn l1_ball_sampling_is_roughly_uniform() {
            // The fraction of samples within half the radius should be (1/2)^d.
            let mut rng = seeded(2);
            let center = [0.0, 0.0];
            let mut x = [0.0; 2];
            let n = 40_000;
            let inner = (0..n)
                .filter(|_| {
                    sample_in_ball(&mut rng, Metric::Manhattan, &center, 1.0, &mut x);
                    Metric::Manhattan.distance(&center, &x) <= 0.5
                })
                .count();
            let frac = inner as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.02, "inner fraction {frac}");
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
            let explicit = detect(&ds, &est, params, Metric::Euclidean, 0).unwrap();
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
            let report = detect(&ds, &kde(&ds, 400), params, Metric::Manhattan, 5).unwrap();
            assert_eq!(report.outliers, exact, "approx must match exact under L1");
            assert_eq!(report.passes, 2);
        }

        #[test]
        fn chebyshev_detector_agrees_with_exact() {
            let (ds, _) = planted(6);
            let params = DbOutlierParams::new(0.07, 2).unwrap();
            let exact = nested_loop_outliers(&ds, &params, Metric::Chebyshev);
            let report = detect(&ds, &kde(&ds, 400), params, Metric::Chebyshev, 7).unwrap();
            assert_eq!(report.outliers, exact);
        }

        #[test]
        fn rejects_bad_slack() {
            let (ds, _) = planted(8);
            let params = DbOutlierParams::new(0.1, 2).unwrap();
            let config = ApproxConfig {
                slack: 0.5,
                ball_samples: 32,
                seed: 9,
                metric: Metric::Manhattan,
                ..ApproxConfig::new(params)
            };
            assert!(approx_outliers(&ds, &kde(&ds, 100), &config).is_err());
        }

        fn rejection(slack: f64, ball_samples: usize) -> String {
            let (ds, _) = planted(8);
            let params = DbOutlierParams::new(0.1, 2).unwrap();
            let est =
                KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(50)).unwrap();
            let config = ApproxConfig {
                slack,
                ball_samples,
                seed: 1,
                metric: Metric::Chebyshev,
                ..ApproxConfig::new(params)
            };
            match approx_outliers(&ds, &est, &config) {
                Err(Error::InvalidParameter(msg)) => msg,
                other => panic!("slack {slack}, {ball_samples} ball samples: {other:?}"),
            }
        }

        #[test]
        fn zero_ball_samples_is_an_error_not_a_panic() {
            assert!(rejection(3.0, 0).contains("ball_samples"));
        }

        #[test]
        fn infinite_slack_is_rejected() {
            assert!(rejection(f64::INFINITY, 32).contains("slack"));
        }
    }
}
