//! The ball integral of the outlier detector.
//!
//! The approximate outlier detector (§3.2 of the paper) estimates the
//! number of neighbors of a point `O` within distance `k` as
//! `N'_D(O,k) = ∫_{Ball(O,k)} f(x) dx`, where the ball is taken under the
//! detector's [`Metric`] (L2 by default; "different distance metrics ...
//! can be used equally well", §3.2). Every backend integrates an
//! axis-aligned box in closed form ([`DensityEstimator::box_mass`]), so
//! [`ball_mass`] integrates `f` over the cube centered on `O` whose volume
//! equals the ball's. Under L∞ the ball is that cube and the integral is
//! exact; under L2 and L1 the cube stands in for the ball, as another
//! metric would.

use dbs_core::metric::Metric;

use crate::traits::DensityEstimator;

/// `∫ est.density` over the cube centered on `center` whose volume equals
/// the `metric` ball of radius `radius`: the expected number of dataset
/// points within `radius` of `center` under the density model. Zero for a
/// zero radius.
pub fn ball_mass<E: DensityEstimator + ?Sized>(
    est: &E,
    metric: Metric,
    center: &[f64],
    radius: f64,
) -> f64 {
    let d = center.len();
    let half = 0.5 * metric.ball_volume(d, radius).powf(1.0 / d as f64);
    let lo: Vec<f64> = center.iter().map(|c| c - half).collect();
    let hi: Vec<f64> = center.iter().map(|c| c + half).collect();
    est.box_mass(&lo, &hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kde::{KdeConfig, KernelDensityEstimator};
    use crate::test_util::Flat;
    use dbs_core::rng::seeded;
    use dbs_core::BoundingBox;
    use rand::Rng;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    #[test]
    fn constant_density_integral_is_volume_times_density() {
        let est = Flat { dim: 2, n: 100.0 };
        for metric in METRICS {
            let got = ball_mass(&est, metric, &[0.5, 0.5], 0.1);
            let want = 100.0 * metric.ball_volume(2, 0.1);
            assert!(
                (got - want).abs() < 1e-9,
                "{metric:?}: got {got} want {want}"
            );
        }
    }

    #[test]
    fn zero_radius_is_zero() {
        let est = Flat { dim: 2, n: 5.0 };
        for metric in METRICS {
            assert_eq!(ball_mass(&est, metric, &[0.1, 0.9], 0.0), 0.0);
        }
    }

    #[test]
    fn expected_neighbors_on_kde_blob() {
        use dbs_core::Dataset;
        // 1000 points in a tight blob: a ball covering the blob should
        // expect ~1000 neighbors, a far-away ball ~0.
        let mut rng = seeded(5);
        let mut ds = Dataset::with_capacity(2, 1000);
        for _ in 0..1000 {
            ds.push(&[
                0.5 + (rng.gen::<f64>() - 0.5) * 0.05,
                0.5 + (rng.gen::<f64>() - 0.5) * 0.05,
            ])
            .unwrap();
        }
        let cfg = KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(200)
        };
        let est = KernelDensityEstimator::fit_dataset(&ds, &cfg).unwrap();
        for metric in METRICS {
            let near = ball_mass(&est, metric, &[0.5, 0.5], 0.2);
            let far = ball_mass(&est, metric, &[0.05, 0.05], 0.02);
            assert!((near - 1000.0).abs() < 150.0, "{metric:?}: near {near}");
            assert!(far < 5.0, "{metric:?}: far {far}");
        }
    }
}
