//! Metric-general DB-outlier detection.
//!
//! §3.2 of the paper: "we assume ... the distance function between points
//! is the Euclidean distance. However different distance metrics (for
//! example the L1 or Manhattan metric) can be used equally well." This
//! module provides the nested-loop detector and the density-pruned
//! approximate detector under any [`Metric`], including the L1-ball
//! sampling needed for the pruning integral.

use dbs_core::metric::Metric;
use dbs_core::rng::{exponential, seeded};
use dbs_core::{Dataset, PointSource, Result};
use dbs_density::DensityEstimator;
use rand::Rng;

use crate::approx::{check_detector, OutlierReport};
use crate::dbout::DbOutlierParams;

/// Exact nested-loop DB(p,k) outliers under an arbitrary metric.
pub fn nested_loop_outliers_metric(
    data: &Dataset,
    params: &DbOutlierParams,
    metric: Metric,
) -> Vec<usize> {
    let n = data.len();
    let rank_radius = metric.rank_distance_of(params.radius);
    let mut outliers = Vec::new();
    for i in 0..n {
        let pi = data.point(i);
        let mut count = 0usize;
        let mut is_outlier = true;
        for j in 0..n {
            if j == i {
                continue;
            }
            if metric.rank_distance(pi, data.point(j)) <= rank_radius {
                count += 1;
                if count > params.max_neighbors {
                    is_outlier = false;
                    break;
                }
            }
        }
        if is_outlier {
            outliers.push(i);
        }
    }
    outliers
}

/// Volume of the `d`-dimensional metric ball of radius `r`.
pub fn metric_ball_volume(metric: Metric, dim: usize, r: f64) -> f64 {
    match metric {
        Metric::Euclidean => dbs_core::metric::ball_volume(dim, r),
        // L1 cross-polytope: (2r)^d / d!.
        Metric::Manhattan => {
            let mut v = 1.0;
            for j in 1..=dim {
                v *= 2.0 * r / j as f64;
            }
            v
        }
        // L∞ cube: (2r)^d.
        Metric::Chebyshev => (2.0 * r).powi(dim as i32),
    }
}

/// Draws a point uniformly from the metric ball of radius `r` around
/// `center`, writing it into `out`.
pub fn sample_in_metric_ball<R: Rng + ?Sized>(
    rng: &mut R,
    metric: Metric,
    center: &[f64],
    r: f64,
    out: &mut [f64],
) {
    debug_assert_eq!(center.len(), out.len());
    let d = center.len();
    match metric {
        Metric::Euclidean => dbs_density::ball::sample_in_ball(rng, center, r, out),
        Metric::Manhattan => {
            // Uniform in the L1 ball: exponential magnitudes normalized to
            // the simplex, scaled by U^(1/d)·r, with random signs.
            let mut total = 0.0;
            for x in out.iter_mut() {
                let e = exponential(rng, 1.0);
                *x = e;
                total += e;
            }
            let radius = r * rng.gen::<f64>().powf(1.0 / d as f64);
            for (x, &c) in out.iter_mut().zip(center) {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                *x = c + sign * (*x / total.max(f64::MIN_POSITIVE)) * radius;
            }
        }
        Metric::Chebyshev => {
            for (x, &c) in out.iter_mut().zip(center) {
                *x = c + (rng.gen::<f64>() * 2.0 - 1.0) * r;
            }
        }
    }
}

/// Monte-Carlo `∫_{Ball_metric(center, r)} est.density` — the pruning
/// statistic of §3.2 under the chosen metric.
pub fn expected_neighbors_metric<E: DensityEstimator + ?Sized>(
    est: &E,
    metric: Metric,
    center: &[f64],
    r: f64,
    samples: usize,
    seed: u64,
) -> f64 {
    assert!(samples >= 1);
    assert_eq!(center.len(), est.dim());
    if r <= 0.0 {
        return 0.0;
    }
    let mut rng = seeded(seed);
    let d = center.len();
    let mut x = vec![0.0f64; d];
    let mut acc = 0.0;
    for _ in 0..samples {
        sample_in_metric_ball(&mut rng, metric, center, r, &mut x);
        acc += est.density(&x);
    }
    acc / samples as f64 * metric_ball_volume(metric, d, r)
}

/// The §3.2 approximate detector under an arbitrary metric: density-prune,
/// then verify survivors exactly in one more pass.
pub fn approx_outliers_metric<S, E>(
    source: &S,
    estimator: &E,
    params: &DbOutlierParams,
    metric: Metric,
    slack: f64,
    ball_samples: usize,
    seed: u64,
) -> Result<OutlierReport>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + ?Sized,
{
    check_detector(source.dim(), estimator.dim(), slack, ball_samples)?;
    let k = params.radius;
    let p = params.max_neighbors;
    let threshold = slack * (p as f64 + 1.0);

    // Pass 1: candidates.
    let mut candidate_points = Dataset::with_capacity(source.dim(), 64);
    let mut candidate_indices: Vec<usize> = Vec::new();
    source.scan(&mut |i, x| {
        let expected = expected_neighbors_metric(
            estimator,
            metric,
            x,
            k,
            ball_samples,
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        if expected <= threshold {
            candidate_points.push(x).expect("declared dimension");
            candidate_indices.push(i);
        }
    })?;
    let candidates = candidate_indices.len();

    // Pass 2: verify all candidates in one scan (no metric-specific index;
    // candidate sets are small after pruning).
    let rank_radius = metric.rank_distance_of(k);
    let mut neighbor_counts = vec![0usize; candidates];
    source.scan(&mut |i, x| {
        for (ci, counted) in neighbor_counts.iter_mut().enumerate() {
            if candidate_indices[ci] != i
                && metric.rank_distance(x, candidate_points.point(ci)) <= rank_radius
            {
                *counted += 1;
            }
        }
    })?;

    let outliers: Vec<usize> = candidate_indices
        .iter()
        .zip(&neighbor_counts)
        .filter(|(_, &count)| count <= p)
        .map(|(&i, _)| i)
        .collect();
    Ok(OutlierReport {
        outliers,
        candidates,
        passes: 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng::seeded;
    use dbs_core::{BoundingBox, Error};
    use dbs_density::{KdeConfig, KernelDensityEstimator};

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

    #[test]
    fn metric_ball_volumes_match_closed_forms() {
        // 2-d: L1 ball is a square rotated 45°, area 2r².
        assert!((metric_ball_volume(Metric::Manhattan, 2, 1.0) - 2.0).abs() < 1e-12);
        assert!((metric_ball_volume(Metric::Manhattan, 3, 1.0) - 4.0 / 3.0).abs() < 1e-12);
        assert!((metric_ball_volume(Metric::Chebyshev, 2, 0.5) - 1.0).abs() < 1e-12);
        assert!(
            (metric_ball_volume(Metric::Euclidean, 2, 1.0) - std::f64::consts::PI).abs() < 1e-12
        );
    }

    #[test]
    fn metric_ball_samples_stay_in_ball() {
        let mut rng = seeded(1);
        let center = [0.5, 0.5, 0.5];
        let mut x = [0.0; 3];
        for metric in [Metric::Manhattan, Metric::Chebyshev, Metric::Euclidean] {
            for _ in 0..500 {
                sample_in_metric_ball(&mut rng, metric, &center, 0.2, &mut x);
                assert!(
                    metric.distance(&center, &x) <= 0.2 + 1e-12,
                    "{metric:?} sample escaped the ball"
                );
            }
        }
    }

    #[test]
    fn l1_ball_sampling_is_roughly_uniform() {
        // Fraction of samples within half the radius should be (1/2)^d.
        let mut rng = seeded(2);
        let center = [0.0, 0.0];
        let mut x = [0.0; 2];
        let n = 40_000;
        let inner = (0..n)
            .filter(|_| {
                sample_in_metric_ball(&mut rng, Metric::Manhattan, &center, 1.0, &mut x);
                Metric::Manhattan.distance(&center, &x) <= 0.5
            })
            .count();
        let frac = inner as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "inner fraction {frac}");
    }

    #[test]
    fn euclidean_variant_matches_default_detector() {
        let (ds, _) = planted(3);
        let params = DbOutlierParams::new(0.08, 2).unwrap();
        let a = crate::nested::nested_loop_outliers(&ds, &params);
        let b = nested_loop_outliers_metric(&ds, &params, Metric::Euclidean);
        assert_eq!(a, b);
    }

    #[test]
    fn manhattan_detector_finds_planted_outliers() {
        let (ds, planted_idx) = planted(4);
        let params = DbOutlierParams::new(0.1, 2).unwrap();
        let exact = nested_loop_outliers_metric(&ds, &params, Metric::Manhattan);
        for p in &planted_idx {
            assert!(exact.contains(p), "missed planted outlier {p}");
        }
        let est = KernelDensityEstimator::fit_dataset(
            &ds,
            &KdeConfig {
                domain: Some(BoundingBox::unit(2)),
                ..KdeConfig::with_centers(400)
            },
        )
        .unwrap();
        let report =
            approx_outliers_metric(&ds, &est, &params, Metric::Manhattan, 10.0, 64, 5).unwrap();
        assert_eq!(report.outliers, exact, "approx must match exact under L1");
        assert_eq!(report.passes, 2);
    }

    #[test]
    fn chebyshev_detector_agrees_with_exact() {
        let (ds, _) = planted(6);
        let params = DbOutlierParams::new(0.07, 2).unwrap();
        let exact = nested_loop_outliers_metric(&ds, &params, Metric::Chebyshev);
        let est = KernelDensityEstimator::fit_dataset(
            &ds,
            &KdeConfig {
                domain: Some(BoundingBox::unit(2)),
                ..KdeConfig::with_centers(400)
            },
        )
        .unwrap();
        let report =
            approx_outliers_metric(&ds, &est, &params, Metric::Chebyshev, 10.0, 64, 7).unwrap();
        assert_eq!(report.outliers, exact);
    }

    #[test]
    fn rejects_bad_slack() {
        let (ds, _) = planted(8);
        let params = DbOutlierParams::new(0.1, 2).unwrap();
        let est = KernelDensityEstimator::fit_dataset(
            &ds,
            &KdeConfig {
                domain: Some(BoundingBox::unit(2)),
                ..KdeConfig::with_centers(100)
            },
        )
        .unwrap();
        assert!(approx_outliers_metric(&ds, &est, &params, Metric::Manhattan, 0.5, 32, 9).is_err());
    }

    fn rejection(slack: f64, ball_samples: usize) -> String {
        let (ds, _) = planted(8);
        let params = DbOutlierParams::new(0.1, 2).unwrap();
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(50)).unwrap();
        let metric = Metric::Chebyshev;
        match approx_outliers_metric(&ds, &est, &params, metric, slack, ball_samples, 1) {
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
