//! Ball integrals of density estimates.
//!
//! The approximate outlier detector (§3.2 of the paper) estimates the
//! number of neighbors of a point `O` within distance `k` as
//! `N'_D(O,k) = ∫_{Ball(O,k)} f(x) dx`. Product-kernel estimators have no
//! closed-form ball integral, so we evaluate it by Monte-Carlo quadrature
//! with a deterministic seed: draw points uniformly in the ball, average the
//! density, multiply by the ball volume.

use dbs_core::metric::ball_volume;
use dbs_core::obs::{Counter, Tally};
use dbs_core::rng::{seeded, standard_normal};
use rand::Rng;

use crate::traits::DensityEstimator;

/// Default number of Monte-Carlo evaluation points per ball.
pub const DEFAULT_BALL_SAMPLES: usize = 256;

/// Draws a point uniformly from the Euclidean ball of radius `r` around
/// `center`, writing it into `out`.
pub fn sample_in_ball<R: Rng + ?Sized>(rng: &mut R, center: &[f64], r: f64, out: &mut [f64]) {
    debug_assert_eq!(center.len(), out.len());
    let d = center.len();
    // Direction: normalized Gaussian vector. Radius: U^{1/d} * r.
    let mut norm_sq = 0.0;
    for x in out.iter_mut() {
        let g = standard_normal(rng);
        *x = g;
        norm_sq += g * g;
    }
    let norm = norm_sq.sqrt().max(f64::MIN_POSITIVE);
    let radius = r * rng.gen::<f64>().powf(1.0 / d as f64);
    for (x, &c) in out.iter_mut().zip(center) {
        *x = c + *x / norm * radius;
    }
}

/// Monte-Carlo estimate of `∫_{Ball(center, r)} est.density`.
///
/// Uses `samples` evaluation points and a deterministic `seed`, so repeated
/// calls give identical results.
pub fn integrate_ball<E: DensityEstimator + ?Sized>(
    est: &E,
    center: &[f64],
    r: f64,
    samples: usize,
    seed: u64,
) -> f64 {
    assert!(r >= 0.0, "radius must be non-negative");
    assert!(samples >= 1, "need at least one sample");
    assert_eq!(center.len(), est.dim());
    if r == 0.0 {
        return 0.0;
    }
    let mut rng = seeded(seed);
    let d = center.len();
    let mut x = vec![0.0f64; d];
    let mut acc = 0.0;
    for _ in 0..samples {
        sample_in_ball(&mut rng, center, r, &mut x);
        acc += est.density(&x);
    }
    acc / samples as f64 * ball_volume(d, r)
}

/// Expected number of dataset neighbors of `center` within distance `r`
/// under the density model — the pruning statistic of the §3.2 detector.
pub fn expected_neighbors<E: DensityEstimator + ?Sized>(
    est: &E,
    center: &[f64],
    r: f64,
    samples: usize,
    seed: u64,
) -> f64 {
    integrate_ball(est, center, r, samples, seed)
}

/// [`integrate_ball`] with the Monte-Carlo evaluation points charged to
/// `tally` ([`Counter::BallSamples`]). A zero-radius ball spends no
/// evaluation points and records none.
pub fn integrate_ball_tallied<E: DensityEstimator + ?Sized>(
    est: &E,
    center: &[f64],
    r: f64,
    samples: usize,
    seed: u64,
    tally: &mut Tally,
) -> f64 {
    if r > 0.0 {
        tally.add(Counter::BallSamples, samples as u64);
    }
    integrate_ball(est, center, r, samples, seed)
}

/// [`expected_neighbors`] with ball-sample accounting, see
/// [`integrate_ball_tallied`].
pub fn expected_neighbors_tallied<E: DensityEstimator + ?Sized>(
    est: &E,
    center: &[f64],
    r: f64,
    samples: usize,
    seed: u64,
    tally: &mut Tally,
) -> f64 {
    integrate_ball_tallied(est, center, r, samples, seed, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Flat;
    use dbs_core::BoundingBox;

    #[test]
    fn ball_samples_stay_in_ball() {
        let mut rng = seeded(1);
        let center = [0.3, 0.4, 0.5];
        let mut x = [0.0; 3];
        for _ in 0..1000 {
            sample_in_ball(&mut rng, &center, 0.2, &mut x);
            assert!(dbs_core::metric::euclidean(&center, &x) <= 0.2 + 1e-12);
        }
    }

    #[test]
    fn ball_samples_fill_the_ball_uniformly() {
        // The fraction of samples in the inner half-radius ball should be
        // (1/2)^d.
        let mut rng = seeded(2);
        let center = [0.0, 0.0];
        let mut x = [0.0; 2];
        let n = 40_000;
        let mut inner = 0usize;
        for _ in 0..n {
            sample_in_ball(&mut rng, &center, 1.0, &mut x);
            if dbs_core::metric::euclidean(&center, &x) <= 0.5 {
                inner += 1;
            }
        }
        let frac = inner as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "inner fraction {frac}");
    }

    #[test]
    fn constant_density_integral_is_volume_times_density() {
        let est = Flat { dim: 2, n: 100.0 };
        let got = integrate_ball(&est, &[0.5, 0.5], 0.1, 500, 3);
        let want = 100.0 * std::f64::consts::PI * 0.01;
        assert!((got - want).abs() < 1e-9, "got {got} want {want}");
    }

    #[test]
    fn zero_radius_is_zero() {
        let est = Flat { dim: 2, n: 5.0 };
        assert_eq!(integrate_ball(&est, &[0.1, 0.1], 0.0, 10, 4), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let est = Flat { dim: 3, n: 7.0 };
        let a = integrate_ball(&est, &[0.5; 3], 0.2, 100, 42);
        let b = integrate_ball(&est, &[0.5; 3], 0.2, 100, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn expected_neighbors_on_kde_blob() {
        use crate::kde::{KdeConfig, KernelDensityEstimator};
        use dbs_core::Dataset;
        use rand::Rng as _;
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
        // The blob occupies a few percent of the ball, so the integrand is
        // spiky and the Monte-Carlo estimate needs a generous sample count
        // to land within the ±15% band reliably.
        let near = expected_neighbors(&est, &[0.5, 0.5], 0.2, 20_000, 6);
        let far = expected_neighbors(&est, &[0.05, 0.05], 0.02, 500, 7);
        assert!((near - 1000.0).abs() < 150.0, "near {near}");
        assert!(far < 5.0, "far {far}");
    }
}
