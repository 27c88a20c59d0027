//! Ball integrals of density estimates.
//!
//! The approximate outlier detector (§3.2 of the paper) estimates the
//! number of neighbors of a point `O` within distance `k` as
//! `N'_D(O,k) = ∫_{Ball(O,k)} f(x) dx`, where the ball is taken under the
//! detector's [`Metric`] (L2 by default; "different distance metrics ...
//! can be used equally well", §3.2). Product-kernel estimators have no
//! closed-form ball integral, so we evaluate it by Monte-Carlo quadrature
//! with a deterministic seed: draw points uniformly in the ball, average the
//! density, multiply by the ball volume.
//!
//! This is the one place the paper queries its estimator many times per
//! point, so [`BallIntegral::expected_neighbors`] integrates a block of
//! centers at once: their samples are written into one flat buffer and
//! evaluated through the estimator's batch engine
//! ([`DensityEstimator::densities_into`]), at most [`BALL_BLOCK`] queries
//! per call. Each center's densities are then summed in sample order, so
//! every result is bit-identical to drawing the samples one at a time and
//! adding up `est.density(&x)`.

use dbs_core::metric::Metric;
use dbs_core::obs::{Counter, Tally};
use dbs_core::rng::{exponential, seeded, standard_normal};
use dbs_core::PointBlock;
use rand::Rng;

use crate::traits::DensityEstimator;

/// Most Monte-Carlo samples evaluated by one
/// [`DensityEstimator::densities_into`] call: 16 centers of the default 64
/// samples. A trade of speed for peak memory: a larger call spreads each
/// batch tile's fixed cost (the copy of its cell's reach list, the exact
/// support test and the panel gather) over more samples, but holds a
/// larger sample buffer.
pub const BALL_BLOCK: usize = 1024;

/// Draws a point uniformly from the `metric` ball of radius `r` around
/// `center`, writing it into `out`.
///
/// Always inlined, so the sampling loop of
/// [`BallIntegral::expected_neighbors`] can hoist the metric match out of
/// the loop.
#[inline(always)]
pub fn sample_in_ball<R: Rng + ?Sized>(
    rng: &mut R,
    metric: Metric,
    center: &[f64],
    r: f64,
    out: &mut [f64],
) {
    debug_assert_eq!(center.len(), out.len());
    let d = center.len();
    match metric {
        Metric::Euclidean => {
            // Direction: normalized Gaussian vector. Radius: U^{1/d} * r.
            let mut norm_sq = 0.0;
            for x in out.iter_mut() {
                let g = standard_normal(rng);
                *x = g;
                norm_sq += g * g;
            }
            let norm = norm_sq.sqrt().max(f64::MIN_POSITIVE);
            let radius = r * radial_scale(rng.gen::<f64>(), d);
            for (x, &c) in out.iter_mut().zip(center) {
                *x = c + *x / norm * radius;
            }
        }
        Metric::Manhattan => {
            // Exponential magnitudes normalized to the simplex, scaled by
            // U^{1/d} * r, with random signs.
            let mut total = 0.0;
            for x in out.iter_mut() {
                let e = exponential(rng, 1.0);
                *x = e;
                total += e;
            }
            let radius = r * radial_scale(rng.gen::<f64>(), d);
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

/// `u^{1/d}`: the radius, as a fraction of `r`, of a uniform draw from a
/// d-dimensional ball given a uniform `u`.
///
/// The exponent is hidden from constant folding. Where inlining shows
/// `d == 2`, LLVM folds `powf(u, 0.5)` into `sqrt(u)`, which differs from
/// the library `pow` by one ulp for some `u`; the same draw would then give
/// different bits in different call contexts. With the exponent opaque,
/// every caller runs the `pow` call a runtime `d` runs.
#[inline(always)]
fn radial_scale(u: f64, d: usize) -> f64 {
    u.powf(std::hint::black_box(1.0 / d as f64))
}

/// The Monte-Carlo ball integral `∫_{Ball(center, radius)} est.density`
/// under `metric`, from `samples` evaluation points per center.
#[derive(Debug, Clone, Copy)]
pub struct BallIntegral {
    /// The norm the ball is taken under.
    pub metric: Metric,
    /// The ball radius (non-negative).
    pub radius: f64,
    /// Evaluation points per center (at least 1).
    pub samples: usize,
}

impl BallIntegral {
    /// How many centers fill one [`BALL_BLOCK`] of samples (at least 1):
    /// the block size callers should hand to
    /// [`BallIntegral::expected_neighbors`].
    pub fn centers_per_block(&self) -> usize {
        (BALL_BLOCK / self.samples).max(1)
    }

    /// Expected number of dataset neighbors of each center under the
    /// density model — the pruning statistic of the §3.2 detector. Writes
    /// `out[c]` for the center `centers[c·d..(c+1)·d]`, drawing its samples
    /// from `seeded(seeds[c])`, so repeated calls give identical results.
    ///
    /// The samples of all centers go through the estimator's batch engine,
    /// at most [`BALL_BLOCK`] per call (a center's samples may straddle two
    /// calls), and each center's densities are summed in sample order. The
    /// result is therefore bit-identical to a per-center loop of scalar
    /// [`DensityEstimator::density`] calls, whatever the number of centers.
    ///
    /// The evaluation points are charged to `tally`
    /// ([`Counter::BallSamples`], `samples` per center). The batch engine's
    /// own work counts (kernel evaluations, tiles, grid visits) go to a
    /// scratch tally that is dropped, so a caller's density counters count
    /// only its own density passes. A zero-radius ball spends no samples,
    /// records none and integrates to zero.
    pub fn expected_neighbors<E: DensityEstimator + ?Sized>(
        &self,
        est: &E,
        centers: &[f64],
        seeds: &[u64],
        out: &mut [f64],
        tally: &mut Tally,
    ) {
        let &BallIntegral {
            metric,
            radius: r,
            samples,
        } = self;
        assert!(r >= 0.0, "radius must be non-negative");
        assert!(samples >= 1, "need at least one sample");
        let d = est.dim();
        let m = seeds.len();
        assert_eq!(centers.len(), m * d, "one center per seed");
        assert_eq!(out.len(), m, "one result per seed");
        if r == 0.0 || m == 0 {
            out.fill(0.0);
            return;
        }
        tally.add(Counter::BallSamples, (m * samples) as u64);
        let vol = metric.ball_volume(d, r);
        let total = m * samples;
        let cap = BALL_BLOCK.min(total);
        let mut xs = vec![0.0f64; cap * d];
        let mut dens = vec![0.0f64; cap];
        let mut scratch = Tally::default();
        let mut rng = seeded(seeds[0]);
        let mut acc = 0.0;
        // Sample `g` is sample `g % samples` of center `g / samples`; the
        // generator and the running sum carry across block boundaries.
        for start in (0..total).step_by(cap) {
            let end = (start + cap).min(total);
            let n = end - start;
            for (g, x) in (start..end).zip(xs.chunks_exact_mut(d)) {
                let c = g / samples;
                if g % samples == 0 {
                    rng = seeded(seeds[c]);
                }
                sample_in_ball(&mut rng, metric, &centers[c * d..(c + 1) * d], r, x);
            }
            let block = PointBlock::from_flat(0, d, &xs[..n * d]);
            est.densities_into(&block, &mut dens[..n], &mut scratch);
            for (g, &v) in (start..end).zip(&dens) {
                acc += v;
                if (g + 1) % samples == 0 {
                    out[g / samples] = acc / samples as f64 * vol;
                    acc = 0.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kde::{KdeConfig, KernelDensityEstimator};
    use crate::test_util::{two_blobs, Flat};
    use crate::wavelet::WaveletEstimator;
    use dbs_core::BoundingBox;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    /// The ball integral of one center.
    fn one<E: DensityEstimator + ?Sized>(
        est: &E,
        metric: Metric,
        center: &[f64],
        radius: f64,
        samples: usize,
        seed: u64,
        tally: &mut Tally,
    ) -> f64 {
        let ball = BallIntegral {
            metric,
            radius,
            samples,
        };
        let mut out = [f64::NAN];
        ball.expected_neighbors(est, center, &[seed], &mut out, tally);
        out[0]
    }

    /// The reference the block form must match bit for bit: one scalar
    /// density call per sample, summed in sample order.
    fn scalar_loop<E: DensityEstimator + ?Sized>(
        est: &E,
        ball: &BallIntegral,
        center: &[f64],
        seed: u64,
    ) -> f64 {
        let mut rng = seeded(seed);
        let mut x = vec![0.0; center.len()];
        let mut acc = 0.0;
        for _ in 0..ball.samples {
            sample_in_ball(&mut rng, ball.metric, center, ball.radius, &mut x);
            acc += est.density(&x);
        }
        acc / ball.samples as f64 * ball.metric.ball_volume(center.len(), ball.radius)
    }

    #[test]
    fn ball_samples_stay_in_ball() {
        let mut rng = seeded(1);
        let center = [0.3, 0.4, 0.5];
        let mut x = [0.0; 3];
        for metric in METRICS {
            for _ in 0..1000 {
                sample_in_ball(&mut rng, metric, &center, 0.2, &mut x);
                assert!(
                    metric.distance(&center, &x) <= 0.2 + 1e-12,
                    "{metric:?} sample escaped the ball"
                );
            }
        }
    }

    #[test]
    fn ball_samples_fill_the_ball_uniformly() {
        // For every norm the half-radius ball holds (1/2)^d of the volume.
        let mut rng = seeded(2);
        let center = [0.0, 0.0];
        let mut x = [0.0; 2];
        let n = 40_000;
        for metric in METRICS {
            let mut inner = 0usize;
            for _ in 0..n {
                sample_in_ball(&mut rng, metric, &center, 1.0, &mut x);
                if metric.distance(&center, &x) <= 0.5 {
                    inner += 1;
                }
            }
            let frac = inner as f64 / n as f64;
            assert!(
                (frac - 0.25).abs() < 0.02,
                "{metric:?} inner fraction {frac}"
            );
        }
    }

    #[test]
    fn constant_density_integral_is_volume_times_density() {
        let est = Flat { dim: 2, n: 100.0 };
        for metric in METRICS {
            let mut tally = Tally::default();
            let got = one(&est, metric, &[0.5, 0.5], 0.1, 500, 3, &mut tally);
            let want = 100.0 * metric.ball_volume(2, 0.1);
            assert!(
                (got - want).abs() < 1e-9,
                "{metric:?}: got {got} want {want}"
            );
            assert_eq!(tally.get(Counter::BallSamples), 500);
        }
    }

    #[test]
    fn zero_radius_is_zero() {
        let est = Flat { dim: 2, n: 5.0 };
        let ball = BallIntegral {
            metric: Metric::Euclidean,
            radius: 0.0,
            samples: 10,
        };
        let mut out = [f64::NAN; 3];
        let mut tally = Tally::default();
        let centers = [0.1, 0.1, 0.5, 0.5, 0.9, 0.9];
        ball.expected_neighbors(&est, &centers, &[4, 5, 6], &mut out, &mut tally);
        assert_eq!(out, [0.0; 3]);
        assert!(tally.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let est = Flat { dim: 3, n: 7.0 };
        let mut tally = Tally::default();
        let mut run = || one(&est, Metric::Euclidean, &[0.5; 3], 0.2, 100, 42, &mut tally);
        assert_eq!(run(), run());
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
        // The blob occupies a few percent of the ball, so the integrand is
        // spiky and the Monte-Carlo estimate needs a generous sample count
        // to land within the ±15% band reliably.
        let mut tally = Tally::default();
        let m = Metric::Euclidean;
        let near = one(&est, m, &[0.5, 0.5], 0.2, 20_000, 6, &mut tally);
        let far = one(&est, m, &[0.05, 0.05], 0.02, 500, 7, &mut tally);
        assert!((near - 1000.0).abs() < 150.0, "near {near}");
        assert!(far < 5.0, "far {far}");
    }

    /// A KDE with a center grid, the same KDE without one, and a backend on
    /// the per-point `densities_into` default.
    fn backends() -> Vec<(&'static str, Box<dyn DensityEstimator>)> {
        let ds = two_blobs(2000, 8);
        let cfg = KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(300)
        };
        let gridded = KernelDensityEstimator::fit_dataset(&ds, &cfg).unwrap();
        assert!(gridded.has_center_grid());
        let mut flat = gridded.clone();
        flat.center_grid = None;
        let wavelet = WaveletEstimator::fit(&ds, BoundingBox::unit(2), 5, 200).unwrap();
        vec![
            ("kde, center grid", Box::new(gridded)),
            ("kde, no grid", Box::new(flat)),
            ("wavelet", Box::new(wavelet)),
        ]
    }

    #[test]
    fn block_is_bit_identical_to_the_scalar_loop() {
        // Centers inside and near both blobs, in the empty space between
        // them and on the domain edge, so samples hit dense, sparse and
        // out-of-domain regions.
        let centers: Vec<f64> = (0..23)
            .flat_map(|c| {
                let t = c as f64 / 22.0;
                [0.2 + 0.6 * t, 0.25 + 0.5 * t * t]
            })
            .chain([0.0, 1.0])
            .collect();
        let m = centers.len() / 2;
        let seeds: Vec<u64> = (0..m as u64).map(|c| c.wrapping_mul(0x9E37_79B9)).collect();
        for (name, est) in backends() {
            for metric in METRICS {
                // 7 does not divide the block; at 5000 one center exceeds it.
                for samples in [1, 7, 64, 5000] {
                    let ball = BallIntegral {
                        metric,
                        radius: 0.06,
                        samples,
                    };
                    let mut out = vec![f64::NAN; m];
                    let mut tally = Tally::default();
                    ball.expected_neighbors(&*est, &centers, &seeds, &mut out, &mut tally);
                    for (c, &got) in out.iter().enumerate() {
                        let center = &centers[c * 2..c * 2 + 2];
                        let want = scalar_loop(&*est, &ball, center, seeds[c]);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name}, {metric:?}, {samples} samples, center {c}: {got} vs {want}"
                        );
                    }
                    // Only the samples reach the caller's tally: the batch
                    // engine's work counts go to a dropped scratch tally.
                    let mut want = Tally::default();
                    want.add(Counter::BallSamples, (m * samples) as u64);
                    assert_eq!(tally, want, "{name}, {metric:?}, {samples} samples");
                }
            }
        }
    }
}
