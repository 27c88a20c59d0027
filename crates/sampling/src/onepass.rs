//! Single-pass density-biased sampling.
//!
//! §2.2 of the paper: "It is possible to integrate both steps in one, thus
//! deriving the biased sample in a single pass over the database. In this
//! case however we only compute an approximation of the sampling
//! probability."
//!
//! The approximation used here: the normalizer `k = Σ_{x∈D} f'(x)` is
//! derived from the fitted *summary* instead of a dataset pass, through
//! whichever hook the backend provides. The KDE exposes its kernel centers
//! ([`DensityEstimator::uniform_probe`]) — a uniform sample of `D`, so
//! `k ≈ (n/ks) Σ_{c∈centers} f'(c)` is an unbiased Monte-Carlo estimate of
//! the sum. The histogram-family backends compute the sum from their cell
//! counts directly ([`DensityEstimator::summary_normalizer`]); exact for
//! plain and hashed grids, approximate for wavelet and averaged-grid
//! summaries. Sampling then happens during the only remaining data pass.

use std::num::NonZeroUsize;

use dbs_core::obs::Recorder;
use dbs_core::{Error, PointSource, Result, WeightedSample};
use dbs_density::DensityEstimator;

use crate::biased::{check_inputs, inclusion_pass, BiasedConfig, BiasedSampleStats};

/// Estimates the Figure 1 normalizer `k` from the fitted summary only
/// (no dataset pass). `floor_rel` is the density floor relative to the
/// average density, as in [`BiasedConfig::density_floor`]. Probe densities
/// are evaluated with up to `threads` workers; the result is identical for
/// every thread count (the batch evaluation returns densities in probe
/// order and the fold over them is serial).
pub fn estimate_normalizer<E>(est: &E, a: f64, floor_rel: f64, threads: NonZeroUsize) -> Result<f64>
where
    E: DensityEstimator + Sync + ?Sized,
{
    estimate_normalizer_obs(est, a, floor_rel, threads, &Recorder::disabled())
}

/// [`estimate_normalizer`] with the probe evaluation's work counts merged
/// into `recorder`. The probe scan is over derived in-memory data, not
/// the caller's primary source, so no `DatasetPasses` is recorded — that
/// is the whole point of the one-pass variant. Errors if the backend
/// offers neither a uniform probe sample nor a summary normalizer.
pub fn estimate_normalizer_obs<E>(
    est: &E,
    a: f64,
    floor_rel: f64,
    threads: NonZeroUsize,
    recorder: &Recorder,
) -> Result<f64>
where
    E: DensityEstimator + Sync + ?Sized,
{
    let floor = floor_rel * est.average_density();
    if let Some(probe) = est.uniform_probe() {
        let ks = probe.len() as f64;
        let n = est.dataset_size();
        let densities = dbs_density::batch_densities_obs(est, probe, threads, recorder)?;
        let sum: f64 = densities.iter().map(|&f| f.max(floor).powf(a)).sum();
        Ok(n / ks * sum)
    } else if let Some(k) = est.summary_normalizer(a, floor) {
        Ok(k)
    } else {
        Err(Error::InvalidParameter(
            "estimator supports neither uniform_probe nor summary_normalizer; \
             use the two-pass sampler"
                .into(),
        ))
    }
}

/// One-pass density-biased sampling with an approximated normalizer.
///
/// Identical to [`crate::density_biased_sample`] except that `k` comes from
/// [`estimate_normalizer`], so only a single scan of `source` is performed.
/// The expected sample size is `b` only up to the normalizer approximation
/// error (typically a few percent with 1000 centers).
pub fn one_pass_biased_sample<S, E>(
    source: &S,
    estimator: &E,
    config: &BiasedConfig,
) -> Result<(WeightedSample, BiasedSampleStats)>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    one_pass_biased_sample_obs(source, estimator, config, &Recorder::disabled())
}

/// [`one_pass_biased_sample`] with metrics: records the single dataset
/// pass, the batch engine's per-chunk work counts (for both the center
/// evaluation and the data pass), and clip events into `recorder`. Output
/// is byte-identical to the plain entry point (which is this function with
/// a disabled recorder).
pub fn one_pass_biased_sample_obs<S, E>(
    source: &S,
    estimator: &E,
    config: &BiasedConfig,
    recorder: &Recorder,
) -> Result<(WeightedSample, BiasedSampleStats)>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    check_inputs(source, estimator, config)?;
    let a = config.exponent;
    let floor_rel = config.density_floor;
    let floor = floor_rel * estimator.average_density();
    let k = estimate_normalizer_obs(estimator, a, floor_rel, config.parallelism, recorder)?;
    if !(k.is_finite() && k > 0.0) {
        return Err(Error::InvalidParameter(format!(
            "approximated normalizer k = {k} is not positive/finite"
        )));
    }

    // The single data pass: each chunk evaluates its densities through the
    // estimator's batch engine (bit-identical to per-point evaluation).
    let (sample, clipped) = inclusion_pass(source, config, k, recorder, |_, block, tally, fp| {
        estimator.densities_into(block, fp, tally);
        for f in fp.iter_mut() {
            *f = f.max(floor).powf(a);
        }
    })?;
    let stats = BiasedSampleStats {
        normalizer_k: k,
        clipped,
        passes: 1,
    };
    Ok((sample, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biased::density_biased_sample;
    use dbs_core::rng::seeded;
    use dbs_core::{par, BoundingBox, Dataset};
    use dbs_density::{EstimatorSpec, KdeConfig, KernelDensityEstimator};
    use rand::Rng;

    fn two_blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, n);
        for i in 0..n {
            let (cx, cy) = if i < n * 9 / 10 {
                (0.25, 0.25)
            } else {
                (0.75, 0.75)
            };
            ds.push(&[
                cx + (rng.gen::<f64>() - 0.5) * 0.1,
                cy + (rng.gen::<f64>() - 0.5) * 0.1,
            ])
            .unwrap();
        }
        ds
    }

    fn kde(ds: &Dataset) -> KernelDensityEstimator {
        let cfg = KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(500)
        };
        KernelDensityEstimator::fit_dataset(ds, &cfg).unwrap()
    }

    #[test]
    fn single_pass_only() {
        let ds = two_blobs(5000, 1);
        let est = kde(&ds);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let (_, stats) =
            one_pass_biased_sample(&counted, &est, &BiasedConfig::new(200, 1.0)).unwrap();
        assert_eq!(counted.passes(), 1);
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn normalizer_close_to_exact() {
        let ds = two_blobs(20_000, 2);
        let est = kde(&ds);
        let floor = 0.01 * est.average_density();
        for a in [-0.5, 0.5, 1.0] {
            let approx = estimate_normalizer(&est, a, 0.01, par::available_parallelism()).unwrap();
            let mut exact = 0.0;
            for p in ds.iter() {
                exact += est.density(p).max(floor).powf(a);
            }
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < 0.15,
                "a={a}: approx {approx} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn sample_size_near_target() {
        let ds = two_blobs(20_000, 3);
        let est = kde(&ds);
        let (s, _) =
            one_pass_biased_sample(&ds, &est, &BiasedConfig::new(800, 1.0).with_seed(4)).unwrap();
        let size = s.len() as f64;
        assert!((size - 800.0).abs() < 160.0, "size {size}");
    }

    #[test]
    fn matches_two_pass_bias_direction() {
        let ds = two_blobs(20_000, 5);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(1000, 1.0).with_seed(6);
        let (one, _) = one_pass_biased_sample(&ds, &est, &cfg).unwrap();
        let (two, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
        let dense_frac = |s: &WeightedSample| {
            s.points().iter().filter(|p| p[0] < 0.5).count() as f64 / s.len() as f64
        };
        assert!((dense_frac(&one) - dense_frac(&two)).abs() < 0.05);
    }

    #[test]
    fn summary_normalizer_close_to_exact_for_sublinear_backends() {
        let ds = two_blobs(20_000, 8);
        for (spec, tol) in [
            ("grid:16", 1e-9),
            ("hashgrid:16", 1e-9),
            // The shifted ensembles: grid-0 normalizer vs grid-averaged
            // query, cell-boundary disagreement only.
            ("agrid:8", 0.25),
            ("sketch:4:65536", 0.25),
        ] {
            let est = EstimatorSpec::parse(spec)
                .unwrap()
                .with_seed(3)
                .with_domain(BoundingBox::unit(2))
                .fit(&ds)
                .unwrap();
            let floor = 0.01 * est.average_density();
            let approx =
                estimate_normalizer(&*est, 1.0, 0.01, par::available_parallelism()).unwrap();
            let mut exact = 0.0;
            for p in ds.iter() {
                exact += est.density(p).max(floor);
            }
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < tol,
                "{spec}: approx {approx} vs exact {exact} (rel {rel})"
            );
        }
    }

    #[test]
    fn one_pass_with_agrid_backend() {
        let ds = two_blobs(20_000, 9);
        let est = EstimatorSpec::parse("agrid:8")
            .unwrap()
            .with_seed(5)
            .with_domain(BoundingBox::unit(2))
            .fit(&ds)
            .unwrap();
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let (s, stats) =
            one_pass_biased_sample(&counted, &*est, &BiasedConfig::new(800, 1.0).with_seed(11))
                .unwrap();
        assert_eq!(counted.passes(), 1);
        assert_eq!(stats.passes, 1);
        let size = s.len() as f64;
        assert!((size - 800.0).abs() < 200.0, "size {size}");
    }

    #[test]
    fn one_pass_with_sketch_backend() {
        // The streaming summary feeds the one-pass sampler directly: fit a
        // sketch, then draw the biased sample in a single further pass.
        let ds = two_blobs(20_000, 9);
        let est = EstimatorSpec::parse("sketch:4:65536")
            .unwrap()
            .with_seed(5)
            .with_domain(BoundingBox::unit(2))
            .fit(&ds)
            .unwrap();
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let (s, stats) =
            one_pass_biased_sample(&counted, &*est, &BiasedConfig::new(800, 1.0).with_seed(11))
                .unwrap();
        assert_eq!(counted.passes(), 1);
        assert_eq!(stats.passes, 1);
        let size = s.len() as f64;
        assert!((size - 800.0).abs() < 200.0, "size {size}");
        // a = 1 oversamples the dense blob, as with the exact backends.
        let dense_frac = s.points().iter().filter(|p| p[0] < 0.5).count() as f64 / s.len() as f64;
        assert!(dense_frac > 0.93, "dense fraction {dense_frac}");
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let ds = two_blobs(100, 7);
        let est = kde(&ds);
        assert!(
            one_pass_biased_sample(&Dataset::new(2), &est, &BiasedConfig::new(5, 1.0)).is_err()
        );
        assert!(one_pass_biased_sample(&ds, &est, &BiasedConfig::new(0, 1.0)).is_err());
    }
}
