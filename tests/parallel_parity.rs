//! Determinism contract of the parallel execution layer: every algorithm
//! that takes a `parallelism` knob must produce **byte-identical** output
//! for every thread count, with `1` reproducing the serial path.
//!
//! All float comparisons go through `to_bits`, so `-0.0` vs `0.0` or NaN
//! payload differences would fail — "identical" here means identical down
//! to the bit pattern.

use std::num::NonZeroUsize;

use dbs_core::{BoundingBox, Dataset, Metric, WeightedSample};
use dbs_density::{DensityEstimator, KdeConfig, KernelDensityEstimator};
use dbs_outlier::{approx_outliers, ApproxConfig, DbOutlierParams};
use dbs_sampling::{density_biased_sample, one_pass_biased_sample, BiasedConfig};

use dbs_integration_tests::clustered_noisy;

const THREADS: [usize; 3] = [1, 2, 7];

fn nz(t: usize) -> NonZeroUsize {
    NonZeroUsize::new(t).expect("thread counts under test are positive")
}

/// The fixed-seed 50k-point workload shared by every parity test.
fn workload() -> (Dataset, KernelDensityEstimator) {
    let synth = clustered_noisy(50_000, 2, 0.2, 42);
    let cfg = KdeConfig {
        domain: Some(BoundingBox::unit(2)),
        seed: 7,
        ..KdeConfig::with_centers(300)
    };
    let est = KernelDensityEstimator::fit_dataset(&synth.data, &cfg)
        .expect("KDE fit succeeds on the synthetic workload");
    (synth.data, est)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_samples_identical(a: &WeightedSample, b: &WeightedSample, what: &str) {
    assert_eq!(
        a.source_indices(),
        b.source_indices(),
        "{what}: indices differ"
    );
    assert_eq!(
        bits(a.weights()),
        bits(b.weights()),
        "{what}: weights differ"
    );
    assert_eq!(
        bits(a.points().as_flat()),
        bits(b.points().as_flat()),
        "{what}: point coordinates differ"
    );
}

#[test]
fn kde_batch_densities_are_thread_count_independent() {
    let (data, est) = workload();
    let serial = est.densities(&data, nz(1)).unwrap();
    // The cache-blocked batch engine must agree with per-point scalar
    // evaluation on every point, bit for bit.
    for (i, &d) in serial.iter().enumerate() {
        assert_eq!(
            d.to_bits(),
            est.density(data.point(i)).to_bits(),
            "point {i}"
        );
    }
    for t in THREADS {
        let par = est.densities(&data, nz(t)).unwrap();
        assert_eq!(bits(&serial), bits(&par), "threads={t}");
    }
}

/// The sampler and outlier paths now evaluate densities through the batch
/// engine; their observable statistics must still equal what a per-point
/// scalar evaluation produces.
#[test]
fn batch_routed_pipelines_match_scalar_reference() {
    let (data, est) = workload();

    // Two-pass sampler: the normalizer k is the serial fold over f'(x);
    // recompute it from scalar density() calls and compare bits.
    let cfg = BiasedConfig::new(1500, 0.75).with_seed(5);
    let floor = cfg.density_floor * est.average_density();
    let reference_k: f64 = data
        .iter()
        .map(|x| est.density(x).max(floor).powf(cfg.exponent))
        .sum();
    let (_, stats) = density_biased_sample(&data, &est, &cfg).unwrap();
    assert_eq!(stats.normalizer_k.to_bits(), reference_k.to_bits());

    // One-pass sampler: the per-point inclusion decisions are a pure
    // function of the batch densities; replay them from scalar calls.
    let one_cfg = BiasedConfig::new(1500, 1.0).with_seed(23);
    let (one, one_stats) = one_pass_biased_sample(&data, &est, &one_cfg).unwrap();
    let k = one_stats.normalizer_k;
    let b = one_cfg.target_size as f64;
    let mut replayed = Vec::new();
    for (i, x) in data.iter().enumerate() {
        let p = (b * est.density(x).max(floor).powf(one_cfg.exponent) / k).min(1.0);
        if dbs_core::rng::keyed_unit(one_cfg.seed, i as u64) < p {
            replayed.push(i);
        }
    }
    assert_eq!(one.source_indices(), replayed.as_slice());

    // Outlier pruner: the density prefilter screens with batch densities;
    // the report must match a run whose estimator has no batch shortcut
    // (per-point fallback via the default trait hook).
    struct ScalarOnly<'a>(&'a KernelDensityEstimator);
    impl DensityEstimator for ScalarOnly<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn dataset_size(&self) -> f64 {
            self.0.dataset_size()
        }
        fn density(&self, x: &[f64]) -> f64 {
            self.0.density(x)
        }
        fn average_density(&self) -> f64 {
            self.0.average_density()
        }
        // densities_into deliberately left at the per-point default.
    }
    let params = DbOutlierParams::new(0.02, 3).unwrap();
    let ocfg = ApproxConfig {
        slack: 5.0,
        seed: 3,
        ..ApproxConfig::new(params)
    };
    let batched = approx_outliers(&data, &est, &ocfg).unwrap();
    let scalar = approx_outliers(&data, &ScalarOnly(&est), &ocfg).unwrap();
    assert_eq!(batched.outliers, scalar.outliers);
    assert_eq!(batched.candidates, scalar.candidates);
}

#[test]
fn two_pass_sampler_is_thread_count_independent() {
    let (data, est) = workload();
    let base = BiasedConfig::new(2000, 1.0).with_seed(99);
    let (serial, serial_stats) =
        density_biased_sample(&data, &est, &base.clone().with_parallelism(nz(1))).unwrap();
    for t in THREADS {
        let cfg = base.clone().with_parallelism(nz(t));
        let (par, stats) = density_biased_sample(&data, &est, &cfg).unwrap();
        assert_samples_identical(&serial, &par, &format!("two-pass, threads={t}"));
        assert_eq!(
            serial_stats.normalizer_k.to_bits(),
            stats.normalizer_k.to_bits()
        );
        assert_eq!(serial_stats.clipped, stats.clipped);
        assert_eq!(stats.passes, 2);
    }
}

#[test]
fn one_pass_sampler_is_thread_count_independent() {
    let (data, est) = workload();
    let base = BiasedConfig::new(2000, -0.5).with_seed(17);
    let (serial, serial_stats) =
        one_pass_biased_sample(&data, &est, &base.clone().with_parallelism(nz(1))).unwrap();
    for t in THREADS {
        let cfg = base.clone().with_parallelism(nz(t));
        let (par, stats) = one_pass_biased_sample(&data, &est, &cfg).unwrap();
        assert_samples_identical(&serial, &par, &format!("one-pass, threads={t}"));
        assert_eq!(
            serial_stats.normalizer_k.to_bits(),
            stats.normalizer_k.to_bits()
        );
        assert_eq!(serial_stats.clipped, stats.clipped);
        assert_eq!(stats.passes, 1);
    }
}

#[test]
fn approx_outlier_detector_is_thread_count_independent() {
    let (data, est) = workload();
    let params = DbOutlierParams::new(0.02, 3).unwrap();
    for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
        let base = ApproxConfig {
            slack: 5.0,
            seed: 3,
            metric,
            ..ApproxConfig::new(params)
        };
        let serial = approx_outliers(
            &data,
            &est,
            &ApproxConfig {
                parallelism: nz(1),
                ..base.clone()
            },
        )
        .unwrap();
        for t in THREADS {
            let cfg = ApproxConfig {
                parallelism: nz(t),
                ..base.clone()
            };
            let par = approx_outliers(&data, &est, &cfg).unwrap();
            assert_eq!(
                serial.outliers, par.outliers,
                "{metric:?}, threads={t}: outlier sets differ"
            );
            assert_eq!(
                serial.candidates, par.candidates,
                "{metric:?}, threads={t}: candidate counts differ"
            );
            assert_eq!(
                serial.passes, par.passes,
                "{metric:?}, threads={t}: pass counts differ"
            );
        }
    }
}
