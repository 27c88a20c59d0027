//! End-to-end checks of the estimator → sampler chain across crates.

use dbs_core::{par, BoundingBox, PointSource};
use dbs_density::{DensityEstimator, KdeConfig, KernelDensityEstimator, ShiftedGrids};
use dbs_integration_tests::{clustered, clustered_noisy, noise_share};
use dbs_sampling::{
    bernoulli_sample, density_biased_sample, grid_biased_sample, one_pass_biased_sample,
    BiasedConfig, GridBiasedConfig,
};

fn kde(data: &dbs_core::Dataset, centers: usize, seed: u64) -> KernelDensityEstimator {
    let cfg = KdeConfig {
        num_centers: centers,
        domain: Some(BoundingBox::unit(data.dim())),
        seed,
        ..Default::default()
    };
    KernelDensityEstimator::fit_dataset(data, &cfg).unwrap()
}

#[test]
fn positive_exponent_reduces_noise_share() {
    let synth = clustered_noisy(30_000, 2, 0.5, 1);
    let est = kde(&synth.data, 500, 2);
    let (biased, _) =
        density_biased_sample(&synth.data, &est, &BiasedConfig::new(600, 1.0).with_seed(3))
            .unwrap();
    let uniform = bernoulli_sample(&synth.data, 600, 3).unwrap();
    let b_share = noise_share(&synth, biased.source_indices());
    let u_share = noise_share(&synth, uniform.source_indices());
    assert!(
        b_share < 0.75 * u_share,
        "biased noise share {b_share} should be well below uniform {u_share}"
    );
}

#[test]
fn negative_exponent_raises_sparse_cluster_share() {
    // Clusters only (no noise): with a < 0 the sparsest cluster gains
    // sample share relative to uniform sampling.
    let synth = {
        use dbs_synth::rect::{generate, RectConfig, SizeProfile};
        let cfg = RectConfig {
            total_points: 30_000,
            ..RectConfig::paper_standard(2, 4)
        };
        generate(&cfg, &SizeProfile::VariableDensity { ratio: 10.0 }).unwrap()
    };
    let est = kde(&synth.data, 500, 5);
    let (biased, _) = density_biased_sample(
        &synth.data,
        &est,
        &BiasedConfig::new(1500, -0.5).with_seed(6),
    )
    .unwrap();
    let sizes = synth.cluster_sizes();
    // Cluster 0 is the sparsest by construction.
    let biased_share = biased
        .source_indices()
        .iter()
        .filter(|&&i| synth.labels[i] == 0)
        .count() as f64
        / biased.len() as f64;
    let population_share = sizes[0] as f64 / synth.len() as f64;
    assert!(
        biased_share > 1.3 * population_share,
        "sparse cluster share {biased_share} vs population {population_share}"
    );
}

#[test]
fn horvitz_thompson_estimates_dataset_size_across_samplers() {
    let synth = clustered(20_000, 2, 7);
    let est = kde(&synth.data, 500, 8);
    for a in [-0.5, 0.0, 1.0] {
        let (s, _) =
            density_biased_sample(&synth.data, &est, &BiasedConfig::new(1000, a).with_seed(9))
                .unwrap();
        let ht = s.estimated_source_size();
        let rel = (ht - 20_000.0).abs() / 20_000.0;
        assert!(rel < 0.25, "a={a}: HT estimate {ht}");
    }
}

#[test]
fn one_pass_and_two_pass_agree_statistically() {
    let synth = clustered_noisy(20_000, 2, 0.3, 10);
    let est = kde(&synth.data, 1000, 11);
    let cfg = BiasedConfig::new(800, 1.0).with_seed(12);
    let (two, s2) = density_biased_sample(&synth.data, &est, &cfg).unwrap();
    let (one, s1) = one_pass_biased_sample(&synth.data, &est, &cfg).unwrap();
    // The exact sampler needs one pass too (Figure 1 folds into it).
    assert_eq!(s2.passes, 1);
    assert_eq!(s1.passes, 1);
    let k_rel = (s1.normalizer_k - s2.normalizer_k).abs() / s2.normalizer_k;
    assert!(k_rel < 0.1, "normalizer mismatch {k_rel}");
    let share2 = noise_share(&synth, two.source_indices());
    let share1 = noise_share(&synth, one.source_indices());
    assert!(
        (share1 - share2).abs() < 0.08,
        "noise shares {share1} vs {share2}"
    );
}

#[test]
fn grid_estimator_backend_matches_kde_direction() {
    // Any DensityEstimator backend must produce the same *direction* of
    // bias through the same sampler.
    let synth = clustered_noisy(20_000, 2, 0.5, 13);
    let grid = ShiftedGrids::grid(BoundingBox::unit(2), 24)
        .unwrap()
        .fit(&synth.data, par::serial())
        .unwrap();
    assert_eq!(grid.dataset_size(), synth.len() as f64);
    let (biased, _) = density_biased_sample(
        &synth.data,
        &grid,
        &BiasedConfig::new(600, 1.0).with_seed(14),
    )
    .unwrap();
    let uniform = bernoulli_sample(&synth.data, 600, 14).unwrap();
    assert!(
        noise_share(&synth, biased.source_indices())
            < noise_share(&synth, uniform.source_indices())
    );
}

#[test]
fn palmer_faloutsos_sampler_oversamples_sparse_cells() {
    let synth = {
        use dbs_synth::rect::{generate, RectConfig, SizeProfile};
        let cfg = RectConfig {
            total_points: 30_000,
            ..RectConfig::paper_standard(2, 15)
        };
        generate(&cfg, &SizeProfile::VariableDensity { ratio: 10.0 }).unwrap()
    };
    let (s, _) = grid_biased_sample(
        &synth.data,
        &GridBiasedConfig::new(1500, -0.5).with_seed(16),
    )
    .unwrap();
    let sizes = synth.cluster_sizes();
    let share0 = s
        .source_indices()
        .iter()
        .filter(|&&i| synth.labels[i] == 0)
        .count() as f64
        / s.len() as f64;
    let pop0 = sizes[0] as f64 / synth.len() as f64;
    assert!(
        share0 > pop0,
        "sparse cluster share {share0} vs population {pop0}"
    );
}

#[test]
fn sampler_indices_always_reference_source_points() {
    let synth = clustered(5_000, 3, 17);
    let est = kde(&synth.data, 300, 18);
    let (s, _) = density_biased_sample(
        &synth.data,
        &est,
        &BiasedConfig::new(250, 0.5).with_seed(19),
    )
    .unwrap();
    assert!(PointSource::len(&synth.data) >= s.len());
    for (pos, &i) in s.source_indices().iter().enumerate() {
        assert_eq!(s.points().point(pos), synth.data.point(i));
    }
}
