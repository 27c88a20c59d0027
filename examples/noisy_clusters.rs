//! The a > 0 regime: clusters buried in heavy noise.
//!
//! 60 % of the dataset is uniform background noise. A uniform sample
//! carries the noise straight into the clustering; the density-biased
//! sample with a = 1 suppresses it (dense regions are oversampled), so the
//! clusters survive. This is Figure 4 of the paper as a demo.
//!
//! ```text
//! cargo run -p dbs-examples --bin noisy_clusters
//! ```

use dbs_cluster::{clusters_found, partitioned_cluster, EvalConfig, HierarchicalConfig};
use dbs_core::BoundingBox;
use dbs_density::{KdeConfig, KernelDensityEstimator};
use dbs_sampling::{bernoulli_sample, density_biased_sample, BiasedConfig};
use dbs_synth::noise::with_noise_fraction;
use dbs_synth::rect::{generate, RectConfig, SizeProfile};
use dbs_synth::NOISE_LABEL;

fn main() -> dbs_core::Result<()> {
    let clean = generate(
        &RectConfig {
            total_points: 50_000,
            ..RectConfig::paper_standard(2, 11)
        },
        &SizeProfile::VariableDensity { ratio: 4.0 },
    )?;
    let noisy = with_noise_fraction(clean, 0.6, 12);
    println!(
        "dataset: {} points, {} clusters, {:.0}% noise",
        noisy.len(),
        noisy.num_clusters(),
        noisy.noise_fraction() * 100.0
    );

    let b = noisy.len() / 50; // 2% sample
    let eval = EvalConfig {
        margin: 0.01,
        ..Default::default()
    };
    let hc = HierarchicalConfig::paper_defaults(10);

    // Density-biased sample, a = 1.
    let kde = KernelDensityEstimator::fit_dataset(
        &noisy.data,
        &KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(1000)
        },
    )?;
    let (biased, _) = density_biased_sample(&noisy.data, &kde, &BiasedConfig::new(b, 1.0))?;
    let noise_in_biased = biased
        .source_indices()
        .iter()
        .filter(|&&i| noisy.labels[i] == NOISE_LABEL)
        .count();
    let found_biased = clusters_found(
        &partitioned_cluster(biased.points(), &hc)?.clusters,
        &noisy.regions,
        &eval,
    );

    // Uniform sample, same size.
    let uniform = bernoulli_sample(&noisy.data, b, 13)?;
    let noise_in_uniform = uniform
        .source_indices()
        .iter()
        .filter(|&&i| noisy.labels[i] == NOISE_LABEL)
        .count();
    let found_uniform = clusters_found(
        &partitioned_cluster(uniform.points(), &hc)?.clusters,
        &noisy.regions,
        &eval,
    );

    println!(
        "\nbiased sample (a=1):  {} points, {:.0}% noise, {found_biased}/10 clusters found",
        biased.len(),
        100.0 * noise_in_biased as f64 / biased.len() as f64
    );
    println!(
        "uniform sample:       {} points, {:.0}% noise, {found_uniform}/10 clusters found",
        uniform.len(),
        100.0 * noise_in_uniform as f64 / uniform.len() as f64
    );

    println!("\nbiased sample plot (noise mostly gone):");
    print!(
        "{}",
        dbs_examples::ascii_plot(biased.points().iter().map(|p| (p[0], p[1])), 60, 20)
    );
    println!("uniform sample plot (noise everywhere):");
    print!(
        "{}",
        dbs_examples::ascii_plot(uniform.points().iter().map(|p| (p[0], p[1])), 60, 20)
    );
    Ok(())
}
