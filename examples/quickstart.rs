//! Quickstart: the whole pipeline in ~40 lines.
//!
//! 1. Generate a clustered dataset (you would load your own instead).
//! 2. Fit a kernel density estimator in one pass.
//! 3. Draw a density-biased sample (a = 1: oversample dense regions).
//! 4. Run the CURE-style hierarchical clustering on the sample.
//!
//! ```text
//! cargo run -p dbs-examples --bin quickstart
//! ```

use dbs_cluster::{partitioned_cluster, HierarchicalConfig};
use dbs_core::BoundingBox;
use dbs_density::{KdeConfig, KernelDensityEstimator};
use dbs_sampling::{density_biased_sample, BiasedConfig};
use dbs_synth::rect::{generate, RectConfig, SizeProfile};

fn main() -> dbs_core::Result<()> {
    // A 100k-point dataset with 10 rectangular clusters in [0,1]^2.
    let synth = generate(&RectConfig::paper_standard(2, 42), &SizeProfile::Equal)?;
    println!(
        "dataset: {} points, {} true clusters",
        synth.len(),
        synth.num_clusters()
    );

    // One pass: 1000 kernel centers, Epanechnikov kernels, Scott bandwidth.
    let kde = KernelDensityEstimator::fit_dataset(
        &synth.data,
        &KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(1000)
        },
    )?;
    println!(
        "estimator: {} centers, bandwidths {:?}",
        kde.centers().len(),
        kde.bandwidths()
    );

    // Two passes: normalize, then include x with probability ∝ f(x)^a.
    let (sample, stats) = density_biased_sample(
        &synth.data,
        &kde,
        &BiasedConfig::new(1000, 1.0).with_seed(7),
    )?;
    println!(
        "sample: {} points (target 1000), normalizer k = {:.1}, {} clipped",
        sample.len(),
        stats.normalizer_k,
        stats.clipped
    );

    // Cluster the sample with the paper's §4.2 settings.
    let clustering = partitioned_cluster(sample.points(), &HierarchicalConfig::paper_defaults(10))?;
    println!("clustering: {} clusters found", clustering.clusters.len());
    for (i, c) in clustering.clusters.iter().enumerate() {
        println!(
            "  cluster {i}: {} sample points, mean ({:.3}, {:.3})",
            c.members.len(),
            c.mean[0],
            c.mean[1]
        );
    }

    println!("\nsample density plot:");
    let pts = sample.points().iter().map(|p| (p[0], p[1]));
    print!("{}", dbs_examples::ascii_plot(pts, 60, 24));
    Ok(())
}
