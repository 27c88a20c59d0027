//! The paper's real-data story (§4.3) on the simulated NorthEast dataset:
//! three metropolitan areas buried in rural scatter. A 1 % biased sample
//! (a = 1) keeps the metros; a uniform sample drowns them in rural noise.
//!
//! ```text
//! cargo run -p dbs-examples --bin geo_postal
//! ```

use dbs_cluster::{clusters_found, partitioned_cluster, EvalConfig, HierarchicalConfig};
use dbs_core::BoundingBox;
use dbs_density::{KdeConfig, KernelDensityEstimator};
use dbs_sampling::{bernoulli_sample, density_biased_sample, BiasedConfig};
use dbs_synth::geo::northeast_like;

fn main() -> dbs_core::Result<()> {
    let ne = northeast_like(41);
    println!(
        "NorthEast-like dataset: {} points, {} metros, {:.0}% background",
        ne.len(),
        ne.num_clusters(),
        ne.noise_fraction() * 100.0
    );

    let b = ne.len() / 100; // 1% sample, per the practitioner's guide
    let k = ne.num_clusters() + 2; // a little slack for secondary centers
    let eval = EvalConfig {
        margin: 0.01,
        ..Default::default()
    };
    let hc = HierarchicalConfig::paper_defaults(k);

    let kde = KernelDensityEstimator::fit_dataset(
        &ne.data,
        &KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(1000)
        },
    )?;
    let (biased, _) = density_biased_sample(&ne.data, &kde, &BiasedConfig::new(b, 1.0))?;
    let found_biased = clusters_found(
        &partitioned_cluster(biased.points(), &hc)?.clusters,
        &ne.regions,
        &eval,
    );

    let uniform = bernoulli_sample(&ne.data, b, 42)?;
    let found_uniform = clusters_found(
        &partitioned_cluster(uniform.points(), &hc)?.clusters,
        &ne.regions,
        &eval,
    );

    let names = ["New York", "Philadelphia", "Boston"];
    println!("\nbiased a=1, 1% sample:  {found_biased}/3 metros found");
    println!("uniform,   1% sample:  {found_uniform}/3 metros found");
    println!("\nmetro ground truth:");
    for (name, region) in names.iter().zip(&ne.regions) {
        let c = region.center();
        println!("  {name}: center ({:.2}, {:.2})", c[0], c[1]);
    }

    println!("\nbiased sample (metros pop out):");
    print!(
        "{}",
        dbs_examples::ascii_plot(biased.points().iter().map(|p| (p[0], p[1])), 60, 20)
    );
    println!("uniform sample (rural scatter dominates):");
    print!(
        "{}",
        dbs_examples::ascii_plot(uniform.points().iter().map(|p| (p[0], p[1])), 60, 20)
    );
    Ok(())
}
