//! The a < 0 regime: small sparse clusters next to huge dense ones.
//!
//! Five large dense clusters hold 95 % of the points; five small sparse
//! clusters hold 1 % each. A uniform 1 % sample sees 2-3 points per small
//! cluster and loses them; a = −0.25 biased sampling boosts the sparse
//! regions (while Lemma 1 keeps the dense ones dense) and recovers them.
//! This is Figure 5 of the paper as a demo.
//!
//! ```text
//! cargo run -p dbs-examples --bin small_clusters
//! ```

use dbs_cluster::{clusters_found, partitioned_cluster, EvalConfig, HierarchicalConfig};
use dbs_core::BoundingBox;
use dbs_density::{KdeConfig, KernelDensityEstimator};
use dbs_sampling::{bernoulli_sample, density_biased_sample, BiasedConfig};
use dbs_synth::noise::with_noise_fraction;
use dbs_synth::rect::{generate, RectConfig, SizeProfile};

fn main() -> dbs_core::Result<()> {
    // 5 big clusters of 7600 points, 5 small ones of 400.
    let sizes = vec![7600, 7600, 7600, 7600, 7600, 400, 400, 400, 400, 400];
    let total = sizes.iter().sum();
    let clean = generate(
        &RectConfig {
            total_points: total,
            num_clusters: 10,
            volume_range: (0.006, 0.012),
            ..RectConfig::paper_standard(2, 21)
        },
        &SizeProfile::Explicit(sizes),
    )?;
    let synth = with_noise_fraction(clean, 0.1, 22);
    println!(
        "dataset: {} points; cluster sizes {:?}",
        synth.len(),
        synth.cluster_sizes()
    );

    let b = synth.len() / 50; // 2%
    let eval = EvalConfig {
        margin: 0.01,
        ..Default::default()
    };
    let hc = HierarchicalConfig::paper_defaults(10);

    let kde = KernelDensityEstimator::fit_dataset(
        &synth.data,
        &KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(1000)
        },
    )?;

    for a in [-0.5, -0.25] {
        let (s, _) = density_biased_sample(&synth.data, &kde, &BiasedConfig::new(b, a))?;
        // Points per small cluster in the sample.
        let mut small_counts = vec![0usize; 5];
        for &i in s.source_indices() {
            let l = synth.labels[i];
            if (5..10).contains(&l) {
                small_counts[l - 5] += 1;
            }
        }
        let found = clusters_found(
            &partitioned_cluster(s.points(), &hc)?.clusters,
            &synth.regions,
            &eval,
        );
        println!(
            "biased a={a:>5}: {} points, small-cluster sample counts {:?}, {found}/10 found",
            s.len(),
            small_counts
        );
    }

    let u = bernoulli_sample(&synth.data, b, 23)?;
    let mut small_counts = vec![0usize; 5];
    for &i in u.source_indices() {
        let l = synth.labels[i];
        if (5..10).contains(&l) {
            small_counts[l - 5] += 1;
        }
    }
    let found = clusters_found(
        &partitioned_cluster(u.points(), &hc)?.clusters,
        &synth.regions,
        &eval,
    );
    println!(
        "uniform:        {} points, small-cluster sample counts {:?}, {found}/10 found",
        u.len(),
        small_counts
    );
    Ok(())
}
