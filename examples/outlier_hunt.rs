//! DB(p,k) outlier detection with density pruning (§3.2 of the paper).
//!
//! Plants isolated points on a clustered background, then finds them with
//! one estimator pass + two dataset passes, comparing against the exact
//! nested-loop detector.
//!
//! ```text
//! cargo run -p dbs-examples --bin outlier_hunt
//! ```

use std::time::Instant;

use dbs_core::{BoundingBox, Metric};
use dbs_density::{KdeConfig, KernelDensityEstimator};
use dbs_outlier::{approx_outliers, nested_loop_outliers, ApproxConfig, DbOutlierParams};
use dbs_synth::outliers::planted_outliers;
use dbs_synth::rect::RectConfig;

fn main() -> dbs_core::Result<()> {
    let background = RectConfig {
        total_points: 20_000,
        ..RectConfig::paper_standard(2, 31)
    };
    let planted = planted_outliers(&background, 8, 0.06, 32)?;
    let data = &planted.synth.data;
    println!(
        "dataset: {} points, {} planted outliers (isolation {})",
        data.len(),
        planted.outlier_indices.len(),
        planted.isolation
    );

    let params = DbOutlierParams::new(0.03, 3)?;
    println!(
        "looking for DB(p={}, k={}) outliers",
        params.max_neighbors, params.radius
    );

    // Estimator pass.
    let t0 = Instant::now();
    let kde = KernelDensityEstimator::fit_dataset(
        data,
        &KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(1000)
        },
    )?;
    println!("estimator fitted in {:?}", t0.elapsed());

    // Two more passes: prune by expected neighbors, verify survivors. A
    // generous slack keeps outliers that sit near dense clusters (where
    // kernel smoothing inflates their expected neighborhood) in the
    // candidate set; the verification pass removes any false candidates.
    let t1 = Instant::now();
    let report = approx_outliers(
        data,
        &kde,
        &ApproxConfig {
            slack: 25.0,
            ..ApproxConfig::new(params)
        },
    )?;
    let approx_time = t1.elapsed();
    println!(
        "approx detector: {} outliers from {} candidates in {} passes, {:?}",
        report.outliers.len(),
        report.candidates,
        report.passes,
        approx_time
    );

    // Exact baseline.
    let t2 = Instant::now();
    let exact = nested_loop_outliers(data, &params, Metric::Euclidean);
    let exact_time = t2.elapsed();
    println!(
        "nested loop:     {} outliers, {:?}",
        exact.len(),
        exact_time
    );

    let recall = report.outliers.iter().filter(|o| exact.contains(o)).count();
    println!(
        "\nagreement: {recall}/{} exact outliers recovered; planted outliers all found: {}",
        exact.len(),
        planted
            .outlier_indices
            .iter()
            .all(|i| report.outliers.contains(i))
    );
    for &i in &report.outliers {
        let p = data.point(i);
        let planted_tag = if planted.outlier_indices.contains(&i) {
            " (planted)"
        } else {
            ""
        };
        println!("  outlier #{i} at ({:.3}, {:.3}){planted_tag}", p[0], p[1]);
    }
    Ok(())
}
