//! End-to-end checks of the density-pruned outlier detector against the
//! exact baselines, across estimator backends and dimensions.

use dbs_core::{BoundingBox, Metric};
use dbs_density::{KdeConfig, KernelDensityEstimator, ShiftedGrids};
use dbs_outlier::{
    approx_outliers, cell_based_outliers, estimate_outlier_count, kdtree_outliers,
    nested_loop_outliers, ApproxConfig, DbOutlierParams,
};
use dbs_synth::outliers::planted_outliers;
use dbs_synth::rect::RectConfig;

fn workload(dim: usize, seed: u64) -> (dbs_core::Dataset, Vec<usize>, f64) {
    let background = RectConfig {
        total_points: 8_000,
        ..RectConfig::paper_standard(dim, seed)
    };
    let radius: f64 = if dim == 2 { 0.03 } else { 0.06 };
    // Isolation comfortably beyond the kernel support (Scott bandwidth at
    // 500 centers is ~0.1): an outlier closer than the bandwidth to a dense
    // cluster legitimately looks populated to the density model — the
    // paper's "almost all cases" caveat. The planted ground truth avoids
    // that regime so recall assertions can be exact.
    let isolation = (2.0 * radius).max(0.12);
    let planted = planted_outliers(&background, 6, isolation, seed ^ 0xff).unwrap();
    (planted.synth.data, planted.outlier_indices, radius)
}

#[test]
fn all_exact_detectors_agree() {
    for dim in [2usize, 3] {
        let (data, _, radius) = workload(dim, 1);
        let params = DbOutlierParams::new(radius, 2).unwrap();
        let nested = nested_loop_outliers(&data, &params, Metric::Euclidean);
        let kd = kdtree_outliers(&data, &params);
        let cells = cell_based_outliers(&data, &params, &BoundingBox::unit(dim));
        assert_eq!(nested, kd, "{dim}-d: kd-tree disagrees");
        assert_eq!(nested, cells, "{dim}-d: cell-based disagrees");
    }
}

#[test]
fn approx_detector_recovers_exact_set_with_kde() {
    for dim in [2usize, 3] {
        let (data, planted, radius) = workload(dim, 2);
        let params = DbOutlierParams::new(radius, 2).unwrap();
        let kde_cfg = KdeConfig {
            num_centers: 500,
            domain: Some(BoundingBox::unit(dim)),
            seed: 3,
            ..Default::default()
        };
        let est = KernelDensityEstimator::fit_dataset(&data, &kde_cfg).unwrap();
        let report = approx_outliers(
            &data,
            &est,
            &ApproxConfig {
                slack: 10.0,
                ..ApproxConfig::new(params)
            },
        )
        .unwrap();
        let exact = nested_loop_outliers(&data, &params, Metric::Euclidean);
        assert_eq!(report.outliers, exact, "{dim}-d mismatch");
        for p in &planted {
            assert!(
                report.outliers.contains(p),
                "{dim}-d missed planted outlier {p}"
            );
        }
    }
}

#[test]
fn approx_detector_works_with_grid_backend() {
    let (data, planted, radius) = workload(2, 4);
    let params = DbOutlierParams::new(radius, 2).unwrap();
    let grid = ShiftedGrids::grid(BoundingBox::unit(2), 48)
        .unwrap()
        .fit(&data)
        .unwrap();
    let report = approx_outliers(
        &data,
        &grid,
        &ApproxConfig {
            slack: 10.0,
            ..ApproxConfig::new(params)
        },
    )
    .unwrap();
    for p in &planted {
        assert!(report.outliers.contains(p), "grid backend missed {p}");
    }
    // Verification guarantees no false positives regardless of backend.
    let exact = nested_loop_outliers(&data, &params, Metric::Euclidean);
    for o in &report.outliers {
        assert!(exact.contains(o), "false positive {o}");
    }
}

#[test]
fn one_pass_count_estimate_tracks_parameter_changes() {
    let (data, _, radius) = workload(2, 5);
    let kde_cfg = KdeConfig {
        num_centers: 500,
        domain: Some(BoundingBox::unit(2)),
        seed: 6,
        ..Default::default()
    };
    let est = KernelDensityEstimator::fit_dataset(&data, &kde_cfg).unwrap();
    // Larger radius -> fewer expected outliers; the one-pass estimate must
    // be monotone in that direction.
    let tight = DbOutlierParams::new(radius, 2).unwrap();
    let loose = DbOutlierParams::new(radius * 4.0, 2).unwrap();
    let threads = dbs_core::par::available_parallelism();
    let n_tight = estimate_outlier_count(&data, &est, &tight, 64, 7, threads).unwrap();
    let n_loose = estimate_outlier_count(&data, &est, &loose, 64, 7, threads).unwrap();
    assert!(n_tight >= n_loose, "tight {n_tight} < loose {n_loose}");
    assert!(n_tight >= 6, "estimate {n_tight} misses planted outliers");
}

#[test]
fn total_pipeline_pass_budget_is_three() {
    // §4.5: at most two dataset passes plus the estimator pass.
    let (data, _, radius) = workload(2, 8);
    let counted = dbs_core::scan::PassCounter::new(&data);
    let kde_cfg = KdeConfig {
        num_centers: 300,
        domain: Some(BoundingBox::unit(2)),
        seed: 9,
        ..Default::default()
    };
    let est = KernelDensityEstimator::fit(&counted, &kde_cfg).unwrap();
    let params = DbOutlierParams::new(radius, 2).unwrap();
    let _ = approx_outliers(&counted, &est, &ApproxConfig::new(params)).unwrap();
    assert_eq!(counted.passes(), 3, "1 estimator + 2 detector passes");
}
