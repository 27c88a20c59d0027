//! End-to-end checks of the density-pruned outlier detector against the
//! exact baselines, across estimator backends and dimensions.

use dbs_core::{par, BoundingBox, Metric};
use dbs_density::{KdeConfig, KernelDensityEstimator, ShiftedGrids};
use dbs_outlier::{
    approx_outliers, kdtree_outliers, nested_loop_outliers, ApproxConfig, DbOutlierParams,
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
        assert_eq!(nested, kd, "{dim}-d: kd-tree disagrees");
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
        .fit(&data, par::serial())
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
    // Larger radius -> fewer expected outliers; the one-pass estimate (the
    // candidate count at slack 1) must be monotone in that direction.
    let estimate = |radius: f64| {
        let cfg = ApproxConfig {
            slack: 1.0,
            ..ApproxConfig::new(DbOutlierParams::new(radius, 2).unwrap())
        };
        approx_outliers(&data, &est, &cfg).unwrap().candidates
    };
    let (n_tight, n_loose) = (estimate(radius), estimate(radius * 4.0));
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

/// The recall gate's input, made up as pipebench's `outliers_kde_d3` is:
/// 10,000 points in ten equal-volume 3-d boxes, 50 points isolated by
/// 0.06, and 1% uniform noise, most of it DB(3, 0.05)-outlying. The box
/// layout is drawn per seed.
fn recall_workload(seed: u64) -> dbs_core::Dataset {
    let background = RectConfig {
        total_points: 10_000,
        volume_range: (0.0165, 0.0165),
        ..RectConfig::paper_standard(3, seed)
    };
    let planted = planted_outliers(&background, 50, 0.06, seed).unwrap();
    dbs_synth::noise::with_noise_fraction(planted.synth, 0.01, seed ^ 0x5eed).data
}

#[test]
fn many_seed_recall_gate() {
    // kde:1000, radius 0.05, p 3 and the default slack 3, as `dbs
    // outliers` runs them, over 20 seeds per metric. Each floor is the
    // pooled recall the 64-sample Monte-Carlo ball integral reached on
    // these inputs (L2 2561/2571 = 0.9961, L1 13962/13976 = 0.9990, L∞
    // 2313/2338 = 0.9893), less 0.001 for that estimate's sampling noise,
    // which kept some outliers whose closed-form integral exceeds the
    // threshold (and dropped others). The closed form recalls 2563, 13961
    // and 2312.
    let params = DbOutlierParams::new(0.05, 3).unwrap();
    let floors = [
        (Metric::Euclidean, 0.9951),
        (Metric::Manhattan, 0.9980),
        (Metric::Chebyshev, 0.9883),
    ];
    for (metric, floor) in floors {
        let (mut found, mut exact_total, mut candidates) = (0usize, 0usize, 0usize);
        for seed in 0..20 {
            let data = recall_workload(seed);
            let kde_cfg = KdeConfig {
                num_centers: 1000,
                domain: Some(BoundingBox::unit(3)),
                seed,
                ..Default::default()
            };
            let est = KernelDensityEstimator::fit_dataset(&data, &kde_cfg).unwrap();
            let cfg = ApproxConfig {
                metric,
                ..ApproxConfig::new(params)
            };
            let report = approx_outliers(&data, &est, &cfg).unwrap();
            let exact = nested_loop_outliers(&data, &params, metric);
            for o in &report.outliers {
                assert!(
                    exact.binary_search(o).is_ok(),
                    "{metric:?}, seed {seed}: {o} is not an exact outlier"
                );
            }
            found += report.outliers.len();
            exact_total += exact.len();
            candidates += report.candidates;
        }
        let recall = found as f64 / exact_total as f64;
        eprintln!("{metric:?}: pooled recall {found}/{exact_total} = {recall:.4}, {candidates} candidates");
        assert!(
            recall >= floor,
            "{metric:?}: pooled recall {recall} < {floor}"
        );
    }
}
