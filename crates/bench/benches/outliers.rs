//! §4.5 outlier detection: the density-pruned detector against the exact
//! nested-loop and cell-based baselines on the same planted workload.

use criterion::{criterion_group, criterion_main, Criterion};
use dbs_bench::bench_kde;
use dbs_core::{BoundingBox, Metric};
use dbs_outlier::{
    approx_outliers, cell_based_outliers, estimate_outlier_count, nested_loop_outliers,
    ApproxConfig, DbOutlierParams,
};
use dbs_synth::outliers::planted_outliers;
use dbs_synth::rect::RectConfig;

fn outliers(c: &mut Criterion) {
    let background = RectConfig {
        total_points: 10_000,
        ..RectConfig::paper_standard(2, 15)
    };
    let planted = planted_outliers(&background, 8, 0.12, 16).unwrap();
    let data = planted.synth.data;
    let params = DbOutlierParams::new(0.03, 3).unwrap();
    let est = bench_kde(&data, 500, 17);

    let mut group = c.benchmark_group("outliers");
    group.sample_size(10);
    group.bench_function("approx_density_pruned", |bench| {
        bench.iter(|| approx_outliers(&data, &est, &ApproxConfig::new(params)).unwrap());
    });
    group.bench_function("exact_nested_loop", |bench| {
        bench.iter(|| nested_loop_outliers(&data, &params, Metric::Euclidean));
    });
    group.bench_function("exact_cell_based", |bench| {
        bench.iter(|| cell_based_outliers(&data, &params, &BoundingBox::unit(2)));
    });
    group.bench_function("one_pass_count_estimate", |bench| {
        bench.iter(|| {
            estimate_outlier_count(&data, &est, &params, 64, 18, dbs_core::par::serial()).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, outliers);
criterion_main!(benches);
