//! Ablation benches for the design choices DESIGN.md calls out:
//! kernel function, bandwidth rule, estimator backend, and the one-pass
//! vs two-pass sampling variants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbs_bench::bench_workload;
use dbs_core::BoundingBox;
use dbs_density::{
    Bandwidth, DensityEstimator, KdeConfig, Kernel, KernelDensityEstimator, ShiftedGrids,
};
use dbs_sampling::{density_biased_sample, BiasedConfig};

fn kernel_ablation(c: &mut Criterion) {
    let synth = bench_workload(20_000, 19);
    let mut group = c.benchmark_group("ablation_kernel");
    group.sample_size(10);
    for kernel in [
        Kernel::Epanechnikov,
        Kernel::Gaussian,
        Kernel::Biweight,
        Kernel::Uniform,
    ] {
        let cfg = KdeConfig {
            num_centers: 500,
            kernel,
            domain: Some(BoundingBox::unit(2)),
            seed: 20,
            ..Default::default()
        };
        let est = KernelDensityEstimator::fit_dataset(&synth.data, &cfg).unwrap();
        group.bench_function(BenchmarkId::new("evaluate_5k", kernel.name()), |bench| {
            bench.iter(|| {
                let mut acc = 0.0;
                for p in synth.data.iter().take(5_000) {
                    acc += est.density(p);
                }
                acc
            });
        });
    }
    group.finish();
}

fn bandwidth_ablation(c: &mut Criterion) {
    let synth = bench_workload(20_000, 21);
    let mut group = c.benchmark_group("ablation_bandwidth");
    group.sample_size(10);
    for (name, bw) in [
        ("scott", Bandwidth::Scott),
        ("silverman", Bandwidth::Silverman),
        ("fixed", Bandwidth::Fixed(0.05)),
    ] {
        group.bench_function(BenchmarkId::new("fit", name), |bench| {
            bench.iter(|| {
                let cfg = KdeConfig {
                    num_centers: 500,
                    bandwidth: bw.clone(),
                    domain: Some(BoundingBox::unit(2)),
                    seed: 22,
                    ..Default::default()
                };
                KernelDensityEstimator::fit_dataset(&synth.data, &cfg).unwrap()
            });
        });
    }
    group.finish();
}

fn backend_ablation(c: &mut Criterion) {
    let synth = bench_workload(20_000, 23);
    let domain = BoundingBox::unit(2);
    let kde = {
        let cfg = KdeConfig {
            num_centers: 500,
            domain: Some(domain.clone()),
            seed: 24,
            ..Default::default()
        };
        KernelDensityEstimator::fit_dataset(&synth.data, &cfg).unwrap()
    };
    let grid = ShiftedGrids::grid(domain.clone(), 32)
        .and_then(|e| e.fit(&synth.data))
        .unwrap();
    let hash = ShiftedGrids::hashgrid(domain, 32, 4096)
        .and_then(|e| e.fit(&synth.data))
        .unwrap();

    let mut group = c.benchmark_group("ablation_estimator_backend");
    group.sample_size(10);
    let run = |est: &(dyn DensityEstimator + Sync)| {
        density_biased_sample(&synth.data, est, &BiasedConfig::new(400, 1.0)).unwrap()
    };
    group.bench_function("sample_via_kde", |bench| bench.iter(|| run(&kde)));
    group.bench_function("sample_via_grid", |bench| bench.iter(|| run(&grid)));
    group.bench_function("sample_via_hashgrid", |bench| bench.iter(|| run(&hash)));
    group.finish();
}

criterion_group!(
    benches,
    kernel_ablation,
    bandwidth_ablation,
    backend_ablation
);
criterion_main!(benches);
