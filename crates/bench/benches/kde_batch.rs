//! Single-thread throughput of the cache-blocked batch KDE engine
//! (`dbs_density::batch`) against per-point scalar evaluation, at the
//! paper's 1000-center estimator over 100k- and 1M-point workloads in
//! dimensions 2, 3, and 5.
//!
//! The two paths are bit-identical (`tests/batch_parity.rs`), so any gap
//! is pure engine throughput. Thread scaling of the whole pipeline is
//! measured end to end by the benchmark's `cli.parallel_efficiency`, not
//! here.

use std::num::NonZeroUsize;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbs_bench::{bench_kde, bench_workload_dim};
use dbs_density::{batch_densities, DensityEstimator};

fn kde_batch(c: &mut Criterion) {
    for &dim in &[2usize, 3, 5] {
        for &n in &[100_000usize, 1_000_000] {
            let synth = bench_workload_dim(n, dim, 11);
            let est = bench_kde(&synth.data, 1000, 2);

            let mut group = c.benchmark_group(format!("kde_batch_d{}_{}k", dim, n / 1000));
            group.sample_size(10);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new("scalar", 1), &n, |bench, _| {
                bench.iter(|| {
                    let mut acc = 0.0f64;
                    for x in synth.data.iter() {
                        acc += est.density(x);
                    }
                    acc
                });
            });
            group.bench_with_input(BenchmarkId::new("batch", 1), &n, |bench, _| {
                bench.iter(|| {
                    batch_densities(&est, &synth.data, NonZeroUsize::MIN)
                        .expect("in-memory batch eval")
                });
            });
            group.finish();
        }
    }
}

criterion_group!(benches, kde_batch);
criterion_main!(benches);
