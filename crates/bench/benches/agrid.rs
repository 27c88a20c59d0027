//! Fit and batch-query throughput of the averaged-grid estimator against
//! the KDE and hashed-grid backends, at d ∈ {2, 3, 5} over 100k- and
//! 1M-point workloads.
//!
//! The acceptance target for `BENCH_agrid.json`: at d = 5 / 100k points the
//! `agrid_query_d5_100k/agrid` batch evaluation is ≥ 5× faster than
//! `agrid_query_d5_100k/kde` from the same run (same machine, same
//! workload, seed 11 as in `kde_batch.rs`). KDE rows are measured at 100k
//! only — its batch query at 1M takes minutes per iteration and adds
//! nothing to the A/B.

use std::num::NonZeroUsize;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbs_bench::{bench_kde, bench_workload_dim};
use dbs_core::BoundingBox;
use dbs_density::{batch_densities, ShiftedGrids};

fn agrid(c: &mut Criterion) {
    let one = NonZeroUsize::MIN;
    for &dim in &[2usize, 3, 5] {
        for &n in &[100_000usize, 1_000_000] {
            let synth = bench_workload_dim(n, dim, 11);
            let with_kde = n == 100_000;

            let mut group = c.benchmark_group(format!("agrid_fit_d{}_{}k", dim, n / 1000));
            group.sample_size(10);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new("agrid", 1), &n, |bench, _| {
                bench.iter(|| {
                    ShiftedGrids::agrid(BoundingBox::unit(dim), 8, None, 0)
                        .and_then(|e| e.fit(&synth.data, one))
                        .expect("agrid fits")
                });
            });
            group.bench_with_input(BenchmarkId::new("hashgrid", 1), &n, |bench, _| {
                bench.iter(|| {
                    ShiftedGrids::hashgrid(BoundingBox::unit(dim), 32, 1 << 16)
                        .and_then(|e| e.fit(&synth.data, one))
                        .expect("hash grid fits")
                });
            });
            if with_kde {
                group.bench_with_input(BenchmarkId::new("kde", 1), &n, |bench, _| {
                    bench.iter(|| bench_kde(&synth.data, 1000, 2));
                });
            }
            group.finish();

            let ag = ShiftedGrids::agrid(BoundingBox::unit(dim), 8, None, 0)
                .and_then(|e| e.fit(&synth.data, one))
                .unwrap();
            let hg = ShiftedGrids::hashgrid(BoundingBox::unit(dim), 32, 1 << 16)
                .and_then(|e| e.fit(&synth.data, one))
                .unwrap();

            let mut group = c.benchmark_group(format!("agrid_query_d{}_{}k", dim, n / 1000));
            group.sample_size(10);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new("agrid", 1), &n, |bench, _| {
                bench.iter(|| batch_densities(&ag, &synth.data, one).expect("batch eval"));
            });
            group.bench_with_input(BenchmarkId::new("hashgrid", 1), &n, |bench, _| {
                bench.iter(|| batch_densities(&hg, &synth.data, one).expect("batch eval"));
            });
            if with_kde {
                let kde = bench_kde(&synth.data, 1000, 2);
                group.bench_with_input(BenchmarkId::new("kde", 1), &n, |bench, _| {
                    bench.iter(|| batch_densities(&kde, &synth.data, one).expect("batch eval"));
                });
            }
            group.finish();
        }
    }
}

criterion_group!(benches, agrid);
criterion_main!(benches);
