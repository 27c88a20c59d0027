//! Merge-loop scaling of the CURE-style hierarchical clusterer: the
//! heap + rep-index core (`partitioned_cluster` at `p = 1`) against the
//! retained quadratic reference loop (`hierarchical_cluster_reference`) at
//! the paper's Figure 2 sample sizes.
//!
//! The two cores are bit-identical (`tests/hierarchical_parity.rs`), so
//! any gap is pure merge-loop mechanics: lazy-deletion heap pops versus
//! per-merge linear scans, rep-index nearest-cluster queries versus full
//! `recompute_closest` rescans, and the bbox-pruned broadcast versus the
//! unconditional one. The acceptance target is a ≥3× speedup at 10k
//! sample points in 2-d, recorded in `BENCH_cure_scaling.json`.
//!
//! The reference loop is quadratic with a large constant: at 50k points a
//! single run takes tens of minutes, so by default the reference is
//! benchmarked at 2k and 10k only. Set `CURE_SCALING_FULL_REF=1` to also
//! run it at 50k (as done for the recorded JSON).

use std::num::NonZeroUsize;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbs_bench::bench_workload;
use dbs_cluster::{hierarchical_cluster_reference, partitioned_cluster, HierarchicalConfig};

fn cure_scaling(c: &mut Criterion) {
    let full_ref = std::env::var("CURE_SCALING_FULL_REF").is_ok_and(|v| v == "1");
    for &n in &[2_000usize, 10_000, 50_000] {
        let synth = bench_workload(n, 11);
        let config = HierarchicalConfig::paper_defaults(10)
            .with_parallelism(NonZeroUsize::new(1).expect("positive"));

        let mut group = c.benchmark_group(format!("cure_scaling_{}k", n / 1000));
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(if n >= 50_000 { 2 } else { 10 });
        group.bench_with_input(BenchmarkId::new("accelerated", 1), &n, |bench, _| {
            bench.iter(|| partitioned_cluster(&synth.data, &config).expect("clusters"));
        });
        if n < 50_000 || full_ref {
            group.sample_size(2);
            group.bench_with_input(BenchmarkId::new("reference", 1), &n, |bench, _| {
                bench.iter(|| {
                    hierarchical_cluster_reference(&synth.data, &config).expect("clusters")
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, cure_scaling);
criterion_main!(benches);
