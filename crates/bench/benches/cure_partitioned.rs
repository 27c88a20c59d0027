//! End-to-end scaling of the partitioned / sample-fed CURE paths
//! (`dbs_cluster::partitioned`) against the single-phase quadratic loop,
//! at 50k, 250k, and 1M points on the Figure 2 workload.
//!
//! Three modes per size:
//!
//! * **full** — single-phase heap-accelerated CURE (50k only: this is the
//!   quadratic wall, ~41 s per run; the 50k baseline is recorded here so
//!   BENCH_cure_partitioned.json is self-contained);
//! * **partitioned** — `p` pre-clustered partitions (every `p`-th point,
//!   ~3.8k–4.1k points each at these sizes), each reduced by `q` before
//!   the final merge;
//! * **sample_fed** — the paper's pipeline end to end: averaged-grid
//!   estimator fit, density-biased draw (`a = 1`), CURE over the sample,
//!   and full-dataset label map-back.
//!
//! Acceptance: 1M points completing end to end, and ≥10x over the 50k
//! full baseline for the scalable modes (the quality side is covered by
//! the `scalable` experiment's found-cluster table).

use std::num::NonZeroUsize;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbs_bench::bench_workload;
use dbs_cluster::{
    partitioned_cluster, sample_fed_cluster, sample_target_size, HierarchicalConfig,
};
use dbs_core::BoundingBox;
use dbs_density::EstimatorSpec;
use dbs_sampling::{density_biased_sample, BiasedConfig};

fn one() -> NonZeroUsize {
    NonZeroUsize::new(1).expect("positive")
}

fn cure_partitioned(c: &mut Criterion) {
    // (points, partitions, pre-cluster factor, sample fraction)
    let cases = [
        (50_000usize, 13usize, 20usize, 0.1f64),
        (250_000, 62, 20, 0.04),
        (1_000_000, 245, 50, 0.02),
    ];
    for &(n, p, q, frac) in &cases {
        let synth = bench_workload(n, 11);
        let mut group = c.benchmark_group(format!("cure_part_{}k", n / 1000));
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(2);
        if n == 50_000 {
            let full = HierarchicalConfig::paper_defaults(10).with_parallelism(one());
            group.bench_with_input(BenchmarkId::new("full", 1), &n, |b, _| {
                b.iter(|| partitioned_cluster(&synth.data, &full).expect("clusters"));
            });
        }
        let part = HierarchicalConfig::paper_defaults(10)
            .with_parallelism(one())
            .with_partitions(p)
            .with_pre_cluster_factor(q);
        group.bench_with_input(BenchmarkId::new("partitioned", 1), &n, |b, _| {
            b.iter(|| partitioned_cluster(&synth.data, &part).expect("clusters"));
        });
        let fed = HierarchicalConfig::paper_defaults(10).with_parallelism(one());
        let target = sample_target_size(n, frac).expect("valid frac");
        group.bench_with_input(BenchmarkId::new("sample_fed", 1), &n, |b, _| {
            b.iter(|| {
                let est = EstimatorSpec::parse("agrid:8")
                    .expect("valid spec")
                    .with_seed(7)
                    .with_domain(BoundingBox::unit(synth.data.dim()))
                    .fit(&synth.data)
                    .expect("fits");
                let (s, _) = density_biased_sample(
                    &synth.data,
                    &*est,
                    &BiasedConfig::new(target, 1.0).with_seed(13),
                )
                .expect("samples");
                sample_fed_cluster(&synth.data, s.points(), &fed).expect("clusters")
            });
        });
        group.finish();
    }
}

criterion_group!(benches, cure_partitioned);
criterion_main!(benches);
