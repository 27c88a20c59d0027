//! Streaming sketch service bench: fit throughput, merge cost, and the
//! ≥1M-point bounded-memory sample-quality proof against the exact grid.
//!
//! Three measurements, written as JSON lines to `CRITERION_JSON` (if set):
//!
//! 1. **Streaming proof** — 1.265M points (4-d, 10 Gaussian clusters with
//!    a 10× size spread) generated straight to shards and never
//!    materialized; a Count-Min density sketch is fitted in one pass and a
//!    density-biased sample drawn off it in one more pass. Peak RSS must
//!    stay below the raw dataset size (the point of sketching), and the
//!    sample quality must match the exact (collision-free) averaged grid
//!    with the same seed, ensemble size, and resolution — the gap is pure
//!    Count-Min hashing error: per-cluster sample allocation within 0.05
//!    total variation, expected sample size within 10 % of the target,
//!    and the two one-pass normalizers within 30 % of each other. A
//!    single sharp histogram is also recorded (0.15 TV bound; its gap
//!    includes the ensemble's deliberate smoothing). Bounds are restated
//!    in EXPERIMENTS.md.
//! 2. **Fit throughput** — one-pass sketch ingest vs the hashed-grid
//!    estimator (its closest non-mergeable cousin) at 100k points.
//! 3. **Merge cost** — folding one 4×65536 sketch into another: the price
//!    of combining per-shard or per-site summaries.

use std::num::NonZeroUsize;
use std::time::Instant;

use dbs_bench::{bench_workload_dim, emit, median_ns, rss, tmp_dir};
use dbs_core::shard::ShardedSource;
use dbs_core::{BoundingBox, WeightedSample};
use dbs_density::{DensitySketch, ShiftedGrids, SketchConfig};
use dbs_sampling::{one_pass_biased_sample, BiasedConfig};
use dbs_synth::gauss::{generate_to_shards, GaussCluster};

const SEED: u64 = 42;
const DIM: usize = 4;
const CLUSTERS: usize = 10;
const SIGMA: f64 = 0.03;

fn emit_throughput(id: &str, ns: u128, samples: usize, elements: usize) {
    let per_second = elements as f64 / (ns as f64 / 1e9);
    emit(&format!(
        "{{\"id\":\"{id}\",\"median_ns\":{ns},\"samples\":{samples},\
         \"throughput\":{{\"per_iter\":{elements},\"kind\":\"elements\",\
         \"per_second\":{per_second}}}}}"
    ));
}

/// The proof mixture: `CLUSTERS` diagonal components whose sizes span a
/// 10× range, so the biased sampler has a real allocation to get right.
fn proof_clusters() -> Vec<GaussCluster> {
    (0..CLUSTERS)
        .map(|c| GaussCluster {
            center: vec![(c as f64 + 0.5) / CLUSTERS as f64; DIM],
            sigma: SIGMA,
            size: (c + 1) * 23_000,
        })
        .collect()
}

/// Per-cluster share of the sample, by nearest diagonal center.
fn allocation(sample: &WeightedSample) -> Vec<f64> {
    let mut counts = [0usize; CLUSTERS];
    for p in sample.points() {
        let mean = p.iter().sum::<f64>() / p.len() as f64;
        let c = ((mean * CLUSTERS as f64) as usize).min(CLUSTERS - 1);
        counts[c] += 1;
    }
    let total = sample.len().max(1) as f64;
    counts.iter().map(|&c| c as f64 / total).collect()
}

/// Measurement 1: the streamed end-to-end run. Must execute before
/// anything materializes a dataset (peak RSS is a process-lifetime
/// maximum).
fn streaming_proof() {
    let clusters = proof_clusters();
    let n: usize = clusters.iter().map(|c| c.size).sum();
    assert!(n >= 1_000_000, "proof source must be >= 1M points, got {n}");
    let dir = tmp_dir("dbs_stream_sketch", "proof");
    let t0 = Instant::now();
    let written = generate_to_shards(&clusters, SEED, &dir).expect("generate");
    let gen_ns = t0.elapsed().as_nanos();
    assert_eq!(written as usize, n);
    let raw_bytes = written * DIM as u64 * 8;

    let one = NonZeroUsize::MIN;
    let sharded = ShardedSource::open(&dir).expect("open");
    let cfg = SketchConfig {
        domain: Some(BoundingBox::unit(DIM)),
        seed: SEED,
        ..SketchConfig::default()
    };
    let t1 = Instant::now();
    let sketch = DensitySketch::new(DIM, &cfg)
        .and_then(|s| s.fit(&sharded, one))
        .expect("sketch fit");
    let fit_ns = t1.elapsed().as_nanos();
    emit(&format!(
        "{{\"id\":\"stream_sketch/fit_streamed/{n}\",\"points\":{n},\"dim\":{DIM},\
         \"grids\":{},\"slots\":{},\"median_ns\":{fit_ns},\"samples\":1,\
         \"sketch_bytes\":{},\"throughput\":{{\"per_iter\":{n},\"kind\":\"elements\",\
         \"per_second\":{}}}}}",
        sketch.grids(),
        cfg.slots,
        sketch.memory_bytes(),
        n as f64 / (fit_ns as f64 / 1e9)
    ));

    let bcfg = BiasedConfig::new(n / 100, 1.0)
        .with_seed(SEED)
        .with_parallelism(one);
    let t2 = Instant::now();
    let (sk_sample, sk_stats) =
        one_pass_biased_sample(&sharded, &sketch, &bcfg).expect("sketch sample");
    let sample_ns = t2.elapsed().as_nanos();

    // RSS snapshot before the exact-grid comparator runs (the grid is
    // small too, but the claim under test is the sketch pipeline's).
    let peak = rss::peak_bytes();
    let rss_fraction = peak as f64 / raw_bytes as f64;

    // The exact comparator: the collision-free averaged grid with the same
    // seed, ensemble size, and resolution — its shift offsets are the very
    // same `keyed_unit(seed, g·dim+j)` draws, so the only difference from
    // the sketch is the Count-Min hashing of cells into slots. The gap
    // between the two samples IS the hashing error.
    let exact = ShiftedGrids::agrid(
        BoundingBox::unit(DIM),
        cfg.grids,
        Some(sketch.resolution()),
        SEED,
    )
    .and_then(|e| e.fit(&sharded, one))
    .expect("exact grid fit");
    let (ex_sample, ex_stats) =
        one_pass_biased_sample(&sharded, &exact, &bcfg).expect("exact grid sample");

    // Context row: a single sharp res^d histogram. Its gap from the sketch
    // is dominated by the ensemble's deliberate smoothing, not by hashing,
    // so it is recorded but held to a looser bound.
    let dense = ShiftedGrids::grid(BoundingBox::unit(DIM), 16)
        .and_then(|e| e.fit(&sharded, one))
        .expect("dense grid fit");
    let (dg_sample, _) = one_pass_biased_sample(&sharded, &dense, &bcfg).expect("dense sample");

    let sk_alloc = allocation(&sk_sample);
    let tv = |other: &WeightedSample| -> f64 {
        sk_alloc
            .iter()
            .zip(&allocation(other))
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0
    };
    let tv_exact = tv(&ex_sample);
    let tv_dense = tv(&dg_sample);
    // Expected-size error against the requested target. (Each estimator's
    // sample size deviates from the target by its own one-pass normalizer
    // approximation, so size-vs-target is the per-estimator quality
    // number; size-vs-comparator would mix in the comparator's error.)
    let target = bcfg.target_size as f64;
    let size_rel = (sk_sample.len() as f64 - target).abs() / target;
    let norm_rel = (sk_stats.normalizer_k - ex_stats.normalizer_k).abs() / ex_stats.normalizer_k;

    emit(&format!(
        "{{\"id\":\"stream_sketch/quality_vs_exact_grid/{n}\",\"points\":{n},\"dim\":{DIM},\
         \"generate_ns\":{gen_ns},\"sample_ns\":{sample_ns},\"raw_bytes\":{raw_bytes},\
         \"peak_rss_bytes\":{peak},\"rss_fraction\":{rss_fraction:.4},\
         \"target_size\":{},\"sketch_sample\":{},\"exact_grid_sample\":{},\
         \"dense_grid_sample\":{},\"allocation_tv_vs_exact\":{tv_exact:.4},\
         \"allocation_tv_vs_dense\":{tv_dense:.4},\"size_rel_err_vs_target\":{size_rel:.4},\
         \"normalizer_rel_err\":{norm_rel:.4}}}",
        bcfg.target_size,
        sk_sample.len(),
        ex_sample.len(),
        dg_sample.len(),
    ));

    // The stated bounds (EXPERIMENTS.md): never materialized; allocation
    // within 0.05 TV of the exact (unhashed) grid ensemble and 0.15 TV of
    // the sharp histogram (smoothing included); expected sample size
    // within 10 % of the target; one-pass normalizers within 30 % of each
    // other.
    assert!(
        rss_fraction < 1.0,
        "peak RSS {peak} exceeds raw dataset {raw_bytes}: not streaming"
    );
    assert!(tv_exact <= 0.05, "TV {tv_exact:.4} vs exact grid too large");
    assert!(tv_dense <= 0.15, "TV {tv_dense:.4} vs dense grid too large");
    assert!(size_rel <= 0.10, "sample size off target by {size_rel:.4}");
    assert!(norm_rel <= 0.30, "normalizer off by {norm_rel:.4}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Measurement 2: one-pass fit throughput, sketch vs hashed grid, 100k
/// points in memory.
fn fit_throughput() {
    let synth = bench_workload_dim(100_000, DIM, 11);
    let n = synth.data.len();
    let cfg = SketchConfig {
        domain: Some(BoundingBox::unit(DIM)),
        seed: SEED,
        ..SketchConfig::default()
    };
    let ns = median_ns(10, || {
        DensitySketch::new(DIM, &cfg)
            .and_then(|s| s.fit(&synth.data, NonZeroUsize::MIN))
            .expect("sketch fits");
    });
    emit_throughput("stream_sketch_fit_d4_100k/sketch/1", ns, 10, n);
    let ns = median_ns(10, || {
        ShiftedGrids::hashgrid(BoundingBox::unit(DIM), 32, 1 << 16)
            .and_then(|e| e.fit(&synth.data, NonZeroUsize::MIN))
            .expect("hash grid fits");
    });
    emit_throughput("stream_sketch_fit_d4_100k/hashgrid/1", ns, 10, n);
}

/// Measurement 3: merge cost of two default-size (4×65536) sketches.
fn merge_cost() {
    let synth = bench_workload_dim(100_000, DIM, 11);
    let cfg = SketchConfig {
        domain: Some(BoundingBox::unit(DIM)),
        seed: SEED,
        ..SketchConfig::default()
    };
    let half: Vec<usize> = (0..synth.data.len() / 2).collect();
    let piece = DensitySketch::new(DIM, &cfg)
        .and_then(|s| s.fit(&synth.data.select(&half), NonZeroUsize::MIN))
        .expect("piece fits");
    let mut acc = DensitySketch::new(DIM, &cfg).expect("empty sketch");
    let counters = piece.counters().len();
    let ns = median_ns(100, || {
        acc.merge(&piece).expect("merge");
    });
    emit_throughput("stream_sketch_merge/4x65536/1", ns, 100, counters);
}

fn main() {
    streaming_proof();
    fit_throughput();
    merge_cost();
}
