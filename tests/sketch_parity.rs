//! The streaming sketch determinism contract: a Count-Min density sketch
//! built incrementally in one sequential pass, built by the per-worker
//! parallel fit at any thread count, or assembled by merging
//! per-piece sketches in any order over any storage backing, is the SAME
//! sketch — bit for bit, counters and all. Counter addition is commutative
//! and associative, so the proof obligation is that every ingest route
//! really reduces to the same multiset of counter increments.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dbs_core::par::CHUNK_POINTS;
use dbs_core::shard::{write_shards_with, ShardedSource};
use dbs_core::{Dataset, PointSource};
use dbs_density::{DensityEstimator, DensitySketch, SketchConfig};
use dbs_integration_tests::clustered;
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dbs_sketch_parity_{}_{}_{}",
        std::process::id(),
        name,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn threads(t: usize) -> NonZeroUsize {
    NonZeroUsize::new(t).unwrap()
}

/// One sequential pass of `source` into an empty sketch, point by point.
fn fit<S: PointSource + ?Sized>(source: &S, cfg: &SketchConfig) -> DensitySketch {
    let mut sketch = DensitySketch::new(source.dim(), cfg).unwrap();
    source.scan(&mut |_, p| sketch.update(p).unwrap()).unwrap();
    sketch
}

/// The per-worker parallel fit of `source` on `t` workers.
fn par_fit<S: PointSource + ?Sized>(source: &S, cfg: &SketchConfig, t: usize) -> DensitySketch {
    DensitySketch::new(source.dim(), cfg)
        .unwrap()
        .fit(source, threads(t))
        .unwrap()
}

/// Splits `ds` at `bounds` and fits one sketch per piece.
fn piece_sketches(ds: &Dataset, bounds: &[usize], cfg: &SketchConfig) -> Vec<DensitySketch> {
    bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| {
            let idx: Vec<usize> = (w[0]..w[1]).collect();
            fit(&ds.select(&idx), cfg)
        })
        .collect()
}

#[test]
fn parallel_fit_over_shards_matches_sequential_at_thread_counts() {
    // A multi-shard, multi-chunk source: each worker folds the 4096-point
    // chunks it grabs into its own table, and the shard engine adds its own
    // file boundaries. The sketch must not care.
    let ds = clustered(10_000, 3, 42).data;
    let cfg = SketchConfig::new(4, 1 << 12);
    let whole = fit(&ds, &cfg);

    let dir = tmp_dir("shards");
    write_shards_with(&dir, &ds, 7, CHUNK_POINTS).unwrap();
    let sharded = ShardedSource::open(&dir).unwrap();
    assert_eq!(fit(&sharded, &cfg), whole);

    for t in [1usize, 2, 7] {
        let par = par_fit(&sharded, &cfg, t);
        assert_eq!(par, whole, "threads {t} diverged from sequential fit");
        assert_eq!(par.points_ingested(), 10_000);
        assert_eq!(par_fit(&ds, &cfg, t), whole, "threads {t}, memory");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_order_does_not_matter_for_merging() {
    // Per-shard sketches merged forward, reversed, and odd-even
    // interleaved all equal the single-pass sketch: the merge really is
    // commutative and associative, not just "deterministic in chunk
    // order".
    let ds = clustered(9_000, 2, 5).data;
    let cfg = SketchConfig::new(3, 1 << 10);
    let whole = fit(&ds, &cfg);
    let bounds = [0usize, 2048, 4096, 6144, 8192, 9000];
    let pieces = piece_sketches(&ds, &bounds, &cfg);
    let n = pieces.len();
    let orders: Vec<Vec<usize>> = vec![
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..n).step_by(2).chain((1..n).step_by(2)).collect(),
    ];
    for order in orders {
        let mut merged = DensitySketch::new(2, &cfg).unwrap();
        for &i in &order {
            merged.merge(&pieces[i]).unwrap();
        }
        assert_eq!(merged, whole, "merge order {order:?} diverged");
    }
}

#[test]
fn merged_sketch_is_the_same_estimator() {
    // Equality of the struct implies equality of every density the trait
    // serves; spot-check that the query path agrees bit for bit anyway.
    let ds = clustered(6_000, 2, 11).data;
    let cfg = SketchConfig::default();
    let whole = fit(&ds, &cfg);
    let pieces = piece_sketches(&ds, &[0, 1000, 6000], &cfg);
    let mut merged = DensitySketch::new(2, &cfg).unwrap();
    for p in &pieces {
        merged.merge(p).unwrap();
    }
    for i in 0..50 {
        let x = [0.013 * i as f64, 1.0 - 0.019 * i as f64];
        assert_eq!(whole.density(&x).to_bits(), merged.density(&x).to_bits());
    }
    assert_eq!(
        whole.summary_normalizer(1.0, 1e-9).unwrap().to_bits(),
        merged.summary_normalizer(1.0, 1e-9).unwrap().to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary unit-cube datasets, configs, split points, and thread
    /// counts: piecewise-merged sketches (both merge orders) and the
    /// parallel fit are bit-identical to the sequential single-pass fit.
    #[test]
    fn chunked_merge_is_bit_identical(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 2..=2),
            32..3000,
        ),
        t in 1usize..8,
        raw_cuts in prop::collection::vec(0usize..3000, 0..4),
        seed in 0u64..64,
    ) {
        let ds = Dataset::from_rows(&rows).unwrap();
        let cfg = SketchConfig {
            grids: 3,
            slots: 512,
            resolution: None,
            domain: None,
            seed,
        };
        let whole = fit(&ds, &cfg);

        let mut bounds: Vec<usize> = raw_cuts.iter().map(|c| c % rows.len()).collect();
        bounds.push(0);
        bounds.push(rows.len());
        bounds.sort_unstable();
        bounds.dedup();
        let pieces = piece_sketches(&ds, &bounds, &cfg);
        for forward in [true, false] {
            let order: Vec<usize> = if forward {
                (0..pieces.len()).collect()
            } else {
                (0..pieces.len()).rev().collect()
            };
            let mut merged = DensitySketch::new(2, &cfg).unwrap();
            for &i in &order {
                merged.merge(&pieces[i]).unwrap();
            }
            prop_assert_eq!(&merged, &whole);
        }

        prop_assert_eq!(&par_fit(&ds, &cfg, t), &whole);
    }
}
