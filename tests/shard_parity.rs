//! The storage-engine determinism contract: every pipeline stage —
//! density batches, biased sampling, outlier detection, sample-fed
//! clustering — produces byte-identical results whether the dataset lives
//! in memory, in a single `DBS1` binary file, or in a multi-shard
//! directory, at every thread count. Plus the shard format's error paths:
//! corrupt headers, truncated files, and cross-shard dim mismatches must
//! fail loudly at open time, never silently misread.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dbs_cluster::{sample_fed_cluster, HierarchicalConfig};
use dbs_core::io::{write_binary, FileSource};
use dbs_core::obs::{Counter, Recorder};
use dbs_core::par::CHUNK_POINTS;
use dbs_core::shard::{write_shards_with, ShardedSource};
use dbs_core::{BoundingBox, Dataset, PointSource};
use dbs_density::{batch_densities, DensityEstimator, EstimatorSpec};
use dbs_integration_tests::{clustered, clustered_noisy, uniform_cube};
use dbs_outlier::{approx_outliers, ApproxConfig, DbOutlierParams};
use dbs_sampling::{density_biased_sample, BiasedConfig};
use proptest::prelude::*;

/// One cluster's comparable state: (members, mean bits, representative bits).
type ClusterBits = (Vec<usize>, Vec<u64>, Vec<Vec<u64>>);

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dbs_shard_parity_{}_{}_{}",
        std::process::id(),
        name,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn tmp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "dbs_shard_parity_{}_{}_{}.dbs1",
        std::process::id(),
        name,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// The three storage backings of one dataset; shards are one chunk each so
/// a ~10k-point fixture spans several shard files and chunk boundaries.
struct Backings {
    mem: Dataset,
    bin: PathBuf,
    dir: PathBuf,
}

impl Backings {
    fn new(data: Dataset, name: &str) -> Self {
        let bin = tmp_file(name);
        write_binary(&bin, &data).unwrap();
        let dir = tmp_dir(name);
        write_shards_with(&dir, &data, 7, CHUNK_POINTS).unwrap();
        Backings {
            mem: data,
            bin,
            dir,
        }
    }

    /// Runs `f` once per backing and asserts all three results are equal.
    fn assert_invariant<T, F>(&self, what: &str, f: F) -> T
    where
        T: PartialEq + std::fmt::Debug,
        F: Fn(&(dyn PointSource + Sync)) -> T,
    {
        let from_mem = f(&self.mem);
        let file = FileSource::open(&self.bin).unwrap();
        assert_eq!(f(&file), from_mem, "{what}: file backing diverged");
        let sharded = ShardedSource::open(&self.dir).unwrap();
        assert_eq!(f(&sharded), from_mem, "{what}: shards diverged");
        from_mem
    }
}

impl Drop for Backings {
    fn drop(&mut self) {
        std::fs::remove_file(&self.bin).ok();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn fit(spec: &str, source: &(dyn PointSource + Sync)) -> Box<dyn DensityEstimator + Sync> {
    EstimatorSpec::parse(spec)
        .unwrap()
        .with_seed(11)
        .with_domain(BoundingBox::unit(source.dim()))
        .fit(source)
        .unwrap()
}

fn threads(t: usize) -> NonZeroUsize {
    NonZeroUsize::new(t).unwrap()
}

#[test]
fn density_batches_are_backing_invariant() {
    let synth = clustered(10_000, 2, 21);
    let backings = Backings::new(synth.data, "density");
    for spec in ["kde:100", "agrid:2:8"] {
        for t in [1usize, 2, 7] {
            backings.assert_invariant(&format!("{spec} t={t}"), |source| {
                let est = fit(spec, source);
                batch_densities(&*est, source, threads(t))
                    .unwrap()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<u64>>()
            });
        }
    }
}

#[test]
fn biased_sampling_is_backing_invariant() {
    let synth = clustered(10_000, 2, 22);
    let backings = Backings::new(synth.data, "sample");
    for t in [1usize, 2, 7] {
        backings.assert_invariant(&format!("sample t={t}"), |source| {
            let est = fit("kde:100", source);
            let cfg = BiasedConfig::new(500, 1.0)
                .with_seed(23)
                .with_parallelism(threads(t));
            let (s, stats) = density_biased_sample(source, &*est, &cfg).unwrap();
            (
                s.source_indices().to_vec(),
                s.points()
                    .as_flat()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<u64>>(),
                s.weights()
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<u64>>(),
                stats.normalizer_k.to_bits(),
            )
        });
    }
}

#[test]
fn outlier_detection_is_backing_invariant() {
    let synth = clustered_noisy(8_000, 2, 0.05, 24);
    let backings = Backings::new(synth.data, "outliers");
    for t in [1usize, 2, 7] {
        let report = backings.assert_invariant(&format!("outliers t={t}"), |source| {
            let est = fit("kde:100", source);
            let mut cfg = ApproxConfig::new(DbOutlierParams::new(0.04, 3).unwrap());
            cfg.parallelism = threads(t);
            let r = approx_outliers(source, &*est, &cfg).unwrap();
            (r.outliers, r.candidates)
        });
        // The fixture has structure; a report that finds nothing at all
        // would make the parity assertion vacuous.
        assert!(report.1 > 0, "no outlier candidates at t={t}");
    }
}

#[test]
fn sample_fed_clustering_is_backing_invariant() {
    let synth = clustered(10_000, 2, 26);
    let backings = Backings::new(synth.data, "cluster");
    for t in [1usize, 2, 7] {
        backings.assert_invariant(&format!("cluster t={t}"), |source| {
            let est = fit("agrid:2:8", source);
            let cfg = BiasedConfig::new(600, 1.0)
                .with_seed(27)
                .with_parallelism(threads(t));
            let (s, _) = density_biased_sample(source, &*est, &cfg).unwrap();
            let hc = HierarchicalConfig::paper_defaults(10).with_parallelism(threads(t));
            let clustering = sample_fed_cluster(source, s.points(), &hc).unwrap();
            let clusters: Vec<ClusterBits> = clustering
                .clusters
                .iter()
                .map(|c| {
                    (
                        c.members.clone(),
                        c.mean.iter().map(|x| x.to_bits()).collect(),
                        c.representatives
                            .iter()
                            .map(|r| r.iter().map(|x| x.to_bits()).collect())
                            .collect(),
                    )
                })
                .collect();
            (clustering.assignments, clusters)
        });
    }
}

#[test]
fn shard_io_counters_are_thread_count_invariant() {
    let synth = clustered(10_000, 2, 28);
    let backings = Backings::new(synth.data, "counters");
    let sharded = ShardedSource::open(&backings.dir).unwrap();
    let mut baseline = None;
    for t in [1usize, 2, 7] {
        let rec = Recorder::enabled();
        let est = fit("agrid:2:8", &sharded);
        let densities =
            dbs_density::batch_densities_obs(&*est, &sharded, threads(t), &rec).unwrap();
        assert_eq!(densities.len(), 10_000);
        let reads = rec.counter(Counter::ShardChunkReads);
        let bytes = rec.counter(Counter::ShardBytesMapped);
        assert!(reads >= 3, "expected one read per chunk, got {reads}");
        assert_eq!(bytes, 10_000 * 2 * 8, "t={t}");
        match &baseline {
            None => baseline = Some((reads, bytes)),
            Some(b) => assert_eq!((reads, bytes), *b, "t={t}"),
        }
    }
}

#[test]
fn corrupt_shards_fail_at_open() {
    // Exactly one full chunk, so a grafted second shard passes the interior
    // alignment check and reaches the dim comparison.
    let data = uniform_cube(4_096, 2, 29);
    // Bad magic.
    let dir = tmp_dir("badmagic");
    write_shards_with(&dir, &data, 0, CHUNK_POINTS).unwrap();
    let shard0 = dir.join("shard-00000.dbss");
    let mut bytes = std::fs::read(&shard0).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&shard0, &bytes).unwrap();
    let err = ShardedSource::open(&dir).unwrap_err().to_string();
    assert!(err.contains("magic"), "{err}");
    std::fs::remove_dir_all(&dir).ok();

    // Truncated data region.
    let dir = tmp_dir("truncated");
    write_shards_with(&dir, &data, 0, CHUNK_POINTS).unwrap();
    let shard0 = dir.join("shard-00000.dbss");
    let len = std::fs::metadata(&shard0).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&shard0)
        .unwrap();
    f.set_len(len - 16).unwrap();
    drop(f);
    let err = ShardedSource::open(&dir).unwrap_err().to_string();
    assert!(err.contains("truncated"), "{err}");
    std::fs::remove_dir_all(&dir).ok();

    // Cross-shard dimension mismatch: graft a 3d shard (header index
    // patched to slot 1) behind a 2d shard.
    let dir = tmp_dir("dimmix");
    write_shards_with(&dir, &data, 0, CHUNK_POINTS).unwrap();
    let alien_dir = tmp_dir("dimmix_alien");
    let alien = Dataset::from_rows(&[vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]]).unwrap();
    write_shards_with(&alien_dir, &alien, 0, CHUNK_POINTS).unwrap();
    let mut alien_bytes = std::fs::read(alien_dir.join("shard-00000.dbss")).unwrap();
    alien_bytes[32..36].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(dir.join("shard-00001.dbss"), &alien_bytes).unwrap();
    let err = ShardedSource::open(&dir).unwrap_err().to_string();
    assert!(err.contains("dim"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&alien_dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary unit-cube datasets, seeds, and thread counts, the
    /// biased-sampling pipeline over one-chunk shards is byte-identical to
    /// the in-memory run — indices, scaled points, weights and normalizer.
    #[test]
    fn sharded_sampling_matches_memory(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 2..=2),
            64..6000,
        ),
        t in 1usize..8,
        seed in 0u64..512,
    ) {
        let ds = Dataset::from_rows(&rows).unwrap();
        let dir = tmp_dir("prop");
        write_shards_with(&dir, &ds, seed, CHUNK_POINTS).unwrap();
        let sharded = ShardedSource::open(&dir).unwrap();
        prop_assert_eq!(PointSource::len(&sharded), rows.len());

        let run = |source: &(dyn PointSource + Sync)| {
            let est = EstimatorSpec::parse("grid:8")
                .unwrap()
                .with_seed(seed)
                .with_domain(BoundingBox::unit(2))
                .fit(source)
                .unwrap();
            let cfg = BiasedConfig::new(rows.len() / 3 + 1, 1.0)
                .with_seed(seed)
                .with_parallelism(threads(t));
            let (s, stats) = density_biased_sample(source, &*est, &cfg).unwrap();
            (
                s.source_indices().to_vec(),
                s.points().as_flat().iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                s.weights().iter().map(|w| w.to_bits()).collect::<Vec<u64>>(),
                stats.normalizer_k.to_bits(),
            )
        };
        prop_assert_eq!(run(&ds), run(&sharded));
        std::fs::remove_dir_all(&dir).ok();
    }
}
