//! On-disk streaming must behave identically to in-memory processing:
//! the same seeds over the same points yield byte-identical summaries,
//! samples and detections.

use dbs_core::io::{write_binary, FileSource};
use dbs_core::scan::PassCounter;
use dbs_core::{BoundingBox, PointSource};
use dbs_density::{DensityEstimator, KdeConfig, KernelDensityEstimator};
use dbs_integration_tests::clustered;
use dbs_sampling::{density_biased_sample, BiasedConfig};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbs_it_{}_{}", std::process::id(), name));
    p
}

#[test]
fn kde_from_file_equals_kde_from_memory() {
    let synth = clustered(10_000, 2, 1);
    let path = tmp("kde.dbs1");
    write_binary(&path, &synth.data).unwrap();
    let file = FileSource::open(&path).unwrap();

    let cfg = KdeConfig {
        num_centers: 300,
        domain: Some(BoundingBox::unit(2)),
        seed: 2,
        ..Default::default()
    };
    let mem = KernelDensityEstimator::fit_dataset(&synth.data, &cfg).unwrap();
    let disk = KernelDensityEstimator::fit(&file, &cfg).unwrap();
    assert_eq!(mem.centers(), disk.centers());
    assert_eq!(mem.bandwidths(), disk.bandwidths());
    for p in synth.data.iter().take(100) {
        assert_eq!(mem.density(p), disk.density(p));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn biased_sample_from_file_equals_memory() {
    let synth = clustered(10_000, 3, 3);
    let path = tmp("sample.dbs1");
    write_binary(&path, &synth.data).unwrap();
    let file = FileSource::open(&path).unwrap();

    let kde_cfg = KdeConfig {
        num_centers: 300,
        domain: Some(BoundingBox::unit(3)),
        seed: 4,
        ..Default::default()
    };
    let est = KernelDensityEstimator::fit_dataset(&synth.data, &kde_cfg).unwrap();
    let cfg = BiasedConfig::new(400, 1.0).with_seed(5);
    let (mem, mem_stats) = density_biased_sample(&synth.data, &est, &cfg).unwrap();
    let (disk, disk_stats) = density_biased_sample(&file, &est, &cfg).unwrap();
    assert_eq!(mem.source_indices(), disk.source_indices());
    assert_eq!(mem.points(), disk.points());
    assert_eq!(mem_stats.normalizer_k, disk_stats.normalizer_k);
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_pass_counting_matches_algorithm_claims() {
    let synth = clustered(5_000, 2, 8);
    let path = tmp("passes.dbs1");
    write_binary(&path, &synth.data).unwrap();
    let file = FileSource::open(&path).unwrap();
    let counted = PassCounter::new(&file);
    assert_eq!(PointSource::len(&counted), 5_000);

    let kde_cfg = KdeConfig {
        num_centers: 200,
        seed: 9,
        ..Default::default()
    };
    let est = KernelDensityEstimator::fit(&counted, &kde_cfg).unwrap();
    assert_eq!(counted.passes(), 1, "estimator = one pass");
    let _ = density_biased_sample(&counted, &est, &BiasedConfig::new(100, 0.5)).unwrap();
    assert_eq!(counted.passes(), 2, "sampler = one more pass");
    std::fs::remove_file(&path).ok();
}
