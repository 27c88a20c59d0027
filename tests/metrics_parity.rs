//! Contract of the observability layer (`dbs_core::obs`): enabling metrics
//! never changes any computed output, and the counter values themselves are
//! deterministic — identical at every thread count, because per-chunk
//! tallies merge in chunk order by integer addition.
//!
//! Every instrumented entry point is run with metrics off and on, at
//! several thread counts, and the outputs compared bit for bit; the
//! recorded counters are compared across thread counts; and the dataset
//! pass counters are cross-checked against `dbs_core::scan::PassCounter`,
//! which observes the scans from outside the pipeline.

use std::num::NonZeroUsize;

use dbs_cli::{commands::run, parse};
use dbs_cluster::{partitioned_cluster_obs, HierarchicalConfig};
use dbs_core::io::write_binary;
use dbs_core::obs::{Counter, Recorder};
use dbs_core::rng::sub_seed;
use dbs_core::scan::PassCounter;
use dbs_core::{BoundingBox, Dataset, Metric, Reservoir, WeightedSample};
use dbs_density::{batch_densities_obs, KdeConfig, KernelDensityEstimator};
use dbs_outlier::{approx_outliers_obs, ApproxConfig, DbOutlierParams};
use dbs_sampling::{density_biased_sample_obs, one_pass_biased_sample_obs, BiasedConfig};

use dbs_integration_tests::clustered_noisy;

const THREADS: [usize; 3] = [1, 2, 7];

fn nz(t: usize) -> NonZeroUsize {
    NonZeroUsize::new(t).expect("thread counts under test are positive")
}

/// The fixed-seed workload shared by every parity test.
fn workload() -> (Dataset, KernelDensityEstimator) {
    let synth = clustered_noisy(20_000, 2, 0.2, 42);
    let cfg = KdeConfig {
        domain: Some(BoundingBox::unit(2)),
        seed: 7,
        ..KdeConfig::with_centers(300)
    };
    let est = KernelDensityEstimator::fit_dataset(&synth.data, &cfg)
        .expect("KDE fit succeeds on the synthetic workload");
    (synth.data, est)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// All counter values of an enabled recorder, in catalog order.
fn counters(rec: &Recorder) -> Vec<u64> {
    rec.snapshot()
        .expect("recorder enabled")
        .counters
        .iter()
        .map(|&(_, v)| v)
        .collect()
}

fn assert_samples_identical(a: &WeightedSample, b: &WeightedSample, what: &str) {
    assert_eq!(a.source_indices(), b.source_indices(), "{what}: indices");
    assert_eq!(bits(a.weights()), bits(b.weights()), "{what}: weights");
    assert_eq!(
        bits(a.points().as_flat()),
        bits(b.points().as_flat()),
        "{what}: coordinates"
    );
}

#[test]
fn two_pass_sampler_metrics_parity() {
    let (data, est) = workload();
    let base = BiasedConfig::new(1500, 1.0).with_seed(99);
    let mut counter_sets = Vec::new();
    let (baseline, baseline_stats) =
        density_biased_sample_obs(&data, &est, &base, &Recorder::disabled()).unwrap();
    for t in THREADS {
        let cfg = base.clone().with_parallelism(nz(t));
        let (off, off_stats) =
            density_biased_sample_obs(&data, &est, &cfg, &Recorder::disabled()).unwrap();
        let rec = Recorder::enabled();
        let (on, on_stats) = density_biased_sample_obs(&data, &est, &cfg, &rec).unwrap();
        assert_samples_identical(&off, &on, &format!("two-pass on/off, threads={t}"));
        assert_samples_identical(
            &baseline,
            &on,
            &format!("two-pass vs baseline, threads={t}"),
        );
        assert_eq!(
            off_stats.normalizer_k.to_bits(),
            on_stats.normalizer_k.to_bits()
        );
        assert_eq!(off_stats.clipped, on_stats.clipped);
        // Figure 1's two passes run as one exact pass.
        assert_eq!(rec.counter(Counter::DatasetPasses), 1);
        assert_eq!(
            rec.counter(Counter::SamplerClipEvents),
            on_stats.clipped as u64
        );
        counter_sets.push(counters(&rec));
    }
    assert_eq!(counter_sets[0], counter_sets[1], "threads 1 vs 2");
    assert_eq!(counter_sets[0], counter_sets[2], "threads 1 vs 7");
    let _ = baseline_stats;
}

#[test]
fn one_pass_sampler_metrics_parity() {
    let (data, est) = workload();
    let base = BiasedConfig::new(1500, -0.5).with_seed(17);
    let mut counter_sets = Vec::new();
    for t in THREADS {
        let cfg = base.clone().with_parallelism(nz(t));
        let (off, off_stats) =
            one_pass_biased_sample_obs(&data, &est, &cfg, &Recorder::disabled()).unwrap();
        let rec = Recorder::enabled();
        let (on, on_stats) = one_pass_biased_sample_obs(&data, &est, &cfg, &rec).unwrap();
        assert_samples_identical(&off, &on, &format!("one-pass on/off, threads={t}"));
        assert_eq!(
            off_stats.normalizer_k.to_bits(),
            on_stats.normalizer_k.to_bits()
        );
        assert_eq!(off_stats.clipped, on_stats.clipped);
        // One primary-source pass: the kernel-center evaluation inside the
        // normalizer approximation scans derived data, not the dataset.
        assert_eq!(rec.counter(Counter::DatasetPasses), 1);
        counter_sets.push(counters(&rec));
    }
    assert_eq!(counter_sets[0], counter_sets[1], "threads 1 vs 2");
    assert_eq!(counter_sets[0], counter_sets[2], "threads 1 vs 7");
}

#[test]
fn reservoir_samplers_metrics_parity() {
    // Algorithm R runs inside the fused ingest pass of `dbs stream`; its
    // replacement counter reaches the metrics report from there.
    let (data, _) = workload();
    let tmp = |name: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!("dbs_metrics_parity_{}_{name}", std::process::id()));
        p.to_str().expect("utf8 temp path").to_string()
    };
    let input = tmp("stream.dbs1");
    write_binary(std::path::Path::new(&input), &data).unwrap();
    let stream = |tag: &str, metrics: Option<&str>| {
        let sample = tmp(&format!("{tag}.sample"));
        let reservoir = tmp(&format!("{tag}.reservoir"));
        let mut argv = vec![
            "stream".to_string(),
            input.clone(),
            "--size".into(),
            "300".into(),
            "--reservoir".into(),
            "500".into(),
            "--seed".into(),
            "11".into(),
            "--output".into(),
            sample.clone(),
            "--reservoir-out".into(),
            reservoir.clone(),
        ];
        if let Some(m) = metrics {
            argv.extend(["--metrics-out".to_string(), m.to_string()]);
        }
        run(&parse(&argv).unwrap(), &mut Vec::new()).unwrap();
        let read = |p: &str| {
            let body = std::fs::read_to_string(p).unwrap();
            std::fs::remove_file(p).ok();
            body
        };
        (read(&sample), read(&reservoir))
    };
    let metrics = tmp("metrics.json");
    let off = stream("off", None);
    let on = stream("on", Some(&metrics));
    assert_eq!(off.0, on.0, "biased sample");
    assert_eq!(off.1, on.1, "algorithm-r reservoir");
    let json = std::fs::read_to_string(&metrics).unwrap();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&input).ok();
    // Ingest + one-pass sample (the scaler pass is untracked).
    assert!(json.contains("\"dataset_passes\": 2"), "{json}");
    // The stream's reservoir draws from `sub_seed(seed, 1)`; its
    // replacements depend only on the stream length, size and seed.
    let mut reservoir = Reservoir::new(1, 500, sub_seed(11, 1));
    (0..data.len()).for_each(|i| reservoir.offer(i, &[0.0]));
    assert!(
        reservoir.replacements() > 0,
        "a 20k stream must replace some of 500 slots"
    );
    let replacements = format!("\"reservoir_replacements\": {}", reservoir.replacements());
    assert!(json.contains(&replacements), "{json}");
}

#[test]
fn outlier_detector_metrics_parity() {
    let (data, est) = workload();
    let params = DbOutlierParams::new(0.02, 3).unwrap();
    for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
        let base = ApproxConfig {
            slack: 5.0,
            metric,
            ..ApproxConfig::new(params)
        };
        let mut counter_sets = Vec::new();
        for t in THREADS {
            let cfg = ApproxConfig {
                parallelism: nz(t),
                ..base.clone()
            };
            let off = approx_outliers_obs(&data, &est, &cfg, &Recorder::disabled()).unwrap();
            let rec = Recorder::enabled();
            let on = approx_outliers_obs(&data, &est, &cfg, &rec).unwrap();
            assert_eq!(off.outliers, on.outliers, "{metric:?}, threads={t}");
            assert_eq!(off.candidates, on.candidates, "{metric:?}, threads={t}");
            assert_eq!(rec.counter(Counter::DatasetPasses), 2);
            assert_eq!(
                rec.counter(Counter::OutlierCandidates),
                on.candidates as u64
            );
            // Pass 1 partitions into skips and ball integrals.
            let integrated = rec.counter(Counter::BallSamples);
            assert_eq!(
                rec.counter(Counter::PrefilterSkips) + integrated,
                data.len() as u64
            );
            counter_sets.push(counters(&rec));
        }
        assert_eq!(
            counter_sets[0], counter_sets[1],
            "{metric:?}: threads 1 vs 2"
        );
        assert_eq!(
            counter_sets[0], counter_sets[2],
            "{metric:?}: threads 1 vs 7"
        );
    }
}

#[test]
fn hierarchical_clustering_metrics_parity() {
    let (data, est) = workload();
    let cfg = BiasedConfig::new(800, 1.0).with_seed(31);
    let (sample, _) = density_biased_sample_obs(&data, &est, &cfg, &Recorder::disabled()).unwrap();
    let mut counter_sets = Vec::new();
    for t in THREADS {
        let hc = HierarchicalConfig::paper_defaults(10).with_parallelism(nz(t));
        let off = partitioned_cluster_obs(sample.points(), &hc, &Recorder::disabled()).unwrap();
        let rec = Recorder::enabled();
        let on = partitioned_cluster_obs(sample.points(), &hc, &rec).unwrap();
        assert_eq!(off.assignments, on.assignments, "threads={t}");
        assert_eq!(off.clusters.len(), on.clusters.len(), "threads={t}");
        for (a, b) in off.clusters.iter().zip(&on.clusters) {
            assert_eq!(bits(&a.mean), bits(&b.mean), "threads={t}");
            assert_eq!(a.members, b.members, "threads={t}");
        }
        // Every pop either merges, is stale, or restarts after a noise
        // trim — so pops bound merges + stale discards from above.
        assert!(on.clusters.len() <= 10);
        assert!(
            rec.counter(Counter::HeapPops)
                >= rec.counter(Counter::ClusterMerges) + rec.counter(Counter::HeapStalePops)
        );
        assert!(rec.counter(Counter::ClusterMerges) > 0);
        assert!(rec.counter(Counter::RepIndexQueries) > 0);
        counter_sets.push(counters(&rec));
    }
    assert_eq!(counter_sets[0], counter_sets[1], "threads 1 vs 2");
    assert_eq!(counter_sets[0], counter_sets[2], "threads 1 vs 7");
}

#[test]
fn batch_density_evaluation_metrics_parity() {
    let (data, est) = workload();
    let mut counter_sets = Vec::new();
    let baseline = batch_densities_obs(&est, &data, nz(1), &Recorder::disabled()).unwrap();
    for t in THREADS {
        let off = batch_densities_obs(&est, &data, nz(t), &Recorder::disabled()).unwrap();
        let rec = Recorder::enabled();
        let on = batch_densities_obs(&est, &data, nz(t), &rec).unwrap();
        assert_eq!(bits(&off), bits(&on), "threads={t}: on/off");
        assert_eq!(bits(&baseline), bits(&on), "threads={t}: vs serial");
        assert!(rec.counter(Counter::KdeKernelEvals) > 0);
        assert!(rec.counter(Counter::BatchTiles) > 0);
        counter_sets.push(counters(&rec));
    }
    assert_eq!(counter_sets[0], counter_sets[1], "threads 1 vs 2");
    assert_eq!(counter_sets[0], counter_sets[2], "threads 1 vs 7");
}

/// The obs pass counters must agree with `PassCounter`, which counts scans
/// from outside the pipeline — the §4.5 "at most two passes" bookkeeping.
#[test]
fn obs_passes_agree_with_pass_counter() {
    let (data, est) = workload();

    // Two-pass detector (§4.5).
    let counted = PassCounter::new(&data);
    let params = DbOutlierParams::new(0.02, 3).unwrap();
    let cfg = ApproxConfig {
        slack: 5.0,
        ..ApproxConfig::new(params)
    };
    let rec = Recorder::enabled();
    let report = approx_outliers_obs(&counted, &est, &cfg, &rec).unwrap();
    assert_eq!(counted.passes(), 2);
    assert_eq!(rec.counter(Counter::DatasetPasses), counted.passes() as u64);
    assert_eq!(report.passes, 2);

    // Figure 1's sampler, exact in one pass.
    let counted = PassCounter::new(&data);
    let rec = Recorder::enabled();
    let scfg = BiasedConfig::new(1000, 1.0).with_seed(8);
    density_biased_sample_obs(&counted, &est, &scfg, &rec).unwrap();
    assert_eq!(counted.passes(), 1);
    assert_eq!(rec.counter(Counter::DatasetPasses), counted.passes() as u64);

    // One-pass sampler: one pass over the primary source even though the
    // normalizer approximation also scans the (derived) kernel centers.
    let counted = PassCounter::new(&data);
    let rec = Recorder::enabled();
    one_pass_biased_sample_obs(&counted, &est, &scfg, &rec).unwrap();
    assert_eq!(counted.passes(), 1);
    assert_eq!(rec.counter(Counter::DatasetPasses), counted.passes() as u64);
}
