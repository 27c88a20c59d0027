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

use dbs_cluster::{hierarchical_cluster_obs, HierarchicalConfig};
use dbs_core::obs::{Counter, Recorder};
use dbs_core::scan::PassCounter;
use dbs_core::{BoundingBox, Dataset, Metric, WeightedSample};
use dbs_density::{batch_densities_obs, KdeConfig, KernelDensityEstimator};
use dbs_outlier::{approx_outliers_obs, estimate_outlier_count_obs, ApproxConfig, DbOutlierParams};
use dbs_sampling::{
    density_biased_sample_obs, one_pass_biased_sample_obs, reservoir_sample_obs,
    reservoir_sample_skip_obs, BiasedConfig,
};

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
        assert_eq!(rec.counter(Counter::DatasetPasses), 2);
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
    let (data, _) = workload();
    for (name, f) in [
        (
            "algorithm-r",
            reservoir_sample_obs as fn(&Dataset, usize, u64, &Recorder) -> _,
        ),
        ("algorithm-l", reservoir_sample_skip_obs),
    ] {
        let off = f(&data, 500, 11, &Recorder::disabled()).unwrap();
        let rec = Recorder::enabled();
        let on = f(&data, 500, 11, &rec).unwrap();
        assert_samples_identical(&off, &on, name);
        assert_eq!(rec.counter(Counter::DatasetPasses), 1, "{name}");
        assert!(
            rec.counter(Counter::ReservoirReplacements) > 0,
            "{name}: a 20k stream must replace some of 500 slots"
        );
    }
}

#[test]
fn outlier_detector_metrics_parity() {
    let (data, est) = workload();
    let params = DbOutlierParams::new(0.02, 3).unwrap();
    for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
        let base = ApproxConfig {
            slack: 5.0,
            seed: 3,
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
            let integrated = rec.counter(Counter::BallSamples) / cfg.ball_samples as u64;
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
fn outlier_count_estimate_metrics_parity() {
    let (data, est) = workload();
    let params = DbOutlierParams::new(0.02, 3).unwrap();
    let mut counter_sets = Vec::new();
    for t in THREADS {
        let off =
            estimate_outlier_count_obs(&data, &est, &params, 32, 5, nz(t), &Recorder::disabled())
                .unwrap();
        let rec = Recorder::enabled();
        let on = estimate_outlier_count_obs(&data, &est, &params, 32, 5, nz(t), &rec).unwrap();
        assert_eq!(off, on, "threads={t}");
        assert_eq!(rec.counter(Counter::DatasetPasses), 1);
        assert_eq!(
            rec.counter(Counter::BallSamples),
            32 * data.len() as u64,
            "every point gets exactly one 32-sample ball integral"
        );
        counter_sets.push(counters(&rec));
    }
    assert_eq!(counter_sets[0], counter_sets[1], "threads 1 vs 2");
    assert_eq!(counter_sets[0], counter_sets[2], "threads 1 vs 7");
}

#[test]
fn hierarchical_clustering_metrics_parity() {
    let (data, est) = workload();
    let cfg = BiasedConfig::new(800, 1.0).with_seed(31);
    let (sample, _) = density_biased_sample_obs(&data, &est, &cfg, &Recorder::disabled()).unwrap();
    let mut counter_sets = Vec::new();
    for t in THREADS {
        let hc = HierarchicalConfig::paper_defaults(10).with_parallelism(nz(t));
        let off = hierarchical_cluster_obs(sample.points(), &hc, &Recorder::disabled()).unwrap();
        let rec = Recorder::enabled();
        let on = hierarchical_cluster_obs(sample.points(), &hc, &rec).unwrap();
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
        seed: 3,
        ..ApproxConfig::new(params)
    };
    let rec = Recorder::enabled();
    let report = approx_outliers_obs(&counted, &est, &cfg, &rec).unwrap();
    assert_eq!(counted.passes(), 2);
    assert_eq!(rec.counter(Counter::DatasetPasses), counted.passes() as u64);
    assert_eq!(report.passes, 2);

    // Two-pass sampler.
    let counted = PassCounter::new(&data);
    let rec = Recorder::enabled();
    let scfg = BiasedConfig::new(1000, 1.0).with_seed(8);
    density_biased_sample_obs(&counted, &est, &scfg, &rec).unwrap();
    assert_eq!(counted.passes(), 2);
    assert_eq!(rec.counter(Counter::DatasetPasses), counted.passes() as u64);

    // One-pass sampler: one pass over the primary source even though the
    // normalizer approximation also scans the (derived) kernel centers.
    let counted = PassCounter::new(&data);
    let rec = Recorder::enabled();
    one_pass_biased_sample_obs(&counted, &est, &scfg, &rec).unwrap();
    assert_eq!(counted.passes(), 1);
    assert_eq!(rec.counter(Counter::DatasetPasses), counted.passes() as u64);

    // Reservoir samplers.
    let counted = PassCounter::new(&data);
    let rec = Recorder::enabled();
    reservoir_sample_obs(&counted, 200, 4, &rec).unwrap();
    reservoir_sample_skip_obs(&counted, 200, 4, &rec).unwrap();
    assert_eq!(counted.passes(), 2);
    assert_eq!(rec.counter(Counter::DatasetPasses), counted.passes() as u64);
}
