//! Shared sample-then-cluster pipeline used by the figure experiments.

use std::time::{Duration, Instant};

use dbs_cluster::{
    clusters_found, clusters_found_by_centers, partitioned_cluster, Birch, BirchConfig, EvalConfig,
    HierarchicalConfig,
};
use dbs_core::{BoundingBox, Result, WeightedSample};
use dbs_density::EstimatorSpec;
use dbs_sampling::{
    bernoulli_sample, density_biased_sample, grid_biased_sample, one_pass_biased_sample,
    BiasedConfig, GridBiasedConfig,
};
use dbs_synth::SyntheticDataset;

/// Which sampler feeds the clustering algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampler {
    /// Uniform Bernoulli sampling (the RS-CURE baseline).
    Uniform,
    /// The paper's density-biased sampler with exponent `a` (BS-CURE).
    Biased { a: f64 },
    /// The single-pass variant (§2.2 integration).
    OnePassBiased { a: f64 },
    /// The Palmer–Faloutsos grid/hash sampler with exponent `e`.
    GridBiased { e: f64 },
}

impl Sampler {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Sampler::Uniform => "uniform".into(),
            Sampler::Biased { a } => format!("biased a={a}"),
            Sampler::OnePassBiased { a } => format!("biased-1pass a={a}"),
            Sampler::GridBiased { e } => format!("grid e={e}"),
        }
    }
}

/// Configuration of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The sampler under test.
    pub sampler: Sampler,
    /// Target sample size `b`.
    pub sample_size: usize,
    /// Target cluster count for the hierarchical algorithm.
    pub num_clusters: usize,
    /// Kernel centers for the density estimator (ignored for
    /// uniform/grid sampling).
    pub kernels: usize,
    /// Margin for the §4.3 "cluster found" criterion.
    pub eval_margin: f64,
    /// Whether the hierarchical algorithm runs CURE's outlier trimming.
    /// On for noisy workloads (the default); off for clean datasets like
    /// dataset1, where CURE would not enable outlier handling either.
    pub trim_noise: bool,
    /// Seed for estimator + sampler + clustering.
    pub seed: u64,
    /// Density backend for the biased samplers. `None` keeps the paper's
    /// KDE with `kernels` centers; `Some` overrides it (substrate
    /// ablations, `--estimator` sweeps).
    pub estimator: Option<EstimatorSpec>,
}

impl PipelineConfig {
    /// Defaults: 1000-kernel KDE, small evaluation margin.
    pub fn new(sampler: Sampler, sample_size: usize, num_clusters: usize, seed: u64) -> Self {
        PipelineConfig {
            sampler,
            sample_size,
            num_clusters,
            kernels: 1000,
            eval_margin: 0.01,
            trim_noise: true,
            seed,
            estimator: None,
        }
    }

    /// The estimator spec the biased samplers will fit: the configured
    /// override, or the paper's KDE with [`Self::kernels`] centers. Seed
    /// and unit-cube domain are applied here so every caller agrees.
    pub fn estimator_spec(&self, dim: usize) -> EstimatorSpec {
        self.estimator
            .clone()
            .unwrap_or_else(|| EstimatorSpec::kde(self.kernels))
            .with_seed(self.seed)
            .with_domain(BoundingBox::unit(dim))
    }
}

/// Timings and quality of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// True clusters found (§4.3 criterion).
    pub found: usize,
    /// Actual sample size drawn.
    pub sample_len: usize,
    /// Time to fit the density estimator (zero for samplers without one).
    pub estimator_time: Duration,
    /// Time to draw the sample (all passes).
    pub sampling_time: Duration,
    /// Time to cluster the sample.
    pub clustering_time: Duration,
}

impl PipelineOutcome {
    /// End-to-end time.
    pub fn total_time(&self) -> Duration {
        self.estimator_time + self.sampling_time + self.clustering_time
    }
}

/// Draws the configured sample from `synth`.
pub fn draw_sample(
    synth: &SyntheticDataset,
    cfg: &PipelineConfig,
) -> Result<(WeightedSample, Duration, Duration)> {
    let dim = synth.data.dim();
    match cfg.sampler {
        Sampler::Uniform => {
            let t0 = Instant::now();
            let s = bernoulli_sample(&synth.data, cfg.sample_size, cfg.seed)?;
            Ok((s, Duration::ZERO, t0.elapsed()))
        }
        Sampler::Biased { a } => {
            let t0 = Instant::now();
            let est = cfg.estimator_spec(dim).fit(&synth.data)?;
            let est_time = t0.elapsed();
            let t1 = Instant::now();
            let (s, _) = density_biased_sample(
                &synth.data,
                &*est,
                &BiasedConfig::new(cfg.sample_size, a).with_seed(cfg.seed ^ 0xb1a5),
            )?;
            Ok((s, est_time, t1.elapsed()))
        }
        Sampler::OnePassBiased { a } => {
            let t0 = Instant::now();
            let est = cfg.estimator_spec(dim).fit(&synth.data)?;
            let est_time = t0.elapsed();
            let t1 = Instant::now();
            let (s, _) = one_pass_biased_sample(
                &synth.data,
                &*est,
                &BiasedConfig::new(cfg.sample_size, a).with_seed(cfg.seed ^ 0xb1a5),
            )?;
            Ok((s, est_time, t1.elapsed()))
        }
        Sampler::GridBiased { e } => {
            let t0 = Instant::now();
            let gb_cfg = GridBiasedConfig::new(cfg.sample_size, e).with_seed(cfg.seed ^ 0xb1a5);
            let (s, _) = grid_biased_sample(&synth.data, &gb_cfg)?;
            Ok((s, Duration::ZERO, t0.elapsed()))
        }
    }
}

/// Runs sample → hierarchical clustering → §4.3 evaluation.
pub fn run_sampled_clustering(
    synth: &SyntheticDataset,
    cfg: &PipelineConfig,
) -> Result<PipelineOutcome> {
    let (sample, estimator_time, sampling_time) = draw_sample(synth, cfg)?;
    let sample_len = sample.len();
    let t0 = Instant::now();
    let mut hc = HierarchicalConfig::paper_defaults(cfg.num_clusters);
    if !cfg.trim_noise {
        hc.trim_min_size = 0;
    }
    let clustering = partitioned_cluster(sample.points(), &hc)?;
    let clustering_time = t0.elapsed();
    let found = clusters_found(
        &clustering.clusters,
        &synth.regions,
        &EvalConfig {
            margin: cfg.eval_margin,
            ..Default::default()
        },
    );
    Ok(PipelineOutcome {
        found,
        sample_len,
        estimator_time,
        sampling_time,
        clustering_time,
    })
}

/// Runs BIRCH over the *entire* dataset with a CF-tree budget equal to
/// `sample_budget` leaf entries (the paper's memory-equalized comparison),
/// returning found clusters and the elapsed time.
pub fn run_birch(
    synth: &SyntheticDataset,
    sample_budget: usize,
    num_clusters: usize,
    eval_margin: f64,
) -> Result<(usize, Duration)> {
    let t0 = Instant::now();
    let cfg = BirchConfig::paper_defaults(num_clusters, sample_budget, synth.data.dim());
    let res = Birch::run_dataset(&synth.data, &cfg)?;
    let elapsed = t0.elapsed();
    let centers: Vec<Vec<f64>> = res.clusters.iter().map(|c| c.center.clone()).collect();
    let found = clusters_found_by_centers(
        &centers,
        &synth.regions,
        &EvalConfig {
            margin: eval_margin,
            ..Default::default()
        },
    );
    Ok((found, elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_synth::noise::with_noise_fraction;
    use dbs_synth::rect::{generate, RectConfig, SizeProfile};

    fn workload(seed: u64) -> SyntheticDataset {
        let cfg = RectConfig {
            total_points: 10_000,
            ..RectConfig::paper_standard(2, seed)
        };
        generate(&cfg, &SizeProfile::Equal).unwrap()
    }

    #[test]
    fn biased_pipeline_finds_clusters_on_clean_data() {
        let synth = workload(1);
        let cfg = PipelineConfig {
            kernels: 300,
            ..PipelineConfig::new(Sampler::Biased { a: 1.0 }, 500, 10, 2)
        };
        let out = run_sampled_clustering(&synth, &cfg).unwrap();
        assert!(out.found >= 8, "found only {} clusters", out.found);
        assert!(out.sample_len > 300 && out.sample_len < 800);
    }

    #[test]
    fn uniform_pipeline_runs() {
        let synth = workload(3);
        let cfg = PipelineConfig::new(Sampler::Uniform, 500, 10, 4);
        let out = run_sampled_clustering(&synth, &cfg).unwrap();
        assert!(out.found >= 7, "found only {}", out.found);
        assert_eq!(out.estimator_time, Duration::ZERO);
    }

    #[test]
    fn biased_beats_uniform_under_noise() {
        // The core claim of Figure 4, at test scale: with strong noise the
        // a=1 biased sample preserves more clusters than uniform.
        let synth = with_noise_fraction(workload(5), 0.6, 6);
        let mut biased_total = 0usize;
        let mut uniform_total = 0usize;
        for rep in 0..3 {
            let b = run_sampled_clustering(
                &synth,
                &PipelineConfig {
                    kernels: 300,
                    ..PipelineConfig::new(Sampler::Biased { a: 1.0 }, 400, 10, 100 + rep)
                },
            )
            .unwrap();
            let u = run_sampled_clustering(
                &synth,
                &PipelineConfig::new(Sampler::Uniform, 400, 10, 200 + rep),
            )
            .unwrap();
            biased_total += b.found;
            uniform_total += u.found;
        }
        assert!(
            biased_total > uniform_total,
            "biased {biased_total} vs uniform {uniform_total}"
        );
    }

    #[test]
    fn agrid_backed_pipeline_finds_clusters() {
        let synth = workload(11);
        let cfg = PipelineConfig {
            estimator: Some(EstimatorSpec::parse("agrid:8").unwrap()),
            ..PipelineConfig::new(Sampler::Biased { a: 1.0 }, 500, 10, 12)
        };
        let out = run_sampled_clustering(&synth, &cfg).unwrap();
        assert!(out.found >= 8, "found only {} clusters", out.found);
    }

    #[test]
    fn birch_runs_and_finds_some_clusters() {
        let synth = workload(7);
        let (found, _) = run_birch(&synth, 400, 10, 0.01).unwrap();
        assert!(found >= 5, "BIRCH found only {found}");
    }

    #[test]
    fn grid_biased_pipeline_runs() {
        let synth = workload(9);
        let cfg = PipelineConfig::new(Sampler::GridBiased { e: -0.5 }, 500, 10, 10);
        let out = run_sampled_clustering(&synth, &cfg).unwrap();
        assert!(out.found >= 5, "found {}", out.found);
    }

    #[test]
    fn sampler_labels() {
        assert_eq!(Sampler::Uniform.label(), "uniform");
        assert_eq!(Sampler::Biased { a: -0.5 }.label(), "biased a=-0.5");
        assert!(Sampler::GridBiased { e: -0.5 }.label().contains("grid"));
    }
}
