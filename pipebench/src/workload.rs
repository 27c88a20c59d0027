//! The four workloads: how each input is generated from the seed, written
//! in the format its command reads, run through `dbs`, and checked.
//!
//! Each workload drives a different layer hardest (see the README for the
//! reasons and the measured shares), so an optimisation of one layer shows
//! on the workload that exercises it and reads as "no change" on the
//! others.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dbs_cluster::{clusters_found_by_centers, EvalConfig};
use dbs_core::io::{read_text, write_binary, write_text};
use dbs_core::rng::{seeded, sub_seed};
use dbs_core::shard::write_shards_with;
use dbs_core::{BoundingBox, Dataset, MinMaxScaler};
use dbs_outlier::{kdtree_outliers, DbOutlierParams};
use dbs_synth::noise::with_noise_fraction;
use dbs_synth::outliers::planted_outliers;
use dbs_synth::rect::{generate, RectConfig, SizeProfile};
use dbs_synth::{SyntheticDataset, NOISE_LABEL};
use rand::Rng;

/// Worker threads every `dbs` invocation and the traced mirror use.
pub const THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dbs sample` with the two-pass KDE sampler over a streamed 5-d
    /// binary file: the batch KDE query engine dominates.
    SampleKde,
    /// `dbs cluster --sample-frac` over a 2-d text file: text parsing,
    /// the averaged-grid estimator, the CURE merge loop and map-back.
    ClusterFed,
    /// `dbs outliers` over a streamed 3-d binary file: Monte-Carlo ball
    /// integrals through per-point KDE evaluation.
    OutliersKde,
    /// `dbs stream` over a 4-d shard directory: sequential sketch updates
    /// and cheap sketch queries, out of core over mapped shards.
    StreamSketch,
}

/// Input size: `Full` is what the benchmark measures; `Smoke` keeps every
/// input at or under 20k points for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Seed of the fixed cluster layout (see [`Workload::generate`]).
const LAYOUT_SEED: u64 = 42;

/// DB(p,k) radius and neighbour bound of the outlier workload, in the
/// min-max normalised units the detector works in.
pub const OUTLIER_RADIUS: f64 = 0.05;
pub const OUTLIER_NEIGHBORS: usize = 3;

/// Target sample sizes of the two sampling workloads. A sparse point is
/// drawn with probability about b/(600 n) at a = 1 and then weighs about
/// n·600/b, so b must be in the thousands for one such draw to move the
/// Horvitz–Thompson total by only a few percent of n.
fn sample_size(w: Workload, scale: Scale) -> usize {
    match (w, scale) {
        (Workload::SampleKde, Scale::Full) => 20_000,
        (Workload::StreamSketch, Scale::Full) => 10_000,
        _ => 4_000,
    }
}
/// Uniform reservoir size of the stream workload.
pub const RESERVOIR: usize = 1000;
/// Points per shard file of the stream workload's input (several shards).
const SHARD_POINTS: usize = 1 << 18;
/// Share of the points the cluster workload's biased sample takes.
pub const SAMPLE_FRAC: f64 = 0.01;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SampleKde,
        Workload::ClusterFed,
        Workload::OutliersKde,
        Workload::StreamSketch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SampleKde => "sample_kde_d5",
            Workload::ClusterFed => "cluster_fed_d2",
            Workload::OutliersKde => "outliers_kde_d3",
            Workload::StreamSketch => "stream_sketch_d4",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Clustered points generated before noise is added.
    fn clustered_points(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::SampleKde, Scale::Full) => 400_000,
            (Workload::ClusterFed, Scale::Full) => 400_000,
            (Workload::OutliersKde, Scale::Full) => 10_000,
            (Workload::StreamSketch, Scale::Full) => 2_000_000,
            (Workload::OutliersKde, Scale::Smoke) => 5_000,
            (_, Scale::Smoke) => 19_000,
        }
    }

    fn dim(self) -> usize {
        match self {
            Workload::SampleKde => 5,
            Workload::ClusterFed => 2,
            Workload::OutliersKde => 3,
            Workload::StreamSketch => 4,
        }
    }

    /// Output files the command writes (names inside the work directory).
    pub fn output_files(self) -> &'static [&'static str] {
        match self {
            Workload::SampleKde => &["sample.txt", "weights.txt"],
            Workload::StreamSketch => &["sample.txt", "weights.txt", "reservoir.txt"],
            Workload::ClusterFed | Workload::OutliersKde => &[],
        }
    }

    /// Generates the workload's points from `seed`.
    ///
    /// The cluster layout is fixed: ten equal-volume boxes placed by the
    /// paper's generator from `LAYOUT_SEED` (plus, for the outlier
    /// workload, the regions its planted outliers avoid). The seed draws
    /// every point. How much work a command does depends on the layout —
    /// cluster densities, how many kernel centres a query meets — so a
    /// layout drawn per seed would make a run's cost depend on the seed as
    /// much as on the code.
    fn generate(self, scale: Scale, seed: u64) -> Result<SyntheticDataset, String> {
        let err = |e: dbs_core::Error| e.to_string();
        let layout = RectConfig {
            total_points: 10,
            volume_range: (0.0165, 0.0165),
            ..RectConfig::paper_standard(self.dim(), LAYOUT_SEED)
        };
        let (regions, planted, noise) = match self {
            Workload::OutliersKde => {
                // 50 points isolated by 0.06 > the 0.05 radius, plus 1%
                // uniform noise, most of which is also DB(3, 0.05)-outlying.
                let o = planted_outliers(&layout, 50, 0.06, seed).map_err(err)?;
                let planted = o.synth.data.select(&o.outlier_indices);
                (o.synth.regions, Some(planted), 0.01)
            }
            _ => (
                generate(&layout, &SizeProfile::Equal).map_err(err)?.regions,
                None,
                0.05,
            ),
        };
        let per_cluster = self.clustered_points(scale) / regions.len();
        let mut rng = seeded(seed);
        let mut data = Dataset::with_capacity(self.dim(), per_cluster * regions.len());
        let mut labels = Vec::with_capacity(per_cluster * regions.len());
        let mut point = vec![0.0f64; self.dim()];
        for (label, r) in regions.iter().enumerate() {
            for _ in 0..per_cluster {
                for (j, x) in point.iter_mut().enumerate() {
                    *x = r.min()[j] + rng.gen::<f64>() * (r.max()[j] - r.min()[j]);
                }
                data.push(&point).map_err(err)?;
                labels.push(label);
            }
        }
        for p in planted.iter().flat_map(|d| d.iter()) {
            data.push(p).map_err(err)?;
            labels.push(NOISE_LABEL);
        }
        let clustered = SyntheticDataset {
            data,
            labels,
            regions,
        };
        Ok(with_noise_fraction(clustered, noise, sub_seed(seed, 1)))
    }

    /// The `dbs` arguments of one invocation, all paths inside `p.dir`.
    pub fn dbs_args(self, p: &Prepared) -> Vec<String> {
        let input = p.input.to_string_lossy().into_owned();
        let out = |name: &str| p.dir.join(name).to_string_lossy().into_owned();
        let mut args: Vec<String> = match self {
            Workload::SampleKde => vec![
                "sample".into(),
                input,
                "--estimator".into(),
                "kde:1000".into(),
                "--size".into(),
                p.sample_size.to_string(),
                "--exponent".into(),
                "1".into(),
                "--output".into(),
                out("sample.txt"),
                "--weights".into(),
                out("weights.txt"),
            ],
            Workload::ClusterFed => vec![
                "cluster".into(),
                input,
                "--clusters".into(),
                "10".into(),
                "--sample-frac".into(),
                SAMPLE_FRAC.to_string(),
                "--estimator".into(),
                "agrid:8".into(),
            ],
            Workload::OutliersKde => vec![
                "outliers".into(),
                input,
                "--radius".into(),
                OUTLIER_RADIUS.to_string(),
                "--neighbors".into(),
                OUTLIER_NEIGHBORS.to_string(),
                "--estimator".into(),
                "kde:1000".into(),
                "--slack".into(),
                "3".into(),
            ],
            Workload::StreamSketch => vec![
                "stream".into(),
                input,
                "--size".into(),
                p.sample_size.to_string(),
                "--reservoir".into(),
                RESERVOIR.to_string(),
                "--output".into(),
                out("sample.txt"),
                "--weights".into(),
                out("weights.txt"),
                "--reservoir-out".into(),
                out("reservoir.txt"),
            ],
        };
        args.extend(["--threads".into(), THREADS.to_string()]);
        args
    }
}

/// A workload's inputs on disk plus the ground truth its checks need.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    /// Absolute work directory holding inputs and outputs.
    pub dir: PathBuf,
    /// The file or shard directory `dbs` reads.
    pub input: PathBuf,
    pub n: usize,
    pub sample_size: usize,
    /// Generating regions of the true clusters.
    pub regions: Vec<BoundingBox>,
    /// The exact DB(p,k) outlier set on the normalised points (outlier
    /// workload only), ascending.
    pub exact_outliers: Vec<usize>,
    /// Sorted hashes of every input point, for membership checks.
    point_hashes: Vec<u64>,
}

fn point_hash(p: &[f64]) -> u64 {
    p.iter().fold(0x9E37_79B9_7F4A_7C15u64, |h, x| {
        let mut z = (h ^ x.to_bits()).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// Sets the workload up in the empty or missing directory `dir` from
/// `seed`: generates the points and writes them as the command reads them
/// (the stream workload's shard directory through the library call behind
/// `dbs convert`). Returns the workload with its ground truth, derived
/// afterwards, and the wall time of generating and writing.
pub fn prepare(
    w: Workload,
    scale: Scale,
    seed: u64,
    dir: &Path,
) -> Result<(Prepared, f64), String> {
    let start = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dir = dir.canonicalize().map_err(|e| e.to_string())?;
    let input = dir.join(match w {
        Workload::ClusterFed => "input.txt",
        Workload::SampleKde | Workload::OutliersKde => "input.bin",
        Workload::StreamSketch => "shards",
    });
    let synth = w.generate(scale, seed)?;
    match w {
        Workload::ClusterFed => write_text(&input, &synth.data),
        Workload::SampleKde | Workload::OutliersKde => write_binary(&input, &synth.data),
        Workload::StreamSketch => write_shards_with(&input, &synth.data, 0, SHARD_POINTS).map(drop),
    }
    .map_err(|e| format!("cannot write {}: {e}", input.display()))?;
    let write_s = start.elapsed().as_secs_f64();

    let exact_outliers = if w == Workload::OutliersKde {
        // The exact detector on the same min-max scaled points `dbs` sees.
        let scaled = MinMaxScaler::fit_transform(&synth.data)
            .map_err(|e| e.to_string())?
            .0;
        let params =
            DbOutlierParams::new(OUTLIER_RADIUS, OUTLIER_NEIGHBORS).map_err(|e| e.to_string())?;
        kdtree_outliers(&scaled, &params)
    } else {
        Vec::new()
    };
    let mut point_hashes: Vec<u64> = synth.data.iter().map(point_hash).collect();
    point_hashes.sort_unstable();
    let prepared = Prepared {
        workload: w,
        input,
        n: synth.data.len(),
        sample_size: sample_size(w, scale),
        regions: synth.regions,
        exact_outliers,
        point_hashes,
        dir,
    };
    Ok((prepared, write_s))
}

/// Quality figures of one output, by name, for the report.
pub type Quality = Vec<(&'static str, f64)>;

impl Prepared {
    fn contains(&self, p: &[f64]) -> bool {
        self.point_hashes.binary_search(&point_hash(p)).is_ok()
    }

    fn read_points(&self, name: &str) -> Result<Dataset, String> {
        read_text(&self.dir.join(name)).map_err(|e| format!("{name}: {e}"))
    }

    /// A written sample: every point is an input point, one weight of at
    /// least 1 per point, the realised size within `size_tol` of the target,
    /// and the Horvitz–Thompson total Σ 1/p within a quarter of n. That
    /// total is unbiased for n but heavy-tailed (each sparse point drawn
    /// weighs thousands), so the tolerance is wide; at these sample sizes
    /// its error is a few percent.
    fn check_sample(&self, q: &mut Quality, size_tol: f64) -> Result<(), String> {
        let sample = self.read_points("sample.txt")?;
        if let Some(p) = sample.iter().find(|p| !self.contains(p)) {
            return Err(format!("sampled point {p:?} is not an input point"));
        }
        let text = std::fs::read_to_string(self.dir.join("weights.txt"))
            .map_err(|e| format!("weights.txt: {e}"))?;
        let weights: Vec<f64> = text
            .lines()
            .map(|l| l.parse::<f64>().map_err(|e| format!("weight {l:?}: {e}")))
            .collect::<Result<_, _>>()?;
        if weights.len() != sample.len() || weights.iter().any(|&w| w.is_nan() || w < 1.0) {
            return Err(format!(
                "{} weights, all at least 1, expected for {} sampled points",
                weights.len(),
                sample.len()
            ));
        }
        let b = self.sample_size as f64;
        let n = self.n as f64;
        let size_err = (sample.len() as f64 - b).abs() / b;
        let ht_err = (weights.iter().sum::<f64>() - n).abs() / n;
        q.push(("sample_size_rel_err", size_err));
        q.push(("ht_total_rel_err", ht_err));
        if size_err > size_tol {
            return Err(format!(
                "sample of {} misses the target {b} by more than {size_tol}",
                sample.len()
            ));
        }
        if ht_err > 0.25 {
            return Err(format!(
                "Horvitz-Thompson total is off n = {n} by {ht_err:.4} of n"
            ));
        }
        Ok(())
    }

    /// Checks the outputs of the invocation that just ran in `self.dir`
    /// against the ground truth, returning its quality figures.
    pub fn check(&self, stdout: &str) -> Result<Quality, String> {
        let mut q = Quality::new();
        match self.workload {
            Workload::SampleKde => self.check_sample(&mut q, 0.1)?,
            Workload::StreamSketch => {
                // The one-pass normaliser comes from the sketch summary, so
                // the realised size may drift further from the target.
                self.check_sample(&mut q, 0.25)?;
                let reservoir = self.read_points("reservoir.txt")?;
                if reservoir.len() != RESERVOIR.min(self.n)
                    || !reservoir.iter().all(|p| self.contains(p))
                {
                    return Err(format!(
                        "reservoir holds {} points, not {RESERVOIR} input points",
                        reservoir.len()
                    ));
                }
            }
            Workload::ClusterFed => {
                let head = format!("clustered {} points", self.n);
                if !stdout.starts_with(&head) {
                    return Err(format!("unexpected cluster report: {stdout:?}"));
                }
                let means: Vec<Vec<f64>> = stdout
                    .lines()
                    .filter_map(|l| l.split_once("mean [")?.1.strip_suffix(']'))
                    .map(|m| m.split(", ").map(str::parse).collect())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("cluster mean: {e}"))?;
                let found =
                    clusters_found_by_centers(&means, &self.regions, &EvalConfig::default());
                q.push(("clusters_found", found as f64));
                if found < 9 {
                    return Err(format!("found {found} of {} clusters", self.regions.len()));
                }
            }
            Workload::OutliersKde => {
                let reported: Vec<usize> = stdout
                    .lines()
                    .filter_map(|l| l.trim_start().strip_prefix('#')?.split_once(':'))
                    .map(|(i, _)| i.parse())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("outlier index: {e}"))?;
                if let Some(i) = reported
                    .iter()
                    .find(|i| self.exact_outliers.binary_search(i).is_err())
                {
                    return Err(format!("reported #{i} is not a DB(p,k) outlier"));
                }
                let recall = reported.len() as f64 / self.exact_outliers.len().max(1) as f64;
                q.push(("outliers_reported", reported.len() as f64));
                q.push(("outlier_recall", recall));
                if recall < 0.9 {
                    return Err(format!(
                        "recall {recall:.4} of {} exact outliers",
                        self.exact_outliers.len()
                    ));
                }
            }
        }
        Ok(q)
    }
}
