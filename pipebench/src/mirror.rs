//! The traced pass: an in-process mirror of each workload's `dbs` command
//! that calls the same public library functions as `crates/cli`, stage by
//! stage, with a timing span around each call into a layer.
//!
//! Spans live in the benchmark, around the calls, not inside the library.
//! The mirror is trusted only because its parity checks hold: its counter
//! map equals the CLI's `--metrics-out` counters, and its stdout and output
//! files are byte-identical to the CLI's (both checked by the caller).
//!
//! A stage that does two layers' work at once is split with a probe: the
//! same sub-step run again on its own, under its own recorder, whose
//! counters must equal the stage's, so the probe provably repeats the same
//! work. The sampler's draw contains a density query pass, the outlier
//! detector contains the same batch density screen, and the sample-fed
//! clustering is a merge loop followed by a map-back pass.

use std::fmt::{Display, Write as _};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

use dbs_cluster::{
    map_back_labels_obs, partitioned_cluster_obs, sample_fed_cluster_obs, sample_target_size,
    HierarchicalConfig, NOISE,
};
use dbs_core::io::{read_text, write_text, FileSource};
use dbs_core::obs::{Counter, Recorder};
use dbs_core::rng::{seeded, sub_seed};
use dbs_core::{BoundingBox, Dataset, MinMaxScaler, PointSource, ShardedSource};
use dbs_density::{
    batch_densities_obs, DensityEstimator, DensitySketch, EstimatorSpec, SketchConfig,
};
use dbs_outlier::{approx_outliers_obs, ApproxConfig, DbOutlierParams};
use dbs_sampling::{density_biased_sample_obs, one_pass_biased_sample_obs, BiasedConfig};
use rand::Rng;

use crate::workload::{
    Prepared, Workload, OUTLIER_NEIGHBORS, OUTLIER_RADIUS, RESERVOIR, SAMPLE_FRAC, THREADS,
};

/// Counters the density layer's batch engine records; a query probe must
/// reproduce each of them exactly.
const QUERY_COUNTERS: [Counter; 5] = [
    Counter::KdeKernelEvals,
    Counter::BatchTiles,
    Counter::GridCandidateVisits,
    Counter::AgridCellTouches,
    Counter::AgridGridsAveraged,
];

/// The stages that contain a density query pass.
const QUERYING_STAGES: [&str; 2] = ["sampling.draw", "outlier.detect"];

/// One traced pass of a workload's command.
#[derive(Debug, Clone)]
pub struct Mirror {
    /// Wall time of the whole pass (probes excluded), in seconds.
    pub wall_s: f64,
    /// Top-level stage spans in order: `(layer.stage, seconds)`.
    pub stages: Vec<(&'static str, f64)>,
    /// The pass's counter map, in catalog order.
    pub counters: Vec<(&'static str, u64)>,
    /// What the command prints.
    pub stdout: String,
    /// Probe timings, `(layer.stage, seconds)`.
    pub probes: Vec<(&'static str, f64)>,
}

fn lookup(pairs: &[(&'static str, f64)], name: &str) -> f64 {
    pairs
        .iter()
        .filter(|p| p.0 == name)
        .fold(0.0, |acc, p| acc + p.1)
}

impl Mirror {
    pub fn stage(&self, name: &str) -> f64 {
        lookup(&self.stages, name)
    }

    pub fn probe(&self, name: &str) -> f64 {
        lookup(&self.probes, name)
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].1
    }

    /// Share of the pass's wall time that its stage spans cover.
    pub fn coverage(&self) -> f64 {
        self.stages.iter().map(|s| s.1).sum::<f64>() / self.wall_s
    }

    /// Seconds attributed to each layer: the stage spans, with the probed
    /// density query moved out of the stage that contains it and into the
    /// density layer.
    pub fn layer_seconds(&self) -> [(&'static str, f64); 5] {
        let containing = QUERYING_STAGES
            .iter()
            .map(|s| self.stage(s))
            .fold(0.0, f64::max);
        let query = containing.min(self.probe("density.query"));
        [
            (
                "core",
                self.stage("core.load") + self.stage("core.scale") + self.stage("core.output"),
            ),
            ("density", self.stage("density.fit") + query),
            ("sampling", (self.stage("sampling.draw") - query).max(0.0)),
            ("cluster", self.stage("cluster.sample_fed")),
            ("outlier", (self.stage("outlier.detect") - query).max(0.0)),
        ]
    }
}

fn err(e: impl Display) -> String {
    e.to_string()
}

fn threads() -> NonZeroUsize {
    NonZeroUsize::new(THREADS).expect("THREADS is positive")
}

/// The state of one traced pass.
struct Trace<'a> {
    p: &'a Prepared,
    rec: Recorder,
    out: String,
    probes: Vec<(&'static str, f64)>,
    start: Instant,
    wall_s: f64,
    /// Counters recorded by the querying stage.
    query_stage: Vec<u64>,
}

impl Trace<'_> {
    fn counts(&self) -> Vec<u64> {
        counts(&self.rec)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.p.dir.join(name)
    }

    fn say(&mut self, line: std::fmt::Arguments) {
        self.out
            .write_fmt(line)
            .expect("writing to a String cannot fail");
        self.out.push('\n');
    }

    /// Runs the stage that contains a density query pass, keeping the
    /// counters it records for the probe check.
    fn querying_stage<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&Recorder) -> Result<T, String>,
    ) -> Result<T, String> {
        let _s = self.rec.span(name);
        let before = self.counts();
        let out = f(&self.rec)?;
        self.query_stage = delta(&before, &self.counts());
        Ok(out)
    }

    /// Writes `data` to the output file `name` and reports it as the CLI
    /// does.
    fn write_points(&mut self, what: &str, name: &str, data: &Dataset) -> Result<(), String> {
        let path = self.path(name);
        write_text(&path, data).map_err(err)?;
        self.say(format_args!("wrote {what} to {}", path.display()));
        Ok(())
    }

    fn write_weights(&mut self, weights: &[f64]) -> Result<(), String> {
        let path = self.path("weights.txt");
        let text: String = weights.iter().map(|w| format!("{w}\n")).collect();
        std::fs::write(&path, text).map_err(err)?;
        self.say(format_args!("wrote weights to {}", path.display()));
        Ok(())
    }

    /// Ends the traced pass; probes run after this and are not in its wall.
    fn stop(&mut self) {
        self.wall_s = self.start.elapsed().as_secs_f64();
    }

    /// Times `f` under a recorder of its own and returns its counters.
    fn probe<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&Recorder) -> Result<T, String>,
    ) -> Result<(T, Vec<u64>), String> {
        let rec = Recorder::enabled();
        let start = Instant::now();
        let out = f(&rec)?;
        self.probes.push((name, start.elapsed().as_secs_f64()));
        Ok((out, counts(&rec)))
    }

    /// Re-runs the querying stage's density pass on its own and checks it
    /// is the same work.
    fn query_probe(
        &mut self,
        est: &(dyn DensityEstimator + Sync),
        src: &(dyn PointSource + Sync),
    ) -> Result<(), String> {
        let (_, probe) = self.probe("density.query", |r| {
            batch_densities_obs(est, src, threads(), r).map_err(err)
        })?;
        same_counts("density.query", &QUERY_COUNTERS, &probe, &self.query_stage)
    }

    fn finish(self) -> Mirror {
        let snap = self.rec.snapshot().expect("mirror recorder is enabled");
        Mirror {
            wall_s: self.wall_s,
            stages: snap
                .spans
                .iter()
                .filter(|s| s.depth == 0)
                .map(|s| (s.name, s.secs))
                .collect(),
            counters: snap.counters,
            stdout: self.out,
            probes: self.probes,
        }
    }
}

fn counts(rec: &Recorder) -> Vec<u64> {
    let snap = rec.snapshot().expect("mirror recorders are enabled");
    snap.counters.iter().map(|c| c.1).collect()
}

fn delta(before: &[u64], after: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

/// Fails unless `probe` counted exactly what `stage` did for each of
/// `which`.
fn same_counts(what: &str, which: &[Counter], probe: &[u64], stage: &[u64]) -> Result<(), String> {
    for &c in which {
        let (p, s) = (probe[c as usize], stage[c as usize]);
        if p != s {
            return Err(format!(
                "{what} probe counted {} = {p}, the stage it splits counted {s}",
                c.name()
            ));
        }
    }
    Ok(())
}

/// Order-preserving fetch of `indices` from a binary file, as the CLI does
/// it: one pass over the file placing each wanted point at its slot.
fn select_by_scan(source: &FileSource, indices: &[usize]) -> Result<Dataset, String> {
    let mut order: Vec<(usize, usize)> = indices.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); indices.len()];
    let mut next = 0usize;
    source
        .scan(&mut |i, p| {
            while next < order.len() && order[next].0 == i {
                rows[order[next].1] = p.to_vec();
                next += 1;
            }
        })
        .map_err(err)?;
    let mut out = Dataset::with_capacity(source.dim(), indices.len());
    for row in &rows {
        out.push(row).map_err(err)?;
    }
    Ok(out)
}

fn fit(
    spec: &str,
    src: &(dyn PointSource + Sync),
) -> Result<Box<dyn DensityEstimator + Sync>, String> {
    EstimatorSpec::parse(spec)
        .map_err(err)?
        .with_seed(0)
        .with_domain(BoundingBox::unit(src.dim()))
        .fit(src)
        .map_err(err)
}

/// Runs the traced mirror of `p`'s command — writing the same output files
/// the command writes — and checks each probe against the stage it splits.
pub fn run(p: &Prepared) -> Result<Mirror, String> {
    let mut t = Trace {
        p,
        rec: Recorder::enabled(),
        out: String::new(),
        probes: Vec::new(),
        start: Instant::now(),
        wall_s: 0.0,
        query_stage: Vec::new(),
    };
    match p.workload {
        Workload::SampleKde => sample(&mut t)?,
        Workload::ClusterFed => cluster(&mut t)?,
        Workload::OutliersKde => outliers(&mut t)?,
        Workload::StreamSketch => stream(&mut t)?,
    }
    Ok(t.finish())
}

/// Mirrors `dbs sample` over a binary file.
fn sample(t: &mut Trace) -> Result<(), String> {
    let rec = t.rec.clone();
    let file = {
        let _s = rec.span("core.load");
        FileSource::open(&t.p.input).map_err(err)?
    };
    let scaler = {
        let _s = rec.span("core.scale");
        MinMaxScaler::fit_source(&file, threads()).map_err(err)?
    };
    let src = scaler.scaled(&file).map_err(err)?;
    let est = {
        let _s = rec.span("density.fit");
        fit("kde:1000", &src)?
    };
    let b = t.p.sample_size;
    let cfg = BiasedConfig::new(b, 1.0).with_parallelism(threads());
    let (s, stats) = t.querying_stage("sampling.draw", |r| {
        density_biased_sample_obs(&src, &*est, &cfg, r).map_err(err)
    })?;
    {
        let _s = rec.span("core.output");
        t.say(format_args!(
            "sampled {} of {} points (target {b}, a = 1, normalizer k = {:.4e}, {} clipped)",
            s.len(),
            file.len(),
            stats.normalizer_k,
            stats.clipped
        ));
        let original = select_by_scan(&file, s.source_indices())?;
        t.write_points("sample", "sample.txt", &original)?;
        t.write_weights(s.weights())?;
    }
    t.stop();
    t.query_probe(&*est, &src)
}

/// Mirrors `dbs cluster --sample-frac` over a text file.
fn cluster(t: &mut Trace) -> Result<(), String> {
    let rec = t.rec.clone();
    let data = {
        let _s = rec.span("core.load");
        read_text(&t.p.input).map_err(err)?
    };
    let (scaler, src) = {
        let _s = rec.span("core.scale");
        let scaler = MinMaxScaler::fit_source(&data, threads()).map_err(err)?;
        let src = scaler.transform(&data).map_err(err)?;
        (scaler, src)
    };
    let est = {
        let _s = rec.span("density.fit");
        fit("agrid:8", &src)?
    };
    let target = sample_target_size(src.len(), SAMPLE_FRAC).map_err(err)?;
    let cfg = BiasedConfig::new(target, 1.0).with_parallelism(threads());
    let (s, _) = t.querying_stage("sampling.draw", |r| {
        density_biased_sample_obs(&src, &*est, &cfg, r).map_err(err)
    })?;
    let hc = HierarchicalConfig::paper_defaults(10)
        .with_parallelism(threads())
        .with_partitions(1)
        .with_pre_cluster_factor(3);
    let (clustering, fed) = {
        let _s = rec.span("cluster.sample_fed");
        let before = t.counts();
        let c = sample_fed_cluster_obs(&src, s.points(), &hc, &rec).map_err(err)?;
        (c, delta(&before, &t.counts()))
    };
    {
        let _s = rec.span("core.output");
        let noise = clustering
            .assignments
            .iter()
            .filter(|&&x| x == NOISE)
            .count();
        t.say(format_args!(
            "clustered {} points from a {target}-point sample into {} clusters ({noise} points marked noise)",
            src.len(),
            clustering.clusters.len(),
        ));
        for (i, c) in clustering.clusters.iter().enumerate() {
            let mut mean = c.mean.clone();
            scaler.inverse_point(&mut mean);
            let rounded: Vec<f64> = mean.iter().map(|x| (x * 1000.0).round() / 1000.0).collect();
            t.say(format_args!(
                "  cluster {i}: {} points, mean {rounded:?}",
                c.members.len()
            ));
        }
    }
    t.stop();
    t.query_probe(&*est, &src)?;
    let (sample_clusters, merge) = t.probe("cluster.merge", |r| {
        partitioned_cluster_obs(s.points(), &hc, r).map_err(err)
    })?;
    let (_, map_back) = t.probe("cluster.map_back", |r| {
        map_back_labels_obs(&src, &sample_clusters, None, threads(), r).map_err(err)
    })?;
    let summed: Vec<u64> = merge.iter().zip(&map_back).map(|(a, b)| a + b).collect();
    same_counts(
        "cluster.merge + cluster.map_back",
        &Counter::ALL,
        &summed,
        &fed,
    )
}

/// Mirrors `dbs outliers` over a binary file.
fn outliers(t: &mut Trace) -> Result<(), String> {
    let rec = t.rec.clone();
    let file = {
        let _s = rec.span("core.load");
        FileSource::open(&t.p.input).map_err(err)?
    };
    let scaler = {
        let _s = rec.span("core.scale");
        MinMaxScaler::fit_source(&file, threads()).map_err(err)?
    };
    let src = scaler.scaled(&file).map_err(err)?;
    let est = {
        let _s = rec.span("density.fit");
        fit("kde:1000", &src)?
    };
    let params = DbOutlierParams::new(OUTLIER_RADIUS, OUTLIER_NEIGHBORS).map_err(err)?;
    let mut cfg = ApproxConfig::new(params);
    cfg.slack = 3.0;
    cfg.parallelism = threads();
    let report = t.querying_stage("outlier.detect", |r| {
        approx_outliers_obs(&src, &*est, &cfg, r).map_err(err)
    })?;
    {
        let _s = rec.span("core.output");
        t.say(format_args!(
            "DB(p={OUTLIER_NEIGHBORS}, k={OUTLIER_RADIUS}) outliers: {} found ({} candidates verified, {} dataset passes + estimator pass)",
            report.outliers.len(),
            report.candidates,
            report.passes
        ));
        let found = select_by_scan(&file, &report.outliers)?;
        let mut scratch = vec![0.0f64; found.dim().max(1)];
        for (row, &i) in report.outliers.iter().enumerate() {
            scratch.copy_from_slice(found.point(row));
            scaler.transform_point(&mut scratch);
            scaler.inverse_point(&mut scratch);
            t.say(format_args!("  #{i}: {scratch:?}"));
        }
    }
    t.stop();
    t.query_probe(&*est, &src)
}

/// Mirrors `dbs stream` over a shard directory.
fn stream(t: &mut Trace) -> Result<(), String> {
    let rec = t.rec.clone();
    let shards = {
        let _s = rec.span("core.load");
        ShardedSource::open(&t.p.input).map_err(err)?
    };
    let scaler = {
        let _s = rec.span("core.scale");
        MinMaxScaler::fit_source(&shards, threads()).map_err(err)?
    };
    let src = scaler.scaled(&shards).map_err(err)?;
    let dim = src.dim();
    let (sketch, reservoir) = {
        // Ingest: sketch updates fused with an Algorithm R reservoir in one
        // scan, exactly as `dbs stream` does it.
        let _s = rec.span("density.fit");
        let cfg = SketchConfig {
            grids: 4,
            slots: 1 << 16,
            resolution: None,
            domain: Some(BoundingBox::unit(dim)),
            seed: 0,
        };
        let mut sketch = DensitySketch::new(dim, &cfg).map_err(err)?;
        let mut rng = seeded(sub_seed(0, 1));
        let keep = RESERVOIR.min(src.len());
        let mut points = Dataset::with_capacity(dim, keep);
        let mut indices: Vec<usize> = Vec::with_capacity(keep);
        let mut bad: Option<String> = None;
        rec.add(Counter::DatasetPasses, 1);
        src.scan(&mut |i, x| {
            if bad.is_some() {
                return;
            }
            if let Err(e) = sketch.update(x) {
                bad = Some(format!("stream ingest failed at point {i}: {e}"));
                return;
            }
            if i < RESERVOIR {
                points.push(x).expect("declared dimension");
                indices.push(i);
            } else {
                let slot = rng.gen_range(0..=i);
                if slot < RESERVOIR {
                    points.point_mut(slot).copy_from_slice(x);
                    indices[slot] = i;
                    rec.add(Counter::ReservoirReplacements, 1);
                }
            }
        })
        .map_err(err)?;
        if let Some(e) = bad {
            return Err(e);
        }
        rec.add(Counter::SketchUpdates, sketch.points_ingested());
        (sketch, indices)
    };
    let b = t.p.sample_size;
    let cfg = BiasedConfig::new(b, 1.0).with_parallelism(threads());
    let (s, stats) = t.querying_stage("sampling.draw", |r| {
        one_pass_biased_sample_obs(&src, &sketch, &cfg, r).map_err(err)
    })?;
    {
        let _s = rec.span("core.output");
        t.say(format_args!(
            "streamed {} points ({dim}d) into a sketch:4:65536 sketch ({} KiB) + {}-point reservoir",
            sketch.points_ingested(),
            sketch.memory_bytes() / 1024,
            reservoir.len()
        ));
        t.say(format_args!(
            "sampled {} of {} points off the sketch (target {b}, a = 1, normalizer k = {:.4e}, {} clipped)",
            s.len(),
            src.len(),
            stats.normalizer_k,
            stats.clipped
        ));
        let original = shards.select(s.source_indices(), &rec).map_err(err)?;
        t.write_points("sample", "sample.txt", &original)?;
        t.write_weights(s.weights())?;
        let mut sorted = reservoir.clone();
        sorted.sort_unstable();
        let kept = shards.select(&sorted, &rec).map_err(err)?;
        t.write_points("reservoir", "reservoir.txt", &kept)?;
    }
    t.stop();
    t.query_probe(&sketch, &src)
}
