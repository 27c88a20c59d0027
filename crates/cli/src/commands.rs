//! Implementations of the `dbs` subcommands.
//!
//! Each command opens the input — a text file, a `DBS1` binary (streamed,
//! never materialized), or a shard directory written by `dbs convert` —
//! min-max normalizes it to the unit cube for estimation — the paper's
//! canonical domain — and reports results in original coordinates.
//!
//! Every input is read through [`PointSource::read_points_into`]: on-disk
//! inputs flow through the same chunked executor passes as in-memory data,
//! one chunk per worker at a time, so every command's output is
//! byte-identical across the three input formats at every thread count
//! (`tests/shard_parity.rs` holds the pipeline to that).
//!
//! [`run`] scales the input once for the five data commands, which run as
//! methods of one `Stages` runner that owns the stages they share.

use std::io::Write;
use std::num::NonZeroUsize;
use std::path::Path;

use dbs_cluster::{
    partitioned_cluster_obs, sample_fed_cluster_obs, sample_target_size, Clustering,
    HierarchicalConfig, NOISE,
};
use dbs_core::io::{read_text, write_rows, FileSource};
use dbs_core::normalize::ScaledSource;
use dbs_core::obs::{Counter, Recorder, Tally};
use dbs_core::rng::sub_seed;
use dbs_core::{
    par, shard, BoundingBox, Dataset, MinMaxScaler, PointBlock, PointSource, Reservoir,
};
use dbs_core::{ShardedSource, WeightedSample};
use dbs_density::{DensityEstimator, DensitySketch, EstimatorKind, EstimatorSpec, SketchConfig};
use dbs_outlier::{approx_outliers_obs, ApproxConfig, DbOutlierParams};
use dbs_sampling::{
    density_biased_sample_obs, one_pass_biased_sample_obs, BiasedConfig, BiasedSampleStats,
};

use crate::args::{Command, ParsedArgs};

/// An opened input: in-memory text data, a `DBS1` binary file, or a
/// shard directory (both read by chunk). Everything downstream works through
/// [`PointSource`], so the input format never changes a result.
enum Input {
    Mem(Dataset),
    File(FileSource),
    Sharded(ShardedSource),
}

impl Input {
    fn source(&self) -> &dyn PointSource {
        match self {
            Input::Mem(d) => d,
            Input::File(f) => f,
            Input::Sharded(s) => s,
        }
    }

    /// Fetches `indices` (in order) in original coordinates.
    fn select(&self, indices: &[usize], rec: &Recorder) -> Result<Dataset, String> {
        self.source().select(indices, rec).map_err(err)
    }
}

/// A density estimator fitted on the unit-cube view, queried with points
/// in original coordinates: each block is scaled on the way in by the
/// expression [`ScaledSource`] applies, so every density has the bits the
/// estimator gives the scaled view. Densities stay in unit-cube units,
/// like `average_density`, which is all the Figure 1 sampler compares
/// them with; the unit-cube summaries (`uniform_probe`,
/// `summary_normalizer`) are not offered.
struct ScaledQueries<'a> {
    est: &'a (dyn DensityEstimator + Sync),
    scaler: &'a MinMaxScaler,
}

impl DensityEstimator for ScaledQueries<'_> {
    fn dim(&self) -> usize {
        self.est.dim()
    }

    fn dataset_size(&self) -> f64 {
        self.est.dataset_size()
    }

    fn density(&self, x: &[f64]) -> f64 {
        let mut scaled = x.to_vec();
        self.scaler.transform_point(&mut scaled);
        self.est.density(&scaled)
    }

    fn average_density(&self) -> f64 {
        self.est.average_density()
    }

    /// The scaled box's mass: the scaler maps each axis by an increasing
    /// affine map, so the box's points are the same.
    fn box_mass(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let (mut lo, mut hi) = (lo.to_vec(), hi.to_vec());
        self.scaler.transform_point(&mut lo);
        self.scaler.transform_point(&mut hi);
        self.est.box_mass(&lo, &hi)
    }

    fn densities_into(&self, block: &PointBlock, out: &mut [f64], tally: &mut Tally) {
        let mut scaled = block.as_flat().to_vec();
        for p in scaled.chunks_exact_mut(block.dim()) {
            self.scaler.transform_point(p);
        }
        let scaled = PointBlock::from_flat(block.range().start, block.dim(), &scaled);
        self.est.densities_into(&scaled, out, tally);
    }
}

/// Runs a parsed invocation, writing human-readable output to `out`.
///
/// With `--metrics-out FILE` an enabled [`Recorder`] is threaded through the
/// pipeline and its JSON snapshot written to `FILE` afterwards; the
/// human-readable output on `out` is byte-identical either way.
pub fn run(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    let metrics_path = args.get_str("metrics-out");
    let rec = if metrics_path.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let input = {
        let _span = rec.span("load");
        load(&args.input)?
    };
    match args.command {
        Command::Info => info(args, &input, out)?,
        Command::Convert => convert(args, &input, &rec, out)?,
        command => {
            // One chunked pass fits the unit-cube scaler, bit-identical to
            // fitting on the materialized data.
            let threads = args.get_threads()?;
            let scaler = MinMaxScaler::fit_source(input.source(), threads).map_err(err)?;
            let stages = Stages {
                args,
                input: &input,
                scaler: &scaler,
                scaled: scaler.scaled(input.source()).map_err(err)?,
                rec: &rec,
                threads,
            };
            match command {
                Command::Sample => stages.sample(out),
                Command::Cluster => stages.cluster(out),
                Command::Outliers => stages.outliers(out),
                Command::Density => stages.density(out),
                Command::Stream => stages.stream(out),
                Command::Info | Command::Convert => unreachable!("handled above"),
            }?
        }
    }
    if let Some(path) = metrics_path {
        let report = rec.snapshot().expect("recorder enabled when path given");
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    Ok(())
}

fn load(path: &str) -> Result<Input, String> {
    let p = Path::new(path);
    let result = if shard::is_shard_dir(p) {
        ShardedSource::open(p).map(Input::Sharded)
    } else if p.is_dir() {
        return Err(format!("cannot load {path}: directory contains no shards"));
    } else if p
        .extension()
        .map(|e| e == "dbs1" || e == "bin")
        .unwrap_or(false)
    {
        FileSource::open(p).map(Input::File)
    } else {
        read_text(p).map(Input::Mem)
    };
    result.map_err(|e| match e {
        // Worded as the scaler pass words it for binary and shard inputs.
        dbs_core::Error::NonFinite { .. } => e.to_string(),
        _ => format!("cannot load {path}: {e}"),
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn io_err(e: std::io::Error) -> String {
    format!("write failed: {e}")
}

fn info(args: &ParsedArgs, input: &Input, out: &mut dyn Write) -> Result<(), String> {
    let source = input.source();
    writeln!(out, "points:     {}", source.len()).map_err(io_err)?;
    writeln!(out, "dimensions: {}", source.dim()).map_err(io_err)?;
    let bb = par::par_bounding_box(source, args.get_threads()?).map_err(err)?;
    if let Some(bb) = bb {
        writeln!(out, "min:        {:?}", bb.min()).map_err(io_err)?;
        writeln!(out, "max:        {:?}", bb.max()).map_err(io_err)?;
    }
    if let Input::Sharded(s) = input {
        writeln!(out, "shards:     {} (seed {})", s.shard_count(), s.seed()).map_err(io_err)?;
    }
    Ok(())
}

fn convert(
    args: &ParsedArgs,
    input: &Input,
    rec: &Recorder,
    out: &mut dyn Write,
) -> Result<(), String> {
    let dir = args
        .get_str("output")
        .ok_or_else(|| "convert requires --output DIR".to_string())?;
    let shard_points = args.get_usize("shard-points", shard::DEFAULT_SHARD_POINTS)?;
    let seed = args.get_u64("seed", 0)?;
    let dir_path = Path::new(dir);
    std::fs::create_dir_all(dir_path).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let total = {
        let _span = rec.span("convert");
        shard::write_shards_with(dir_path, input.source(), seed, shard_points).map_err(err)?
    };
    writeln!(
        out,
        "wrote {total} points ({}d) to {} shards in {dir}",
        input.source().dim(),
        total.div_ceil(shard_points as u64)
    )
    .map_err(io_err)?;
    Ok(())
}

/// The stage runner of the five data commands: the parsed flags, the
/// opened input, its unit-cube scaler and scaled view, the recorder and
/// the thread count. The view is lazy for every input format: chunks are
/// transformed as they stream, so no scaled copy of the data is held and
/// on-disk inputs stay out-of-core. Flags are read where each command
/// first needs them, so a bad value is reported in the same order
/// whichever stage reads it.
struct Stages<'a> {
    args: &'a ParsedArgs,
    input: &'a Input,
    scaler: &'a MinMaxScaler,
    scaled: ScaledSource<'a, dyn PointSource + 'a>,
    rec: &'a Recorder,
    threads: NonZeroUsize,
}

impl Stages<'_> {
    fn src(&self) -> &dyn PointSource {
        &self.scaled
    }

    fn seed(&self) -> Result<u64, String> {
        self.args.get_u64("seed", 0)
    }

    /// The `--estimator` spec (`default` when absent) and its raw text.
    /// Every spec carries its own knobs (`kde:500`, `grid:64`, `hashgrid`,
    /// `wavelet:5`, `agrid:8`, …).
    fn spec(&self, default: &'static str) -> Result<(&str, EstimatorSpec), String> {
        let raw = self.args.get_str("estimator").unwrap_or(default);
        Ok((raw, EstimatorSpec::parse(raw).map_err(err)?))
    }

    /// Fits the density backend selected by `--estimator` (default `kde`)
    /// under the `fit_density` span. Every command shares this factory, so
    /// backends are interchangeable across sample/cluster/outliers/density.
    fn fit_density(&self) -> Result<Box<dyn DensityEstimator + Sync>, String> {
        let _span = self.rec.span("fit_density");
        let (_, spec) = self.spec("kde")?;
        spec.with_seed(self.seed()?)
            .with_domain(BoundingBox::unit(self.src().dim()))
            .fit(self.src())
            .map_err(err)
    }

    /// Draws a density-biased sample of target size `b` with exponent `a`
    /// under the `sample` span, running `sampler` on the config.
    fn draw(
        &self,
        b: usize,
        a: f64,
        sampler: impl FnOnce(&BiasedConfig) -> dbs_core::Result<(WeightedSample, BiasedSampleStats)>,
    ) -> Result<(WeightedSample, BiasedSampleStats), String> {
        let cfg = BiasedConfig::new(b, a)
            .with_seed(self.seed()?)
            .with_parallelism(self.threads);
        let _span = self.rec.span("sample");
        sampler(&cfg).map_err(err)
    }

    /// Writes `data` in the text format to `path`, formatted on every
    /// worker.
    fn write_rows(&self, path: &str, data: &[f64], width: usize) -> Result<(), String> {
        write_rows(Path::new(path), data, width, self.threads).map_err(err)
    }

    /// Writes a drawn sample whose rows in original coordinates are
    /// `original`: `--output`, `--weights`, `--reservoir-out` when the
    /// command kept a `reservoir`, and without `--output` a five-point
    /// preview.
    fn write_sample(
        &self,
        s: &WeightedSample,
        original: &Dataset,
        reservoir: Option<&[usize]>,
        out: &mut dyn Write,
    ) -> Result<(), String> {
        if let Some(path) = self.args.get_str("output") {
            self.write_rows(path, original.as_flat(), original.dim())?;
            writeln!(out, "wrote sample to {path}").map_err(io_err)?;
        }
        if let Some(path) = self.args.get_str("weights") {
            self.write_rows(path, s.weights(), 1)?;
            writeln!(out, "wrote weights to {path}").map_err(io_err)?;
        }
        if let (Some(path), Some(indices)) = (self.args.get_str("reservoir-out"), reservoir) {
            let mut sorted = indices.to_vec();
            sorted.sort_unstable();
            let kept = self.input.select(&sorted, self.rec)?;
            self.write_rows(path, kept.as_flat(), kept.dim())?;
            writeln!(out, "wrote reservoir to {path}").map_err(io_err)?;
        }
        if self.args.get_str("output").is_none() {
            for p in original.iter().take(5) {
                writeln!(out, "  {p:?}").map_err(io_err)?;
            }
            if original.len() > 5 {
                let more = original.len() - 5;
                writeln!(out, "  ... ({more} more; use --output FILE)").map_err(io_err)?;
            }
        }
        Ok(())
    }

    /// Prints `header` (given the cluster and noise counts), then each
    /// cluster's size and its mean in original coordinates, rounded to
    /// three decimals. With the sample's `weights`, each size comes with a
    /// Horvitz–Thompson estimate of the cluster's true size.
    fn report_clusters(
        &self,
        clustering: &Clustering,
        weights: Option<&[f64]>,
        header: impl FnOnce(usize, usize) -> String,
        out: &mut dyn Write,
    ) -> Result<(), String> {
        let noise = clustering.assignments.iter().filter(|&&x| x == NOISE);
        let line = header(clustering.clusters.len(), noise.count());
        writeln!(out, "{line}").map_err(io_err)?;
        for (i, c) in clustering.clusters.iter().enumerate() {
            let mut mean = c.mean.clone();
            self.scaler.inverse_point(&mut mean);
            let mean: Vec<f64> = mean.iter().map(|x| (x * 1000.0).round() / 1000.0).collect();
            let size = match weights {
                Some(w) => {
                    let est_size: f64 = c.members.iter().map(|&m| w[m]).sum();
                    let m = c.members.len();
                    format!("{m} sample points (≈{est_size:.0} dataset points)")
                }
                None => format!("{} points", c.members.len()),
            };
            writeln!(out, "  cluster {i}: {size}, mean {mean:?}").map_err(io_err)?;
        }
        Ok(())
    }

    /// Samples the raw input, scaling each chunk on its way into the
    /// estimator: the picks are the input's own rows, so writing them
    /// needs no second read of the input.
    fn sample(&self, out: &mut dyn Write) -> Result<(), String> {
        let est = self.fit_density()?;
        let b = self.args.get_usize("size", 1000)?;
        let a = self.args.get_f64("exponent", 1.0)?;
        let est = ScaledQueries {
            est: &*est,
            scaler: self.scaler,
        };
        let raw = self.input.source();
        let (s, stats) = self.draw(b, a, |cfg| {
            density_biased_sample_obs(raw, &est, cfg, self.rec)
        })?;
        writeln!(
            out,
            "sampled {} of {} points (target {b}, a = {a}, normalizer k = {:.4e}, {} clipped)",
            s.len(),
            self.src().len(),
            stats.normalizer_k,
            stats.clipped
        )
        .map_err(io_err)?;
        self.write_sample(&s, s.points(), None, out)
    }

    fn cluster(&self, out: &mut dyn Write) -> Result<(), String> {
        let src = self.src();
        let a = self.args.get_f64("exponent", 1.0)?;
        let k = self.args.get_usize("clusters", 10)?;
        let mut hc = HierarchicalConfig::paper_defaults(k)
            .with_parallelism(self.threads)
            .with_partitions(self.args.get_usize("partitions", 1)?)
            .with_pre_cluster_factor(self.args.get_usize("pre-factor", 3)?);
        if self.args.get_flag("no-trim") {
            hc.trim_min_size = 0;
        }

        // --sample-frac selects the scalable path: cluster an F·n-point
        // density-biased sample, then map every dataset point back to its
        // nearest representative. F = 1.0 clusters the full dataset directly
        // (no estimator, no sampling, no map-back) — the one path that needs
        // the scaled data materialized, guarded by the collection cap.
        if self.args.get_str("sample-frac").is_some() {
            let frac = self.args.get_f64("sample-frac", 1.0)?;
            let target = sample_target_size(src.len(), frac).map_err(err)?;
            let clustering = if target == src.len() {
                let full = dbs_core::scan::materialize(src).map_err(err)?;
                let _span = self.rec.span("cluster");
                partitioned_cluster_obs(&full, &hc, self.rec).map_err(err)?
            } else {
                let est = self.fit_density()?;
                let figure1 = |cfg: &_| density_biased_sample_obs(src, &*est, cfg, self.rec);
                let (s, _) = self.draw(target, a, figure1)?;
                // Map-back streams the full (scaled) source chunk by chunk,
                // so a sharded input stays out-of-core end to end.
                let _span = self.rec.span("cluster");
                sample_fed_cluster_obs(src, s.points(), &hc, self.rec).map_err(err)?
            };
            let n = src.len();
            return self.report_clusters(&clustering, None, |k, noise| {
                format!("clustered {n} points from a {target}-point sample into {k} clusters ({noise} points marked noise)")
            }, out);
        }

        let est = self.fit_density()?;
        let b = self.args.get_usize("size", 1000)?;
        let figure1 = |cfg: &_| density_biased_sample_obs(src, &*est, cfg, self.rec);
        let (s, _) = self.draw(b, a, figure1)?;
        let clustering = {
            let _span = self.rec.span("cluster");
            partitioned_cluster_obs(s.points(), &hc, self.rec).map_err(err)?
        };
        let m = s.len();
        self.report_clusters(&clustering, Some(s.weights()), |k, noise| {
            format!("clustered a {m}-point sample into {k} clusters ({noise} sample points trimmed as noise)")
        }, out)
    }

    fn outliers(&self, out: &mut dyn Write) -> Result<(), String> {
        let est = self.fit_density()?;
        let radius = self.args.get_f64("radius", 0.05)?;
        let p = self.args.get_usize("neighbors", 3)?;
        let params = DbOutlierParams::new(radius, p).map_err(err)?;
        let mut cfg = ApproxConfig::new(params);
        cfg.slack = self.args.get_f64("slack", 3.0)?;
        cfg.parallelism = self.threads;
        let report = {
            let _span = self.rec.span("outliers");
            approx_outliers_obs(self.src(), &*est, &cfg, self.rec).map_err(err)?
        };
        writeln!(
            out,
            "DB(p={p}, k={radius}) outliers: {} found ({} candidates verified, {} dataset passes + estimator pass)",
            report.outliers.len(),
            report.candidates,
            report.passes
        )
        .map_err(io_err)?;
        // Report outliers in original coordinates via the scaled round trip —
        // the same values the detector saw, mapped back.
        let found = self.input.select(&report.outliers, self.rec)?;
        let mut scratch = vec![0.0f64; found.dim().max(1)];
        for (row, &i) in report.outliers.iter().enumerate() {
            scratch.copy_from_slice(found.point(row));
            self.scaler.transform_point(&mut scratch);
            self.scaler.inverse_point(&mut scratch);
            writeln!(out, "  #{i}: {scratch:?}").map_err(io_err)?;
        }
        Ok(())
    }

    /// The streaming-service path: one bounded-memory ingest pass builds the
    /// Count-Min density sketch on every worker, and an Algorithm R uniform
    /// reservoir is drawn by index alongside it, so memory is one table of
    /// `grids * slots` counters per worker plus the reservoir however long
    /// the stream. A second pass draws the one-pass biased sample off the
    /// sketch (`summary_normalizer` replaces the normalizer pass); with the
    /// shared scaler pass, three bounded scans of the source.
    fn stream(&self, out: &mut dyn Write) -> Result<(), String> {
        let src = self.src();
        let dim = src.dim();
        let (raw, spec) = self.spec("sketch")?;
        let EstimatorKind::Sketch { grids, slots } = spec.kind else {
            let msg = "stream ingests into a sketch; --estimator must be sketch[:grids[:slots]]";
            return Err(format!("{msg}, got {raw}"));
        };
        let seed = self.seed()?;
        let sketch_cfg = SketchConfig {
            grids,
            slots,
            resolution: None,
            domain: Some(BoundingBox::unit(dim)),
            seed,
        };
        let sketch = DensitySketch::new(dim, &sketch_cfg).map_err(err)?;
        let r_size = self.args.get_usize("reservoir", 1000)?;
        if r_size == 0 {
            return Err("--reservoir must be >= 1".to_string());
        }

        // Ingest pass: the sketch folds the source on every worker. The
        // reservoir keeps only indices (`write_sample` fetches its points),
        // and Algorithm R's choices depend only on the index, so it is drawn
        // without the data. Its RNG is a sub-stream of the seed so it never
        // collides with the sampler's keyed inclusion draws.
        self.rec.add(Counter::DatasetPasses, 1);
        let (sketch, (reservoir, replacements)) = {
            let _span = self.rec.span("ingest");
            let sketch = sketch.fit(src, self.threads).map_err(|e| match e {
                // Worded as `ShiftedGrids::update` rejects the point.
                dbs_core::Error::NonFinite { index } => {
                    let bad = "invalid parameter: non-finite coordinate in update";
                    format!("stream ingest failed at point {index}: {bad}")
                }
                e => err(e),
            })?;
            let n = src.len();
            let reservoir = Reservoir::draw_indices(n, r_size.min(n), sub_seed(seed, 1));
            (sketch, reservoir)
        };
        let rec = self.rec;
        rec.add(Counter::SketchUpdates, sketch.points_ingested());
        rec.add(Counter::ReservoirReplacements, replacements);
        writeln!(
            out,
            "streamed {} points ({dim}d) into a {} sketch ({} KiB) + {}-point reservoir",
            sketch.points_ingested(),
            spec.label(),
            sketch.memory_bytes() / 1024,
            reservoir.len()
        )
        .map_err(io_err)?;

        // Biased sample off the summary: one further pass, bounded memory.
        let b = self.args.get_usize("size", 1000)?;
        let a = self.args.get_f64("exponent", 1.0)?;
        let (s, stats) = self.draw(b, a, |cfg| {
            one_pass_biased_sample_obs(src, &sketch, cfg, self.rec)
        })?;
        writeln!(
            out,
            "sampled {} of {} points off the sketch (target {b}, a = {a}, normalizer k = {:.4e}, {} clipped)",
            s.len(),
            src.len(),
            stats.normalizer_k,
            stats.clipped
        )
        .map_err(io_err)?;
        let original = self.input.select(s.source_indices(), self.rec)?;
        self.write_sample(&s, &original, Some(&reservoir), out)
    }

    fn density(&self, out: &mut dyn Write) -> Result<(), String> {
        let est = self.fit_density()?;
        let dim = self.src().dim();
        let at = self
            .args
            .get_point("at")?
            .ok_or_else(|| "density requires --at X,Y,...".to_string())?;
        if at.len() != dim {
            return Err(format!("--at has {} coordinates, data has {dim}", at.len()));
        }
        let mut q = at.clone();
        self.scaler.transform_point(&mut q);
        let (d, avg) = (est.density(&q), est.average_density());
        let rel = d / avg.max(f64::MIN_POSITIVE);
        writeln!(
            out,
            "density at {at:?}: {d:.4} (average over domain: {avg:.4})"
        )
        .map_err(io_err)?;
        writeln!(out, "relative to average: {rel:.2}x").map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn write_sample_file(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("dbs_cli_{}_{}.txt", std::process::id(), name));
        // Two dense blobs plus one isolated point, in weird coordinates.
        let mut body = String::from("# test data\n");
        let mut rng = dbs_core::rng::seeded(9);
        use rand::Rng;
        for _ in 0..300 {
            body.push_str(&format!(
                "{} {}\n",
                100.0 + rng.gen::<f64>() * 5.0,
                -50.0 + rng.gen::<f64>() * 5.0
            ));
        }
        for _ in 0..300 {
            body.push_str(&format!(
                "{} {}\n",
                140.0 + rng.gen::<f64>() * 5.0,
                -20.0 + rng.gen::<f64>() * 5.0
            ));
        }
        body.push_str("120 -35\n"); // the outlier
        std::fs::write(&path, body).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn try_run(argv: &[&str]) -> Result<String, String> {
        let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&parse(&args).unwrap(), &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn run_cli(argv: &[&str]) -> String {
        try_run(argv).unwrap()
    }

    #[test]
    fn info_reports_shape() {
        let file = write_sample_file("info");
        let output = run_cli(&["info", &file]);
        assert!(output.contains("points:     601"));
        assert!(output.contains("dimensions: 2"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn sample_writes_output_file() {
        let file = write_sample_file("sample");
        let out_file = format!("{file}.sample");
        let output = run_cli(&[
            "sample",
            &file,
            "--size",
            "100",
            "--exponent",
            "1.0",
            "--output",
            &out_file,
        ]);
        assert!(output.contains("sampled"));
        let written = read_text(Path::new(&out_file)).unwrap();
        assert!(written.len() > 30 && written.len() < 250);
        // Sampled points are in original coordinates.
        let bb = written.bounding_box().unwrap();
        assert!(bb.min()[0] >= 99.0 && bb.max()[0] <= 146.0);
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&out_file).ok();
    }

    #[test]
    fn cluster_finds_the_two_blobs() {
        let file = write_sample_file("cluster");
        let output = run_cli(&[
            "cluster",
            &file,
            "--clusters",
            "2",
            "--size",
            "300",
            "--estimator",
            "kde:200",
        ]);
        assert!(output.contains("into 2 clusters"), "{output}");
        // Means reported in original coordinates (near the blob centers).
        assert!(
            output.contains("102.") || output.contains("103."),
            "{output}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn cluster_partitioned_finds_the_two_blobs() {
        let file = write_sample_file("cluster_part");
        let output = run_cli(&[
            "cluster",
            &file,
            "--clusters",
            "2",
            "--size",
            "300",
            "--estimator",
            "kde:200",
            "--partitions",
            "2",
        ]);
        assert!(output.contains("into 2 clusters"), "{output}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn cluster_sample_fed_labels_every_point() {
        let file = write_sample_file("cluster_frac");
        let output = run_cli(&[
            "cluster",
            &file,
            "--clusters",
            "2",
            "--sample-frac",
            "0.2",
            "--estimator",
            "agrid:4",
        ]);
        assert!(output.contains("clustered 601 points"), "{output}");
        assert!(output.contains("from a 121-point sample"), "{output}");
        assert!(output.contains("into 2 clusters"), "{output}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn cluster_full_frac_skips_sampling() {
        let file = write_sample_file("cluster_full");
        let output = run_cli(&[
            "cluster",
            &file,
            "--clusters",
            "2",
            "--sample-frac",
            "1.0",
            "--partitions",
            "3",
        ]);
        assert!(output.contains("clustered 601 points"), "{output}");
        assert!(output.contains("from a 601-point sample"), "{output}");
        assert!(output.contains("into 2 clusters"), "{output}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn cluster_sample_fed_is_thread_count_independent() {
        let file = write_sample_file("cluster_frac_threads");
        let mut outputs = Vec::new();
        for t in ["1", "7"] {
            outputs.push(run_cli(&[
                "cluster",
                &file,
                "--clusters",
                "2",
                "--sample-frac",
                "0.25",
                "--estimator",
                "agrid:4",
                "--partitions",
                "2",
                "--threads",
                t,
            ]));
        }
        assert_eq!(outputs[0], outputs[1]);
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn cluster_rejects_bad_scalable_options() {
        let file = write_sample_file("cluster_bad");
        for bad in [
            vec!["cluster", &file, "--sample-frac", "1.5"],
            vec!["cluster", &file, "--sample-frac", "0"],
            vec!["cluster", &file, "--partitions", "0"],
            vec![
                "cluster",
                &file,
                "--sample-frac",
                "1.0",
                "--pre-factor",
                "0",
            ],
        ] {
            let err = try_run(&bad).unwrap_err();
            assert!(err.contains("invalid parameter"), "{bad:?}: {err}");
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn outliers_finds_the_isolated_point() {
        let file = write_sample_file("outliers");
        // Radius in normalized units; the isolated point is far from both
        // blobs.
        let output = run_cli(&[
            "outliers",
            &file,
            "--radius",
            "0.1",
            "--neighbors",
            "2",
            "--estimator",
            "kde:200",
            "--slack",
            "10",
        ]);
        assert!(output.contains("#600"), "{output}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn density_contrasts_blob_and_void() {
        let file = write_sample_file("density");
        let in_blob = run_cli(&[
            "density",
            &file,
            "--at",
            "102,-47",
            "--estimator",
            "kde:200",
        ]);
        let in_void = run_cli(&[
            "density",
            &file,
            "--at",
            "105,-25",
            "--estimator",
            "kde:200",
        ]);
        let ratio = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.contains("relative"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|t| t.trim_end_matches('x').parse().ok())
                .unwrap()
        };
        assert!(ratio(&in_blob) > ratio(&in_void), "{in_blob} vs {in_void}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn sample_output_is_thread_count_independent() {
        let file = write_sample_file("threads");
        let mut outputs = Vec::new();
        for t in ["1", "7"] {
            let out_file = format!("{file}.t{t}");
            run_cli(&[
                "sample",
                &file,
                "--size",
                "100",
                "--output",
                &out_file,
                "--threads",
                t,
            ]);
            outputs.push(std::fs::read_to_string(&out_file).unwrap());
            std::fs::remove_file(&out_file).ok();
        }
        assert_eq!(outputs[0], outputs[1]);
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn metrics_out_writes_json_without_changing_output() {
        let file = write_sample_file("metrics");
        let metrics_file = format!("{file}.metrics.json");
        let base = &[
            "outliers",
            &file,
            "--radius",
            "0.1",
            "--neighbors",
            "2",
            "--estimator",
            "kde:200",
            "--slack",
            "10",
        ];
        let plain = run_cli(base);
        let mut with_metrics: Vec<&str> = base.to_vec();
        with_metrics.extend_from_slice(&["--metrics-out", &metrics_file]);
        let instrumented = run_cli(&with_metrics);
        assert_eq!(plain, instrumented, "metrics must not change the output");
        let json = std::fs::read_to_string(&metrics_file).unwrap();
        assert!(json.contains("\"dataset_passes\": 2"), "{json}");
        assert!(json.contains("\"mc_ball_samples\""), "{json}");
        assert!(json.contains("\"name\": \"outliers\""), "{json}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&metrics_file).ok();
    }

    #[test]
    fn sample_accepts_alternate_estimators() {
        let file = write_sample_file("estimators");
        for spec in [
            "kde:200",
            "grid:16",
            "hashgrid:16",
            "wavelet:4:64",
            "agrid:4",
        ] {
            let output = run_cli(&["sample", &file, "--size", "100", "--estimator", spec]);
            assert!(output.contains("sampled"), "{spec}: {output}");
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn unknown_estimator_is_a_clean_error() {
        let file = write_sample_file("badest");
        let err = try_run(&["sample", &file, "--estimator", "ballpark"]).unwrap_err();
        assert!(err.contains("estimator spec"), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = try_run(&["info", "/nonexistent/x.txt"]).unwrap_err();
        assert!(err.contains("cannot load"));
    }

    fn shard_dir(name: &str) -> String {
        let mut path = std::env::temp_dir();
        path.push(format!("dbs_cli_{}_{}_shards", std::process::id(), name));
        std::fs::remove_dir_all(&path).ok();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn convert_writes_shards_and_info_reads_them() {
        let file = write_sample_file("convert");
        let dir = shard_dir("convert");
        let output = run_cli(&["convert", &file, "--output", &dir, "--shard-points", "4096"]);
        assert_eq!(
            output,
            format!("wrote 601 points (2d) to 1 shards in {dir}\n")
        );
        let info = run_cli(&["info", &dir]);
        assert!(info.contains("points:     601"), "{info}");
        assert!(info.contains("dimensions: 2"), "{info}");
        assert!(info.contains("shards:     1"), "{info}");
        // Refuses to overwrite an existing shard directory.
        let err = try_run(&["convert", &file, "--output", &dir]).unwrap_err();
        assert!(err.contains("already contains"), "{err}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_input_is_byte_identical_to_text_input() {
        let file = write_sample_file("shard_parity");
        let dir = shard_dir("shard_parity");
        run_cli(&["convert", &file, "--output", &dir]);
        // The same pipeline over the text file (in-memory path) and the
        // shard directory (chunk-read path) must print byte-identical
        // results, sampled points included.
        let cases: Vec<Vec<&str>> = vec![
            vec!["sample", "--size", "100", "--estimator", "agrid:4"],
            vec![
                "cluster",
                "--clusters",
                "2",
                "--sample-frac",
                "0.2",
                "--estimator",
                "agrid:4",
            ],
            vec![
                "outliers",
                "--radius",
                "0.1",
                "--neighbors",
                "2",
                "--estimator",
                "kde:200",
                "--slack",
                "10",
            ],
        ];
        for case in &cases {
            for threads in ["1", "7"] {
                let assemble = |input: &str| {
                    let mut argv = vec![case[0], input];
                    argv.extend_from_slice(&case[1..]);
                    argv.extend_from_slice(&["--threads", threads]);
                    run_cli(&argv)
                };
                let from_text = assemble(&file);
                let from_shards = assemble(&dir);
                assert_eq!(
                    from_text, from_shards,
                    "{} diverged over shards (threads {threads})",
                    case[0]
                );
            }
        }
        std::fs::remove_file(&file).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_samples_off_the_sketch() {
        let file = write_sample_file("stream");
        let out_file = format!("{file}.stream");
        let output = run_cli(&[
            "stream",
            &file,
            "--size",
            "100",
            "--reservoir",
            "50",
            "--output",
            &out_file,
        ]);
        assert!(output.contains("streamed 601 points (2d)"), "{output}");
        assert!(output.contains("sketch:4:65536 sketch"), "{output}");
        assert!(output.contains("50-point reservoir"), "{output}");
        assert!(output.contains("sampled"), "{output}");
        let written = read_text(Path::new(&out_file)).unwrap();
        assert!(
            written.len() > 30 && written.len() < 300,
            "{}",
            written.len()
        );
        // Sampled points come back in original coordinates.
        let bb = written.bounding_box().unwrap();
        assert!(bb.min()[0] >= 99.0 && bb.max()[0] <= 146.0);
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&out_file).ok();
    }

    #[test]
    fn stream_matches_over_shards_and_threads() {
        // The stream pipeline must not depend on storage backing or thread
        // count: sequential ingest plus keyed sampler draws make the whole
        // run a pure function of (data, config).
        let file = write_sample_file("stream_parity");
        let dir = shard_dir("stream_parity");
        run_cli(&["convert", &file, "--output", &dir]);
        let mut outputs = Vec::new();
        for input in [file.as_str(), dir.as_str()] {
            for t in ["1", "7"] {
                outputs.push(run_cli(&[
                    "stream",
                    input,
                    "--size",
                    "100",
                    "--estimator",
                    "sketch:4:4096",
                    "--threads",
                    t,
                ]));
            }
        }
        for o in &outputs[1..] {
            assert_eq!(&outputs[0], o);
        }
        std::fs::remove_file(&file).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_writes_metrics_with_sketch_counters() {
        let file = write_sample_file("stream_metrics");
        let metrics_file = format!("{file}.metrics.json");
        let reservoir_file = format!("{file}.reservoir");
        let output = run_cli(&[
            "stream",
            &file,
            "--size",
            "100",
            "--reservoir",
            "40",
            "--reservoir-out",
            &reservoir_file,
            "--metrics-out",
            &metrics_file,
        ]);
        assert!(output.contains("wrote reservoir"), "{output}");
        let reservoir = read_text(Path::new(&reservoir_file)).unwrap();
        assert_eq!(reservoir.len(), 40);
        let json = std::fs::read_to_string(&metrics_file).unwrap();
        assert!(json.contains("\"sketch_updates\": 601"), "{json}");
        // Ingest + one-pass sample (the scaler pass is untracked).
        assert!(json.contains("\"dataset_passes\": 2"), "{json}");
        assert!(json.contains("\"name\": \"ingest\""), "{json}");
        // Algorithm R's replacements depend only on the stream length, the
        // reservoir size and its seed (`sub_seed(seed, 1)`, default seed 0).
        let mut reservoir = Reservoir::new(1, 40, sub_seed(0, 1));
        (0..601).for_each(|i| reservoir.offer(i, &[0.0]));
        assert!(reservoir.replacements() > 0);
        let replacements = format!("\"reservoir_replacements\": {}", reservoir.replacements());
        assert!(json.contains(&replacements), "{json}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&metrics_file).ok();
        std::fs::remove_file(&reservoir_file).ok();
    }

    #[test]
    fn stream_rejects_non_sketch_estimator() {
        let file = write_sample_file("stream_badest");
        let err = try_run(&["stream", &file, "--estimator", "agrid:8"]).unwrap_err();
        assert!(err.contains("sketch[:grids[:slots]]"), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn convert_requires_output() {
        let file = write_sample_file("convert_noout");
        let err = try_run(&["convert", &file]).unwrap_err();
        assert!(err.contains("--output"), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn density_requires_at() {
        let file = write_sample_file("noat");
        let err = try_run(&["density", &file]).unwrap_err();
        assert!(err.contains("--at"));
        std::fs::remove_file(&file).ok();
    }
}
