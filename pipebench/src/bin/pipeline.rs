//! The pipeline benchmark: one workload per invocation.
//!
//! ```text
//! pipeline --workload NAME --seed N --seconds S --trace 0|1
//!          [--dbs PATH] [--work DIR] [--out FILE]
//! ```
//!
//! Set-up, timed and repeated from an empty work directory: generate the
//! workload's input from the seed, write it as the command reads it, and
//! run the `dbs` command on it once with `--metrics-out`. That first run
//! is part of set-up so that work a later change moves into it (a cache
//! written on first use, say) shows in `setup_s`. Its outputs are checked
//! against the ground truth and become the reference. Then:
//!
//! * `--trace 0`: runs the command back to back, one at a time, for S
//!   seconds, checking every run's output is byte-identical to the
//!   reference, and reports the end-to-end metrics;
//! * `--trace 1`: splits S between more timed runs (for CPU time) and
//!   passes of the traced in-process mirror, checking the mirror's parity
//!   with the CLI on every pass, and reports the per-layer metrics.
//!
//! Prints each metric with its unit, then as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--out FILE` also
//! appends the full record (every sample, summaries, the counter map) as
//! one JSON line, which `bench-diff` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use dbs_core::obs::Counter;
use dbs_pipebench::child::{self, ChildRun, Spawner};
use dbs_pipebench::json::{self, num, quote};
use dbs_pipebench::mirror::{self, Mirror};
use dbs_pipebench::stats::{median, Summary};
use dbs_pipebench::workload::{self, Prepared, Quality, Scale, Workload, THREADS};

/// Runs this binary as the helper that spawns `dbs` (see `child::Spawner`).
const SPAWNER_FLAG: &str = "--spawner";
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed repetitions of anything, however long one takes.
const MIN_REPS: usize = 3;
/// Mirror passes must have their stage spans cover this share of their
/// wall time.
const MIN_COVERAGE: f64 = 0.9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dbs: PathBuf,
    work: PathBuf,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pipeline --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--dbs PATH] [--work DIR] [--out FILE]",
        names.join(",")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut opts: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        opts.insert(name.to_string(), value);
    }
    let mut take = |k: &str| opts.remove(k);
    let name = take("workload").ok_or("missing --workload")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = take("seed").unwrap_or_else(|| "42".into());
    let seed = seed
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds: f64 = take("seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match take("trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let dbs = PathBuf::from(take("dbs").unwrap_or_else(|| ".bench_build/release/dbs".into()));
    let work = PathBuf::from(take("work").unwrap_or_else(|| ".bench_work".into()));
    let out = take("out").map(PathBuf::from);
    if let Some(k) = opts.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        dbs,
        work,
        out,
    })
}

/// How a metric's samples reduce to the one value a run reports.
#[derive(Clone, Copy)]
enum Reduce {
    Median,
    /// The best sample, such as the fastest invocation of a run.
    /// Interference from other tenants of a shared host only ever adds
    /// time, so the best of a run's invocations is the steadiest estimate
    /// of what the program itself costs: on a shared 2-vCPU virtual
    /// machine it varied between 25-second runs about half as much as the
    /// run's median did (see the README).
    Min,
    Max,
}

/// One named metric and its samples.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
    reduce: Reduce,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            samples,
            reduce: Reduce::Median,
        }
    }

    fn reduced(mut self, reduce: Reduce) -> Metric {
        self.reduce = reduce;
        self
    }

    fn value(&self) -> f64 {
        let s = Summary::of(&self.samples);
        match self.reduce {
            Reduce::Median => s.median,
            Reduce::Min => s.min,
            Reduce::Max => s.max,
        }
    }
}

/// What a run measured, whether or not every check passed.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    quality: Quality,
    metrics: Vec<Metric>,
    counters: Vec<(String, u64)>,
    spans: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }
}

/// The reference a timed run or mirror pass must reproduce byte for byte.
struct Reference {
    stdout: Vec<u8>,
    files: Vec<(&'static str, Vec<u8>)>,
    counters: BTreeMap<String, u64>,
    wall_s: f64,
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Runs the workload's `dbs` command once, stdout to `stdout.txt`.
fn run_dbs(
    args: &Args,
    spawner: &mut Spawner,
    p: &Prepared,
    extra: &[String],
    timeout: Duration,
) -> Result<ChildRun, String> {
    let mut argv = p.workload.dbs_args(p);
    argv.extend_from_slice(extra);
    spawner
        .run(&args.dbs, &argv, &p.dir.join("stdout.txt"), timeout)
        .map_err(|e| format!("cannot run {}: {e}", args.dbs.display()))
}

/// The first run on a freshly written input, with `--metrics-out`; its
/// outputs become the reference.
fn first_run(args: &Args, spawner: &mut Spawner, p: &Prepared) -> Result<Reference, String> {
    let metrics = p.dir.join("first_run_metrics.json");
    let extra = [
        "--metrics-out".to_string(),
        metrics.to_string_lossy().into_owned(),
    ];
    let run = run_dbs(args, spawner, p, &extra, Duration::from_secs(600))?;
    if !run.succeeded() {
        return Err(format!("first run failed: {run:?}"));
    }
    let files = p
        .workload
        .output_files()
        .iter()
        .map(|&f| Ok((f, read(&p.dir.join(f))?)))
        .collect::<Result<_, String>>()?;
    let report = json::parse(&String::from_utf8_lossy(&read(&metrics)?))?;
    let counters = report
        .get("counters")
        .ok_or("metrics report has no counters")?
        .entries()
        .map(|(k, v)| match v.as_f64() {
            Some(x) => Ok((k.clone(), x as u64)),
            None => Err(format!("counter {k} is not a number")),
        })
        .collect::<Result<_, String>>()?;
    Ok(Reference {
        stdout: read(&p.dir.join("stdout.txt"))?,
        files,
        counters,
        wall_s: run.wall_s,
    })
}

/// Sets up `setups` times (at least once), each time from an empty `dir`,
/// and checks the last reference against the ground truth (a failed check
/// is recorded in `o`). Returns the workload, the reference and each
/// set-up's wall time.
fn set_up(
    args: &Args,
    spawner: &mut Spawner,
    dir: &Path,
    setups: usize,
    o: &mut Outcome,
) -> Result<(Prepared, Reference, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last: Option<(Prepared, Reference)> = None;
    for _ in 0..setups.max(1) {
        let _ = std::fs::remove_dir_all(dir);
        let (p, write_s) = workload::prepare(args.workload, Scale::Full, args.seed, dir)?;
        let r = first_run(args, spawner, &p)?;
        if last
            .as_ref()
            .is_some_and(|(_, prev)| prev.stdout != r.stdout)
        {
            return Err("two set-ups of the same seed printed different results".into());
        }
        times.push(write_s + r.wall_s);
        last = Some((p, r));
    }
    let (p, r) = last.expect("at least one set-up ran");
    match p.check(&String::from_utf8_lossy(&r.stdout)) {
        Ok(q) => o.quality = q,
        Err(e) => o.fail(format!("output check: {e}")),
    }
    Ok((p, r, times))
}

/// Compares the outputs now in the work directory with the reference.
fn same_outputs(p: &Prepared, r: &Reference, stdout: &[u8]) -> Result<(), String> {
    if stdout != r.stdout.as_slice() {
        return Err("stdout differs from the first run's".into());
    }
    for (name, want) in &r.files {
        if read(&p.dir.join(name))? != *want {
            return Err(format!("{name} differs from the first run's"));
        }
    }
    Ok(())
}

/// Whether a measuring loop that has made `attempts` attempts since
/// `start` goes on: at least `MIN_REPS` attempts, then until `budget`
/// seconds have passed, and never past the first few failures.
fn keep_going(attempts: usize, start: Instant, budget: f64, o: &Outcome) -> bool {
    o.failed < MIN_REPS && (attempts < MIN_REPS || start.elapsed().as_secs_f64() < budget)
}

/// Timed CLI runs, back to back, until `budget` has passed.
struct CliRuns {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    rss_mb: Vec<f64>,
}

fn time_cli(
    args: &Args,
    spawner: &mut Spawner,
    p: &Prepared,
    r: &Reference,
    budget: f64,
    o: &mut Outcome,
) -> Result<CliRuns, String> {
    let limit = Duration::from_secs_f64((10.0 * r.wall_s).max(5.0));
    let mut runs = CliRuns {
        wall: Vec::new(),
        cpu: Vec::new(),
        rss_mb: Vec::new(),
    };
    let start = Instant::now();
    let mut attempts = 0;
    while keep_going(attempts, start, budget, o) {
        attempts += 1;
        o.attempted += 1;
        let run = run_dbs(args, spawner, p, &[], limit)?;
        if !run.succeeded() {
            o.fail(format!("dbs run failed: {run:?}"));
            continue;
        }
        if let Err(e) = same_outputs(p, r, &read(&p.dir.join("stdout.txt"))?) {
            o.fail(e);
            continue;
        }
        runs.wall.push(run.wall_s);
        runs.cpu.push(run.cpu_s);
        runs.rss_mb.push(run.peak_rss_bytes as f64 / 1e6);
    }
    Ok(runs)
}

/// One mirror pass, checked for parity with the CLI reference.
fn mirror_pass(p: &Prepared, r: &Reference) -> Result<Mirror, String> {
    let m = mirror::run(p)?;
    same_outputs(p, r, m.stdout.as_bytes()).map_err(|e| format!("mirror: {e}"))?;
    let counters: BTreeMap<String, u64> = m
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    if counters != r.counters {
        let diff: Vec<String> = r
            .counters
            .iter()
            .filter(|(k, v)| counters.get(*k) != Some(v))
            .map(|(k, v)| format!("{k}: cli {v}, mirror {:?}", counters.get(k)))
            .collect();
        return Err(format!(
            "mirror counters differ from the CLI's: {}",
            diff.join("; ")
        ));
    }
    if m.coverage() < MIN_COVERAGE {
        return Err(format!(
            "stage spans cover only {:.3} of the mirror's wall time",
            m.coverage()
        ));
    }
    Ok(m)
}

fn end_to_end(
    args: &Args,
    spawner: &mut Spawner,
    p: &Prepared,
    r: Reference,
    setup: Vec<f64>,
    o: &mut Outcome,
) -> Result<(), String> {
    let runs = time_cli(args, spawner, p, &r, args.seconds, o)?;
    let n = p.n as f64;
    o.metrics = vec![
        Metric::new("min_wall_s", "s", runs.wall.clone()).reduced(Reduce::Min),
        Metric::new(
            "max_points_per_s",
            "points/s",
            runs.wall.iter().map(|w| n / w).collect(),
        )
        .reduced(Reduce::Max),
        Metric::new("peak_rss_mb", "MB", runs.rss_mb),
        Metric::new("setup_s", "s", setup),
    ];
    o.counters = r.counters.into_iter().collect();
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(
    args: &Args,
    spawner: &mut Spawner,
    p: &Prepared,
    r: Reference,
    o: &mut Outcome,
) -> Result<(), String> {
    let runs = time_cli(args, spawner, p, &r, args.seconds / 2.0, o)?;
    let mut passes: Vec<Mirror> = Vec::new();
    let start = Instant::now();
    let mut attempts = 0;
    while keep_going(attempts, start, args.seconds / 2.0, o) {
        attempts += 1;
        o.attempted += 1;
        match mirror_pass(p, &r) {
            Ok(m) => passes.push(m),
            Err(e) => o.fail(e),
        }
    }
    let Some(last) = passes.last() else {
        return Err("no mirror pass succeeded".into());
    };
    let n = p.n as f64;
    let each = |f: &dyn Fn(&Mirror) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let share = |layer: &'static str| {
        each(&|m| {
            m.layer_seconds()
                .iter()
                .find(|l| l.0 == layer)
                .map_or(0.0, |l| l.1)
                / m.wall_s
        })
    };
    let count = |c: Counter| last.counter(c);
    let fixed = |name, unit, v: f64| Metric::new(name, unit, vec![v]);
    let cli_wall = median(&runs.wall);
    let trace_wall = each(&|m| m.wall_s);
    let overhead = (median(&trace_wall) - cli_wall) / cli_wall;
    let quality = |k: &str| o.quality.iter().find(|q| q.0 == k).map_or(0.0, |q| q.1);
    let outliers_reported = quality("outliers_reported") as u64;
    let efficiency: Vec<f64> = runs
        .cpu
        .iter()
        .zip(&runs.wall)
        .map(|(c, w)| c / (w * THREADS as f64))
        .collect();
    let metrics = vec![
        Metric::new("trace.wall_s", "s", trace_wall),
        fixed("trace.overhead_frac", "fraction", overhead),
        Metric::new("trace.coverage", "fraction", each(&|m| m.coverage())),
        Metric::new("cli.cpu_s", "s", runs.cpu.clone()),
        Metric::new("cli.parallel_efficiency", "fraction", efficiency),
        Metric::new("core.load_s", "s", each(&|m| m.stage("core.load"))),
        Metric::new("core.scale_s", "s", each(&|m| m.stage("core.scale"))),
        Metric::new("core.output_s", "s", each(&|m| m.stage("core.output"))),
        Metric::new("density.fit_s", "s", each(&|m| m.stage("density.fit"))),
        Metric::new(
            "density.fit_pts_per_s",
            "points/s",
            each(&|m| n / m.stage("density.fit")),
        ),
        Metric::new("density.query_s", "s", each(&|m| m.probe("density.query"))),
        Metric::new(
            "density.query_pts_per_s",
            "points/s",
            each(&|m| n / m.probe("density.query")),
        ),
        Metric::new("core.share", "fraction", share("core")),
        Metric::new("density.share", "fraction", share("density")),
        Metric::new("sampling.share", "fraction", share("sampling")),
        Metric::new("cluster.share", "fraction", share("cluster")),
        Metric::new("outlier.share", "fraction", share("outlier")),
        Metric::new(
            "cluster.merge_share",
            "fraction",
            each(&|m| m.probe("cluster.merge") / m.wall_s),
        ),
        Metric::new(
            "cluster.map_back_share",
            "fraction",
            each(&|m| m.probe("cluster.map_back") / m.wall_s),
        ),
        fixed(
            "core.dataset_passes",
            "count",
            count(Counter::DatasetPasses) as f64,
        ),
        fixed(
            "core.shard_chunk_reads",
            "count",
            count(Counter::ShardChunkReads) as f64,
        ),
        fixed(
            "core.shard_bytes_mapped",
            "bytes",
            count(Counter::ShardBytesMapped) as f64,
        ),
        fixed(
            "density.kde_kernel_evals",
            "count",
            count(Counter::KdeKernelEvals) as f64,
        ),
        fixed(
            "density.kernel_evals_per_point",
            "evals/point",
            count(Counter::KdeKernelEvals) as f64 / n,
        ),
        fixed(
            "density.grid_candidate_visits",
            "count",
            count(Counter::GridCandidateVisits) as f64,
        ),
        fixed(
            "density.agrid_cell_touches",
            "count",
            count(Counter::AgridCellTouches) as f64,
        ),
        fixed(
            "density.sketch_updates",
            "count",
            count(Counter::SketchUpdates) as f64,
        ),
        fixed(
            "sampling.clip_events",
            "count",
            count(Counter::SamplerClipEvents) as f64,
        ),
        fixed(
            "sampling.reservoir_replacements",
            "count",
            count(Counter::ReservoirReplacements) as f64,
        ),
        fixed(
            "cluster.merges",
            "count",
            count(Counter::ClusterMerges) as f64,
        ),
        fixed(
            "cluster.heap_useful_ratio",
            "fraction",
            ratio(
                count(Counter::HeapPops).saturating_sub(count(Counter::HeapStalePops)),
                count(Counter::HeapPops),
            ),
        ),
        fixed(
            "cluster.candidate_hit_ratio",
            "fraction",
            ratio(
                count(Counter::CandidateHits),
                count(Counter::CandidateHits) + count(Counter::CandidateRebuilds),
            ),
        ),
        fixed(
            "cluster.map_back_dist_evals",
            "count",
            count(Counter::MapBackDistEvals) as f64,
        ),
        fixed(
            "spatial.rep_index_queries",
            "count",
            count(Counter::RepIndexQueries) as f64,
        ),
        fixed(
            "outlier.mc_ball_samples",
            "count",
            count(Counter::BallSamples) as f64,
        ),
        fixed(
            "outlier.prefilter_skip_ratio",
            "fraction",
            ratio(count(Counter::PrefilterSkips), p.n as u64),
        ),
        fixed(
            "outlier.candidates",
            "count",
            count(Counter::OutlierCandidates) as f64,
        ),
        fixed(
            "outlier.candidate_precision",
            "fraction",
            ratio(outliers_reported, count(Counter::OutlierCandidates)),
        ),
        fixed(
            "outlier.verify_distance_evals",
            "count",
            count(Counter::VerifyDistanceEvals) as f64,
        ),
    ];
    o.metrics = metrics;
    o.counters = last
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    o.spans = last.stages.iter().chain(&last.probes).copied().collect();
    Ok(())
}

fn record(args: &Args, p: &Prepared, o: &Outcome, correct: bool) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{THREADS},\
         \"available_parallelism\":{},\"points\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{}",
        quote(args.workload.name()),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        p.n,
        o.attempted,
        o.failed
    );
    let obj = |pairs: Vec<String>| format!("{{{}}}", pairs.join(","));
    let quality = o
        .quality
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
        .collect();
    let summaries = o
        .metrics
        .iter()
        .map(|m| {
            let s = Summary::of(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|x| num(*x)).collect();
            format!(
                "{}:{{\"unit\":{},\"value\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"count\":{},\"samples\":[{}]}}",
                quote(m.name),
                quote(m.unit),
                num(m.value()),
                num(s.median),
                num(s.q1),
                num(s.q3),
                num(s.min),
                num(s.max),
                s.count,
                samples.join(",")
            )
        })
        .collect();
    let counters = o
        .counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    let spans = o
        .spans
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
        .collect();
    let problems: Vec<String> = o.problems.iter().map(|p| quote(p)).collect();
    let _ = write!(
        s,
        ",\"quality\":{},\"metrics\":{},\"counters\":{},\"spans\":{},\"problems\":[{}]}}",
        obj(quality),
        obj(summaries),
        obj(counters),
        obj(spans),
        problems.join(",")
    );
    s
}

fn run(args: &Args) -> Result<(), String> {
    let dir = args.work.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&args.work);
    result
}

fn measure(args: &Args, dir: &Path) -> Result<(), String> {
    if !args.dbs.is_file() {
        return Err(format!("no dbs binary at {}", args.dbs.display()));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut spawner = Spawner::start({
        let mut helper = Command::new(exe);
        helper.arg(SPAWNER_FLAG);
        helper
    })
    .map_err(|e| format!("cannot start the spawner: {e}"))?;
    let setups = if args.trace { 1 } else { SETUPS };
    let mut o = Outcome::default();
    let (p, r, setup) = set_up(args, &mut spawner, dir, setups, &mut o)?;
    let measured = if args.trace {
        per_layer(args, &mut spawner, &p, r, &mut o)
    } else {
        end_to_end(args, &mut spawner, &p, r, setup, &mut o)
    };
    if let Err(e) = measured {
        o.fail(e);
    }
    o.attempted = o.attempted.max(1);
    let correct = o.failed == 0 && !o.metrics.is_empty();

    println!(
        "{} seed {} ({} points, {} threads): {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        p.n,
        THREADS,
        o.attempted,
        o.failed
    );
    for why in &o.problems {
        println!("  FAILED: {why}");
    }
    for (k, v) in &o.quality {
        println!("  check {k} = {v}");
    }
    for m in &o.metrics {
        let s = Summary::of(&m.samples);
        println!(
            "  {:<32} {:>14.6} {:<12} (median {:.6}, q1 {:.6}, q3 {:.6}, n = {})",
            m.name,
            m.value(),
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.count
        );
    }
    if let Some(path) = &args.out {
        let line = record(args, &p, &o, correct);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        use std::io::Write as _;
        writeln!(f, "{line}").map_err(|e| e.to_string())?;
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                num(m.value()),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(SPAWNER_FLAG) {
        if let Err(e) = child::serve() {
            eprintln!("spawner: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
