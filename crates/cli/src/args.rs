//! Hand-rolled argument parsing for the `dbs` tool (no external parser in
//! the allowed dependency set).

use std::collections::HashMap;

/// A parsed `dbs` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: Command,
    /// Input dataset path.
    pub input: String,
    /// All `--key value` options.
    pub options: HashMap<String, String>,
}

/// The `dbs` subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Print dataset shape and bounding box.
    Info,
    /// Rewrite the input as a shard directory.
    Convert,
    /// Draw a density-biased (or uniform) sample.
    Sample,
    /// Sample and cluster, reporting cluster summaries.
    Cluster,
    /// Detect DB(p,k) outliers with density pruning.
    Outliers,
    /// Evaluate the density estimate at a point.
    Density,
    /// Ingest the input as an unbounded stream: build a density sketch and
    /// a reservoir in one bounded-memory pass, then draw a biased sample
    /// off the sketch.
    Stream,
}

impl Command {
    fn from_str(s: &str) -> Option<Command> {
        match s {
            "info" => Some(Command::Info),
            "convert" => Some(Command::Convert),
            "sample" => Some(Command::Sample),
            "cluster" => Some(Command::Cluster),
            "outliers" => Some(Command::Outliers),
            "density" => Some(Command::Density),
            "stream" => Some(Command::Stream),
            _ => None,
        }
    }
}

/// The usage string printed on parse errors.
pub const USAGE: &str = "\
usage: dbs <command> <input> [options]

<input> is a data file (text, or DBS1 binary by .dbs1/.bin extension) or a
shard directory written by `dbs convert` (auto-detected). Shard directories
stream through every command in bounded memory; results are byte-identical
to the same data held in memory.

commands:
  info      print dataset shape and bounding box
  convert   rewrite the input as a shard directory
              --output DIR      destination directory (required; created if
                                missing, must not already contain shards)
              --shard-points N  points per shard file (positive multiple of
                                4096; default 1048576)
  sample    draw a density-biased sample
              --size N        target sample size (default 1000)
              --exponent A    bias exponent a (default 1.0; 0 = uniform)
              --output FILE   write sampled points (text format)
              --weights FILE  also write the 1/p importance weights
  cluster   sample then run hierarchical clustering
              --clusters K    target cluster count (default 10)
              --size/--exponent as for sample
              --no-trim       disable CURE noise trimming
              --partitions P  pre-cluster P deterministic partitions before
                              the final merge pass (default 1)
              --pre-factor Q  per-partition reduction factor: each partition
                              pre-clusters to ~1/Q of its points (default 3)
              --sample-frac F cluster a density-biased sample of F·n points
                              (F in (0,1]), then assign every dataset point
                              to its nearest representative; 1.0 clusters
                              the full dataset directly
  outliers  detect DB(p,k) outliers
              --radius K      neighborhood radius (normalized units)
              --neighbors P   max neighbors for an outlier (default 3)
              --slack S       pruning slack (default 3)
  density   evaluate the density estimate
              --at X,Y,...    query point (original coordinates)
  stream    treat the input as an unbounded stream: one bounded-memory
            ingest pass builds a Count-Min density sketch plus a uniform
            reservoir (never materializing the data), then one more pass
            draws a density-biased sample off the sketch
              --size N        target biased sample size (default 1000)
              --exponent A    bias exponent a (default 1.0; 0 = uniform)
              --reservoir N   uniform reservoir size (default 1000)
              --estimator SPEC  must be sketch[:grids[:slots]]
                              (default sketch)
              --output FILE   write sampled points (text format)
              --weights FILE  also write the 1/p importance weights
              --reservoir-out FILE  write the uniform reservoir too
common options:
  --estimator SPEC    density backend: kde[:centers], grid[:res],
                      hashgrid[:res[:slots]], wavelet[:levels[:coeffs]],
                      agrid[:grids[:res]], or sketch[:grids[:slots]]
                      (default kde, which is kde:1000)
  --seed N            RNG seed (default 0)
  --threads N         worker threads (default: all available cores; results
                      are identical for every value)
  --metrics-out FILE  write stage timings and operation counters (dataset
                      passes, kernel evaluations, ball samples, ...) as
                      JSON; never changes any computed output
";

/// Whether [`USAGE`] lists `--option` for the command named `command` or
/// among the common options — so the usage text is the one list of what
/// each command accepts. Option lines start with the option (or several,
/// joined by `/`); a command's section starts at its name, indented by two.
fn accepts(command: &str, option: &str) -> bool {
    let mut section = "";
    USAGE.lines().any(|line| {
        let word = line.split_whitespace().next().unwrap_or("");
        let indent = line.len() - line.trim_start().len();
        if !word.starts_with("--") && (indent == 0 || indent == 2) && !word.is_empty() {
            section = word;
        }
        (section == command || section == "common")
            && word.starts_with("--")
            && word
                .split('/')
                .any(|w| w.strip_prefix("--") == Some(option))
    })
}

/// Parses raw arguments (without the program name). An option the command
/// does not take is an error naming both.
pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut it = args.iter();
    let name = it.next().map_or("", String::as_str);
    let command =
        Command::from_str(name).ok_or_else(|| "missing or unknown command".to_string())?;
    let input = it
        .next()
        .cloned()
        .ok_or_else(|| "missing input file".to_string())?;
    if input.starts_with("--") {
        return Err(format!("expected input file, got option {input}"));
    }
    let mut options = HashMap::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i];
        if !key.starts_with("--") {
            return Err(format!("expected an option, got {key}"));
        }
        let option = key.trim_start_matches("--").to_string();
        if !accepts(name, &option) {
            return Err(format!("unknown option {key} for {name}"));
        }
        // Boolean flags take no value.
        if option == "no-trim" {
            options.insert(option, "true".into());
            i += 1;
            continue;
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("option {key} needs a value"))?;
        options.insert(option, value.to_string());
        i += 2;
    }
    Ok(ParsedArgs {
        command,
        input,
        options,
    })
}

impl ParsedArgs {
    /// Typed option lookup with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// Typed option lookup with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }

    /// Typed option lookup with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// The `--threads` option: worker thread count, defaulting to the
    /// machine's available parallelism. Zero is rejected.
    pub fn get_threads(&self) -> Result<std::num::NonZeroUsize, String> {
        match self.options.get("threads") {
            None => Ok(dbs_core::par::available_parallelism()),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--threads expects a positive integer, got {v:?}")),
        }
    }

    /// String option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Boolean flag.
    pub fn get_flag(&self, key: &str) -> bool {
        self.options.get(key).map(|v| v == "true").unwrap_or(false)
    }

    /// Comma-separated point option (`--at 0.5,0.5`).
    pub fn get_point(&self, key: &str) -> Result<Option<Vec<f64>>, String> {
        match self.options.get(key) {
            None => Ok(None),
            Some(v) => {
                let coords: Result<Vec<f64>, _> =
                    v.split(',').map(|t| t.trim().parse::<f64>()).collect();
                coords
                    .map(Some)
                    .map_err(|_| format!("--{key} expects comma-separated numbers, got {v:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_basic_command() {
        let p = parse(&strs(&["sample", "data.txt", "--size", "500"])).unwrap();
        assert_eq!(p.command, Command::Sample);
        assert_eq!(p.input, "data.txt");
        assert_eq!(p.get_usize("size", 1000).unwrap(), 500);
        assert_eq!(p.get_usize("partitions", 1).unwrap(), 1);
    }

    #[test]
    fn parses_flags_and_floats() {
        let p = parse(&strs(&[
            "cluster",
            "d.bin",
            "--exponent",
            "-0.5",
            "--no-trim",
        ]))
        .unwrap();
        assert_eq!(p.get_f64("exponent", 1.0).unwrap(), -0.5);
        assert!(p.get_flag("no-trim"));
        assert!(!p.get_flag("verbose"));
    }

    #[test]
    fn parses_point_option() {
        let p = parse(&strs(&["density", "d.txt", "--at", "0.5, 0.25,1"])).unwrap();
        assert_eq!(p.get_point("at").unwrap(), Some(vec![0.5, 0.25, 1.0]));
        assert_eq!(p.get_point("missing").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse(&strs(&[])).is_err());
        assert!(parse(&strs(&["frobnicate", "x"])).is_err());
        assert!(parse(&strs(&["sample"])).is_err());
        assert!(parse(&strs(&["sample", "--size"])).is_err());
        assert!(parse(&strs(&["sample", "d.txt", "--size"])).is_err());
        assert!(parse(&strs(&["sample", "d.txt", "oops"])).is_err());
    }

    #[test]
    fn every_command_accepts_exactly_its_usage_options() {
        let common = ["--estimator", "--seed", "--threads", "--metrics-out"];
        let table: [(&str, &[&str]); 7] = [
            ("info", &[]),
            ("convert", &["--output", "--shard-points"]),
            ("sample", &["--size", "--exponent", "--output", "--weights"]),
            (
                "cluster",
                &[
                    "--clusters",
                    "--size",
                    "--exponent",
                    "--no-trim",
                    "--partitions",
                    "--pre-factor",
                    "--sample-frac",
                ],
            ),
            ("outliers", &["--radius", "--neighbors", "--slack"]),
            ("density", &["--at"]),
            (
                "stream",
                &[
                    "--size",
                    "--exponent",
                    "--reservoir",
                    "--output",
                    "--weights",
                    "--reservoir-out",
                ],
            ),
        ];
        let every = table.iter().flat_map(|(_, own)| own.iter()).chain(&common);
        let removed = ["--kernels", "--sise", "--help-me"];
        let every: Vec<&str> = every.copied().chain(removed).collect();
        for (command, own) in table {
            for &option in &every {
                let mut argv = vec![command, "d.txt", option];
                if option != "--no-trim" {
                    argv.push("1");
                }
                let accepted = own.contains(&option) || common.contains(&option);
                match parse(&strs(&argv)) {
                    Ok(_) => assert!(accepted, "{command} took {option}"),
                    Err(e) => {
                        assert!(!accepted, "{command} refused {option}: {e}");
                        assert_eq!(e, format!("unknown option {option} for {command}"));
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_values() {
        let p = parse(&strs(&["sample", "d.txt", "--size", "abc"])).unwrap();
        assert!(p.get_usize("size", 10).is_err());
        let p = parse(&strs(&["density", "d.txt", "--at", "1,x"])).unwrap();
        assert!(p.get_point("at").is_err());
    }

    #[test]
    fn parses_threads_option() {
        let p = parse(&strs(&["sample", "d.txt", "--threads", "4"])).unwrap();
        assert_eq!(p.get_threads().unwrap().get(), 4);
        let p = parse(&strs(&["sample", "d.txt"])).unwrap();
        assert!(p.get_threads().unwrap().get() >= 1);
        for bad in ["0", "-2", "many"] {
            let p = parse(&strs(&["sample", "d.txt", "--threads", bad])).unwrap();
            assert!(
                p.get_threads().is_err(),
                "--threads {bad} should be rejected"
            );
        }
    }
}
