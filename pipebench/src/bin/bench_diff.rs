//! Compares two pipeline results files.
//!
//! ```text
//! bench-diff OLD NEW [--bench BENCHMARK.json]
//! ```
//!
//! OLD and NEW hold the JSON lines `pipeline --out FILE` appends, one per
//! run. For every workload and end-to-end metric named in BENCHMARK.json,
//! the value each run reported is collected on each side, and the medians
//! of the two sides' run values, their quartiles, the change and a verdict
//! against the metric's bound are printed. A metric whose spread
//! (interquartile range over median) on either side exceeds its bound is
//! "unresolved" unless every new run beats every old one. Per-layer
//! metrics are listed with their change and no verdict. Counters are deterministic, so any counter that differs
//! between runs of the same workload, seed and trace mode is reported as a
//! behaviour change. Exits 1 on a regression or a behaviour change.

use std::collections::{BTreeMap, BTreeSet};

use dbs_pipebench::json::{self, Value};
use dbs_pipebench::stats::Summary;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))
}

fn bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bench = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = bench.get("end_to_end").ok_or("no end_to_end metrics")?;
    metrics
        .as_array()
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn text(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(x)) => format!("{x}"),
        _ => String::new(),
    }
}

/// The value of `metric` each record of one workload and mode reported.
fn values(records: &[&Value], metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn select<'a>(records: &'a [Value], workload: &str, trace: &str) -> Vec<&'a Value> {
    records
        .iter()
        .filter(|r| text(r, "workload") == workload && text(r, "trace") == trace)
        .collect()
}

fn describe(s: &Summary) -> String {
    format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (files, bench) = match args.as_slice() {
        [old, new] => ([old, new], "BENCHMARK.json"),
        [old, new, flag, bench] if flag == "--bench" => ([old, new], bench.as_str()),
        _ => {
            eprintln!("usage: bench-diff OLD NEW [--bench BENCHMARK.json]");
            std::process::exit(2);
        }
    };
    match diff(files[0], files[1], bench) {
        Ok(clean) => std::process::exit(if clean { 0 } else { 1 }),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Prints the comparison; returns whether it found no regression and no
/// behaviour change.
fn diff(old_path: &str, new_path: &str, bench: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let bounds = bounds(bench)?;
    let mut workloads: Vec<String> = old.iter().map(|r| text(r, "workload")).collect();
    workloads.sort();
    workloads.dedup();
    let mut clean = true;
    for w in &workloads {
        let (o, n) = (select(&old, w, "0"), select(&new, w, "0"));
        if !o.is_empty() && !n.is_empty() {
            println!(
                "{w}: end to end ({} old runs, {} new runs)",
                o.len(),
                n.len()
            );
            for b in &bounds {
                let (os, ns) = (values(&o, &b.name), values(&n, &b.name));
                if os.is_empty() || ns.is_empty() {
                    continue;
                }
                let (so, sn) = (Summary::of(&os), Summary::of(&ns));
                let change = (sn.median - so.median) / so.median;
                let worse = if b.lower_is_better { change } else { -change };
                let all_better = if b.lower_is_better {
                    sn.max < so.min
                } else {
                    sn.min > so.max
                };
                let verdict = if so.spread().max(sn.spread()) > b.bound && !all_better {
                    "unresolved (spread wider than bound)"
                } else if worse > b.bound {
                    clean = false;
                    "REGRESSION"
                } else if worse < -b.bound {
                    "improved"
                } else {
                    "within bound"
                };
                println!(
                    "  {:<14} old {}  new {}  change {:+.2}%  bound {:.0}%  {verdict}",
                    b.name,
                    describe(&so),
                    describe(&sn),
                    change * 100.0,
                    b.bound * 100.0
                );
            }
        }
        let (o, n) = (select(&old, w, "1"), select(&new, w, "1"));
        if let (Some(first), false) = (o.first(), n.is_empty()) {
            println!(
                "{w}: per layer ({} old runs, {} new runs)",
                o.len(),
                n.len()
            );
            for (name, _) in first
                .get("metrics")
                .map(|m| m.entries())
                .into_iter()
                .flatten()
            {
                let (os, ns) = (values(&o, name), values(&n, name));
                if os.is_empty() || ns.is_empty() {
                    continue;
                }
                let (so, sn) = (Summary::of(&os), Summary::of(&ns));
                let change = if so.median == 0.0 {
                    String::new()
                } else {
                    format!(
                        "change {:+.2}%",
                        (sn.median - so.median) / so.median * 100.0
                    )
                };
                println!(
                    "  {name:<32} old {:.6}  new {:.6}  {change}",
                    so.median, sn.median
                );
            }
        }
        for trace in ["0", "1"] {
            clean &= same_counters(w, trace, &select(&old, w, trace), &select(&new, w, trace));
        }
    }
    println!(
        "{}",
        if clean {
            "no regression"
        } else {
            "REGRESSION or behaviour change"
        }
    );
    Ok(clean)
}

/// The deterministic figures — counters and output-quality checks — of the
/// first run of each seed.
fn counters_by_seed(records: &[&Value]) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut by_seed = BTreeMap::new();
    for r in records {
        by_seed.entry(text(r, "seed")).or_insert_with(|| {
            ["counters", "quality"]
                .iter()
                .filter_map(|k| r.get(k))
                .flat_map(|c| c.entries())
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        });
    }
    by_seed
}

/// Reports counters that differ between old and new runs of the same seed.
fn same_counters(workload: &str, trace: &str, old: &[&Value], new: &[&Value]) -> bool {
    let new = counters_by_seed(new);
    let mut same = true;
    for (seed, co) in counters_by_seed(old) {
        let Some(cn) = new.get(&seed) else { continue };
        for key in co.keys().chain(cn.keys()).collect::<BTreeSet<_>>() {
            if co.get(key) != cn.get(key) {
                same = false;
                println!(
                    "  BEHAVIOUR CHANGE {workload} seed {seed} trace {trace}: {key} {:?} -> {:?}",
                    co.get(key),
                    cn.get(key)
                );
            }
        }
    }
    same
}
