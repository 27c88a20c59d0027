//! End-to-end CLI runs against generated dataset files: the exact flows a
//! user of the `dbs` tool exercises, through the library entry points.

use dbs_cli::args::parse;
use dbs_cli::commands::run;
use dbs_core::io::{read_text, write_binary, write_text};
use dbs_core::par::CHUNK_POINTS;
use dbs_core::shard::write_shards_with;
use dbs_integration_tests::clustered_noisy;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbs_cli_it_{}_{}", std::process::id(), name));
    p
}

fn run_cli(argv: &[&str]) -> Result<String, String> {
    let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let parsed = parse(&args)?;
    let mut out = Vec::new();
    run(&parsed, &mut out)?;
    Ok(String::from_utf8(out).expect("utf8 output"))
}

#[test]
fn cluster_flow_over_text_file_finds_structure() {
    let synth = clustered_noisy(15_000, 2, 0.3, 1);
    let path = tmp("flow.txt");
    write_text(&path, &synth.data).unwrap();
    let out = run_cli(&[
        "cluster",
        path.to_str().unwrap(),
        "--clusters",
        "10",
        "--size",
        "600",
        "--estimator",
        "kde:500",
        "--seed",
        "2",
    ])
    .unwrap();
    assert!(out.contains("into 10 clusters"), "{out}");
    // Horvitz–Thompson size estimates are reported.
    assert!(out.contains("dataset points"), "{out}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_and_text_inputs_agree() {
    let synth = clustered_noisy(5_000, 3, 0.1, 3);
    let text_path = tmp("agree.txt");
    let bin_path = tmp("agree.dbs1");
    write_text(&text_path, &synth.data).unwrap();
    write_binary(&bin_path, &synth.data).unwrap();
    let a = run_cli(&["info", text_path.to_str().unwrap()]).unwrap();
    let b = run_cli(&["info", bin_path.to_str().unwrap()]).unwrap();
    // Same point count and dimensionality from either format. (Bounding
    // boxes may differ in the last float digit through text round-trip.)
    assert_eq!(a.lines().next(), b.lines().next());
    assert_eq!(a.lines().nth(1), b.lines().nth(1));
    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&bin_path).ok();
}

#[test]
fn sample_flow_writes_weights_that_sum_to_n() {
    let synth = clustered_noisy(8_000, 2, 0.2, 5);
    let path = tmp("weights.txt");
    let out_path = tmp("weights_out.txt");
    let w_path = tmp("weights_w.txt");
    write_text(&path, &synth.data).unwrap();
    run_cli(&[
        "sample",
        path.to_str().unwrap(),
        "--size",
        "400",
        "--exponent",
        "1.0",
        "--output",
        out_path.to_str().unwrap(),
        "--weights",
        w_path.to_str().unwrap(),
    ])
    .unwrap();
    let weights: Vec<f64> = std::fs::read_to_string(&w_path)
        .unwrap()
        .lines()
        .map(|l| l.parse().unwrap())
        .collect();
    assert!(!weights.is_empty());
    // Horvitz–Thompson: the weights estimate the dataset size (clustered
    // points plus injected noise).
    let n = synth.len() as f64;
    let total: f64 = weights.iter().sum();
    assert!(
        (total - n).abs() < 0.3 * n,
        "weight sum {total} should estimate n = {n}"
    );
    for p in [path, out_path, w_path] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn sample_output_is_thread_count_invariant_for_every_estimator() {
    // The determinism pledge behind `--threads`: for every density backend
    // the sampled output files are byte-identical at 1, 2, and 7 threads.
    let synth = clustered_noisy(6_000, 2, 0.2, 9);
    let path = tmp("par.txt");
    write_text(&path, &synth.data).unwrap();
    for spec in [
        "kde:300",
        "grid:16",
        "hashgrid:16",
        "wavelet:4:64",
        "agrid:4",
        "sketch:3:4096",
    ] {
        let mut baseline: Option<(String, String)> = None;
        for threads in ["1", "2", "7"] {
            let out_path = tmp(&format!("par_out_{}", threads));
            let w_path = tmp(&format!("par_w_{}", threads));
            run_cli(&[
                "sample",
                path.to_str().unwrap(),
                "--size",
                "300",
                "--estimator",
                spec,
                "--seed",
                "13",
                "--threads",
                threads,
                "--output",
                out_path.to_str().unwrap(),
                "--weights",
                w_path.to_str().unwrap(),
            ])
            .unwrap();
            let got = (
                std::fs::read_to_string(&out_path).unwrap(),
                std::fs::read_to_string(&w_path).unwrap(),
            );
            assert!(
                !got.0.is_empty(),
                "{spec}: empty sample at {threads} threads"
            );
            match &baseline {
                None => baseline = Some(got),
                Some(base) => assert_eq!(
                    base, &got,
                    "{spec}: output differs between 1 and {threads} threads"
                ),
            }
            std::fs::remove_file(&out_path).ok();
            std::fs::remove_file(&w_path).ok();
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stream_output_is_identical_over_formats_and_threads_across_chunks() {
    // Seven 4096-point chunks, so at 2 and 7 threads the ingest merges
    // several workers' sketch tables. Text, DBS1 and shard inputs hold the
    // same bits: the binary copies are written from the parsed text.
    let text = tmp("stream_chunks.txt");
    write_text(&text, &clustered_noisy(21_000, 3, 0.2, 17).data).unwrap();
    let data = read_text(&text).unwrap();
    let bin = tmp("stream_chunks.dbs1");
    let shards = tmp("stream_chunks_shards");
    write_binary(&bin, &data).unwrap();
    std::fs::remove_dir_all(&shards).ok();
    write_shards_with(&shards, &data, 0, 2 * CHUNK_POINTS).unwrap();
    let files = ["out", "w", "res", "metrics"].map(|f| tmp(&format!("stream_chunks.{f}")));
    let [out, w, res, metrics] = files.each_ref().map(|p| p.to_str().unwrap());
    // Stdout and files agree everywhere; the counter map agrees across
    // thread counts (shard reads are counted only for shard inputs).
    let mut outputs: Option<Vec<String>> = None;
    for input in [&text, &bin, &shards] {
        let mut counters: Option<String> = None;
        for threads in ["1", "2", "7"] {
            let stdout = run_cli(&[
                "stream",
                input.to_str().unwrap(),
                "--size",
                "500",
                "--reservoir",
                "300",
                "--estimator",
                "sketch:3:4096",
                "--seed",
                "5",
                "--threads",
                threads,
                "--output",
                out,
                "--weights",
                w,
                "--reservoir-out",
                res,
                "--metrics-out",
                metrics,
            ])
            .unwrap();
            assert!(stdout.contains("streamed 26250 points"), "{stdout}");
            let mut got = vec![stdout];
            got.extend([out, w, res].map(|p| std::fs::read_to_string(p).unwrap()));
            // The counter map: the metrics lines before the spans.
            let json = std::fs::read_to_string(metrics).unwrap();
            let map = json.split("\"spans\"").next().unwrap().to_string();
            assert!(map.contains("\"sketch_updates\": 26250"), "{map}");
            let at = format!("{input:?} at {threads} threads");
            assert_eq!(outputs.get_or_insert_with(|| got.clone()), &got, "{at}");
            assert_eq!(counters.get_or_insert_with(|| map.clone()), &map, "{at}");
        }
    }
    for p in files.iter().chain([&text, &bin]) {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&shards).ok();
}

#[test]
fn non_finite_input_fails_the_same_way_for_every_estimator_and_format() {
    // 3,000 rows with `nan` at row 18 and `inf` at row 401. The min-max
    // scaler's pass, which every command makes first, names the first bad
    // point whatever backend and input format follow.
    let mut data = clustered_noisy(3_000, 2, 0.1, 21).data;
    data.point_mut(17)[0] = f64::NAN;
    data.point_mut(400)[1] = f64::INFINITY;
    let text = tmp("nonfinite.txt");
    let bin = tmp("nonfinite.dbs1");
    let shards = tmp("nonfinite_shards");
    write_text(&text, &data).unwrap();
    write_binary(&bin, &data).unwrap();
    std::fs::remove_dir_all(&shards).ok();
    write_shards_with(&shards, &data, 0, CHUNK_POINTS).unwrap();
    for input in [&text, &bin, &shards] {
        let input = input.to_str().unwrap();
        for spec in [
            "kde:200",
            "grid:16",
            "hashgrid:16",
            "wavelet:4:64",
            "agrid:4",
            "sketch:3:4096",
        ] {
            let argv = ["sample", input, "--estimator", spec, "--size", "100"];
            let err = run_cli(&argv).unwrap_err();
            assert_eq!(
                err, "non-finite coordinate at point 17",
                "{spec} on {input}"
            );
        }
    }
    std::fs::remove_file(&text).ok();
    std::fs::remove_file(&bin).ok();
    std::fs::remove_dir_all(&shards).ok();
}

#[test]
fn finite_input_with_an_overflowing_range_fails_at_the_scaler() {
    // Every coordinate is finite, but max - min overflows in dimension 0:
    // the scaler pass rejects it before any command scales a point.
    let text = tmp("wide_range.txt");
    std::fs::write(&text, "-1e308 0\n1e308 1\n0 0.5\n").unwrap();
    let input = text.to_str().unwrap();
    for argv in [
        vec!["sample", input, "--size", "2"],
        vec!["sample", input, "--size", "2", "--estimator", "grid:4"],
        vec!["stream", input, "--size", "2"],
    ] {
        let err = run_cli(&argv).unwrap_err();
        assert_eq!(
            err, "invalid parameter: dimension 0 spans [-1e308, 1e308], a range too wide to scale",
            "{argv:?}"
        );
    }
    std::fs::remove_file(&text).ok();
}

#[test]
fn density_backends_route_through_the_estimator_factory() {
    // Factory-discipline gate: no CLI or experiments code may fit the KDE
    // directly — every density fit goes through `EstimatorSpec::fit`, so
    // `--estimator` reaches every code path. Scans the sources for direct
    // `fit_dataset` calls.
    // The integration-tests crate lives in <repo>/tests.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf();
    for dir in ["crates/cli/src", "crates/experiments/src"] {
        let mut stack = vec![root.join(dir)];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let p = entry.unwrap().path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    let src = std::fs::read_to_string(&p).unwrap();
                    assert!(
                        !src.contains("fit_dataset"),
                        "{}: direct KDE fit bypasses the EstimatorSpec factory",
                        p.display()
                    );
                }
            }
        }
    }
}

/// FNV-1a, to pin an output file's bytes in one transcript line.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn unbenchmarked_commands_match_their_golden_transcript() {
    // Every command or mode the pipeline benchmark does not run, at 1 and 7
    // threads: stdout with the scratch directory shown as `<tmp>`, then each
    // output file as its byte length and FNV-1a hash.
    let dir = tmp("golden");
    let root = dir.display().to_string();
    std::fs::create_dir_all(&dir).unwrap();
    write_text(
        &dir.join("in.txt"),
        &clustered_noisy(2_000, 2, 0.005, 31).data,
    )
    .unwrap();
    let cases = [
        "sample <tmp>/in.txt --size 40 --estimator kde:100 --weights <tmp>/w.txt",
        "cluster <tmp>/in.txt --clusters 3 --size 300 --estimator kde:200",
        "cluster <tmp>/in.txt --clusters 3 --size 300 --partitions 2",
        "cluster <tmp>/in.txt --clusters 3 --sample-frac 1.0 --partitions 3",
        "outliers <tmp>/in.txt --radius 0.03 --neighbors 1 --estimator kde:200",
        "stream <tmp>/in.txt --size 40 --reservoir 25 --estimator sketch:3:4096 --seed 5 \
         --weights <tmp>/w.txt --reservoir-out <tmp>/r.txt",
        "density <tmp>/in.txt --at 0.35,0.31 --estimator kde:200",
        "info <tmp>/in.txt",
        "convert <tmp>/in.txt --output <tmp>/shards --shard-points 4096",
    ];
    for threads in ["1", "7"] {
        let mut transcript = String::new();
        for case in cases {
            let argv = format!("{} --threads {threads}", case.replace("<tmp>", &root));
            let out = run_cli(&argv.split_whitespace().collect::<Vec<_>>()).unwrap();
            transcript += &format!("$ {case}\n{}", out.replace(&root, "<tmp>"));
            for name in ["w.txt", "r.txt", "shards/shard-00000.dbss"] {
                if let Ok(bytes) = std::fs::read(dir.join(name)) {
                    let (len, hash) = (bytes.len(), fnv1a(&bytes));
                    transcript += &format!("  <tmp>/{name}: {len} bytes, fnv {hash:016x}\n");
                }
            }
            std::fs::remove_file(dir.join("w.txt")).ok();
            std::fs::remove_file(dir.join("r.txt")).ok();
            std::fs::remove_dir_all(dir.join("shards")).ok();
        }
        if transcript != GOLDEN {
            eprintln!("{transcript}");
        }
        assert_eq!(transcript, GOLDEN, "threads {threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

const GOLDEN: &str = r"$ sample <tmp>/in.txt --size 40 --estimator kde:100 --weights <tmp>/w.txt
sampled 44 of 2010 points (target 40, a = 1, normalizer k = 1.1984e7, 0 clipped)
wrote weights to <tmp>/w.txt
  [0.8077761397299625, 0.8077390095943964]
  [0.3772759375627369, 0.7327007946391868]
  [0.35757709413691696, 0.8053019906323639]
  [0.3069949297491101, 0.7960253565160093]
  [0.376384414762746, 0.8219318304871098]
  ... (39 more; use --output FILE)
  <tmp>/w.txt: 797 bytes, fnv ecceae74e9ca1c34
$ cluster <tmp>/in.txt --clusters 3 --size 300 --estimator kde:200
clustered a 289-point sample into 3 clusters (98 sample points trimmed as noise)
  cluster 0: 162 sample points (≈942 dataset points), mean [0.595, 0.753]
  cluster 1: 16 sample points (≈86 dataset points), mean [0.351, 0.318]
  cluster 2: 13 sample points (≈144 dataset points), mean [0.931, 0.362]
$ cluster <tmp>/in.txt --clusters 3 --size 300 --partitions 2
clustered a 297-point sample into 3 clusters (123 sample points trimmed as noise)
  cluster 0: 140 sample points (≈819 dataset points), mean [0.613, 0.754]
  cluster 1: 10 sample points (≈60 dataset points), mean [0.35, 0.309]
  cluster 2: 24 sample points (≈168 dataset points), mean [0.943, 0.355]
$ cluster <tmp>/in.txt --clusters 3 --sample-frac 1.0 --partitions 3
clustered 2010 points from a 2010-point sample into 3 clusters (489 points marked noise)
  cluster 0: 1188 points, mean [0.605, 0.731]
  cluster 1: 161 points, mean [0.35, 0.306]
  cluster 2: 172 points, mean [0.949, 0.348]
$ outliers <tmp>/in.txt --radius 0.03 --neighbors 1 --estimator kde:200
DB(p=1, k=0.03) outliers: 4 found (17 candidates verified, 2 dataset passes + estimator pass)
  #2001: [0.7491234211488095, 0.09933737071181004]
  #2006: [0.09943600654431084, 0.7514769865815079]
  #2007: [0.7979945399137676, 0.056306688206483324]
  #2008: [0.9810212283403783, 0.8308143013305379]
$ stream <tmp>/in.txt --size 40 --reservoir 25 --estimator sketch:3:4096 --seed 5 --weights <tmp>/w.txt --reservoir-out <tmp>/r.txt
streamed 2010 points (2d) into a sketch:3:4096 sketch (96 KiB) + 25-point reservoir
sampled 36 of 2010 points off the sketch (target 40, a = 1, normalizer k = 3.5430e7, 0 clipped)
wrote weights to <tmp>/w.txt
wrote reservoir to <tmp>/r.txt
  [0.790216696802505, 0.8161053940529776]
  [0.8104395800806141, 0.8182495957824545]
  [0.8049325606696902, 0.8204157501622387]
  [0.8616321473774758, 0.7965079333070094]
  [0.8445794178407818, 0.7540469896422293]
  ... (31 more; use --output FILE)
  <tmp>/w.txt: 547 bytes, fnv e4b47d30f0adce77
  <tmp>/r.txt: 959 bytes, fnv 4c17c5552394ac4d
$ density <tmp>/in.txt --at 0.35,0.31 --estimator kde:200
density at [0.35, 0.31]: 10740.8006 (average over domain: 2010.0000)
relative to average: 5.34x
$ info <tmp>/in.txt
points:     2010
dimensions: 2
min:        [0.09943600654431084, 0.056306688206483324]
max:        [0.9983837508105228, 0.9430793708240438]
$ convert <tmp>/in.txt --output <tmp>/shards --shard-points 4096
wrote 2010 points (2d) to 1 shards in <tmp>/shards
  <tmp>/shards/shard-00000.dbss: 36256 bytes, fnv b6da2bf811f75d1c
";

#[test]
fn sample_exponent_changes_the_sample() {
    let synth = clustered_noisy(8_000, 2, 0.5, 7);
    let path = tmp("exp.txt");
    write_text(&path, &synth.data).unwrap();
    let dense = run_cli(&[
        "sample",
        path.to_str().unwrap(),
        "--size",
        "200",
        "--exponent",
        "1.0",
    ])
    .unwrap();
    let uniform = run_cli(&[
        "sample",
        path.to_str().unwrap(),
        "--size",
        "200",
        "--exponent",
        "0.0",
    ])
    .unwrap();
    // The normalizer k differs radically between exponents (n vs Σf).
    assert_ne!(dense, uniform);
    assert!(uniform.contains("a = 0"), "{uniform}");
    std::fs::remove_file(&path).ok();
}
