//! End-to-end CLI runs against generated dataset files: the exact flows a
//! user of the `dbs` tool exercises, through the library entry points.

use dbs_cli::args::parse;
use dbs_cli::commands::run;
use dbs_core::io::{write_binary, write_text};
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
        "--kernels",
        "500",
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
