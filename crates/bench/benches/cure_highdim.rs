//! High-dimension CURE merge-loop scaling: the 16-d cliff curve.
//!
//! PR 7's shard bench exposed a merge-loop degeneration on tight
//! high-dimensional blobs: the accelerated merge loop at d=16 ran in ~190 ms at
//! n=1200 but exceeded 300 s at n=1500. This bench records the wall-clock
//! curve for that exact workload (the shard bench's 10-component diagonal
//! mixture, sigma 0.03), plus every merge-loop counter, as JSON lines to
//! `CRITERION_JSON`.
//!
//! * `CURE_HIGHDIM_PHASE` labels the run (`before` / `after`, default
//!   `after`) so one recorded file can hold the pre-fix and post-fix
//!   curves side by side.
//! * `CURE_HIGHDIM_BUDGET_S` (default 900) is a wall-clock budget: sizes
//!   are run in order and anything left when the budget is spent is
//!   emitted as a `"skipped"` line instead of hanging the harness — the
//!   pre-fix loop needs this to record the cliff without running forever.
//! * `CURE_HIGHDIM_SMOKE=1` runs only d=16 / n=2000 and asserts it
//!   finishes in single-digit seconds — the CI regression gate for the
//!   cliff.
//!
//! The full run also proves the determinism contract at the headline size:
//! d=16 / n=2000 accelerated output is compared bit-for-bit against
//! `hierarchical_cluster_reference` at thread counts {1, 2, 7}.

use std::num::NonZeroUsize;
use std::time::Instant;

use dbs_bench::emit;
use dbs_cluster::{
    hierarchical_cluster_reference, partitioned_cluster_obs, Clustering, HierarchicalConfig,
};
use dbs_core::obs::{Counter, Recorder};
use dbs_core::Dataset;
use dbs_synth::gauss::diagonal_mixture;

const SEED: u64 = 42;
const SIGMA: f64 = 0.03;
const COMPONENTS: usize = 10;

/// Bit-comparable flattening of a clustering: assignments, then each
/// cluster's members, mean bits and representative bits.
type Fingerprint = (Vec<usize>, Vec<(Vec<usize>, Vec<u64>, Vec<Vec<u64>>)>);

fn workload(dim: usize, n: usize) -> Dataset {
    diagonal_mixture(dim, COMPONENTS, n / COMPONENTS, SIGMA, SEED)
        .expect("valid mixture")
        .data
}

fn config(threads: usize) -> HierarchicalConfig {
    HierarchicalConfig::paper_defaults(COMPONENTS)
        .with_parallelism(NonZeroUsize::new(threads).expect("positive"))
}

/// The [`Fingerprint`] of `c` (same fields the parity proptest
/// fingerprints).
fn fingerprint(c: &Clustering) -> Fingerprint {
    let clusters = c
        .clusters
        .iter()
        .map(|fc| {
            (
                fc.members.clone(),
                fc.mean.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                fc.representatives
                    .iter()
                    .map(|r| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    (c.assignments.clone(), clusters)
}

/// Times one accelerated run and emits its row (wall time + every counter).
fn timed_run(phase: &str, dim: usize, n: usize) -> Clustering {
    let data = workload(dim, n);
    let rec = Recorder::enabled();
    let t0 = Instant::now();
    let res = partitioned_cluster_obs(&data, &config(1), &rec).expect("cluster");
    let wall_ns = t0.elapsed().as_nanos();
    let mut counters = String::new();
    for c in Counter::ALL {
        let v = rec.counter(c);
        if v > 0 {
            counters.push_str(&format!(",\"{}\":{v}", c.name()));
        }
    }
    emit(&format!(
        "{{\"id\":\"cure_highdim/{phase}/d{dim}/n{n}\",\"dim\":{dim},\"points\":{n},\
         \"wall_ns\":{wall_ns},\"clusters\":{}{counters}}}",
        res.clusters.len()
    ));
    res
}

fn main() {
    let phase = std::env::var("CURE_HIGHDIM_PHASE").unwrap_or_else(|_| "after".into());
    let budget_s: u64 = std::env::var("CURE_HIGHDIM_BUDGET_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(900);
    let smoke = std::env::var("CURE_HIGHDIM_SMOKE").is_ok_and(|v| v == "1");

    if smoke {
        let t0 = Instant::now();
        let res = timed_run(&phase, 16, 2000);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(res.clusters.len(), COMPONENTS, "smoke lost clusters");
        assert!(
            secs < 10.0,
            "d=16 n=2000 took {secs:.1}s; the high-dimension cliff is back"
        );
        return;
    }

    let curve: &[(usize, usize)] = &[(16, 800), (16, 1200), (16, 1500), (16, 2000), (12, 2000)];
    let start = Instant::now();
    for &(dim, n) in curve {
        if start.elapsed().as_secs() > budget_s {
            emit(&format!(
                "{{\"id\":\"cure_highdim/{phase}/d{dim}/n{n}\",\"dim\":{dim},\
                 \"points\":{n},\"skipped\":true,\"budget_s\":{budget_s}}}"
            ));
            continue;
        }
        timed_run(&phase, dim, n);
    }

    // Determinism proof at the headline size: accelerated output at threads
    // {1, 2, 7} must be bit-identical to the reference loop.
    if start.elapsed().as_secs() > budget_s {
        emit(&format!(
            "{{\"id\":\"cure_highdim/{phase}/parity_d16_n2000\",\"skipped\":true}}"
        ));
        return;
    }
    let data = workload(16, 2000);
    let t0 = Instant::now();
    let reference = hierarchical_cluster_reference(&data, &config(1)).expect("reference");
    let ref_ns = t0.elapsed().as_nanos();
    let want = fingerprint(&reference);
    let mut ok = true;
    for t in [1usize, 2, 7] {
        let fast =
            partitioned_cluster_obs(&data, &config(t), &Recorder::disabled()).expect("cluster");
        if fingerprint(&fast) != want {
            ok = false;
            eprintln!("parity FAILED at threads={t}");
        }
    }
    emit(&format!(
        "{{\"id\":\"cure_highdim/{phase}/parity_d16_n2000\",\"reference_wall_ns\":{ref_ns},\
         \"threads\":[1,2,7],\"bit_identical\":{ok}}}"
    ));
    assert!(ok, "accelerated core diverged from the reference loop");
}
