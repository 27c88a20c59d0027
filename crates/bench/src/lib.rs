//! Shared workload builders for the Criterion benches.
//!
//! Each bench target records one `BENCH_*.json` file (see the
//! `just bench-*` recipes); the `experiments` binary reproduces the
//! paper's figures. The custom-harness benches share the JSON-line writer
//! and measurement helpers below.

use std::path::PathBuf;
use std::time::Instant;

use dbs_core::{BoundingBox, Dataset};
use dbs_density::{KdeConfig, KernelDensityEstimator};
use dbs_synth::rect::{generate, RectConfig, SizeProfile};
use dbs_synth::SyntheticDataset;

/// Standard bench workload: `n` points, 10 equal clusters, 2-d.
pub fn bench_workload(n: usize, seed: u64) -> SyntheticDataset {
    let cfg = RectConfig {
        total_points: n,
        ..RectConfig::paper_standard(2, seed)
    };
    generate(&cfg, &SizeProfile::Equal).expect("bench workload generates")
}

/// [`bench_workload`] at an arbitrary dimensionality (10 equal clusters in
/// `[0,1]^dim`).
pub fn bench_workload_dim(n: usize, dim: usize, seed: u64) -> SyntheticDataset {
    let cfg = RectConfig {
        total_points: n,
        ..RectConfig::paper_standard(dim, seed)
    };
    generate(&cfg, &SizeProfile::Equal).expect("bench workload generates")
}

/// Prints one JSON result line and, when `CRITERION_JSON` names a file,
/// appends it there too (the line format the recorded `BENCH_*.json`
/// files hold).
pub fn emit(line: &str) {
    println!("{line}");
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if !path.is_empty() {
            let f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path);
            if let Ok(mut f) = f {
                use std::io::Write;
                let _ = writeln!(f, "{line}");
            }
        }
    }
}

/// A fresh (removed if present) scratch path `<temp>/<bench>_<pid>_<name>`.
pub fn tmp_dir(bench: &str, name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("{bench}_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Median wall time of `samples` runs of `f`, in nanoseconds.
pub fn median_ns(samples: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[samples / 2]
}

/// Peak resident set size of this process, via raw `getrusage(2)` FFI (the
/// allowed dependency set has no libc crate).
pub mod rss {
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        ru_utime: [i64; 2],
        ru_stime: [i64; 2],
        /// Peak RSS in kilobytes (Linux).
        ru_maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    /// Peak RSS of the calling process in bytes, 0 if the call fails.
    pub fn peak_bytes() -> u64 {
        let mut r = Rusage::default();
        // SAFETY: `r` is a live, writable `repr(C)` buffer the size of
        // Linux's `struct rusage` (18 longs), all `getrusage` writes into.
        // `who` = 0 is RUSAGE_SELF.
        if unsafe { getrusage(0, &mut r) } != 0 {
            return 0;
        }
        (r.ru_maxrss.max(0) as u64) * 1024
    }
}

/// A fitted KDE with the given number of centers over `data`.
pub fn bench_kde(data: &Dataset, centers: usize, seed: u64) -> KernelDensityEstimator {
    let cfg = KdeConfig {
        num_centers: centers,
        domain: Some(BoundingBox::unit(data.dim())),
        seed,
        ..Default::default()
    };
    KernelDensityEstimator::fit_dataset(data, &cfg).expect("kde fits")
}
