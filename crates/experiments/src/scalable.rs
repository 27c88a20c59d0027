//! Scalable-CURE quality harness: found-clusters for full vs partitioned
//! vs sample-fed clustering, side by side, on the Figure 2 workload.
//!
//! The source paper's thesis is that a density-biased sample can stand in
//! for the full dataset in downstream mining; this experiment checks the
//! clustering side of that claim end to end. All four modes must recover
//! the same true clusters (§4.3 criterion) while the scalable modes cut
//! the quadratic merge work by one to two orders of magnitude:
//!
//! * **full** — single-phase CURE over every point (only run while the
//!   input is small enough for the quadratic loop to be bearable);
//! * **partitioned** — CURE's partitioning scheme (`p` pre-clustered
//!   partitions, final merge over the partials);
//! * **sample-fed uniform / biased** — cluster a `frac`-fraction sample
//!   (uniform Bernoulli, or density-biased with exponent `a` over the
//!   averaged-grid estimator), then map every point back to its nearest
//!   representative.

use std::time::Instant;

use dbs_cluster::{
    clusters_found, partitioned_cluster, sample_fed_cluster, EvalConfig, HierarchicalConfig, NOISE,
};
use dbs_core::{BoundingBox, Result};
use dbs_density::EstimatorSpec;
use dbs_sampling::{bernoulli_sample, density_biased_sample, BiasedConfig};
use dbs_synth::rect::{generate, RectConfig, SizeProfile};
use dbs_synth::SyntheticDataset;

use crate::report::{f, Table};
use crate::Scale;

/// One clustering mode under comparison.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Single-phase CURE over the full dataset.
    Full,
    /// Partitioned CURE: `p` partitions, each pre-clustered to ~1/`q` of
    /// its points before the final merge.
    Partitioned { p: usize, q: usize },
    /// Cluster a uniform `frac`-sample, then map every point back.
    SampleFedUniform { frac: f64 },
    /// Cluster a density-biased `frac`-sample (exponent `a`, averaged-grid
    /// estimator), then map every point back.
    SampleFedBiased { frac: f64, a: f64 },
}

impl Mode {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Mode::Full => "full".into(),
            Mode::Partitioned { p, q } => format!("partitioned p={p} q={q}"),
            Mode::SampleFedUniform { frac } => format!("sample-fed uniform f={frac}"),
            Mode::SampleFedBiased { frac, a } => format!("sample-fed biased a={a} f={frac}"),
        }
    }
}

/// One measured row of the comparison.
#[derive(Debug, Clone)]
pub struct ScalableRow {
    /// Mode label.
    pub mode: String,
    /// Points fed into the hierarchical merge loop.
    pub fed_points: usize,
    /// True clusters found (§4.3 criterion).
    pub found: usize,
    /// Points labeled noise in the final assignment.
    pub noise: usize,
    /// End-to-end seconds (estimator + sampling + clustering + map-back).
    pub secs: f64,
}

/// Runs one mode on `synth`, timing the whole pipeline.
pub fn run_mode(synth: &SyntheticDataset, mode: Mode, k: usize, seed: u64) -> Result<ScalableRow> {
    let n = synth.data.len();
    let t0 = Instant::now();
    let (clustering, fed_points) = match mode {
        Mode::Full => {
            let hc = HierarchicalConfig::paper_defaults(k);
            (partitioned_cluster(&synth.data, &hc)?, n)
        }
        Mode::Partitioned { p, q } => {
            let hc = HierarchicalConfig::paper_defaults(k)
                .with_partitions(p)
                .with_pre_cluster_factor(q);
            (partitioned_cluster(&synth.data, &hc)?, n)
        }
        Mode::SampleFedUniform { frac } => {
            let target = dbs_cluster::sample_target_size(n, frac)?;
            let sample = bernoulli_sample(&synth.data, target, seed ^ 0x5ca1)?;
            let hc = HierarchicalConfig::paper_defaults(k);
            let fed = sample.len();
            (sample_fed_cluster(&synth.data, sample.points(), &hc)?, fed)
        }
        Mode::SampleFedBiased { frac, a } => {
            let target = dbs_cluster::sample_target_size(n, frac)?;
            let est = EstimatorSpec::parse("agrid:8")
                .expect("valid spec")
                .with_seed(seed)
                .with_domain(BoundingBox::unit(synth.data.dim()))
                .fit(&synth.data)?;
            let (sample, _) = density_biased_sample(
                &synth.data,
                &*est,
                &BiasedConfig::new(target, a).with_seed(seed ^ 0xb1a5),
            )?;
            let hc = HierarchicalConfig::paper_defaults(k);
            let fed = sample.len();
            (sample_fed_cluster(&synth.data, sample.points(), &hc)?, fed)
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let found = clusters_found(
        &clustering.clusters,
        &synth.regions,
        &EvalConfig {
            margin: 0.01,
            ..Default::default()
        },
    );
    let noise = clustering
        .assignments
        .iter()
        .filter(|&&x| x == NOISE)
        .count();
    Ok(ScalableRow {
        mode: mode.label(),
        fed_points,
        found,
        noise,
        secs,
    })
}

/// Runs every mode in `modes` on `synth`.
pub fn run_on(
    synth: &SyntheticDataset,
    modes: &[Mode],
    k: usize,
    seed: u64,
) -> Result<Vec<ScalableRow>> {
    modes.iter().map(|&m| run_mode(synth, m, k, seed)).collect()
}

/// Runs the comparison on the Figure 2 workload at the given scale.
///
/// The quadratic full mode is skipped above 50k points (that is the wall
/// this experiment demonstrates a way around); the scalable modes run at
/// every scale.
pub fn run(scale: Scale, seed: u64) -> Result<Vec<ScalableRow>> {
    let n = match scale {
        Scale::Quick => 20_000,
        Scale::Paper => 1_000_000,
    };
    let cfg = RectConfig {
        total_points: n,
        ..RectConfig::paper_standard(2, seed)
    };
    let synth = generate(&cfg, &SizeProfile::Equal)?;
    let mut modes: Vec<Mode> = Vec::new();
    if n <= 50_000 {
        modes.push(Mode::Full);
    }
    let p = match scale {
        Scale::Quick => 4,
        Scale::Paper => 64,
    };
    modes.push(Mode::Partitioned { p, q: 10 });
    modes.push(Mode::SampleFedUniform { frac: 0.1 });
    modes.push(Mode::SampleFedBiased { frac: 0.1, a: 1.0 });
    run_on(&synth, &modes, 10, seed)
}

/// Renders the report table.
pub fn render(scale: Scale, seed: u64) -> Result<String> {
    let rows = run(scale, seed)?;
    let mut t = Table::new(&["mode", "fed pts", "found/10", "noise pts", "seconds"]);
    for r in &rows {
        t.row(vec![
            r.mode.clone(),
            r.fed_points.to_string(),
            r.found.to_string(),
            r.noise.to_string(),
            f(r.secs, 3),
        ]);
    }
    Ok(format!(
        "Scalable CURE: full vs partitioned vs sample-fed ({scale:?} scale)\n{}",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalable_modes_recover_the_clusters() {
        // A small instance of the comparison: every mode must find (nearly)
        // all 10 true clusters of the clean workload, and partitioning must
        // not mark more points noise than clustering the whole input.
        let cfg = RectConfig {
            total_points: 6_000,
            ..RectConfig::paper_standard(2, 77)
        };
        let synth = generate(&cfg, &SizeProfile::Equal).unwrap();
        let modes = [
            Mode::Full,
            Mode::Partitioned { p: 2, q: 10 },
            Mode::Partitioned { p: 4, q: 10 },
            Mode::SampleFedUniform { frac: 0.1 },
            Mode::SampleFedBiased { frac: 0.1, a: 1.0 },
        ];
        let rows = run_on(&synth, &modes, 10, 78).unwrap();
        for row in &rows {
            assert!(row.found >= 8, "{}: found only {}", row.mode, row.found);
            assert!(row.fed_points > 0);
        }
        for row in &rows[1..3] {
            assert!(
                row.noise <= rows[0].noise,
                "{}: {} noise points, full marked {}",
                row.mode,
                row.noise,
                rows[0].noise
            );
        }
    }
}
