//! §4.5 outlier-detection experiment.
//!
//! "In almost all cases the algorithm finds all the outliers with at most
//! two dataset passes plus the dataset pass that is required to compute the
//! density estimator."
//!
//! We plant isolated DB(p,k) outliers on a clustered background, run the
//! approximate detector, and report recall/precision against the exact
//! detector, the candidate-set size (how hard the density pruning worked),
//! the pass count, and the wall-clock comparison against the exact
//! nested-loop baseline.

use std::time::Instant;

use dbs_core::obs::{Counter, Recorder};
use dbs_core::{BoundingBox, Metric, Result};
use dbs_density::EstimatorSpec;
use dbs_outlier::{approx_outliers_obs, nested_loop_outliers, ApproxConfig, DbOutlierParams};
use dbs_synth::outliers::planted_outliers;
use dbs_synth::rect::RectConfig;

use crate::report::{f, Table};
use crate::Scale;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct OutlierRow {
    /// Dimensionality.
    pub dim: usize,
    /// Dataset size (background + planted).
    pub n: usize,
    /// Planted outliers.
    pub planted: usize,
    /// Exact DB(p,k) outliers (nested loop ground truth).
    pub exact: usize,
    /// Outliers reported by the approximate detector.
    pub found: usize,
    /// True positives among them.
    pub true_positives: usize,
    /// Candidates that survived the density pruning.
    pub candidates: usize,
    /// Dataset passes used by the approximate detector (excluding the
    /// estimator pass).
    pub passes: usize,
    /// Ball integrals the density prefilter skipped (counted work).
    pub prefilter_skips: u64,
    /// Monte-Carlo samples spent on the remaining ball integrals.
    pub ball_samples: u64,
    /// Exact distance evaluations in the verification pass.
    pub verify_dists: u64,
    /// Approximate detector seconds (including estimator fit).
    pub approx_secs: f64,
    /// Nested-loop baseline seconds.
    pub exact_secs: f64,
}

/// Runs the experiment for 2-d and 3-d workloads.
pub fn run(scale: Scale, seed: u64) -> Result<Vec<OutlierRow>> {
    let base_points = match scale {
        Scale::Quick => 10_000,
        Scale::Paper => 100_000,
    };
    let mut rows = Vec::new();
    for (dim, radius) in [(2usize, 0.03f64), (3, 0.1)] {
        let background = RectConfig {
            total_points: base_points,
            ..RectConfig::paper_standard(dim, seed ^ dim as u64)
        };
        let planted = planted_outliers(&background, 10, 2.0 * radius, seed ^ 0x07)?;
        let data = &planted.synth.data;
        let params = DbOutlierParams::new(radius, 3)?;

        let t0 = Instant::now();
        let est = EstimatorSpec::kde(scale.kernels())
            .with_seed(seed)
            .with_domain(BoundingBox::unit(dim))
            .fit(data)?;
        let rec = Recorder::enabled();
        let report = approx_outliers_obs(
            data,
            &*est,
            // Generous pruning slack: outliers that sit within a kernel
            // bandwidth of a dense cluster look populated to the density
            // model; the verification pass removes any false candidates,
            // so slack only costs verification work.
            &ApproxConfig {
                slack: 10.0,
                ..ApproxConfig::new(params)
            },
            &rec,
        )?;
        let approx_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let exact = nested_loop_outliers(data, &params, Metric::Euclidean);
        let exact_secs = t1.elapsed().as_secs_f64();

        let true_positives = report.outliers.iter().filter(|o| exact.contains(o)).count();
        rows.push(OutlierRow {
            dim,
            n: data.len(),
            planted: planted.outlier_indices.len(),
            exact: exact.len(),
            found: report.outliers.len(),
            true_positives,
            candidates: report.candidates,
            passes: report.passes,
            prefilter_skips: rec.counter(Counter::PrefilterSkips),
            ball_samples: rec.counter(Counter::BallSamples),
            verify_dists: rec.counter(Counter::VerifyDistanceEvals),
            approx_secs,
            exact_secs,
        });
    }
    Ok(rows)
}

/// Renders the report table.
pub fn render(scale: Scale, seed: u64) -> Result<String> {
    let rows = run(scale, seed)?;
    let mut t = Table::new(&[
        "dim",
        "n",
        "planted",
        "exact",
        "found",
        "true-pos",
        "candidates",
        "passes",
        "pruned",
        "mc samples",
        "dist evals",
        "approx s",
        "nested-loop s",
    ]);
    for r in &rows {
        t.row(vec![
            r.dim.to_string(),
            r.n.to_string(),
            r.planted.to_string(),
            r.exact.to_string(),
            r.found.to_string(),
            r.true_positives.to_string(),
            r.candidates.to_string(),
            r.passes.to_string(),
            r.prefilter_skips.to_string(),
            r.ball_samples.to_string(),
            r.verify_dists.to_string(),
            f(r.approx_secs, 3),
            f(r.exact_secs, 3),
        ]);
    }
    Ok(format!(
        "Outlier detection (§4.5): density-pruned DB(p,k) detector vs exact nested loop\n\
         (pruned/mc samples/dist evals are deterministic operation counters from dbs_core::obs)\n{}",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approximate_detector_is_exact_and_prunes() {
        let rows = run(Scale::Quick, 41).unwrap();
        for r in &rows {
            // §4.5: "finds all the outliers" — and verification removes any
            // false positives, so the result equals the exact set.
            assert_eq!(r.found, r.exact, "{r:?}");
            assert_eq!(r.true_positives, r.exact, "{r:?}");
            // Every planted point really is a DB outlier.
            assert!(r.exact >= r.planted, "{r:?}");
            // Two passes, and the pruning did real work.
            assert_eq!(r.passes, 2);
            assert!(r.candidates < r.n / 4, "{r:?}");
            // The counted-work columns partition the first pass: every
            // point was either prefilter-skipped or ball-integrated (64
            // Monte-Carlo samples each), and verification did real work.
            let integrated = r.ball_samples / 64;
            assert_eq!(r.prefilter_skips + integrated, r.n as u64, "{r:?}");
            assert!(r.verify_dists > 0, "{r:?}");
        }
    }
}
