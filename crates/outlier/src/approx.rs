//! The paper's approximate DB-outlier detector (§3.2).
//!
//! "The basic idea of the algorithm is to sample the regions on which the
//! data point density is very low. ... we compute, for each point `O`, the
//! expected number of points in a ball with radius `k` centered at the
//! point: `N'_D(O,k) = ∫_{Ball(O,k)} f`. We keep the points that have
//! smaller expected number of neighbors [than the threshold]. These are the
//! likely outliers. Then, we make another pass over the data, and verify
//! the number of neighbors for each of the likely outliers."
//!
//! The detector therefore costs **two dataset passes** (candidate
//! generation + verification) on top of the one pass that built the density
//! estimator — the §4.5 result this module reproduces. A slack factor on
//! the pruning threshold trades candidate-set size against the risk of the
//! density estimate smoothing an outlier away.
//!
//! The distance is the config's [`Metric`]: L2 by default, or L1/L∞ —
//! "different distance metrics (for example the L1 or Manhattan metric)
//! can be used equally well" (§3.2). Only the ball integral and the final
//! distance test depend on it.

use std::num::NonZeroUsize;

use dbs_core::metric::Metric;
use dbs_core::obs::{Counter, Recorder};
use dbs_core::{par, Dataset, Error, PointSource, Result};
use dbs_density::ball::expected_neighbors;
use dbs_density::DensityEstimator;
use dbs_spatial::GridIndex;

use crate::dbout::DbOutlierParams;

/// Configuration of the approximate detector.
#[derive(Debug, Clone)]
pub struct ApproxConfig {
    /// The DB(p,k) parameters.
    pub params: DbOutlierParams,
    /// A point is kept as a likely outlier when its expected neighbor count
    /// is at most `slack * (p + 1)`. Larger slack = more candidates to
    /// verify but less risk of missing a true outlier whose neighborhood
    /// the estimator over-smooths. Default 3.
    pub slack: f64,
    /// Monte-Carlo evaluation points per ball integral.
    pub ball_samples: usize,
    /// Seed for the ball quadrature.
    pub seed: u64,
    /// Worker threads for both detector passes. The ball quadrature is
    /// seeded per point index and neighbor counts merge by integer
    /// addition, so the report is identical for every value; `1` executes
    /// serially.
    pub parallelism: NonZeroUsize,
    /// The distance under which neighbors are counted. Default L2.
    pub metric: Metric,
}

impl ApproxConfig {
    /// Defaults: slack 3, 64 quadrature samples, all available cores, L2.
    pub fn new(params: DbOutlierParams) -> Self {
        ApproxConfig {
            params,
            slack: 3.0,
            ball_samples: 64,
            seed: 0,
            parallelism: par::available_parallelism(),
            metric: Metric::Euclidean,
        }
    }
}

/// Result of an approximate outlier run.
#[derive(Debug, Clone)]
pub struct OutlierReport {
    /// Indices of verified DB(p,k) outliers, ascending.
    pub outliers: Vec<usize>,
    /// Number of likely outliers that survived the density pruning (the
    /// verification workload).
    pub candidates: usize,
    /// Dataset passes performed by this call (excluding estimator
    /// construction): always 2.
    pub passes: usize,
}

/// The checks both density-pruned entry points make before any pass. A
/// negative or NaN radius and zero ball samples would reach the
/// Monte-Carlo integral's asserts and panic inside a worker thread.
fn check_detector(
    source_dim: usize,
    estimator_dim: usize,
    params: &DbOutlierParams,
    ball_samples: usize,
) -> Result<()> {
    if source_dim != estimator_dim {
        return Err(Error::DimensionMismatch {
            expected: estimator_dim,
            got: source_dim,
        });
    }
    params.check()?;
    if ball_samples == 0 {
        return Err(Error::InvalidParameter("ball_samples must be >= 1".into()));
    }
    Ok(())
}

/// Runs the §3.2 detector: density pruning pass + verification pass.
///
/// # Examples
///
/// ```
/// use dbs_core::Dataset;
/// use dbs_density::{KdeConfig, KernelDensityEstimator};
/// use dbs_outlier::{approx_outliers, ApproxConfig, DbOutlierParams};
///
/// // A tight blob plus one isolated point at index 100.
/// let mut rows: Vec<Vec<f64>> =
///     (0..100).map(|i| vec![0.5 + (i % 10) as f64 * 0.004, 0.5 + (i / 10) as f64 * 0.004]).collect();
/// rows.push(vec![0.05, 0.95]);
/// let data = Dataset::from_rows(&rows)?;
///
/// let kde = KernelDensityEstimator::fit_dataset(&data, &KdeConfig::with_centers(32))?;
/// let params = DbOutlierParams::new(0.2, 3)?;
/// let report = approx_outliers(&data, &kde, &ApproxConfig::new(params))?;
///
/// assert_eq!(report.outliers, vec![100]);
/// assert_eq!(report.passes, 2);
/// # Ok::<(), dbs_core::Error>(())
/// ```
pub fn approx_outliers<S, E>(
    source: &S,
    estimator: &E,
    config: &ApproxConfig,
) -> Result<OutlierReport>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    approx_outliers_obs(source, estimator, config, &Recorder::disabled())
}

/// [`approx_outliers`] with metrics: records both dataset passes, the
/// prefilter's skip count, the Monte-Carlo ball samples spent, the
/// candidate count, and every exact distance computation of the
/// verification pass into `recorder`. The report is byte-identical to the
/// plain entry point (which is this function with a disabled recorder).
pub fn approx_outliers_obs<S, E>(
    source: &S,
    estimator: &E,
    config: &ApproxConfig,
    recorder: &Recorder,
) -> Result<OutlierReport>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    check_detector(
        source.dim(),
        estimator.dim(),
        &config.params,
        config.ball_samples,
    )?;
    // `!(>= 1.0)` also rejects a NaN slack; `+inf` would disable pruning.
    if !(config.slack >= 1.0) || !config.slack.is_finite() {
        return Err(Error::InvalidParameter(
            "slack must be finite and >= 1".into(),
        ));
    }
    let threads = config.parallelism;
    let metric = config.metric;
    let k = config.params.radius;
    let p = config.params.max_neighbors;
    let threshold = config.slack * (p as f64 + 1.0);

    // Pass 1: likely outliers = points whose expected ball population is
    // small. (The integral counts the point's own smoothed mass too, hence
    // p + 1 above.) A cheap prefilter skips the Monte-Carlo ball integral
    // for points whose *center* density alone puts them three orders of
    // magnitude over the threshold — the kernel estimate is smooth at the
    // bandwidth scale, so the ball average cannot fall 1000x below the
    // center value for any plausible radius/bandwidth ratio.
    //
    // Each point's keep/drop decision depends only on its own index (the
    // quadrature is seeded per index), so the pass parallelizes chunk-wise
    // with output in point order for every thread count. The prefilter's
    // density screen runs through the estimator's batch engine
    // (`densities_into`, bit-identical to per-point evaluation) on each
    // chunk.
    let ball_vol = metric.ball_volume(source.dim(), k);
    let skip_above = 1000.0 * threshold;
    recorder.add(Counter::DatasetPasses, 1);
    let kept_chunks = par::par_scan_tallied(source, threads, recorder, |range, block, tally| {
        let mut dens = vec![0.0f64; range.len()];
        estimator.densities_into(block, &mut dens, tally);
        let mut kept: Vec<(usize, Vec<f64>)> = Vec::new();
        for (off, i) in range.enumerate() {
            if dens[off] * ball_vol > skip_above {
                tally.add(Counter::PrefilterSkips, 1);
                continue;
            }
            let x = block.point(i);
            let expected = expected_neighbors(
                estimator,
                metric,
                x,
                k,
                config.ball_samples,
                config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                tally,
            );
            if expected <= threshold {
                kept.push((i, x.to_vec()));
            }
        }
        kept
    })?;
    let kept: Vec<(usize, Vec<f64>)> = kept_chunks.into_iter().flatten().collect();
    let candidates = kept.len();
    recorder.add(Counter::OutlierCandidates, candidates as u64);
    let mut candidate_points = Dataset::with_capacity(source.dim(), candidates.max(1));
    let mut candidate_indices: Vec<usize> = Vec::with_capacity(candidates);
    for (i, x) in kept {
        candidate_points.push(&x).expect("declared dimension");
        candidate_indices.push(i);
    }

    // Pass 2: count true neighbors of every candidate simultaneously in one
    // scan. A grid over the candidates finds which of them each data point
    // is near: its box query `[x - k, x + k]` holds the L1, L2 and L∞ balls
    // of radius `k` alike. Each chunk counts into its own table and the
    // tables sum — integer addition, so the merged counts equal the serial
    // scan's.
    let mut neighbor_counts = vec![0usize; candidates];
    if candidates > 0 {
        let grid_domain = candidate_points
            .bounding_box()
            .expect("candidates non-empty")
            .inflate(k);
        let res = GridIndex::auto_resolution(candidates.max(16), source.dim(), 4);
        let grid = GridIndex::build(&candidate_points, grid_domain, res);
        let rank_k = metric.rank_distance_of(k);
        let candidate_points = &candidate_points;
        let candidate_indices = &candidate_indices;
        recorder.add(Counter::DatasetPasses, 1);
        let per_chunk = par::par_scan_tallied(source, threads, recorder, |range, block, tally| {
            let mut local = vec![0usize; candidates];
            let mut dist_evals = 0u64;
            for i in range {
                let x = block.point(i);
                grid.for_each_candidate_within(x, k, |ci| {
                    let ci = ci as usize;
                    if candidate_indices[ci] != i {
                        dist_evals += 1;
                        if metric.rank_distance(x, candidate_points.point(ci)) <= rank_k {
                            local[ci] += 1;
                        }
                    }
                });
            }
            tally.add(Counter::VerifyDistanceEvals, dist_evals);
            // Sparse hand-off keeps the merge cheap when chunks touch few
            // candidates.
            local
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .collect::<Vec<(usize, usize)>>()
        })?;
        for chunk in per_chunk {
            for (ci, c) in chunk {
                neighbor_counts[ci] += c;
            }
        }
    }

    let outliers: Vec<usize> = candidate_indices
        .iter()
        .zip(&neighbor_counts)
        .filter(|(_, &count)| count <= p)
        .map(|(&i, _)| i)
        .collect();
    Ok(OutlierReport {
        outliers,
        candidates,
        passes: 2,
    })
}

/// One-pass estimate of the *number* of DB(p,k) outliers in the dataset —
/// the §3.2 feature that "gives the opportunity for experimental
/// exploration of k and p" without running the full detector: it counts
/// the points whose expected L2 neighborhood population is at most `p + 1`.
pub fn estimate_outlier_count<S, E>(
    source: &S,
    estimator: &E,
    params: &DbOutlierParams,
    ball_samples: usize,
    seed: u64,
    threads: NonZeroUsize,
) -> Result<usize>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    estimate_outlier_count_obs(
        source,
        estimator,
        params,
        ball_samples,
        seed,
        threads,
        &Recorder::disabled(),
    )
}

/// [`estimate_outlier_count`] with metrics: records the single dataset
/// pass and the Monte-Carlo ball samples spent into `recorder`.
#[allow(clippy::too_many_arguments)]
pub fn estimate_outlier_count_obs<S, E>(
    source: &S,
    estimator: &E,
    params: &DbOutlierParams,
    ball_samples: usize,
    seed: u64,
    threads: NonZeroUsize,
    recorder: &Recorder,
) -> Result<usize>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    check_detector(source.dim(), estimator.dim(), params, ball_samples)?;
    let threshold = params.max_neighbors as f64 + 1.0;
    recorder.add(Counter::DatasetPasses, 1);
    // Per-chunk serial fold + chunk-ordered integer sum — the same
    // reduction `par_map_reduce` performs, with a tally alongside.
    let per_chunk = par::par_scan_tallied(source, threads, recorder, |range, block, tally| {
        let mut count = 0usize;
        for i in range {
            let expected = expected_neighbors(
                estimator,
                Metric::Euclidean,
                block.point(i),
                params.radius,
                ball_samples,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                tally,
            );
            count += usize::from(expected <= threshold);
        }
        count
    })?;
    Ok(per_chunk.into_iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested::nested_loop_outliers;
    use dbs_core::rng::seeded;
    use dbs_core::BoundingBox;
    use dbs_density::{KdeConfig, KernelDensityEstimator};
    use rand::Rng;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    fn with_metric(params: DbOutlierParams, metric: Metric) -> ApproxConfig {
        ApproxConfig {
            metric,
            ..ApproxConfig::new(params)
        }
    }

    /// Two dense blobs plus isolated planted outliers (appended last).
    fn planted(seed: u64) -> (Dataset, Vec<usize>) {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, 2006);
        for _ in 0..1000 {
            ds.push(&[
                0.3 + (rng.gen::<f64>() - 0.5) * 0.12,
                0.3 + (rng.gen::<f64>() - 0.5) * 0.12,
            ])
            .unwrap();
        }
        for _ in 0..1000 {
            ds.push(&[
                0.7 + (rng.gen::<f64>() - 0.5) * 0.12,
                0.7 + (rng.gen::<f64>() - 0.5) * 0.12,
            ])
            .unwrap();
        }
        let outliers = [
            [0.05, 0.9],
            [0.9, 0.1],
            [0.05, 0.05],
            [0.95, 0.95],
            [0.5, 0.02],
            [0.02, 0.5],
        ];
        let start = ds.len();
        for o in &outliers {
            ds.push(o).unwrap();
        }
        (ds, (start..start + outliers.len()).collect())
    }

    fn kde(ds: &Dataset) -> KernelDensityEstimator {
        let cfg = KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(500)
        };
        KernelDensityEstimator::fit_dataset(ds, &cfg).unwrap()
    }

    #[test]
    fn finds_exactly_the_exact_outliers() {
        let (ds, _) = planted(1);
        let params = DbOutlierParams::new(0.08, 2).unwrap();
        let est = kde(&ds);
        for metric in METRICS {
            let report = approx_outliers(&ds, &est, &with_metric(params, metric)).unwrap();
            let exact = nested_loop_outliers(&ds, &params, metric);
            assert_eq!(report.outliers, exact, "{metric:?}");
            // Pruning must have done real work: far fewer candidates than n.
            assert!(
                report.candidates < ds.len() / 4,
                "{metric:?}: candidates {}",
                report.candidates
            );
        }
    }

    #[test]
    fn planted_outliers_are_recovered() {
        let (ds, truth) = planted(2);
        let params = DbOutlierParams::new(0.1, 3).unwrap();
        let est = kde(&ds);
        for metric in METRICS {
            let report = approx_outliers(&ds, &est, &with_metric(params, metric)).unwrap();
            for t in &truth {
                assert!(
                    report.outliers.contains(t),
                    "{metric:?} missed planted outlier {t}"
                );
            }
        }
    }

    #[test]
    fn verification_removes_false_candidates() {
        // With a generous slack, pruning keeps many non-outliers; the
        // verification pass must cut the result down to the exact set.
        let (ds, _) = planted(3);
        let params = DbOutlierParams::new(0.08, 2).unwrap();
        let est = kde(&ds);
        for metric in METRICS {
            let mut cfg = with_metric(params, metric);
            cfg.slack = 10.0;
            let report = approx_outliers(&ds, &est, &cfg).unwrap();
            let exact = nested_loop_outliers(&ds, &params, metric);
            assert_eq!(report.outliers, exact, "{metric:?}");
            assert!(report.candidates >= exact.len(), "{metric:?}");
        }
    }

    #[test]
    fn two_passes_exactly() {
        let (ds, _) = planted(4);
        let params = DbOutlierParams::new(0.08, 2).unwrap();
        let est = kde(&ds);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let report = approx_outliers(&counted, &est, &ApproxConfig::new(params)).unwrap();
        assert_eq!(counted.passes(), 2);
        assert_eq!(report.passes, 2);
    }

    #[test]
    fn count_estimate_is_in_the_ballpark() {
        let (ds, truth) = planted(5);
        let params = DbOutlierParams::new(0.1, 3).unwrap();
        let est = kde(&ds);
        let estimate =
            estimate_outlier_count(&ds, &est, &params, 64, 6, par::available_parallelism())
                .unwrap();
        // The one-pass estimate should see roughly the planted outliers,
        // not hundreds of phantom ones.
        assert!(estimate >= truth.len() / 2, "estimate {estimate}");
        assert!(estimate <= 20 * truth.len(), "estimate {estimate}");
    }

    #[test]
    fn no_candidates_short_circuits() {
        // Uniform dense data with a huge radius: nothing looks sparse.
        let mut rng = seeded(9);
        let mut ds = Dataset::with_capacity(2, 2000);
        for _ in 0..2000 {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        let est = kde(&ds);
        let params = DbOutlierParams::new(0.5, 3).unwrap();
        let report = approx_outliers(&ds, &est, &ApproxConfig::new(params)).unwrap();
        assert_eq!(report.candidates, 0);
        assert!(report.outliers.is_empty());
    }

    #[test]
    fn rejects_bad_config() {
        let (ds, _) = planted(10);
        let est = kde(&ds);
        let params = DbOutlierParams::new(0.1, 3).unwrap();
        for metric in METRICS {
            let mut cfg = with_metric(params, metric);
            cfg.slack = 0.5;
            assert!(approx_outliers(&ds, &est, &cfg).is_err(), "{metric:?}");
        }
    }

    #[test]
    fn bad_radius_is_rejected() {
        // The fields are public, so a radius can bypass
        // `DbOutlierParams::new`. It must surface as an error, not as a
        // worker panic in the ball integral or an all-points report.
        let (ds, _) = planted(14);
        let est = kde(&ds);
        for radius in [-0.1, 0.0, f64::NAN, f64::INFINITY] {
            let params = DbOutlierParams {
                radius,
                max_neighbors: 3,
            };
            for metric in METRICS {
                match approx_outliers(&ds, &est, &with_metric(params, metric)) {
                    Err(Error::InvalidParameter(msg)) => assert!(msg.contains("radius"), "{msg}"),
                    other => panic!("{metric:?}, radius {radius}: {other:?}"),
                }
            }
            assert!(
                matches!(
                    estimate_outlier_count(&ds, &est, &params, 16, 6, par::serial()),
                    Err(Error::InvalidParameter(_))
                ),
                "count estimate, radius {radius}"
            );
        }
    }

    #[test]
    fn zero_ball_samples_is_an_error_not_a_panic() {
        // Regression: ball_samples = 0 used to reach the ball integral's
        // assert and abort a par worker; it must surface as
        // InvalidParameter from both entry points.
        let (ds, _) = planted(11);
        let est = kde(&ds);
        let params = DbOutlierParams::new(0.1, 3).unwrap();
        for metric in METRICS {
            let mut cfg = with_metric(params, metric);
            cfg.ball_samples = 0;
            match approx_outliers(&ds, &est, &cfg) {
                Err(Error::InvalidParameter(msg)) => assert!(msg.contains("ball_samples"), "{msg}"),
                other => panic!("{metric:?}: expected InvalidParameter, got {other:?}"),
            }
        }
        match estimate_outlier_count(&ds, &est, &params, 0, 6, par::serial()) {
            Err(Error::InvalidParameter(msg)) => assert!(msg.contains("ball_samples"), "{msg}"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_slack_is_rejected() {
        let (ds, _) = planted(12);
        let est = kde(&ds);
        let params = DbOutlierParams::new(0.1, 3).unwrap();
        for metric in METRICS {
            for bad in [f64::INFINITY, f64::NAN] {
                let mut cfg = with_metric(params, metric);
                cfg.slack = bad;
                match approx_outliers(&ds, &est, &cfg) {
                    Err(Error::InvalidParameter(msg)) => assert!(msg.contains("slack"), "{msg}"),
                    other => panic!("{metric:?}, slack = {bad}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn metrics_match_report_and_never_change_it() {
        use dbs_core::obs::{Counter, Recorder};
        let (ds, _) = planted(13);
        let params = DbOutlierParams::new(0.08, 2).unwrap();
        let est = kde(&ds);
        for metric in METRICS {
            let cfg = with_metric(params, metric);
            let plain = approx_outliers(&ds, &est, &cfg).unwrap();
            let rec = Recorder::enabled();
            let obs = approx_outliers_obs(&ds, &est, &cfg, &rec).unwrap();
            assert_eq!(obs.outliers, plain.outliers, "{metric:?}");
            assert_eq!(obs.candidates, plain.candidates, "{metric:?}");
            let snap = rec.snapshot().unwrap();
            assert_eq!(snap.counter(Counter::DatasetPasses), 2);
            assert_eq!(
                snap.counter(Counter::OutlierCandidates),
                plain.candidates as u64
            );
            // Prefilter skips + ball integrals partition the first pass.
            let skipped = snap.counter(Counter::PrefilterSkips);
            let integrated = snap.counter(Counter::BallSamples) / cfg.ball_samples as u64;
            assert_eq!(skipped + integrated, ds.len() as u64, "{metric:?}");
            assert!(snap.counter(Counter::VerifyDistanceEvals) > 0, "{metric:?}");
        }
    }
}
