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
//! The detector therefore costs **at most two dataset passes** (candidate
//! generation, then verification when any candidate survives) on top of
//! the one pass that built the density estimator — the §4.5 result this
//! module reproduces. A slack factor on
//! the pruning threshold trades candidate-set size against the risk of the
//! density estimate smoothing an outlier away.
//!
//! The distance is the config's [`Metric`]: L2 by default, or L1/L∞ —
//! "different distance metrics (for example the L1 or Manhattan metric)
//! can be used equally well" (§3.2). Only the ball integral and the final
//! distance test depend on it. The ball integral is closed-form: the
//! estimator's mass in the cube of the ball's volume
//! ([`dbs_density::ball::ball_mass`]), exact under L∞.

use std::num::NonZeroUsize;

use dbs_core::metric::Metric;
use dbs_core::obs::{Counter, Recorder};
use dbs_core::{par, Dataset, Error, PointSource, Result};
use dbs_density::ball::ball_mass;
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
    /// Worker threads for both detector passes. Each point's ball integral
    /// depends on that point alone and neighbor counts merge by integer
    /// addition, so the report is identical for every value; `1` executes
    /// serially.
    pub parallelism: NonZeroUsize,
    /// The distance under which neighbors are counted. Default L2.
    pub metric: Metric,
}

impl ApproxConfig {
    /// Defaults: slack 3, all available cores, L2.
    pub fn new(params: DbOutlierParams) -> Self {
        ApproxConfig {
            params,
            slack: 3.0,
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
    /// verification workload). At slack 1 it is the §3.2 estimate of the
    /// outlier count, which "gives the opportunity for experimental
    /// exploration of k and p": the points whose expected neighborhood
    /// population is at most `p + 1`.
    pub candidates: usize,
    /// Dataset passes performed by this call (excluding estimator
    /// construction): 2, or 1 when no candidate survives the pruning and
    /// the verification pass is skipped.
    pub passes: usize,
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

/// [`approx_outliers`] with metrics: records the dataset passes, the
/// prefilter's skip count, the ball integrals computed
/// ([`Counter::BallSamples`], one per integrated point), the candidate
/// count, and every exact distance computation of the verification pass
/// into `recorder`. The report is byte-identical to the
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
    if source.dim() != estimator.dim() {
        return Err(Error::DimensionMismatch {
            expected: estimator.dim(),
            got: source.dim(),
        });
    }
    // A negative, NaN or infinite radius would prune nothing or everything.
    config.params.check()?;
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
    // p + 1 above.) A prefilter skips the ball integral for points whose
    // center density alone puts their expected population 1000 times over
    // the threshold. That population is at most about n, so the screen can
    // only fire when `n > 1000 · slack · (p + 1)` — never below 12,000
    // points at the CLI defaults.
    //
    // Each point's keep/drop decision depends only on the point, so the
    // pass parallelizes chunk-wise with output in point order for every
    // thread count. The screen runs through the estimator's batch engine
    // (`densities_into`), whose work is counted; the ball integrals record
    // only their own count.
    let ball_vol = metric.ball_volume(source.dim(), k);
    let skip_above = 1000.0 * threshold;
    recorder.add(Counter::DatasetPasses, 1);
    let kept_chunks = par::par_scan_tallied(source, threads, recorder, |range, block, tally| {
        let mut dens = vec![0.0f64; range.len()];
        estimator.densities_into(block, &mut dens, tally);
        // Kept points go into one flat buffer per chunk, not a vector each.
        let (mut ids, mut coords) = (Vec::new(), Vec::new());
        let mut integrated = 0u64;
        for (i, &density) in range.zip(&dens) {
            if density * ball_vol > skip_above {
                continue;
            }
            integrated += 1;
            let x = block.point(i);
            if ball_mass(estimator, metric, x, k) <= threshold {
                ids.push(i);
                coords.extend_from_slice(x);
            }
        }
        tally.add(Counter::PrefilterSkips, dens.len() as u64 - integrated);
        tally.add(Counter::BallSamples, integrated);
        (ids, coords)
    })?;
    let mut candidate_indices: Vec<usize> = Vec::new();
    let mut flat: Vec<f64> = Vec::new();
    for (ids, coords) in kept_chunks {
        candidate_indices.extend(ids);
        flat.extend(coords);
    }
    let candidates = candidate_indices.len();
    recorder.add(Counter::OutlierCandidates, candidates as u64);
    let candidate_points = Dataset::from_flat(source.dim(), flat).expect("whole points");

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
        passes: 1 + usize::from(candidates > 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested::nested_loop_outliers;
    use dbs_core::rng::seeded;
    use dbs_core::scan::PassCounter;
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
        let counted = PassCounter::new(&ds);
        let report = approx_outliers(&counted, &est, &ApproxConfig::new(params)).unwrap();
        assert_eq!(counted.passes(), 2);
        assert_eq!(report.passes, 2);
    }

    #[test]
    fn count_estimate_is_in_the_ballpark() {
        // §3.2's one-pass estimate of the outlier count is the candidate
        // count at slack 1: the points whose expected neighborhood
        // population is at most `p + 1`.
        let (ds, truth) = planted(5);
        let params = DbOutlierParams::new(0.1, 3).unwrap();
        let est = kde(&ds);
        let cfg = ApproxConfig {
            slack: 1.0,
            ..ApproxConfig::new(params)
        };
        let estimate = approx_outliers(&ds, &est, &cfg).unwrap().candidates;
        // It should see roughly the planted outliers, not hundreds of
        // phantom ones.
        assert!(estimate >= truth.len() / 2, "estimate {estimate}");
        assert!(estimate <= 20 * truth.len(), "estimate {estimate}");
    }

    #[test]
    fn no_candidates_short_circuits() {
        // Uniform dense data with a huge radius: nothing looks sparse, so
        // the verification pass is skipped and the report says so.
        let mut rng = seeded(9);
        let mut ds = Dataset::with_capacity(2, 2000);
        for _ in 0..2000 {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        let est = kde(&ds);
        let params = DbOutlierParams::new(0.5, 3).unwrap();
        let counted = PassCounter::new(&ds);
        let report = approx_outliers(&counted, &est, &ApproxConfig::new(params)).unwrap();
        assert_eq!(report.candidates, 0);
        assert!(report.outliers.is_empty());
        assert_eq!(counted.passes(), 1);
        assert_eq!(report.passes, 1);
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
        // nothing-pruned or all-points report.
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
            let integrated = snap.counter(Counter::BallSamples);
            assert_eq!(skipped + integrated, ds.len() as u64, "{metric:?}");
            assert!(snap.counter(Counter::VerifyDistanceEvals) > 0, "{metric:?}");
        }
    }

    #[test]
    fn prefilter_fires_on_a_ball_holding_far_more_than_the_threshold() {
        // The screen skips a point only when its ball's expected population
        // exceeds 1000 · slack · (p + 1): here 1000, against a 5000-point
        // blob that a single ball covers.
        let mut rng = seeded(15);
        let mut ds = Dataset::with_capacity(2, 5003);
        for _ in 0..5000 {
            ds.push(&[
                0.5 + (rng.gen::<f64>() - 0.5) * 0.02,
                0.5 + (rng.gen::<f64>() - 0.5) * 0.02,
            ])
            .unwrap();
        }
        for o in [[0.05, 0.05], [0.95, 0.95], [0.05, 0.95]] {
            ds.push(&o).unwrap();
        }
        let est = kde(&ds);
        let params = DbOutlierParams::new(0.1, 0).unwrap();
        for metric in METRICS {
            let cfg = ApproxConfig {
                slack: 1.0,
                ..with_metric(params, metric)
            };
            let rec = Recorder::enabled();
            let report = approx_outliers_obs(&ds, &est, &cfg, &rec).unwrap();
            let snap = rec.snapshot().unwrap();
            let skipped = snap.counter(Counter::PrefilterSkips);
            let integrated = snap.counter(Counter::BallSamples);
            assert!(skipped > 0, "{metric:?}: the prefilter never fired");
            assert_eq!(skipped + integrated, ds.len() as u64, "{metric:?}");
            let exact = nested_loop_outliers(&ds, &params, metric);
            assert_eq!(report.outliers, exact, "{metric:?}");
            assert_eq!(exact, vec![5000, 5001, 5002], "{metric:?}");
        }
    }
}
