//! Density-biased sampling — the paper's proposed technique (Figure 1).
//!
//! Given a density estimator `f` for dataset `D` (|D| = n), an exponent `a`
//! and a target sample size `b`:
//!
//! 1. one pass computes `k = Σ_{x∈D} f'(x)` with `f'(x) = f(x)^a`;
//! 2. one more pass includes each point with probability
//!    `(b/n) · f*(x)` where `f*(x) = (n/k) · f'(x)`, i.e. `b·f'(x)/k`.
//!
//! Properties (§2.2 of the paper):
//! * the inclusion probability is a function of the local density
//!   (Property 1) and the expected sample size is `b` (Property 2);
//! * `a = 0` recovers uniform sampling; `a > 0` oversamples dense regions;
//!   `-1 < a < 0` oversamples sparse regions while preserving relative
//!   densities w.h.p. (Lemma 1); `a = -1` equalizes the expected number of
//!   sample points across equal-volume regions.
//!
//! Probabilities are clipped to 1; each sampled point carries weight
//! `1/p_i` so weight-aware algorithms can debias (§3.1).
//!
//! Both passes run on the deterministic parallel executor
//! ([`dbs_core::par`]): densities are evaluated in parallel and merged in
//! point order, the normalizer is folded serially over that vector, and
//! each inclusion draw is a counter-based hash of `(seed, point index)`
//! ([`dbs_core::rng::keyed_unit`]) rather than a stateful generator — so
//! the sample is a pure function of (data, config) and identical for every
//! [`BiasedConfig::parallelism`] level.

use std::num::NonZeroUsize;
use std::ops::Range;

use dbs_core::obs::{Counter, Recorder, Tally};
use dbs_core::rng::keyed_unit;
use dbs_core::{par, Dataset, Error, PointBlock, PointSource, Result, WeightedSample};
use dbs_density::DensityEstimator;

/// Densities are floored at `DENSITY_FLOOR * average_density` before
/// exponentiation, where the average density is `n / volume(domain)`.
/// Without a floor, points in `f(x) = 0` regions would receive unbounded
/// weight for `a < 0` and soak up the whole sample budget; the relative
/// floor caps their advantage over averagely-dense regions at
/// `(1/DENSITY_FLOOR)^{|a|}`.
pub const DENSITY_FLOOR: f64 = 0.01;

/// Configuration of the density-biased sampler.
#[derive(Debug, Clone)]
pub struct BiasedConfig {
    /// Target (expected) sample size `b`.
    pub target_size: usize,
    /// Exponent `a` applied to the density. See the module docs; the
    /// paper's Practitioner's Guide (§4.4) recommends `1.0` for noisy data
    /// and `-0.5` to find small/sparse clusters in clean data.
    pub exponent: f64,
    /// RNG seed for the inclusion draws.
    pub seed: u64,
    /// Worker threads for the density and inclusion passes. The sample is
    /// identical for every value (see the module docs); `1` executes
    /// serially on the calling thread.
    pub parallelism: NonZeroUsize,
}

impl BiasedConfig {
    /// A config with target size `b`, exponent `a` and seed 0; parallelism
    /// defaults to the machine's available parallelism.
    pub fn new(target_size: usize, exponent: f64) -> Self {
        BiasedConfig {
            target_size,
            exponent,
            seed: 0,
            parallelism: par::available_parallelism(),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_parallelism(mut self, parallelism: NonZeroUsize) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// Diagnostics of a biased-sampling run.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedSampleStats {
    /// The normalizer `k = Σ f'(x)` computed in the first pass.
    pub normalizer_k: f64,
    /// Number of points whose raw inclusion probability exceeded 1 and was
    /// clipped (the expected sample size falls short by their excess mass).
    pub clipped: usize,
    /// Number of data passes performed (always 2 for this sampler).
    pub passes: usize,
}

/// Runs the two-pass density-biased sampler of Figure 1.
///
/// `estimator` must already be fitted (that construction pass is *not*
/// counted here). Returns the weighted sample and run diagnostics.
///
/// # Examples
///
/// ```
/// use dbs_core::Dataset;
/// use dbs_density::{KdeConfig, KernelDensityEstimator};
/// use dbs_sampling::{density_biased_sample, BiasedConfig};
///
/// // A dense blob plus scattered points.
/// let mut rows = vec![];
/// for i in 0..200 {
///     rows.push(vec![0.3 + (i % 14) as f64 * 0.005, 0.3 + (i / 14) as f64 * 0.005]);
/// }
/// for i in 0..20 {
///     rows.push(vec![0.05 + i as f64 * 0.04, 0.9]);
/// }
/// let data = Dataset::from_rows(&rows)?;
///
/// let kde = KernelDensityEstimator::fit_dataset(&data, &KdeConfig::with_centers(64))?;
/// let (sample, stats) =
///     density_biased_sample(&data, &kde, &BiasedConfig::new(50, 1.0).with_seed(7))?;
///
/// assert_eq!(stats.passes, 2);
/// assert!(!sample.is_empty());
/// // a = 1 oversamples the dense blob relative to the scattered points.
/// let in_blob = sample.points().iter().filter(|p| p[1] < 0.5).count();
/// assert!(in_blob as f64 / sample.len() as f64 > 0.9);
/// # Ok::<(), dbs_core::Error>(())
/// ```
pub fn density_biased_sample<S, E>(
    source: &S,
    estimator: &E,
    config: &BiasedConfig,
) -> Result<(WeightedSample, BiasedSampleStats)>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    density_biased_sample_obs(source, estimator, config, &Recorder::disabled())
}

/// [`density_biased_sample`] with metrics: records the two dataset passes,
/// the estimator's per-chunk work counts, and the clip count into
/// `recorder`. The sample and stats are byte-identical to the plain entry
/// point whether the recorder is enabled or not (recording is strictly
/// observational — this *is* the implementation the plain entry point runs
/// with a disabled recorder).
pub fn density_biased_sample_obs<S, E>(
    source: &S,
    estimator: &E,
    config: &BiasedConfig,
    recorder: &Recorder,
) -> Result<(WeightedSample, BiasedSampleStats)>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + Sync + ?Sized,
{
    check_inputs(source, estimator, config)?;
    let a = config.exponent;
    let floor = DENSITY_FLOOR * estimator.average_density();
    figure1_passes(source, config, recorder, |block, tally| {
        let mut fp = vec![0.0f64; block.len()];
        estimator.densities_into(block, &mut fp, tally);
        fp.iter_mut().for_each(|f| *f = f.max(floor).powf(a));
        fp
    })
}

/// Both passes of Figure 1 over a per-chunk `f'` hook, shared by this
/// sampler and the Palmer–Faloutsos grid sampler.
///
/// Pass 1 computes `k = Σ f'(x)`: `fprime` maps each chunk to its `f'`
/// values (recording its work into the chunk's tally), and the serial left
/// fold over the chunk-ordered values is bit-identical to accumulating
/// during a sequential scan. The f' cache stays one small vector per
/// chunk: flattening it would hold it twice, and one large allocation
/// needs fresh address space that the workers' small ones do not. Pass 2
/// is the [`inclusion_pass`] over the cached values, so no `f'` is
/// evaluated twice.
pub(crate) fn figure1_passes<S, F>(
    source: &S,
    config: &BiasedConfig,
    recorder: &Recorder,
    fprime: F,
) -> Result<(WeightedSample, BiasedSampleStats)>
where
    S: PointSource + ?Sized,
    F: Fn(&PointBlock, &mut Tally) -> Vec<f64> + Sync,
{
    recorder.add(Counter::DatasetPasses, 1);
    let fpv = par::par_scan_tallied(source, config.parallelism, recorder, |_, block, tally| {
        fprime(block, tally)
    })?;
    let k: f64 = fpv.iter().flatten().sum();
    if !(k.is_finite() && k > 0.0) {
        return Err(Error::InvalidParameter(format!(
            "normalizer k = {k} is not positive/finite; check exponent and floor"
        )));
    }
    let (sample, clipped) = inclusion_pass(source, config, k, recorder, |range, _, _, fp| {
        fp.copy_from_slice(&fpv[range.start / par::CHUNK_POINTS]);
    })?;
    let stats = BiasedSampleStats {
        normalizer_k: k,
        clipped,
        passes: 2,
    };
    Ok((sample, stats))
}

/// The input checks both Figure 1 samplers make before touching the data.
pub(crate) fn check_inputs<S, E>(source: &S, estimator: &E, config: &BiasedConfig) -> Result<()>
where
    S: PointSource + ?Sized,
    E: DensityEstimator + ?Sized,
{
    if source.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot sample an empty source".into(),
        ));
    }
    if config.target_size == 0 {
        return Err(Error::InvalidParameter("target_size must be >= 1".into()));
    }
    if source.dim() != estimator.dim() {
        return Err(Error::DimensionMismatch {
            expected: estimator.dim(),
            got: source.dim(),
        });
    }
    Ok(())
}

/// The Figure 1 inclusion pass every biased sampler ends with: one chunked
/// scan that includes point `i` with probability `p = min(1, b·f'(x_i)/k)`
/// and weight `1/p`, where only the source of `k` and `f'` differs.
///
/// `fprime` fills a chunk's `f'` values, one per point of the chunk's
/// range, recording any work it does into the chunk's tally. The draw for
/// point `i` is keyed on `(seed, i)`, picks are assembled in point order
/// and clip counts sum over chunks, so the result is the same at every
/// [`BiasedConfig::parallelism`] level. Returns the sample and the number
/// of probabilities clipped at 1.
pub(crate) fn inclusion_pass<S, F>(
    source: &S,
    config: &BiasedConfig,
    k: f64,
    recorder: &Recorder,
    fprime: F,
) -> Result<(WeightedSample, usize)>
where
    S: PointSource + ?Sized,
    F: Fn(Range<usize>, &PointBlock, &mut Tally, &mut [f64]) + Sync,
{
    let b = config.target_size as f64;
    recorder.add(Counter::DatasetPasses, 1);
    let threads = config.parallelism;
    let per_chunk = par::par_scan_tallied(source, threads, recorder, |range, block, tally| {
        let mut fp = vec![0.0f64; range.len()];
        fprime(range.clone(), block, tally, &mut fp);
        let mut picks: Vec<(usize, Vec<f64>, f64)> = Vec::new();
        let mut clipped = 0usize;
        for (i, f) in range.zip(fp) {
            let raw = b * f / k;
            let p = if raw >= 1.0 {
                clipped += 1;
                1.0
            } else {
                raw
            };
            if keyed_unit(config.seed, i as u64) < p {
                picks.push((i, block.point(i).to_vec(), 1.0 / p));
            }
        }
        tally.add(Counter::SamplerClipEvents, clipped as u64);
        (picks, clipped)
    })?;

    // Sized from the picks, never from `target_size`, which the caller
    // may set far above the source size.
    let size = per_chunk.iter().map(|(picks, _)| picks.len()).sum();
    let mut points = Dataset::with_capacity(source.dim(), size);
    let mut weights = Vec::with_capacity(size);
    let mut indices = Vec::with_capacity(size);
    let mut clipped = 0usize;
    for (picks, chunk_clipped) in per_chunk {
        clipped += chunk_clipped;
        for (i, x, w) in picks {
            points.push(&x).expect("declared dimension");
            weights.push(w);
            indices.push(i);
        }
    }
    Ok((WeightedSample::new(points, weights, indices)?, clipped))
}

/// The raw (unclipped) inclusion probability the Figure 1 sampler assigns
/// to a point with density `density`, given the normalizer `k` computed
/// over the dataset. Exposed for analysis and tests.
pub fn inclusion_probability(density: f64, a: f64, floor: f64, b: f64, k: f64) -> f64 {
    (b * density.max(floor).powf(a) / k).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng::{self, seeded};
    use dbs_core::BoundingBox;
    use dbs_density::{KdeConfig, KernelDensityEstimator, ShiftedGrids};
    use rand::Rng;

    /// 90% of points in a dense blob around (0.25,0.25), 10% in a sparse
    /// blob around (0.75,0.75).
    fn two_blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, n);
        for i in 0..n {
            let (cx, cy) = if i < n * 9 / 10 {
                (0.25, 0.25)
            } else {
                (0.75, 0.75)
            };
            ds.push(&[
                cx + (rng.gen::<f64>() - 0.5) * 0.1,
                cy + (rng.gen::<f64>() - 0.5) * 0.1,
            ])
            .unwrap();
        }
        ds
    }

    fn kde(ds: &Dataset) -> KernelDensityEstimator {
        let cfg = KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(300)
        };
        KernelDensityEstimator::fit_dataset(ds, &cfg).unwrap()
    }

    #[test]
    fn expected_size_is_b() {
        let ds = two_blobs(20_000, 1);
        let est = kde(&ds);
        for a in [-0.5, 0.0, 0.5, 1.0] {
            let mut total = 0usize;
            let reps = 5;
            for r in 0..reps {
                let cfg = BiasedConfig::new(500, a).with_seed(rng::sub_seed(2, r));
                let (s, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
                total += s.len();
            }
            let mean = total as f64 / reps as f64;
            assert!(
                (mean - 500.0).abs() < 60.0,
                "a={a}: mean sample size {mean}"
            );
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let ds = two_blobs(10_000, 3);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(1000, 0.0).with_seed(4);
        let (s, stats) = density_biased_sample(&ds, &est, &cfg).unwrap();
        // With a = 0, f' = 1 for all points, so k = n and p = b/n for all.
        assert!((stats.normalizer_k - 10_000.0).abs() < 1e-6);
        for &w in s.weights() {
            assert!((w - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn positive_exponent_oversamples_dense_region() {
        let ds = two_blobs(20_000, 5);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(1000, 1.0).with_seed(6);
        let (s, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
        let dense_frac = s.points().iter().filter(|p| p[0] < 0.5).count() as f64 / s.len() as f64;
        // Dense blob holds 90% of the data; with a=1 it should hold clearly
        // more than 90% of the sample.
        assert!(dense_frac > 0.93, "dense fraction {dense_frac}");
    }

    #[test]
    fn negative_exponent_oversamples_sparse_region() {
        let ds = two_blobs(20_000, 7);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(1000, -0.5).with_seed(8);
        let (s, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
        let sparse_frac = s.points().iter().filter(|p| p[0] > 0.5).count() as f64 / s.len() as f64;
        // Sparse blob holds 10% of the data but should hold clearly more of
        // the sample.
        assert!(sparse_frac > 0.15, "sparse fraction {sparse_frac}");
    }

    #[test]
    fn lemma1_relative_densities_preserved_for_a_above_minus_one() {
        // With a = -0.5 the dense region must *remain* denser in the sample
        // (Lemma 1), even though it is undersampled.
        let ds = two_blobs(20_000, 9);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(2000, -0.5).with_seed(10);
        let (s, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
        let dense = s.points().iter().filter(|p| p[0] < 0.5).count();
        let sparse = s.len() - dense;
        // Equal-volume regions; dense region must still have more points.
        assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn exponent_minus_one_equalizes_expected_counts() {
        // a = -1: same expected number of sample points in any two regions
        // of the same volume (§2.2 case 4). The two blobs occupy equal
        // volumes, so counts should be roughly equal despite the 9:1 data
        // ratio.
        let ds = two_blobs(20_000, 11);
        let est = kde(&ds);
        let mut dense_total = 0usize;
        let mut sparse_total = 0usize;
        for r in 0..5 {
            let cfg = BiasedConfig::new(1000, -1.0).with_seed(rng::sub_seed(12, r));
            let (s, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
            dense_total += s.points().iter().filter(|p| p[0] < 0.5).count();
            sparse_total += s.points().iter().filter(|p| p[0] > 0.5).count();
        }
        let ratio = dense_total as f64 / sparse_total.max(1) as f64;
        assert!(
            (0.6..1.7).contains(&ratio),
            "ratio {ratio} (dense {dense_total}, sparse {sparse_total})"
        );
    }

    #[test]
    fn weights_are_inverse_probabilities() {
        let ds = two_blobs(5000, 13);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(500, 1.0).with_seed(14);
        let (s, stats) = density_biased_sample(&ds, &est, &cfg).unwrap();
        for (k, &i) in s.source_indices().iter().enumerate() {
            let p = inclusion_probability(
                est.density(ds.point(i)),
                1.0,
                DENSITY_FLOOR * est.average_density(),
                500.0,
                stats.normalizer_k,
            );
            assert!((s.weights()[k] - 1.0 / p).abs() < 1e-9);
        }
        // Horvitz–Thompson estimate of n is in the right ballpark.
        let est_n = s.estimated_source_size();
        assert!((est_n - 5000.0).abs() < 1500.0, "estimated n {est_n}");
    }

    #[test]
    fn two_passes_exactly() {
        let ds = two_blobs(2000, 15);
        let est = kde(&ds);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let cfg = BiasedConfig::new(100, 0.5).with_seed(16);
        let (_, stats) = density_biased_sample(&counted, &est, &cfg).unwrap();
        assert_eq!(counted.passes(), 2);
        assert_eq!(stats.passes, 2);
    }

    #[test]
    fn works_with_grid_estimator_backend() {
        let ds = two_blobs(5000, 17);
        let est = ShiftedGrids::grid(BoundingBox::unit(2), 16)
            .unwrap()
            .fit(&ds, par::serial())
            .unwrap();
        let cfg = BiasedConfig::new(300, 1.0).with_seed(18);
        let (s, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
        assert!(!s.is_empty());
        let dense_frac = s.points().iter().filter(|p| p[0] < 0.5).count() as f64 / s.len() as f64;
        assert!(dense_frac > 0.9);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let ds = two_blobs(100, 19);
        let est = kde(&ds);
        assert!(
            density_biased_sample(&Dataset::new(2), &est, &BiasedConfig::new(10, 1.0)).is_err()
        );
        assert!(density_biased_sample(&ds, &est, &BiasedConfig::new(0, 1.0)).is_err());
        let ds3 = Dataset::from_rows(&[vec![0.0, 0.0, 0.0]]).unwrap();
        assert!(density_biased_sample(&ds3, &est, &BiasedConfig::new(10, 1.0)).is_err());
    }

    #[test]
    fn clipping_is_reported() {
        // Tiny dataset, huge b: every probability clips to 1.
        let ds = two_blobs(50, 21);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(1000, 1.0).with_seed(22);
        let (s, stats) = density_biased_sample(&ds, &est, &cfg).unwrap();
        assert_eq!(s.len(), 50);
        assert!(stats.clipped > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = two_blobs(2000, 23);
        let est = kde(&ds);
        let cfg = BiasedConfig::new(200, -0.25).with_seed(24);
        let (a, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
        let (b, _) = density_biased_sample(&ds, &est, &cfg).unwrap();
        assert_eq!(a.source_indices(), b.source_indices());
    }
}
