//! Density-biased sampling — the paper's proposed technique (Figure 1).
//!
//! Given a density estimator `f` for dataset `D` (|D| = n), an exponent `a`
//! and a target sample size `b`, Figure 1 includes each point with
//! probability `(b/n) · f*(x)` where `f*(x) = (n/k) · f'(x)`, i.e.
//! `b·f'(x)/k`, with `f'(x) = f(x)^a` and the normalizer `k = Σ_{x∈D} f'(x)`.
//! The paper spends one pass on `k` and one more on the inclusion draws.
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
//! **One data pass, still exact.** Each inclusion draw is a counter-based
//! hash `u_i` of `(seed, point index)` ([`dbs_core::rng::keyed_unit`]), so
//! it is known before `k` is. Point `i` is included iff `u_i < b·f'_i/k`,
//! that is iff its priority `t_i = f'_i/u_i` exceeds `k/b`. The one pass
//! therefore folds `k` and keeps at most the `M = b + 8√b + 64` points of
//! highest priority (the priority-sampling idiom, in at most `1.5·M`
//! points' worth of memory however large `n` is). It drops at once any
//! point whose priority does not clear the normalizer folded so far, a
//! lower bound on `k` while every `f'` is non-negative. When more than
//! `M` points survive, the `M`-th highest priority becomes a floor and
//! the points below it go. After the pass, `k` must be at least every
//! folded normalizer a cut used, and the floor `t_floor` must pass
//! `b·t_floor ≤ k·(1 − 4ε)`; then no point outside the kept set can be
//! included or clipped, and Figure 1's own expression decides the kept
//! points. So the sample, its weights, `k` and the clip count are those of
//! the two-pass algorithm, bit for bit. More than `M` points above `k/b`
//! is an ~8σ event; when a check fails, a second pass draws every point
//! ([`BiasedSampleStats::passes`] is then 2).
//!
//! The pass runs on the deterministic parallel executor
//! ([`dbs_core::par`]): `k` is folded in point order as chunks complete,
//! and each chunk's surviving points join the kept set in chunk order, so
//! the sample is a pure function of (data, config) and identical for
//! every [`BiasedConfig::parallelism`] level.

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

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
    /// Number of data passes performed: 1, or 2 when the exact sampler's
    /// checks fail and a second pass draws every point (see the module
    /// docs). The grid sampler adds its fit pass.
    pub passes: usize,
}

/// `f' = max(f, floor)^a`, the Figure 1 weight of a point of density `f`.
/// The default exponent `a = 1` skips `powf`, with the same bits: the
/// exact `x^1 = x` is representable and `pow` errs by under one ulp, so
/// `powf(x, 1.0)` returns `x` (a unit test pins it).
#[inline]
pub(crate) fn floored_pow(f: f64, floor: f64, a: f64) -> f64 {
    let x = f.max(floor);
    if a == 1.0 {
        x
    } else {
        x.powf(a)
    }
}

/// Runs the density-biased sampler of Figure 1, exactly, in one data pass
/// (two when its exactness test fails; see the module docs).
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
/// assert_eq!(stats.passes, 1);
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

/// [`density_biased_sample`] with metrics: records the dataset passes,
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
        fp.iter_mut().for_each(|f| *f = floored_pow(*f, floor, a));
        fp
    })
}

/// Figure 1 over a per-chunk `f'` hook, shared by this sampler and the
/// Palmer–Faloutsos grid sampler: one pass, plus the fallback pass when
/// the exactness test fails (see the module docs).
///
/// `fprime` maps each chunk to its `f'` values, recording its work into
/// the chunk's tally. The pass folds `k` over those values in point order,
/// so `k` is bit-identical to the left fold of a sequential scan, and
/// drops each chunk's values once folded.
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
    let b = config.target_size as f64;
    let kept = (b + 8.0 * b.sqrt() + 64.0) as usize;
    figure1_keeping(source, config, recorder, kept.min(source.len()), fprime)
}

/// [`figure1_passes`] keeping the `capacity` points of highest priority.
/// Tests force the fallback pass through a small capacity.
pub(crate) fn figure1_keeping<S, F>(
    source: &S,
    config: &BiasedConfig,
    recorder: &Recorder,
    capacity: usize,
    fprime: F,
) -> Result<(WeightedSample, BiasedSampleStats)>
where
    S: PointSource + ?Sized,
    F: Fn(&PointBlock, &mut Tally) -> Vec<f64> + Sync,
{
    let (b, seed, dim) = (config.target_size as f64, config.seed, source.dim());
    recorder.add(Counter::DatasetPasses, 1);
    // The normalizer folded so far, as bits, for the workers' cuts. It
    // publishes nothing else, so `Relaxed`.
    let folded = AtomicU64::new(0.0f64.to_bits());
    let (k, peak, mut candidates) = par::par_scan_in_order(
        source,
        config.parallelism,
        recorder,
        |range, block, tally| {
            let fp = fprime(block, tally);
            let cut = cut_at(f64::from_bits(folded.load(AtomicOrdering::Relaxed)));
            let (mut picks, mut rows) = (Vec::new(), Vec::new());
            for (i, &f) in range.zip(&fp) {
                let t = f / keyed_unit(seed, i as u64);
                if b * t > cut {
                    picks.push(Candidate { t, index: i, fp: f });
                    rows.extend_from_slice(block.point(i));
                }
            }
            (fp, (picks, rows))
        },
        // `Iterator::sum`'s start value, so `k` has the bits of
        // `fp.iter().sum()` over every point in order.
        (-0.0f64, 0.0f64, Candidates::new(capacity, b, dim)),
        |(k, peak, candidates), (fp, picks)| {
            *k = fp.into_iter().fold(*k, |k, f| k + f);
            *peak = peak.max(*k);
            folded.store(k.to_bits(), AtomicOrdering::Relaxed);
            candidates.append(picks, cut_at(*k));
        },
    )?;
    if !(k.is_finite() && k > 0.0) {
        return Err(Error::InvalidParameter(format!(
            "normalizer k = {k} is not positive/finite; check exponent and floor"
        )));
    }

    // Every point not kept fell below a cut, which cannot drop a point
    // that is drawn while `k` is at least every normalizer a cut used, or
    // below the floor, which the final cut must clear.
    candidates.compact(cut_at(k));
    let exact = k >= peak && candidates.floor.is_none_or(|f| b * f.t <= cut_at(k));
    if !exact {
        let (sample, clipped) =
            inclusion_pass(source, config, k, recorder, |_, block, tally, fp| {
                fp.copy_from_slice(&fprime(block, tally))
            })?;
        let stats = BiasedSampleStats {
            normalizer_k: k,
            clipped,
            passes: 2,
        };
        return Ok((sample, stats));
    }

    let kept = candidates
        .kept
        .iter()
        .zip(candidates.rows.chunks_exact(dim));
    let mut points = Dataset::with_capacity(dim, candidates.kept.len());
    let (mut weights, mut indices, mut clipped) = (Vec::new(), Vec::new(), 0usize);
    for (c, row) in kept {
        let (p, clip, included) = draw(config, k, c.index, c.fp);
        clipped += usize::from(clip);
        if included {
            points.push(row).expect("declared dimension");
            weights.push(1.0 / p);
            indices.push(c.index);
        }
    }
    recorder.add(Counter::SamplerClipEvents, clipped as u64);
    let stats = BiasedSampleStats {
        normalizer_k: k,
        clipped,
        passes: 1,
    };
    Ok((WeightedSample::new(points, weights, indices)?, stats))
}

/// The margin of every cut: a point is dropped only if
/// `fl(b·t) ≤ fl(K·SAFETY)` for some `K ≤ k` — a normalizer folded so far,
/// or `k` itself for the points below the kept set's floor, whose `t` is
/// at most the floor's. Below [`MIN_NORMALIZER`] the cut is `−∞`, which
/// drops only points with `t = −∞` or NaN.
///
/// No such point is drawn. Let `δ = 2⁻⁵³`. Were it drawn,
/// `u < p = fl(fl(b·f')/k)`; `u ≥ 2⁻⁵³` (a zero draw gives `t = ∞` or NaN,
/// and a NaN `f'` or one `≤ 0` is never drawn), so with
/// `K ≥` [`MIN_NORMALIZER`] every quantity below is a normal float and
/// each rounding is relative: `p ≤ (b·f'/k)(1+δ)²` and
/// `t ≥ (f'/u)(1−δ)`, so `fl(b·t) > k(1−δ)²/(1+δ)²`, while
/// `fl(K·SAFETY) ≤ k(1 − 8δ)(1+δ)`, and `(1 − 8δ)(1+δ)³ < (1−δ)²`. A
/// clipped point has `p = 1 > u`, so it would be drawn too.
const SAFETY: f64 = 1.0 - 4.0 * f64::EPSILON;

/// The smallest normalizer a cut may use: above it, every quantity in
/// [`SAFETY`]'s rounding argument is a normal float.
const MIN_NORMALIZER: f64 = 1e-150;

/// The cut a normalizer `K ≤ k` allows: a point with `b·t ≤ cut_at(K)`
/// cannot be drawn (see [`SAFETY`]).
fn cut_at(normalizer: f64) -> f64 {
    if normalizer >= MIN_NORMALIZER {
        normalizer * SAFETY
    } else {
        f64::NEG_INFINITY
    }
}

/// One point kept by pass 1: its priority `t = f'/u`, index and `f'`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    t: f64,
    index: usize,
    fp: f64,
}

impl Candidate {
    /// The order points are kept by: `t` under [`f64::total_cmp`], then
    /// the index, so every thread count keeps the same points. As
    /// integers: `t`'s bits flipped the way `total_cmp` flips them.
    fn rank(&self) -> (u64, usize) {
        let bits = self.t.to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        (key, self.index)
    }
}

/// The points pass 1 keeps, with their rows, in point order: a superset
/// of the `capacity` points of highest priority among those offered, less
/// the points a cut has shown cannot be drawn.
///
/// Chunks append their points. When a chunk would take the count past
/// `limit`, the points that no longer clear the current cut go first;
/// if more than `capacity` remain, one selection finds the `capacity`-th
/// highest priority, which becomes the floor, and everything below it
/// goes. So a point costs an append, and the compactions a linear pass
/// per `capacity / 2` appends, whatever order the priorities arrive in.
struct Candidates {
    capacity: usize,
    /// `capacity` and a half: the count that triggers a compaction.
    limit: usize,
    b: f64,
    dim: usize,
    kept: Vec<Candidate>,
    rows: Vec<f64>,
    /// The highest floor a selection has set: every point a selection
    /// dropped ranks below it.
    floor: Option<Candidate>,
}

impl Candidates {
    fn new(capacity: usize, b: f64, dim: usize) -> Self {
        assert!(capacity >= 1, "the kept set must hold at least one point");
        Candidates {
            capacity,
            limit: capacity.saturating_add(capacity / 2),
            b,
            dim,
            kept: Vec::new(),
            rows: Vec::new(),
            floor: None,
        }
    }

    /// Appends a later chunk's points and their rows, compacting first
    /// under `cut` when they would not fit.
    fn append(&mut self, (kept, rows): (Vec<Candidate>, Vec<f64>), cut: f64) {
        if self.kept.len() + kept.len() > self.limit {
            self.compact(cut);
        }
        self.kept.extend_from_slice(&kept);
        self.rows.extend_from_slice(&rows);
    }

    /// Drops the points whose priority does not clear `cut`
    /// (`b·t ≤ cut`), then keeps at most the `capacity` highest
    /// priorities, in point order.
    fn compact(&mut self, cut: f64) {
        let b = self.b;
        self.retain(|c| b * c.t > cut);
        if self.kept.len() <= self.capacity {
            return;
        }
        let mut ranked = self.kept.clone();
        let last = self.capacity - 1;
        let floor = *ranked
            .select_nth_unstable_by_key(last, |c| Reverse(c.rank()))
            .1;
        self.retain(|c| c.rank() >= floor.rank());
        // Keep the highest floor: the final test then covers every point
        // any selection dropped, even after a cut pruned points above an
        // earlier floor.
        self.floor = [self.floor, Some(floor)]
            .into_iter()
            .flatten()
            .max_by_key(Candidate::rank);
    }

    /// Keeps the points `keep` accepts, with their rows, in order.
    fn retain(&mut self, keep: impl Fn(&Candidate) -> bool) {
        let d = self.dim;
        let mut w = 0;
        for r in 0..self.kept.len() {
            let c = self.kept[r];
            if keep(&c) {
                self.kept[w] = c;
                self.rows.copy_within(r * d..(r + 1) * d, w * d);
                w += 1;
            }
        }
        self.kept.truncate(w);
        self.rows.truncate(w * d);
    }
}

/// Figure 1's decision for point `i` of weight `f`: its inclusion
/// probability `p = min(1, b·f/k)`, whether `p` was clipped at 1, and
/// whether the keyed draw `u_i < p` includes the point.
#[inline]
fn draw(config: &BiasedConfig, k: f64, i: usize, f: f64) -> (f64, bool, bool) {
    let raw = config.target_size as f64 * f / k;
    let (p, clipped) = if raw >= 1.0 {
        (1.0, true)
    } else {
        (raw, false)
    };
    (p, clipped, keyed_unit(config.seed, i as u64) < p)
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

/// A Figure 1 inclusion pass over a known `k`: one chunked scan that
/// includes point `i` with probability `p = min(1, b·f'(x_i)/k)` and weight
/// `1/p`. The one-pass sampler of §2.2 runs it with its approximate `k`,
/// and the two-pass sampler as its fallback pass.
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
    recorder.add(Counter::DatasetPasses, 1);
    let threads = config.parallelism;
    let per_chunk = par::par_scan_tallied(source, threads, recorder, |range, block, tally| {
        let mut fp = vec![0.0f64; range.len()];
        fprime(range.clone(), block, tally, &mut fp);
        let mut picks: Vec<(usize, Vec<f64>, f64)> = Vec::new();
        let mut clipped = 0usize;
        for (i, f) in range.zip(fp) {
            let (p, clip, included) = draw(config, k, i, f);
            clipped += usize::from(clip);
            if included {
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
    (b * floored_pow(density, floor, a) / k).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::io::{write_binary, FileSource};
    use dbs_core::rng::{self, seeded};
    use dbs_core::shard::write_shards_with;
    use dbs_core::{BoundingBox, ShardedSource};
    use dbs_density::{KdeConfig, KernelDensityEstimator, ShiftedGrids};
    use proptest::prelude::*;
    use rand::Rng;
    use std::path::PathBuf;

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
    fn one_pass_exactly() {
        let ds = two_blobs(20_000, 15);
        let est = kde(&ds);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let cfg = BiasedConfig::new(100, 0.5).with_seed(16);
        let rec = Recorder::enabled();
        let (_, stats) = density_biased_sample_obs(&counted, &est, &cfg, &rec).unwrap();
        assert_eq!(counted.passes(), 1);
        assert_eq!(stats.passes, 1);
        assert_eq!(rec.counter(Counter::DatasetPasses), 1);
    }

    /// Figure 1 as the paper runs it: pass 1 caches every `f'` and folds
    /// `k`, pass 2 draws every point. The one-pass sampler must reproduce
    /// it bit for bit.
    fn two_pass_reference<S: PointSource + ?Sized>(
        source: &S,
        est: &KernelDensityEstimator,
        config: &BiasedConfig,
    ) -> (WeightedSample, BiasedSampleStats) {
        let (a, floor) = (config.exponent, DENSITY_FLOOR * est.average_density());
        two_pass_reference_of(source, config, |block| {
            let mut fp = vec![0.0f64; block.len()];
            est.densities_into(block, &mut fp, &mut Tally::default());
            fp.iter_mut().for_each(|f| *f = f.max(floor).powf(a));
            fp
        })
    }

    /// [`two_pass_reference`] over any per-chunk `f'` hook.
    fn two_pass_reference_of<S: PointSource + ?Sized>(
        source: &S,
        config: &BiasedConfig,
        fprime: impl Fn(&PointBlock) -> Vec<f64> + Sync,
    ) -> (WeightedSample, BiasedSampleStats) {
        let fpv = par::par_scan(source, config.parallelism, |_, block| fprime(block)).unwrap();
        let k: f64 = fpv.iter().flatten().sum();
        let unrecorded = &Recorder::disabled();
        let (sample, clipped) = inclusion_pass(source, config, k, unrecorded, |range, _, _, fp| {
            fp.copy_from_slice(&fpv[range.start / par::CHUNK_POINTS]);
        })
        .unwrap();
        let stats = BiasedSampleStats {
            normalizer_k: k,
            clipped,
            passes: 2,
        };
        (sample, stats)
    }

    fn assert_same_draw(
        (got, got_stats): &(WeightedSample, BiasedSampleStats),
        (want, want_stats): &(WeightedSample, BiasedSampleStats),
        what: &str,
    ) {
        assert_eq!(got.source_indices(), want.source_indices(), "{what}");
        let bits = |s: &WeightedSample| -> Vec<u64> {
            let w = s.weights().iter().chain(s.points().as_flat());
            w.map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(got), bits(want), "{what}: weights and points");
        let (gk, wk) = (got_stats.normalizer_k, want_stats.normalizer_k);
        assert_eq!(gk.to_bits(), wk.to_bits(), "{what}: k");
        assert_eq!(got_stats.clipped, want_stats.clipped, "{what}: clipped");
    }

    /// The in-memory data, the same points as a `DBS1` file and as a shard
    /// directory; the paths to remove afterwards.
    fn backings(ds: &Dataset, name: &str) -> (FileSource, ShardedSource, [PathBuf; 2]) {
        let mut file = std::env::temp_dir();
        file.push(format!("dbs_sampling_{}_{name}.dbs1", std::process::id()));
        write_binary(&file, ds).unwrap();
        let mut dir = std::env::temp_dir();
        dir.push(format!("dbs_sampling_{}_{name}_shards", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_shards_with(&dir, ds, 1, par::CHUNK_POINTS).unwrap();
        let opened = (
            FileSource::open(&file).unwrap(),
            ShardedSource::open(&dir).unwrap(),
        );
        (opened.0, opened.1, [file, dir])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// One pass draws the two-pass sample: the same picks, weights,
        /// `k` and clip count, for every exponent, a tiny, a normal and an
        /// oversized `b`, every thread count and every backing.
        #[test]
        fn one_pass_matches_the_two_pass_reference(
            n in 1usize..14_000,
            data_seed in 0u64..1000,
            seed in 0u64..1_000_000,
        ) {
            let ds = two_blobs(n, data_seed);
            let est = kde(&ds);
            let (file, shards, paths) = backings(&ds, &format!("parity_{data_seed}_{n}"));
            let sources: [(&str, &dyn PointSource); 3] =
                [("memory", &ds), ("dbs1", &file), ("shards", &shards)];
            for a in [-0.5, 0.0, 1.0] {
                for b in [1, n / 10 + 1, n, 2 * n + 5] {
                    let base = BiasedConfig::new(b, a).with_seed(seed);
                    let want = two_pass_reference(&ds, &est, &base.clone().with_parallelism(par::serial()));
                    for threads in [1, 2, 7] {
                        let cfg = base.clone().with_parallelism(NonZeroUsize::new(threads).unwrap());
                        for (name, source) in sources {
                            let got = density_biased_sample(source, &est, &cfg).unwrap();
                            let what = format!("n={n} a={a} b={b} threads={threads} {name}");
                            assert_same_draw(&got, &want, &what);
                            prop_assert_eq!(got.1.passes, 1);
                        }
                    }
                }
            }
            std::fs::remove_file(&paths[0]).ok();
            std::fs::remove_dir_all(&paths[1]).ok();
        }

        /// Whatever the capacity — so whether selections, floors or the
        /// fallback pass decide — the draw is the two-pass sample.
        #[test]
        fn every_capacity_draws_the_two_pass_sample(
            n in 1usize..14_000,
            data_seed in 0u64..1000,
            seed in 0u64..1_000_000,
            capacity in 1usize..1500,
            threads in 1usize..8,
        ) {
            let ds = two_blobs(n, data_seed);
            let est = kde(&ds);
            let floor = DENSITY_FLOOR * est.average_density();
            for a in [-0.5, 1.0] {
                let cfg = BiasedConfig::new(n / 10 + 1, a)
                    .with_seed(seed)
                    .with_parallelism(NonZeroUsize::new(threads).unwrap());
                let want = two_pass_reference(&ds, &est, &cfg);
                let got = figure1_keeping(&ds, &cfg, &Recorder::disabled(), capacity, |block, tally| {
                    let mut fp = vec![0.0f64; block.len()];
                    est.densities_into(block, &mut fp, tally);
                    fp.iter_mut().for_each(|f| *f = floored_pow(*f, floor, a));
                    fp
                })
                .unwrap();
                let what = format!("n={n} a={a} capacity={capacity} threads={threads}");
                assert_same_draw(&got, &want, &what);
            }
        }
    }

    #[test]
    fn too_small_a_capacity_falls_back_to_the_second_pass() {
        let ds = two_blobs(20_000, 25);
        let est = kde(&ds);
        let floor = DENSITY_FLOOR * est.average_density();
        let fprime = |block: &PointBlock, tally: &mut Tally| {
            let mut fp = vec![0.0f64; block.len()];
            est.densities_into(block, &mut fp, tally);
            fp.iter_mut().for_each(|f| *f = floored_pow(*f, floor, 1.0));
            fp
        };
        for threads in [1, 2, 7] {
            let cfg = BiasedConfig::new(500, 1.0)
                .with_seed(26)
                .with_parallelism(NonZeroUsize::new(threads).unwrap());
            let want = two_pass_reference(&ds, &est, &cfg);
            // 400 kept points cannot hold the ~500 the draws include.
            let counted = dbs_core::scan::PassCounter::new(&ds);
            let rec = Recorder::enabled();
            let got = figure1_keeping(&counted, &cfg, &rec, 400, fprime).unwrap();
            assert_same_draw(&got, &want, &format!("fallback, threads = {threads}"));
            assert_eq!(got.1.passes, 2);
            assert_eq!(counted.passes(), 2);
            assert_eq!(rec.counter(Counter::DatasetPasses), 2);
            assert_eq!(
                rec.counter(Counter::SamplerClipEvents),
                got.1.clipped as u64
            );
            // The default capacity keeps them all in one pass.
            let one = density_biased_sample(&ds, &est, &cfg).unwrap();
            assert_same_draw(&one, &want, &format!("one pass, threads = {threads}"));
            assert_eq!(one.1.passes, 1);
        }
    }

    #[test]
    fn a_normalizer_that_shrinks_falls_back_to_the_second_pass() {
        // Negative weights at the end pull `k` below the partial sums the
        // cuts used, so the cuts prove nothing and the second pass runs.
        let ds = two_blobs(5 * par::CHUNK_POINTS, 28);
        let n = ds.len();
        let weight = |i: usize| match i {
            i if i + 1 == n => -0.8 * (n - 1) as f64 * 2.0,
            i => 1.0 + (i % 3) as f64,
        };
        let fprime = |block: &PointBlock| block.range().map(weight).collect::<Vec<f64>>();
        for threads in [1, 2, 7] {
            let cfg = BiasedConfig::new(300, 1.0)
                .with_seed(29)
                .with_parallelism(NonZeroUsize::new(threads).unwrap());
            let want = two_pass_reference_of(&ds, &cfg, fprime);
            let counted = dbs_core::scan::PassCounter::new(&ds);
            let got = figure1_passes(&counted, &cfg, &Recorder::disabled(), |block, _| {
                fprime(block)
            })
            .unwrap();
            assert_same_draw(&got, &want, &format!("threads = {threads}"));
            assert_eq!((got.1.passes, counted.passes()), (2, 2));
            // Without the last point, `k` only grows: one pass.
            let head = Dataset::from_flat(2, ds.as_flat()[..2 * (n - 1)].to_vec()).unwrap();
            let want = two_pass_reference_of(&head, &cfg, fprime);
            let got = figure1_passes(&head, &cfg, &Recorder::disabled(), |block, _| fprime(block))
                .unwrap();
            assert_same_draw(&got, &want, &format!("head, threads = {threads}"));
            assert_eq!(got.1.passes, 1);
        }
    }

    #[test]
    fn unit_exponent_skips_powf_bit_for_bit() {
        let mut rng = seeded(27);
        let mut values: Vec<f64> = (0..2_000_000)
            .map(|_| f64::from_bits(rng.gen::<u64>() >> 1))
            .filter(|x| x.is_finite())
            .collect();
        values.extend([
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
            f64::INFINITY,
        ]);
        for x in values {
            for v in [x, -x] {
                assert_eq!(v.powf(1.0).to_bits(), v.to_bits(), "{v:e}");
                let floor = x / 2.0;
                let want = v.max(floor).powf(1.0);
                assert_eq!(
                    floored_pow(v, floor, 1.0).to_bits(),
                    want.to_bits(),
                    "{v:e}"
                );
            }
        }
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
