//! The estimator interface shared by all density backends.

use std::num::NonZeroUsize;

use dbs_core::obs::{Recorder, Tally};
use dbs_core::{Dataset, PointBlock, PointSource, Result};

/// A frequency-scaled density estimator over `[0,1]^d` (or any fixed box
/// domain).
///
/// Implementations satisfy, approximately, `∫_R density = |D ∩ R|` for any
/// region `R` — i.e. the integral over the whole domain is the dataset size
/// `n`, not 1. This is the convention of §2.1 of the paper and what both the
/// biased sampler and the outlier pruner rely on.
pub trait DensityEstimator {
    /// Dimensionality of the domain.
    fn dim(&self) -> usize;

    /// Size `n` of the dataset the estimator summarizes.
    fn dataset_size(&self) -> f64;

    /// Estimated local density at `x` (frequency-scaled: points per unit
    /// volume).
    fn density(&self, x: &[f64]) -> f64;

    /// The average density of the domain: `n / volume(domain)`. Densities
    /// above this are "denser than average" in the sense of §2.2.
    fn average_density(&self) -> f64;

    /// The estimated number of points in the box `[lo, hi]`:
    /// `∫_{[lo,hi]} f`, in closed form. Zero when the box is empty along
    /// any dimension (`!(lo[j] < hi[j])`). This is the outlier pruner's
    /// statistic (§3.2); it records no work counts, so a caller's density
    /// counters count its density queries only.
    fn box_mass(&self, lo: &[f64], hi: &[f64]) -> f64;

    /// Batch hook: writes the densities of the points in `block` into
    /// `out` (`out[k]` = density of point `block.range().start + k`), and
    /// counts the work done (kernel evaluations, tiles, grid candidate
    /// visits, counter reads) into `tally`.
    ///
    /// The contract is **bit-identical** to calling
    /// [`DensityEstimator::density`] once per point in index order,
    /// whatever the tally — a backend may override this with a faster
    /// blocked evaluation only if it preserves that equivalence (see
    /// `KernelDensityEstimator`, whose override is the cache-blocked engine
    /// in `dbs_density::batch`). The default is the per-point fallback and
    /// records nothing; the wavelet backend uses it.
    ///
    /// Taking a [`PointBlock`] (not a whole `Dataset`) is what lets the
    /// executor evaluate chunks of an out-of-core source directly from each
    /// worker's chunk buffer. This is the per-chunk primitive under
    /// [`batch_densities`]; callers wanting a whole-dataset vector should
    /// use that instead.
    fn densities_into(&self, block: &PointBlock, out: &mut [f64], tally: &mut Tally) {
        let _ = tally;
        debug_assert_eq!(out.len(), block.len());
        for (o, i) in out.iter_mut().zip(block.range()) {
            *o = self.density(block.point(i));
        }
    }

    /// A stored point set that is a *uniform sample* of the fitted dataset,
    /// usable for Monte-Carlo sums over `D` without a dataset pass — the
    /// KDE returns its reservoir-sampled kernel centers (§2.2 uses exactly
    /// this to approximate the one-pass normalizer). `None` when the
    /// summary retains no such sample.
    fn uniform_probe(&self) -> Option<&Dataset> {
        None
    }

    /// The one-pass sampler's normalizer `Σ_{x∈D} max(f(x), floor)^a`
    /// computed from the fitted summary alone (no dataset pass), when the
    /// backend supports it. Exact for histogram backends, where every
    /// point of a cell shares one density value; approximate for
    /// compressed or ensemble summaries. `None` when the summary cannot
    /// provide it (the KDE — its route is [`Self::uniform_probe`]).
    fn summary_normalizer(&self, a: f64, floor: f64) -> Option<f64> {
        let _ = (a, floor);
        None
    }
}

/// Densities of every point of `source`, in point order, evaluated with
/// up to `threads` worker threads through the deterministic parallel
/// executor (`dbs_core::par`); works with unsized estimators
/// (`dyn DensityEstimator + Sync`).
///
/// Each fixed 4096-point chunk of the executor is evaluated through the
/// [`DensityEstimator::densities_into`] hook, so backends with a blocked
/// engine get it on every chunk; the hook's bit-identity contract makes
/// the output equal to a per-point sequential scan at every thread count.
pub fn batch_densities<E, S>(est: &E, source: &S, threads: NonZeroUsize) -> Result<Vec<f64>>
where
    E: DensityEstimator + Sync + ?Sized,
    S: PointSource + ?Sized,
{
    batch_densities_obs(est, source, threads, &Recorder::disabled())
}

/// [`batch_densities`] with metrics: per-chunk work counts (kernel
/// evaluations, tiles, candidate visits — whatever the backend's
/// [`DensityEstimator::densities_into`] records) are merged into
/// `recorder` in chunk order. The returned densities are bit-identical to
/// [`batch_densities`] whether the recorder is enabled or not.
///
/// Does not record `DatasetPasses`: the caller knows whether `source` is
/// its primary data (count the pass) or a derived buffer (don't).
pub fn batch_densities_obs<E, S>(
    est: &E,
    source: &S,
    threads: NonZeroUsize,
    recorder: &Recorder,
) -> Result<Vec<f64>>
where
    E: DensityEstimator + Sync + ?Sized,
    S: PointSource + ?Sized,
{
    let nested = dbs_core::par::par_scan_tallied(source, threads, recorder, |_, block, tally| {
        let mut out = vec![0.0f64; block.len()];
        est.densities_into(block, &mut out, tally);
        out
    })?;
    Ok(nested.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{midpoint_integral, Flat};
    use dbs_core::BoundingBox;

    #[test]
    fn quadrature_integrates_constant_exactly() {
        let est = Flat { dim: 2, n: 100.0 };
        let whole = midpoint_integral(&est, &BoundingBox::unit(2), 48);
        assert!((whole - 100.0).abs() < 1e-9);
        let half = midpoint_integral(&est, &BoundingBox::new(vec![0.0, 0.0], vec![0.5, 1.0]), 48);
        assert!((half - 50.0).abs() < 1e-9);
    }

    #[test]
    fn quadrature_handles_degenerate_box() {
        let est = Flat { dim: 2, n: 10.0 };
        let line = BoundingBox::new(vec![0.2, 0.0], vec![0.2, 1.0]);
        assert_eq!(midpoint_integral(&est, &line, 48), 0.0);
    }

    #[test]
    fn quadrature_linear_density() {
        // density(x) = 2n*x integrates to n over [0,1].
        struct Linear;
        impl DensityEstimator for Linear {
            fn dim(&self) -> usize {
                1
            }
            fn dataset_size(&self) -> f64 {
                1.0
            }
            fn density(&self, x: &[f64]) -> f64 {
                2.0 * x[0]
            }
            fn average_density(&self) -> f64 {
                1.0
            }
            fn box_mass(&self, lo: &[f64], hi: &[f64]) -> f64 {
                hi[0] * hi[0] - lo[0] * lo[0]
            }
        }
        let got = midpoint_integral(&Linear, &BoundingBox::unit(1), 256);
        assert!((got - 1.0).abs() < 1e-6, "got {got}");
    }
}
