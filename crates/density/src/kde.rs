//! Multivariate kernel density estimation.
//!
//! This is the estimator the paper builds its biased sampler on (§2.1):
//! product kernels centered on a uniform sample of `ks` points (the *kernel
//! centers*, default 1000 per §4.2/§4.4), with the whole summary computed in
//! a **single dataset pass** — the pass simultaneously reservoir-samples the
//! centers and accumulates the per-dimension standard deviations needed by
//! the bandwidth rule.
//!
//! The estimate is frequency-scaled:
//!
//! ```text
//! f(x) = (n / ks) * Σ_{c in centers} Π_j (1/h_j) K((x_j - c_j) / h_j)
//! ```
//!
//! so `∫ f = n` and `∫_R f ≈ |D ∩ R|` as §2.1 requires.

use dbs_core::{BoundingBox, Dataset, Error, PointSource, Reservoir, Result};
use dbs_spatial::GridIndex;

use crate::bandwidth::Bandwidth;
use crate::batch::CellReach;
use crate::kernel::Kernel;
use crate::traits::DensityEstimator;

/// Configuration for [`KernelDensityEstimator::fit`].
///
/// Query cost: a compact kernel's center grid lets a `density` or
/// `box_mass` call visit only the centers near it. The grid has at most
/// `round(ks^(1/d))` cells per dimension and at most 2^26 cells, so it
/// collapses to one cell per dimension at d ≥ 27 whatever `ks` (d ≥ 18 at
/// the default 1000 centers). Every call then visits all `ks` centers, and
/// a pass over `n` points costs about `n · ks · d` kernel products (10^10
/// for 10^5 points of 100 dimensions).
#[derive(Debug, Clone)]
pub struct KdeConfig {
    /// Number of kernel centers `ks`. The paper recommends 1000 (§4.4).
    pub num_centers: usize,
    /// Kernel profile; the paper uses Epanechnikov.
    pub kernel: Kernel,
    /// Bandwidth rule; Scott's rule by default.
    pub bandwidth: Bandwidth,
    /// Domain of the data. Defaults to the unit cube when `None`; the
    /// caller is expected to have normalized the data (§2.1).
    pub domain: Option<BoundingBox>,
    /// Seed for the center reservoir sample.
    pub seed: u64,
}

impl Default for KdeConfig {
    fn default() -> Self {
        KdeConfig {
            num_centers: 1000,
            kernel: Kernel::Epanechnikov,
            bandwidth: Bandwidth::Scott,
            domain: None,
            seed: 0,
        }
    }
}

impl KdeConfig {
    /// A config with `num_centers` kernels and everything else at the
    /// paper's defaults.
    pub fn with_centers(num_centers: usize) -> Self {
        KdeConfig {
            num_centers,
            ..Default::default()
        }
    }
}

/// A fitted product-kernel density estimator.
#[derive(Debug, Clone)]
pub struct KernelDensityEstimator {
    pub(crate) centers: Dataset,
    bandwidths: Vec<f64>,
    pub(crate) inv_bandwidths: Vec<f64>,
    /// `(n / ks) * Π_j (1/h_j)` — the constant factor of every evaluation.
    pub(crate) scale: f64,
    n: f64,
    pub(crate) kernel: Kernel,
    domain: BoundingBox,
    /// Bucket grid over the centers (only for finite-support kernels where
    /// pruning pays off); `None` falls back to scanning all centers.
    pub(crate) center_grid: Option<GridIndex>,
    /// L∞ pruning radius: `max_j h_j * support_radius`.
    pub(crate) prune_radius: f64,
    /// The centers transposed into structure-of-arrays layout — dimension
    /// `j`'s coordinates at `[j * ks .. (j + 1) * ks]` — so the batch
    /// engine can gather contiguous candidate panels.
    pub(crate) centers_soa: Vec<f64>,
    /// Per-cell lists of the centers that can reach each `center_grid`
    /// cell, for the batch engine (empty without a grid).
    pub(crate) cell_reach: CellReach,
}

impl KernelDensityEstimator {
    /// Fits the estimator in one pass over `source`.
    ///
    /// The pass reservoir-samples `config.num_centers` kernel centers and
    /// accumulates per-dimension standard deviations (Welford) for the
    /// bandwidth rule. Errors if the source is empty or `num_centers == 0`.
    pub fn fit<S: PointSource + ?Sized>(source: &S, config: &KdeConfig) -> Result<Self> {
        if config.num_centers == 0 {
            return Err(Error::InvalidParameter("num_centers must be >= 1".into()));
        }
        let n = source.len();
        if n == 0 {
            return Err(Error::InvalidParameter(
                "cannot fit KDE on empty source".into(),
            ));
        }
        let dim = source.dim();
        let ks = config.num_centers.min(n);

        // One pass: reservoir sample + per-dimension Welford.
        let mut reservoir = Reservoir::new(dim, ks, config.seed);
        let mut means = vec![0.0f64; dim];
        let mut m2s = vec![0.0f64; dim];
        source.scan(&mut |i, p| {
            // Welford update per dimension.
            let count = (i + 1) as f64;
            for j in 0..dim {
                let delta = p[j] - means[j];
                means[j] += delta / count;
                m2s[j] += delta * (p[j] - means[j]);
            }
            reservoir.offer(i, p);
        })?;

        let denom = (n.saturating_sub(1)).max(1) as f64;
        let sigmas: Vec<f64> = m2s.iter().map(|m2| (m2 / denom).sqrt()).collect();
        // The estimator is a mixture of `ks` kernels, so the statistically
        // relevant sample size for the bandwidth rule is the center count,
        // not the dataset size: a 1000-center summary of a million points
        // must smooth at the 1000-point scale or it degenerates into spikes
        // with zero-density holes between centers.
        let bandwidths = config.bandwidth.resolve(&sigmas, ks, dim);
        let domain = config
            .domain
            .clone()
            .unwrap_or_else(|| BoundingBox::unit(dim));
        Ok(Self::from_centers(
            reservoir.into_parts().0,
            bandwidths,
            n as f64,
            config.kernel,
            domain,
        ))
    }

    /// Convenience wrapper for in-memory datasets.
    ///
    /// # Examples
    ///
    /// ```
    /// use dbs_core::Dataset;
    /// use dbs_density::{DensityEstimator, KdeConfig, KernelDensityEstimator};
    ///
    /// let rows: Vec<Vec<f64>> =
    ///     (0..100).map(|i| vec![0.5 + (i % 10) as f64 * 0.01, 0.5]).collect();
    /// let data = Dataset::from_rows(&rows)?;
    /// let kde = KernelDensityEstimator::fit_dataset(&data, &KdeConfig::with_centers(32))?;
    ///
    /// // Frequency-scaled: dense near the points, ~zero far away.
    /// assert!(kde.density(&[0.55, 0.5]) > kde.density(&[0.1, 0.9]));
    /// assert_eq!(kde.dataset_size(), 100.0);
    /// # Ok::<(), dbs_core::Error>(())
    /// ```
    pub fn fit_dataset(data: &Dataset, config: &KdeConfig) -> Result<Self> {
        Self::fit(data, config)
    }

    /// Builds an estimator from explicit centers and bandwidths.
    ///
    /// `n` is the size of the dataset the summary represents (the frequency
    /// scale), not the number of centers.
    pub fn from_centers(
        centers: Dataset,
        bandwidths: Vec<f64>,
        n: f64,
        kernel: Kernel,
        domain: BoundingBox,
    ) -> Self {
        assert!(!centers.is_empty(), "need at least one kernel center");
        assert_eq!(
            centers.dim(),
            bandwidths.len(),
            "one bandwidth per dimension"
        );
        assert!(
            bandwidths.iter().all(|&h| h > 0.0),
            "bandwidths must be positive"
        );
        assert!(n > 0.0, "represented dataset size must be positive");
        let ks = centers.len() as f64;
        let inv_bandwidths: Vec<f64> = bandwidths.iter().map(|h| 1.0 / h).collect();
        let scale = n / ks * inv_bandwidths.iter().product::<f64>();
        let support = kernel.support_radius();
        let prune_radius = bandwidths.iter().fold(0.0f64, |a, &h| a.max(h * support));

        // A bucket grid over the centers makes each evaluation touch only
        // nearby centers. Only worthwhile for compact kernels whose support
        // is small relative to the domain.
        let dim = centers.dim();
        let center_grid = if support <= 1.0 && centers.len() >= 64 {
            let grid_domain = centers
                .bounding_box()
                .expect("centers non-empty")
                .union(&domain);
            let min_extent = (0..dim)
                .map(|j| grid_domain.extent(j))
                .fold(f64::INFINITY, f64::min);
            if prune_radius < 0.25 * min_extent {
                let per_dim_from_radius = (min_extent / prune_radius).floor() as usize;
                let cap = GridIndex::auto_resolution(centers.len(), dim, 1).max(1);
                let res = per_dim_from_radius.clamp(1, cap);
                Some(GridIndex::build(&centers, grid_domain, res))
            } else {
                None
            }
        } else {
            None
        };

        let ks_len = centers.len();
        let mut centers_soa = vec![0.0f64; dim * ks_len];
        for (i, p) in centers.iter().enumerate() {
            for j in 0..dim {
                centers_soa[j * ks_len + i] = p[j];
            }
        }

        let cell_reach = center_grid
            .as_ref()
            .map_or_else(CellReach::default, |grid| {
                CellReach::build(&centers, grid, support, &inv_bandwidths)
            });

        KernelDensityEstimator {
            centers,
            bandwidths,
            inv_bandwidths,
            scale,
            n,
            kernel,
            domain,
            center_grid,
            prune_radius,
            centers_soa,
            cell_reach,
        }
    }

    /// The kernel centers.
    pub fn centers(&self) -> &Dataset {
        &self.centers
    }

    /// Per-dimension bandwidths.
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// The kernel profile in use.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The domain box the estimator was configured with.
    pub fn domain(&self) -> &BoundingBox {
        &self.domain
    }

    /// Whether evaluations prune centers through a bucket grid (compact
    /// kernels with enough centers) or scan all of them.
    pub fn has_center_grid(&self) -> bool {
        self.center_grid.is_some()
    }

    #[inline]
    fn center_contribution(&self, x: &[f64], c: &[f64]) -> f64 {
        let mut prod = 1.0;
        for j in 0..x.len() {
            let u = (x[j] - c[j]) * self.inv_bandwidths[j];
            let k = self.kernel.eval(u);
            if k == 0.0 {
                return 0.0;
            }
            prod *= k;
        }
        prod
    }
}

impl DensityEstimator for KernelDensityEstimator {
    fn dim(&self) -> usize {
        self.centers.dim()
    }

    /// The kernel centers: a reservoir (uniform) sample of the fitted
    /// dataset, which is what the §2.2 one-pass normalizer estimate needs.
    fn uniform_probe(&self) -> Option<&Dataset> {
        Some(&self.centers)
    }

    fn dataset_size(&self) -> f64 {
        self.n
    }

    fn density(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        let mut acc = 0.0;
        match &self.center_grid {
            Some(grid) => {
                grid.for_each_candidate_within(x, self.prune_radius, |ci| {
                    acc += self.center_contribution(x, self.centers.point(ci as usize));
                });
            }
            None => {
                for c in self.centers.iter() {
                    acc += self.center_contribution(x, c);
                }
            }
        }
        self.scale * acc
    }

    fn average_density(&self) -> f64 {
        self.n / self.domain.volume()
    }

    /// `(n / ks) · Σ_c Π_j [F((hi_j − c_j)/h_j) − F((lo_j − c_j)/h_j)]` with
    /// `F` the kernel's CDF, summed in ascending center index over the
    /// centers the center grid reports within `prune_radius` of the box
    /// (every center without a grid). The centers it skips lie past the
    /// kernel's support in some dimension, where that factor is exactly 0.
    fn box_mass(&self, lo: &[f64], hi: &[f64]) -> f64 {
        debug_assert_eq!(lo.len(), self.dim());
        debug_assert_eq!(hi.len(), self.dim());
        if lo.iter().zip(hi).any(|(l, h)| !(l < h)) {
            return 0.0;
        }
        let mass = |c: &[f64]| {
            let mut prod = 1.0;
            for j in 0..c.len() {
                let inv_h = self.inv_bandwidths[j];
                let m = self.kernel.cdf((hi[j] - c[j]) * inv_h)
                    - self.kernel.cdf((lo[j] - c[j]) * inv_h);
                if m == 0.0 {
                    return 0.0;
                }
                prod *= m;
            }
            prod
        };
        let acc: f64 = match &self.center_grid {
            Some(grid) => {
                let reach = self.prune_radius;
                let lo: Vec<f64> = lo.iter().map(|l| l - reach).collect();
                let hi: Vec<f64> = hi.iter().map(|h| h + reach).collect();
                let mut candidates = Vec::new();
                grid.candidates_in_box(&lo, &hi, &mut candidates);
                candidates
                    .iter()
                    .map(|&ci| mass(self.centers.point(ci as usize)))
                    .sum()
            }
            None => self.centers.iter().map(mass).sum(),
        };
        self.n / self.centers.len() as f64 * acc
    }

    /// The cache-blocked batch engine (see [`crate::batch`]): tile-shared
    /// candidate pruning + SoA panels + register-blocked micro-kernels,
    /// bit-identical to per-point [`DensityEstimator::density`] calls. It
    /// counts tiles, grid candidate visits and kernel evaluations.
    fn densities_into(
        &self,
        points: &dbs_core::PointBlock,
        out: &mut [f64],
        tally: &mut dbs_core::obs::Tally,
    ) {
        crate::batch::kde_densities_into(self, points, out, tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{midpoint_integral, two_blobs, uniform_dataset};
    use dbs_core::rng::seeded;
    use rand::Rng;

    #[test]
    fn fit_is_one_pass() {
        let ds = uniform_dataset(500, 2, 1);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let _ = KernelDensityEstimator::fit(&counted, &KdeConfig::with_centers(50)).unwrap();
        assert_eq!(counted.passes(), 1);
    }

    #[test]
    fn integral_over_domain_is_dataset_size() {
        let ds = uniform_dataset(2000, 2, 2);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(200)).unwrap();
        // Integrate over a box comfortably containing all kernel mass.
        let big = BoundingBox::new(vec![-1.0, -1.0], vec![2.0, 2.0]);
        let integral = midpoint_integral(&est, &big, 256);
        assert!((integral - 2000.0).abs() < 1.0, "integral {integral}");
    }

    #[test]
    fn density_is_higher_in_dense_blob() {
        let ds = two_blobs(5000, 3);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(300)).unwrap();
        let dense = est.density(&[0.25, 0.25]);
        let sparse = est.density(&[0.75, 0.75]);
        let empty = est.density(&[0.5, 0.95]);
        assert!(dense > 3.0 * sparse, "dense {dense} sparse {sparse}");
        assert!(sparse > empty, "sparse {sparse} empty {empty}");
    }

    #[test]
    fn box_integral_approximates_point_count() {
        let ds = two_blobs(5000, 4);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(500)).unwrap();
        let blob_box = BoundingBox::new(vec![0.1, 0.1], vec![0.4, 0.4]);
        let got = midpoint_integral(&est, &blob_box, 256);
        let truth = ds.iter().filter(|p| blob_box.contains(p)).count() as f64;
        let rel_err = (got - truth).abs() / truth;
        assert!(rel_err < 0.1, "got {got}, truth {truth}");
    }

    #[test]
    fn grid_pruning_matches_full_scan() {
        let ds = uniform_dataset(3000, 2, 5);
        let cfg = KdeConfig::with_centers(400);
        let est = KernelDensityEstimator::fit_dataset(&ds, &cfg).unwrap();
        assert!(
            est.center_grid.is_some(),
            "expected pruning grid for Epanechnikov"
        );
        // Rebuild the same estimator without a grid and compare densities.
        let no_grid = KernelDensityEstimator {
            center_grid: None,
            ..est.clone()
        };
        let mut rng = seeded(6);
        for _ in 0..100 {
            let x = [rng.gen::<f64>(), rng.gen::<f64>()];
            let a = est.density(&x);
            let b = no_grid.density(&x);
            assert!((a - b).abs() < 1e-9 * (1.0 + b), "pruned {a} vs full {b}");
        }
    }

    #[test]
    fn gaussian_kernel_has_no_grid_but_works() {
        let ds = uniform_dataset(1000, 2, 7);
        let cfg = KdeConfig {
            kernel: Kernel::Gaussian,
            ..KdeConfig::with_centers(100)
        };
        let est = KernelDensityEstimator::fit_dataset(&ds, &cfg).unwrap();
        assert!(est.center_grid.is_none());
        let d = est.density(&[0.5, 0.5]);
        assert!(d > 0.0);
        let big = BoundingBox::new(vec![-3.0, -3.0], vec![4.0, 4.0]);
        assert!((midpoint_integral(&est, &big, 256) - 1000.0).abs() < 2.0);
    }

    #[test]
    fn ks_larger_than_n_uses_all_points() {
        let ds = uniform_dataset(10, 2, 8);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(1000)).unwrap();
        assert_eq!(est.centers().len(), 10);
    }

    #[test]
    fn empty_source_errors() {
        let ds = Dataset::new(2);
        assert!(KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::default()).is_err());
    }

    #[test]
    fn zero_centers_errors() {
        let ds = uniform_dataset(10, 2, 9);
        assert!(KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(0)).is_err());
    }

    #[test]
    fn average_density_is_n_over_volume() {
        let ds = uniform_dataset(100, 2, 10);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(32)).unwrap();
        assert!((est.average_density() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = uniform_dataset(500, 2, 11);
        let a = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(64)).unwrap();
        let b = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(64)).unwrap();
        assert_eq!(a.centers(), b.centers());
        assert_eq!(a.density(&[0.3, 0.3]), b.density(&[0.3, 0.3]));
    }
}
