//! Wavelet-compressed histogram estimator.
//!
//! One of the alternative density-estimation families the paper cites
//! (§2.1: "using various transforms, like the wavelet transformation \[30\]
//! \[19\] ... on the data"). A grid histogram of side `2^levels` per
//! dimension is Haar-transformed (standard decomposition, dimension by
//! dimension), only the `m` largest-magnitude coefficients are kept — that
//! coefficient set is the summary a system would store — and the density is
//! served from the reconstruction.
//!
//! Thresholding can reconstruct small negative cell counts; those are
//! clamped to zero at query time (the usual wavelet-histogram caveat), so
//! the total mass is approximately, not exactly, `n`.

use dbs_core::{BoundingBox, Error, PointSource, Result};

use crate::shifted::cell_overlaps;
use crate::traits::DensityEstimator;

/// A Haar-wavelet-compressed grid histogram.
#[derive(Debug, Clone)]
pub struct WaveletEstimator {
    domain: BoundingBox,
    res: usize,
    /// Reconstructed (post-thresholding) cell counts.
    cells: Vec<f64>,
    n: f64,
    cell_volume: f64,
    /// Coefficients retained out of the full `res^dim`.
    kept: usize,
}

impl WaveletEstimator {
    /// Builds the estimator in one pass.
    ///
    /// `levels` gives a grid of `2^levels` cells per dimension;
    /// `coefficients` is the compression budget `m` (values larger than the
    /// total coefficient count are clamped — that degenerates to the plain
    /// histogram).
    pub fn fit<S: PointSource + ?Sized>(
        source: &S,
        domain: BoundingBox,
        levels: u32,
        coefficients: usize,
    ) -> Result<Self> {
        if coefficients == 0 {
            return Err(Error::InvalidParameter(
                "need at least one coefficient".into(),
            ));
        }
        if source.is_empty() {
            return Err(Error::InvalidParameter("cannot fit on empty source".into()));
        }
        if domain.dim() != source.dim() {
            return Err(Error::DimensionMismatch {
                expected: source.dim(),
                got: domain.dim(),
            });
        }
        let dim = source.dim();
        let res = 1usize << levels;
        let total = res
            .checked_pow(dim as u32)
            .filter(|&t| t <= 1 << 24)
            .ok_or_else(|| Error::InvalidParameter("grid too large; lower levels".into()))?;

        // Histogram pass; validation rides along so the fit stays one-pass.
        let mut cells = vec![0.0f64; total];
        let dmin: Vec<f64> = domain.min().to_vec();
        let extents: Vec<f64> = (0..dim).map(|j| domain.extent(j)).collect();
        let mut non_finite: Option<usize> = None;
        source.scan(&mut |i, p| {
            if non_finite.is_some() {
                return;
            }
            if !p.iter().all(|v| v.is_finite()) {
                non_finite = Some(i);
                return;
            }
            let mut cell = 0usize;
            for j in 0..dim {
                let rel = if extents[j] > 0.0 {
                    (p[j] - dmin[j]) / extents[j]
                } else {
                    0.0
                };
                let c = ((rel * res as f64) as isize).clamp(0, res as isize - 1) as usize;
                cell = cell * res + c;
            }
            cells[cell] += 1.0;
        })?;
        if let Some(index) = non_finite {
            return Err(Error::NonFinite { index });
        }

        // Forward Haar along each axis (standard decomposition).
        for axis in 0..dim {
            haar_axis(&mut cells, dim, res, axis, false);
        }

        // Keep the m largest-magnitude coefficients.
        let kept = coefficients.min(total);
        if kept < total {
            let mut magnitudes: Vec<(f64, usize)> = cells
                .iter()
                .enumerate()
                .map(|(i, &v)| (v.abs(), i))
                .collect();
            magnitudes.select_nth_unstable_by(total - kept, |a, b| {
                a.0.partial_cmp(&b.0).expect("no NaN coefficients")
            });
            // Everything before the pivot is among the smallest; zero them.
            for &(_, idx) in &magnitudes[..total - kept] {
                cells[idx] = 0.0;
            }
        }

        // Inverse Haar back to cell space.
        for axis in 0..dim {
            haar_axis(&mut cells, dim, res, axis, true);
        }

        let cell_volume = (0..dim)
            .map(|j| {
                let w = extents[j] / res as f64;
                if w > 0.0 {
                    w
                } else {
                    1.0
                }
            })
            .product();
        Ok(WaveletEstimator {
            domain,
            res,
            cells,
            n: source.len() as f64,
            cell_volume,
            kept,
        })
    }

    /// Cells per dimension.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Coefficients retained by the compression.
    pub fn coefficients_kept(&self) -> usize {
        self.kept
    }

    fn cell_of(&self, x: &[f64]) -> usize {
        let dim = self.domain.dim();
        let mut cell = 0usize;
        for j in 0..dim {
            let extent = self.domain.extent(j);
            let rel = if extent > 0.0 {
                (x[j] - self.domain.min()[j]) / extent
            } else {
                0.0
            };
            let c = ((rel * self.res as f64) as isize).clamp(0, self.res as isize - 1) as usize;
            cell = cell * self.res + c;
        }
        cell
    }
}

/// In-place 1-d Haar transform (or inverse) applied along `axis` of a
/// `res^dim` row-major array. Unnormalized averaging filter
/// (`a = (x0 + x1)/2`, `d = (x0 - x1)/2`) — exact reconstruction without
/// scaling bookkeeping.
fn haar_axis(data: &mut [f64], dim: usize, res: usize, axis: usize, inverse: bool) {
    // Stride between consecutive elements along `axis`.
    let stride = res.pow((dim - 1 - axis) as u32);
    // Number of independent 1-d lines along this axis.
    let lines = data.len() / res;
    let mut line = vec![0.0f64; res];
    for l in 0..lines {
        // Map line index to the base offset: the line enumerates all index
        // combinations of the other axes.
        let outer = l / stride; // indices of axes before `axis`
        let inner = l % stride; // indices of axes after `axis`
        let base = outer * stride * res + inner;
        for (i, v) in line.iter_mut().enumerate() {
            *v = data[base + i * stride];
        }
        if inverse {
            inverse_haar_1d(&mut line);
        } else {
            forward_haar_1d(&mut line);
        }
        for (i, &v) in line.iter().enumerate() {
            data[base + i * stride] = v;
        }
    }
}

fn forward_haar_1d(line: &mut [f64]) {
    let n = line.len();
    let mut tmp = vec![0.0f64; n];
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let a = line[2 * i];
            let b = line[2 * i + 1];
            tmp[i] = 0.5 * (a + b);
            tmp[half + i] = 0.5 * (a - b);
        }
        line[..len].copy_from_slice(&tmp[..len]);
        len = half;
    }
}

fn inverse_haar_1d(line: &mut [f64]) {
    let n = line.len();
    let mut tmp = vec![0.0f64; n];
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for i in 0..half {
            let avg = line[i];
            let diff = line[half + i];
            tmp[2 * i] = avg + diff;
            tmp[2 * i + 1] = avg - diff;
        }
        line[..len].copy_from_slice(&tmp[..len]);
        len *= 2;
    }
}

impl DensityEstimator for WaveletEstimator {
    fn dim(&self) -> usize {
        self.domain.dim()
    }

    fn dataset_size(&self) -> f64 {
        self.n
    }

    fn density(&self, x: &[f64]) -> f64 {
        if !self.domain.contains(x) {
            return 0.0;
        }
        // Thresholding can produce small negative reconstructions.
        (self.cells[self.cell_of(x)] / self.cell_volume).max(0.0)
    }

    fn average_density(&self) -> f64 {
        self.n / self.domain.volume().max(f64::MIN_POSITIVE)
    }

    /// The clamped cell counts weighted by how much of their cell the box
    /// covers inside the domain.
    fn box_mass(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let dim = self.domain.dim();
        let inv_widths: Vec<f64> = (0..dim)
            .map(|j| match self.domain.extent(j) {
                e if e > 0.0 => self.res as f64 / e,
                _ => 0.0,
            })
            .collect();
        let offsets = vec![0.0; dim];
        cell_overlaps(&self.domain, &inv_widths, &offsets, self.res, lo, hi)
            .into_iter()
            .map(|(cell, frac)| self.cells[cell as usize].max(0.0) * frac)
            .sum()
    }

    /// Approximate: the reconstructed (clamped) cell counts stand in for
    /// the true per-cell point counts, which the compressed summary no
    /// longer has.
    fn summary_normalizer(&self, a: f64, floor: f64) -> Option<f64> {
        Some(
            self.cells
                .iter()
                .map(|&c| c.max(0.0))
                .filter(|&c| c > 0.0)
                .map(|c| c * (c / self.cell_volume).max(floor).powf(a))
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng::seeded;
    use dbs_core::{par, Dataset};
    use rand::Rng;

    fn two_blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, n);
        for i in 0..n {
            let (cx, cy) = if i < n / 2 {
                (0.25, 0.25)
            } else {
                (0.75, 0.75)
            };
            ds.push(&[
                cx + (rng.gen::<f64>() - 0.5) * 0.2,
                cy + (rng.gen::<f64>() - 0.5) * 0.2,
            ])
            .unwrap();
        }
        ds
    }

    #[test]
    fn haar_round_trips_exactly() {
        let mut rng = seeded(1);
        let mut line: Vec<f64> = (0..64).map(|_| rng.gen::<f64>() * 10.0).collect();
        let original = line.clone();
        forward_haar_1d(&mut line);
        inverse_haar_1d(&mut line);
        for (a, b) in original.iter().zip(&line) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn full_coefficients_equal_plain_histogram() {
        let ds = two_blobs(5000, 2);
        let levels = 4; // 16x16 grid, 256 coefficients
        let wavelet = WaveletEstimator::fit(&ds, BoundingBox::unit(2), levels, usize::MAX).unwrap();
        let grid = crate::ShiftedGrids::grid(BoundingBox::unit(2), 16)
            .unwrap()
            .fit(&ds, par::serial())
            .unwrap();
        let mut rng = seeded(3);
        for _ in 0..100 {
            let x = [rng.gen::<f64>(), rng.gen::<f64>()];
            assert!(
                (wavelet.density(&x) - grid.density(&x)).abs() < 1e-6,
                "lossless reconstruction must match the histogram"
            );
        }
        assert_eq!(wavelet.coefficients_kept(), 256);
    }

    #[test]
    fn compression_preserves_coarse_structure() {
        let ds = two_blobs(20_000, 4);
        // Keep only 10% of the coefficients.
        let est = WaveletEstimator::fit(&ds, BoundingBox::unit(2), 4, 26).unwrap();
        let dense = est.density(&[0.25, 0.25]);
        let empty = est.density(&[0.75, 0.25]);
        assert!(
            dense > 5.0 * (empty + 1.0),
            "dense {dense} vs empty {empty}"
        );
    }

    #[test]
    fn total_mass_approximately_n() {
        let ds = two_blobs(10_000, 5);
        // Extreme compression (m « total) distorts mass badly once negative
        // reconstructions are clamped; the estimator is intended for
        // moderate budgets.
        for m in [usize::MAX, 64] {
            let est = WaveletEstimator::fit(&ds, BoundingBox::unit(2), 4, m).unwrap();
            let total = crate::test_util::midpoint_integral(&est, &BoundingBox::unit(2), 64);
            assert!(
                (total - 10_000.0).abs() < 1500.0,
                "m={m}: total mass {total}"
            );
        }
    }

    #[test]
    fn density_nonnegative_despite_thresholding() {
        let ds = two_blobs(5000, 6);
        let est = WaveletEstimator::fit(&ds, BoundingBox::unit(2), 4, 20).unwrap();
        let mut rng = seeded(7);
        for _ in 0..200 {
            let x = [rng.gen::<f64>() * 1.4 - 0.2, rng.gen::<f64>() * 1.4 - 0.2];
            assert!(est.density(&x) >= 0.0);
        }
    }

    #[test]
    fn works_as_sampler_backend() {
        // The estimator slots into the DensityEstimator-generic sampler.
        let ds = two_blobs(10_000, 8);
        let est = WaveletEstimator::fit(&ds, BoundingBox::unit(2), 4, 64).unwrap();
        assert_eq!(est.dim(), 2);
        assert_eq!(est.dataset_size(), 10_000.0);
        assert!((est.average_density() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = two_blobs(100, 9);
        assert!(WaveletEstimator::fit(&ds, BoundingBox::unit(2), 4, 0).is_err());
        assert!(WaveletEstimator::fit(&Dataset::new(2), BoundingBox::unit(2), 4, 8).is_err());
        assert!(WaveletEstimator::fit(&ds, BoundingBox::unit(3), 4, 8).is_err());
        let mut bad = two_blobs(5, 11);
        bad.push(&[0.5, f64::NEG_INFINITY]).unwrap();
        let err = WaveletEstimator::fit(&bad, BoundingBox::unit(2), 4, 8).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn three_dimensional_transform() {
        let mut rng = seeded(10);
        let mut ds = Dataset::with_capacity(3, 2000);
        for _ in 0..2000 {
            ds.push(&[rng.gen(), rng.gen(), rng.gen()]).unwrap();
        }
        let lossless = WaveletEstimator::fit(&ds, BoundingBox::unit(3), 3, usize::MAX).unwrap();
        let grid = crate::ShiftedGrids::grid(BoundingBox::unit(3), 8)
            .unwrap()
            .fit(&ds, par::serial())
            .unwrap();
        for _ in 0..50 {
            let x = [rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()];
            assert!((lossless.density(&x) - grid.density(&x)).abs() < 1e-6);
        }
    }
}
