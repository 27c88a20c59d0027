//! The `grid` preset: a uniform-grid histogram.
//!
//! The classical alternative to kernels (the paper's related work cites
//! multi-dimensional histograms \[23\]\[16\]\[2\]): one unshifted grid of
//! `res^d` exact counters, so the estimate inside a cell is
//! `count(cell) / volume(cell)`, i.e. piecewise constant. Points outside the
//! domain are clamped into boundary cells (cell coordinates into
//! `0..=res − 1`), so all mass is preserved.

use dbs_core::{BoundingBox, Result};

use crate::shifted::{Dense, ShiftedGrids};

impl ShiftedGrids<Dense> {
    /// An empty `grid` preset: one unshifted dense grid of `res` cells per
    /// dimension over `domain`. Errors on `res == 0` or a grid whose
    /// `res^d` exceeds `2^26`. Fill it with [`ShiftedGrids::fit`].
    pub fn grid(domain: BoundingBox, res: usize) -> Result<Self> {
        let store = Dense::sized(domain.dim(), res, 1)?;
        Self::with_layout(domain, 1, res, false, 0, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{midpoint_integral, uniform_dataset};
    use crate::DensityEstimator;
    use dbs_core::{par, Dataset};

    fn fit(ds: &Dataset, res: usize) -> ShiftedGrids<Dense> {
        ShiftedGrids::grid(BoundingBox::unit(ds.dim()), res)
            .unwrap()
            .fit(ds, par::serial())
            .unwrap()
    }

    #[test]
    fn total_mass_is_n() {
        let est = fit(&uniform_dataset(1000, 2, 1), 10);
        let total = midpoint_integral(&est, &BoundingBox::unit(2), 100);
        assert!((total - 1000.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn aligned_box_integral_is_exact_count() {
        let ds = uniform_dataset(2000, 2, 2);
        let est = fit(&ds, 10);
        // Box aligned to cell boundaries: integral equals the true count.
        let bbox = BoundingBox::new(vec![0.2, 0.3], vec![0.6, 0.8]);
        let got = midpoint_integral(&est, &bbox, 40);
        let truth = ds
            .iter()
            .filter(|p| p[0] >= 0.2 && p[0] < 0.6 && p[1] >= 0.3 && p[1] < 0.8)
            .count() as f64;
        assert!((got - truth).abs() < 1e-6, "got {got} truth {truth}");
    }

    #[test]
    fn density_reflects_cell_count() {
        let ds = Dataset::from_rows(&[vec![0.05, 0.05], vec![0.06, 0.04], vec![0.9, 0.9]]).unwrap();
        let est = fit(&ds, 10);
        // Cell (0,0) holds 2 points, volume 0.01 -> density 200.
        assert!((est.density(&[0.05, 0.05]) - 200.0).abs() < 1e-9);
        assert!((est.density(&[0.95, 0.95]) - 100.0).abs() < 1e-9);
        assert_eq!(est.density(&[0.5, 0.5]), 0.0);
    }

    #[test]
    fn box_outside_domain_is_zero() {
        let est = fit(&uniform_dataset(100, 2, 3), 4);
        let outside = BoundingBox::new(vec![2.0, 2.0], vec![3.0, 3.0]);
        assert_eq!(midpoint_integral(&est, &outside, 16), 0.0);
    }

    #[test]
    fn partial_cell_overlap_is_fractional() {
        // One point in cell [0, 0.5) of a res=2 1-d grid.
        let est = fit(&Dataset::from_rows(&[vec![0.25]]).unwrap(), 2);
        // Box [0, 0.25] covers half the cell -> 0.5 expected points.
        let got = midpoint_integral(&est, &BoundingBox::new(vec![0.0], vec![0.25]), 16);
        assert!((got - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = uniform_dataset(10, 2, 4);
        assert!(ShiftedGrids::grid(BoundingBox::unit(2), 0).is_err());
        assert!(ShiftedGrids::grid(BoundingBox::unit(2), 1 << 14).is_err());
        let empty = ShiftedGrids::grid(BoundingBox::unit(2), 4).unwrap();
        assert!(empty.clone().fit(&Dataset::new(2), par::serial()).is_err());
        assert!(ShiftedGrids::grid(BoundingBox::unit(3), 4)
            .unwrap()
            .fit(&ds, par::serial())
            .is_err());
        let mut bad = uniform_dataset(5, 2, 6);
        bad.push(&[0.5, f64::INFINITY]).unwrap();
        let err = empty.fit(&bad, par::serial()).unwrap_err();
        assert_eq!(err.to_string(), "non-finite coordinate at point 5");
    }

    #[test]
    fn average_density_sane() {
        let est = fit(&uniform_dataset(500, 3, 5), 4);
        assert!((est.average_density() - 500.0).abs() < 1e-9);
    }
}
