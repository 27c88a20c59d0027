//! The `agrid` preset: the Wells–Ting averaged-grid ensemble.
//!
//! The sub-linear backend of PAPERS.md's "A simple efficient density
//! estimator that enables fast systematic search": `m` uniform grids over
//! the same domain, each shifted by a random fractional offset per
//! dimension, whose exact cell counts are averaged at query time. A single
//! grid is a histogram whose estimate jumps at arbitrary cell boundaries;
//! averaging `m` independently shifted grids smooths those discontinuities
//! at `m` times the cost of one O(1) lookup — still independent of both the
//! dataset size and (unlike KDE) the number of kernel centers.
//!
//! Boundary cells of a shifted grid overhang the domain, and the
//! piecewise-constant model spreads their mass over the whole cell, so a
//! fraction `≈ d / (3 · res)` of the total mass sits outside the domain box
//! — the price of shift-invariance. The biased sampler only needs
//! *relative* density (§2.2), which this does not disturb.

use dbs_core::{BoundingBox, Result};

use crate::shifted::{Dense, ShiftedGrids};

impl ShiftedGrids<Dense> {
    /// An empty `agrid` preset: `grids` dense grids over `domain`, shifted
    /// by `keyed_unit(seed, g * dim + j)` offsets so the summary is a pure
    /// function of (data, config) regardless of scan schedule. `None`
    /// resolution picks a dimension-dependent default shrunk until the
    /// ensemble fits 2^22 counters; errors on `grids == 0`, an explicit
    /// resolution of 0, or an ensemble over 2^26 counters. Fill it with
    /// [`ShiftedGrids::fit`].
    pub fn agrid(
        domain: BoundingBox,
        grids: usize,
        resolution: Option<usize>,
        seed: u64,
    ) -> Result<Self> {
        let dim = domain.dim();
        let res = resolution.unwrap_or_else(|| Dense::auto_resolution(dim, grids));
        let store = Dense::sized(dim, res + 1, grids)?;
        Self::with_layout(domain, grids, res, true, seed, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{midpoint_integral, two_blobs, uniform_dataset};
    use crate::DensityEstimator;
    use dbs_core::obs::{Counter, Tally};
    use dbs_core::rng::seeded;
    use dbs_core::{Dataset, PointBlock};
    use rand::Rng;

    fn fit(ds: &Dataset, grids: usize) -> ShiftedGrids<Dense> {
        ShiftedGrids::agrid(BoundingBox::unit(ds.dim()), grids, None, 0)
            .unwrap()
            .fit(ds)
            .unwrap()
    }

    #[test]
    fn fit_is_one_pass() {
        let ds = uniform_dataset(2000, 2, 1);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let _ = ShiftedGrids::agrid(BoundingBox::unit(2), 8, None, 0)
            .unwrap()
            .fit(&counted)
            .unwrap();
        assert_eq!(counted.passes(), 1);
    }

    #[test]
    fn whole_domain_integral_close_to_n() {
        let est = fit(&uniform_dataset(20_000, 2, 2), 8);
        let total = midpoint_integral(&est, &BoundingBox::unit(2), 256);
        // Boundary cells overhang the domain, so a ~d/(3·res) fraction of
        // the mass sits outside; at res 64 / d 2 that is about 1%.
        assert!((total - 20_000.0).abs() < 0.03 * 20_000.0, "total {total}");
    }

    #[test]
    fn integral_is_additive_over_partitions() {
        // Split the data at x = 0.37: the two halves' ensembles integrate
        // to the whole's, and merging them gives the whole back exactly.
        let ds = two_blobs(10_000, 3);
        let (left, right): (Vec<usize>, Vec<usize>) =
            (0..ds.len()).partition(|&i| ds.point(i)[0] < 0.37);
        let whole = fit(&ds, 8);
        let mut merged = fit(&ds.select(&left), 8);
        let right = fit(&ds.select(&right), 8);
        let unit = BoundingBox::unit(2);
        let total = midpoint_integral(&whole, &unit, 256);
        let parts = midpoint_integral(&merged, &unit, 256) + midpoint_integral(&right, &unit, 256);
        assert!((total - parts).abs() < 1e-9 * total, "{total} vs {parts}");
        merged.merge(&right).unwrap();
        assert_eq!(merged, whole);
    }

    #[test]
    fn box_integral_approximates_point_count() {
        let ds = two_blobs(20_000, 4);
        let est = fit(&ds, 8);
        let blob = BoundingBox::new(vec![0.1, 0.1], vec![0.4, 0.4]);
        let truth = ds.iter().filter(|p| blob.contains(p)).count() as f64;
        let got = midpoint_integral(&est, &blob, 256);
        let rel = (got - truth).abs() / truth;
        assert!(rel < 0.05, "got {got}, truth {truth}");
    }

    #[test]
    fn density_contrasts_blob_and_void() {
        let est = fit(&two_blobs(10_000, 5), 8);
        let dense = est.density(&[0.25, 0.25]);
        let sparse = est.density(&[0.75, 0.75]);
        let empty = est.density(&[0.5, 0.95]);
        assert!(dense > 3.0 * sparse, "dense {dense} sparse {sparse}");
        assert!(sparse > empty, "sparse {sparse} empty {empty}");
        assert_eq!(est.density(&[2.0, 2.0]), 0.0);
    }

    #[test]
    fn averaging_smooths_single_grid_jumps() {
        // Probe a line crossing many cell boundaries: the max jump between
        // adjacent probes of the ensemble must be well below a single
        // grid's (count / cell_volume) quantum.
        let ds = uniform_dataset(50_000, 2, 6);
        let one = fit(&ds, 1);
        let many = fit(&ds, 16);
        let max_jump = |est: &ShiftedGrids<Dense>| {
            let mut prev = est.density(&[0.2, 0.5]);
            let mut jump = 0.0f64;
            for i in 1..400 {
                let x = 0.2 + 0.6 * i as f64 / 399.0;
                let d = est.density(&[x, 0.5]);
                jump = jump.max((d - prev).abs());
                prev = d;
            }
            jump
        };
        assert!(
            max_jump(&many) < 0.5 * max_jump(&one),
            "ensemble {} vs single {}",
            max_jump(&many),
            max_jump(&one)
        );
    }

    #[test]
    fn batch_is_bit_identical_to_per_point() {
        let ds = two_blobs(5000, 7);
        // Include some out-of-domain queries in the batch.
        let mut queries = ds.clone();
        queries.push(&[1.5, 0.5]).unwrap();
        queries.push(&[-0.1, 0.2]).unwrap();
        let est = fit(&ds, 8);
        let block = PointBlock::from_dataset(&queries, 0..queries.len());
        let mut out = vec![0.0; queries.len()];
        est.densities_into(&block, &mut out, &mut Tally::default());
        for i in 0..queries.len() {
            let want = est.density(queries.point(i)).to_bits();
            assert_eq!(out[i].to_bits(), want, "point {i}");
        }
    }

    #[test]
    fn tally_counts_cells_and_grids() {
        let ds = uniform_dataset(1000, 2, 8);
        let mut queries = ds.clone();
        queries.push(&[1.5, 0.5]).unwrap();
        let est = fit(&ds, 8);
        let mut out = vec![0.0; 1001];
        let mut tally = Tally::default();
        est.densities_into(
            &PointBlock::from_dataset(&queries, 0..1001),
            &mut out,
            &mut tally,
        );
        assert_eq!(tally.get(Counter::AgridGridsAveraged), 8);
        // One counter read per grid per in-domain query.
        assert_eq!(tally.get(Counter::AgridCellTouches), 8 * 1000);
    }

    #[test]
    fn deterministic_given_seed_and_seed_sensitive() {
        let ds = uniform_dataset(2000, 2, 9);
        let a = fit(&ds, 8);
        let b = fit(&ds, 8);
        assert_eq!(a, b);
        let c = ShiftedGrids::agrid(BoundingBox::unit(2), 8, None, 99)
            .unwrap()
            .fit(&ds)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_bad_inputs() {
        let unit = BoundingBox::unit(2);
        assert!(ShiftedGrids::agrid(unit.clone(), 0, None, 0).is_err());
        assert!(ShiftedGrids::agrid(unit.clone(), 8, Some(0), 0).is_err());
        assert!(ShiftedGrids::agrid(unit.clone(), 64, Some(1 << 10), 0).is_err());
        let empty = ShiftedGrids::agrid(unit, 8, None, 0).unwrap();
        assert!(empty.clone().fit(&Dataset::new(2)).is_err());
        assert!(empty.clone().fit(&uniform_dataset(100, 3, 10)).is_err());
        let mut bad = uniform_dataset(10, 2, 11);
        bad.push(&[f64::NAN, 0.5]).unwrap();
        let err = empty.fit(&bad).unwrap_err();
        assert_eq!(err.to_string(), "non-finite coordinate at point 10");
    }

    #[test]
    fn auto_resolution_respects_memory_cap() {
        for dim in 1..=8 {
            for grids in [1usize, 8, 32] {
                let res = Dense::auto_resolution(dim, grids);
                assert!(res >= 1);
                let total = (res + 1).pow(dim as u32) * grids;
                assert!(
                    total <= 1 << 22 || res == 1,
                    "dim {dim} grids {grids}: {total}"
                );
            }
        }
    }

    #[test]
    fn degenerate_extent_dimension_is_ignored() {
        // All points share x[1] = 0.5 and the domain is flat there: the
        // flat dimension counts as width 1, so the density integrates to n
        // along the other one.
        let mut ds = Dataset::with_capacity(2, 100);
        let mut rng = seeded(12);
        for _ in 0..100 {
            ds.push(&[rng.gen::<f64>(), 0.5]).unwrap();
        }
        let domain = BoundingBox::new(vec![0.0, 0.5], vec![1.0, 0.5]);
        let est = ShiftedGrids::agrid(domain, 8, None, 0)
            .unwrap()
            .fit(&ds)
            .unwrap();
        assert!(est.density(&[0.5, 0.5]) > 0.0);
        let total: f64 = (0..256)
            .map(|i| est.density(&[(i as f64 + 0.5) / 256.0, 0.5]) / 256.0)
            .sum();
        assert!((total - 100.0).abs() < 5.0, "total {total}");
    }
}
