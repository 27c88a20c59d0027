//! The `hashgrid` preset: a hashed grid (Palmer–Faloutsos storage model).
//!
//! The comparison method of the paper (\[22\], §1.1 and §4.3) partitions the
//! space with a grid whose cells are *hashed into a fixed-size table*
//! because the full grid would not fit in memory; colliding cells share one
//! counter. The paper observes that "the quality of the sample degrades
//! with collisions implicit to any hash based approach". This preset
//! reproduces that storage scheme so the Figure 5 comparison exercises the
//! same failure mode: a query reads the counter of its (hashed) cell, which
//! over-reports density whenever another populated cell collided into it.

use dbs_core::{BoundingBox, Result};

use crate::shifted::{Hashed, ShiftedGrids};

impl ShiftedGrids<Hashed> {
    /// An empty `hashgrid` preset: one unshifted grid of `res` *virtual*
    /// cells per dimension over `domain`, hashed (salt 0) into
    /// `table_slots` counters. `res` can be large — only the slots are
    /// allocated; `table_slots` models the memory budget of the
    /// Palmer–Faloutsos hash table (the paper allows it 5 MB; at 8 bytes
    /// per counter that is 655 360 slots). Fill it with
    /// [`ShiftedGrids::fit`].
    pub fn hashgrid(domain: BoundingBox, res: usize, table_slots: usize) -> Result<Self> {
        let store = Hashed {
            salts: vec![0],
            slots: table_slots,
        };
        Self::with_layout(domain, 1, res, false, 0, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::uniform_dataset;
    use crate::DensityEstimator;
    use dbs_core::rng::seeded;
    use dbs_core::{par, Dataset};
    use rand::Rng;

    fn fit(ds: &Dataset, res: usize, slots: usize) -> ShiftedGrids<Hashed> {
        ShiftedGrids::hashgrid(BoundingBox::unit(ds.dim()), res, slots)
            .unwrap()
            .fit(ds, par::serial())
            .unwrap()
    }

    /// Hashed and plain densities at the same resolution over 200 uniform
    /// probes.
    fn hashed_vs_plain(ds: &Dataset, res: usize, slots: usize) -> Vec<(f64, f64)> {
        let hashed = fit(ds, res, slots);
        let plain = ShiftedGrids::grid(BoundingBox::unit(ds.dim()), res)
            .unwrap()
            .fit(ds, par::serial())
            .unwrap();
        let mut rng = seeded(4);
        (0..200)
            .map(|_| {
                let x: Vec<f64> = (0..ds.dim()).map(|_| rng.gen::<f64>()).collect();
                (hashed.density(&x), plain.density(&x))
            })
            .collect()
    }

    #[test]
    fn no_collisions_matches_plain_grid_density() {
        // 64 cells in 65 536 slots: this data and hash are collision-free,
        // so every probe reads its own cell's count.
        for (h, p) in hashed_vs_plain(&uniform_dataset(500, 2, 1), 8, 1 << 16) {
            assert_eq!(h.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn tiny_table_produces_collisions_and_overestimates() {
        // Collisions only ever add mass: a slot holds its own cell's count
        // plus every colliding cell's. With 4096 cells in 32 slots some
        // probe must read a strictly larger count.
        let pairs = hashed_vs_plain(&uniform_dataset(5000, 3, 3), 16, 32);
        assert!(pairs.iter().all(|(h, p)| h >= p), "{pairs:?}");
        assert!(pairs.iter().any(|(h, p)| h > p), "no collision seen");
    }

    #[test]
    fn density_nonnegative_everywhere() {
        let est = fit(&uniform_dataset(200, 2, 5), 32, 64);
        let mut rng = seeded(6);
        for _ in 0..100 {
            let x = [rng.gen::<f64>() * 2.0 - 0.5, rng.gen::<f64>() * 2.0 - 0.5];
            assert!(est.density(&x) >= 0.0);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let ds = uniform_dataset(10, 2, 7);
        assert!(ShiftedGrids::hashgrid(BoundingBox::unit(2), 0, 16).is_err());
        assert!(ShiftedGrids::hashgrid(BoundingBox::unit(2), 4, 0).is_err());
        let empty = ShiftedGrids::hashgrid(BoundingBox::unit(2), 4, 16).unwrap();
        assert!(empty.clone().fit(&Dataset::new(2), par::serial()).is_err());
        assert!(empty
            .clone()
            .fit(&uniform_dataset(10, 3, 8), par::serial())
            .is_err());
        let mut bad = ds;
        bad.push(&[f64::NAN, 0.5]).unwrap();
        let err = empty.fit(&bad, par::serial()).unwrap_err();
        assert_eq!(err.to_string(), "non-finite coordinate at point 10");
    }

    #[test]
    fn high_virtual_resolution_is_memory_safe() {
        // res^dim would be 10^15 virtual cells; only 1024 slots allocated.
        let est = fit(&uniform_dataset(1000, 5, 8), 1000, 1024);
        assert_eq!(est.resolution(), 1000);
        assert_eq!(est.memory_bytes(), 1024 * 8);
        assert!(est.density(&[0.5; 5]) >= 0.0);
    }
}
