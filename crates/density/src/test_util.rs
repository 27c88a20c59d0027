//! Fixtures shared by this crate's unit tests.

use dbs_core::rng::seeded;
use dbs_core::{BoundingBox, Dataset};
use rand::Rng;

use crate::traits::DensityEstimator;

/// `n` uniform points in the unit cube.
pub fn uniform_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut ds = Dataset::with_capacity(dim, n);
    for _ in 0..n {
        let p: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
        ds.push(&p).unwrap();
    }
    ds
}

/// Two 2-d blobs of side 0.1: 90% of the points around (0.25, 0.25), 10%
/// around (0.75, 0.75).
pub fn two_blobs(n: usize, seed: u64) -> Dataset {
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

/// A constant density `n` everywhere, in `dim` dimensions.
pub struct Flat {
    pub dim: usize,
    pub n: f64,
}

impl DensityEstimator for Flat {
    fn dim(&self) -> usize {
        self.dim
    }
    fn dataset_size(&self) -> f64 {
        self.n
    }
    fn density(&self, _x: &[f64]) -> f64 {
        self.n
    }
    fn average_density(&self) -> f64 {
        self.n
    }
    fn box_mass(&self, lo: &[f64], hi: &[f64]) -> f64 {
        self.n
            * lo.iter()
                .zip(hi)
                .map(|(l, h)| (h - l).max(0.0))
                .product::<f64>()
    }
}

/// Midpoint-rule integral of `est` over `bbox` with `cells` cells per
/// dimension.
pub fn midpoint_integral<E: DensityEstimator + ?Sized>(
    est: &E,
    bbox: &BoundingBox,
    cells: usize,
) -> f64 {
    let d = bbox.dim();
    let steps: Vec<f64> = (0..d).map(|j| bbox.extent(j) / cells as f64).collect();
    let mut coords = vec![0usize; d];
    let mut x = vec![0.0f64; d];
    let mut acc = 0.0;
    loop {
        for j in 0..d {
            x[j] = bbox.min()[j] + (coords[j] as f64 + 0.5) * steps[j];
        }
        acc += est.density(&x);
        // Odometer advance.
        let mut j = d;
        loop {
            if j == 0 {
                return acc * steps.iter().product::<f64>();
            }
            j -= 1;
            coords[j] += 1;
            if coords[j] < cells {
                break;
            }
            coords[j] = 0;
        }
    }
}
