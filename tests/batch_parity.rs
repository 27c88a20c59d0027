//! Batch/scalar parity contract of the cache-blocked KDE engine
//! (`dbs_density::batch`): for every kernel, dimensionality, thread count,
//! and pruning configuration, the batch path must reproduce per-point
//! `density()` **bit for bit**. Together with `tests/parallel_parity.rs`
//! (byte-identical at every thread count) this pins the full determinism
//! contract: scalar ≡ batch ≡ any parallelism level.

use std::num::NonZeroUsize;

use dbs_core::rng::seeded;
use dbs_core::{BoundingBox, Dataset};
use dbs_density::{batch_densities, DensityEstimator, KdeConfig, Kernel, KernelDensityEstimator};
use proptest::prelude::*;
use rand::Rng;

const KERNELS: [Kernel; 4] = [
    Kernel::Epanechnikov,
    Kernel::Gaussian,
    Kernel::Biweight,
    Kernel::Uniform,
];
const DIMS: [usize; 7] = [1, 2, 3, 4, 5, 8, 9];
const THREADS: [usize; 3] = [1, 2, 7];
/// Below / above the 64-center grid threshold: exercises both the
/// full-panel path and the tile-pruned path (for compact kernels).
const CENTER_COUNTS: [usize; 2] = [32, 200];

fn nz(t: usize) -> NonZeroUsize {
    NonZeroUsize::new(t).expect("positive thread count")
}

/// Clustered points in the unit cube plus a few strays outside it, so the
/// clamped boundary cells of the center grid are exercised too.
fn workload(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut ds = Dataset::with_capacity(dim, n + 8);
    let mut p = vec![0.0f64; dim];
    for i in 0..n {
        let (center, spread) = if i % 3 == 0 { (0.7, 0.3) } else { (0.3, 0.1) };
        for x in p.iter_mut() {
            *x = center + (rng.gen::<f64>() - 0.5) * spread;
        }
        ds.push(&p).expect("fixed dim");
    }
    for _ in 0..8 {
        for x in p.iter_mut() {
            *x = rng.gen::<f64>() * 3.0 - 1.0;
        }
        ds.push(&p).expect("fixed dim");
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// density() ≡ batch path, bit for bit, across every kernel × dim ×
    /// center count × thread count.
    #[test]
    fn batch_densities_are_bit_identical_to_scalar(seed in 0u64..10_000) {
        for dim in DIMS {
            // 2-d gets a multi-chunk workload (> CHUNK_POINTS) so the
            // thread counts genuinely split the scan; other dims stay small
            // to keep the scalar reference affordable.
            let n = if dim == 2 { 5000 } else { 400 };
            let data = workload(n, dim, seed ^ dim as u64);
            for kernel in KERNELS {
                for centers in CENTER_COUNTS {
                    let cfg = KdeConfig {
                        kernel,
                        num_centers: centers,
                        domain: Some(BoundingBox::unit(dim)),
                        seed: seed.wrapping_add(1),
                        ..KdeConfig::default()
                    };
                    let est = KernelDensityEstimator::fit_dataset(&data, &cfg)
                        .expect("fit succeeds");
                    let scalar: Vec<u64> = data
                        .iter()
                        .map(|x| est.density(x).to_bits())
                        .collect();
                    for t in THREADS {
                        let batch = batch_densities(&est, &data, nz(t)).expect("batch eval");
                        let batch_bits: Vec<u64> =
                            batch.iter().map(|d| d.to_bits()).collect();
                        prop_assert_eq!(
                            &scalar,
                            &batch_bits,
                            "kernel {:?} dim {} centers {} (grid: {}) threads {}",
                            kernel,
                            dim,
                            centers,
                            est.has_center_grid(),
                            t
                        );
                    }
                }
            }
        }
    }
}
