//! Grid/hash-based density-biased sampling (Palmer–Faloutsos, \[22\]).
//!
//! The comparison method of §4.3 / Figure 5(c): partition the space with a
//! grid, hash the cells into a fixed-size table (collisions merge cell
//! counts), and sample each point at a rate that makes the expected number
//! of sample points from a cell with `n_c` points proportional to
//! `n_c^{e+1}` — i.e. a per-point rate proportional to `n_c^{e}`. `e = 0`
//! is uniform; `e < 0` undersamples dense cells / oversamples sparse ones,
//! which is the regime (\[22\] targets) for finding clusters of very
//! different sizes; the paper runs it with `e = -0.5` in Figure 5(c).
//!
//! Keeping the hash table (instead of an exact cell map) is deliberate:
//! the quality degradation caused by collisions is part of what the
//! paper's comparison measures.
//!
//! After the hashed-grid fit, the sampler runs the same exact one-pass
//! Figure 1 as [`crate::biased`], with `f'(x) = max(1, c(x))^e` for the
//! hashed count `c(x)` of the point's cell: the pass folds the normalizer
//! and keeps the points the inclusion draws can pick (with the same
//! fallback pass). It runs on the machine's available parallelism, and
//! the draw for point `i` is a counter-based hash of `(seed, i)`
//! ([`dbs_core::rng::keyed_unit`]), so the sample is a pure function of
//! (data, config) at every thread count.
//!
//! The grid is the one Figure 5(c) uses: [`GRID_CELLS_PER_DIM`] cells per
//! dimension over the unit cube, the domain every caller scales its data
//! to.

use dbs_core::obs::Recorder;
use dbs_core::{par, BoundingBox, Error, PointSource, Result, WeightedSample};
use dbs_density::{DensityEstimator, ShiftedGrids};

use crate::biased::{figure1_passes, floored_pow, BiasedConfig, BiasedSampleStats};

/// Grid cells per dimension of the sampler's virtual grid over the unit
/// cube (only hashed slots are stored).
pub const GRID_CELLS_PER_DIM: usize = 32;

/// Configuration of the Palmer–Faloutsos-style sampler.
#[derive(Debug, Clone)]
pub struct GridBiasedConfig {
    /// Target (expected) sample size `b`.
    pub target_size: usize,
    /// Exponent `e` on the cell count (per-point rate ∝ `count^e`).
    pub exponent: f64,
    /// Hash-table slots — the memory budget. The paper allows \[22\] 5 MB;
    /// at 8 bytes per counter that is 655 360 slots.
    pub table_slots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GridBiasedConfig {
    /// A config with the Figure 5(c) defaults: `e` and a 5 MB table.
    pub fn new(target_size: usize, exponent: f64) -> Self {
        GridBiasedConfig {
            target_size,
            exponent,
            table_slots: 5 * 1024 * 1024 / 8,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Runs the grid/hash-based biased sampler.
///
/// Pass 1 builds the hashed cell counts of the unit cube's grid; pass 2
/// computes `K = Σ_x max(1, c(x))^e`, where `c(x)` is the (hashed) count
/// of the point's cell, and samples each point with probability
/// `min(1, b · max(1, c(x))^e / K)` and weight `1/p`, as
/// [`crate::density_biased_sample`] does in one pass.
pub fn grid_biased_sample<S: PointSource + ?Sized>(
    source: &S,
    config: &GridBiasedConfig,
) -> Result<(WeightedSample, BiasedSampleStats)> {
    if source.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot sample an empty source".into(),
        ));
    }
    if config.target_size == 0 {
        return Err(Error::InvalidParameter("target_size must be >= 1".into()));
    }
    if config.table_slots == 0 {
        return Err(Error::InvalidParameter("table_slots must be >= 1".into()));
    }
    if !config.exponent.is_finite() {
        return Err(Error::InvalidParameter(format!(
            "exponent must be finite, got {}",
            config.exponent
        )));
    }
    // Pass 1: hashed cell counts.
    let domain = BoundingBox::unit(source.dim());
    let est = ShiftedGrids::hashgrid(domain, GRID_CELLS_PER_DIM, config.table_slots)?
        .fit(source, par::serial())?;

    // Pass 2 is Figure 1's with f'(x) = max(1, c(x))^e, where
    // c(x) = density · cell_volume is the hashed count of x's cell.
    let cell_volume = est.cell_volume();
    let e = config.exponent;
    let biased = BiasedConfig::new(config.target_size, e).with_seed(config.seed);
    let unrecorded = &Recorder::disabled();
    let (sample, mut stats) = figure1_passes(source, &biased, unrecorded, |block, tally| {
        let mut fp = vec![0.0f64; block.len()];
        est.densities_into(block, &mut fp, tally);
        fp.iter_mut()
            .for_each(|c| *c = floored_pow(*c * cell_volume, 1.0, e));
        fp
    })?;
    stats.passes += 1;
    Ok((sample, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng::seeded;
    use dbs_core::Dataset;
    use rand::Rng;

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

    #[test]
    fn expected_size_near_target() {
        let ds = two_blobs(20_000, 1);
        let cfg = GridBiasedConfig::new(500, -0.5).with_seed(2);
        let (s, _) = grid_biased_sample(&ds, &cfg).unwrap();
        let size = s.len() as f64;
        assert!((size - 500.0).abs() < 100.0, "size {size}");
    }

    #[test]
    fn negative_exponent_oversamples_sparse_cells() {
        let ds = two_blobs(20_000, 3);
        let cfg = GridBiasedConfig::new(1000, -0.5).with_seed(4);
        let (s, _) = grid_biased_sample(&ds, &cfg).unwrap();
        let sparse_frac = s.points().iter().filter(|p| p[0] > 0.5).count() as f64 / s.len() as f64;
        assert!(sparse_frac > 0.15, "sparse fraction {sparse_frac}");
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let ds = two_blobs(20_000, 5);
        let cfg = GridBiasedConfig::new(1000, 0.0).with_seed(6);
        let (s, stats) = grid_biased_sample(&ds, &cfg).unwrap();
        assert!((stats.normalizer_k - 20_000.0).abs() < 1e-6);
        let sparse_frac = s.points().iter().filter(|p| p[0] > 0.5).count() as f64 / s.len() as f64;
        assert!(
            (sparse_frac - 0.1).abs() < 0.04,
            "sparse fraction {sparse_frac}"
        );
    }

    #[test]
    fn tiny_table_still_produces_valid_sample() {
        // Heavy collisions: quality degrades but invariants hold.
        let ds = two_blobs(10_000, 7);
        let mut cfg = GridBiasedConfig::new(500, -0.5).with_seed(8);
        cfg.table_slots = 16;
        let (s, _) = grid_biased_sample(&ds, &cfg).unwrap();
        assert!(!s.is_empty());
        assert!(s.weights().iter().all(|&w| w >= 1.0 - 1e-9));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(grid_biased_sample(&Dataset::new(2), &GridBiasedConfig::new(5, -0.5)).is_err());
        let ds = two_blobs(100, 9);
        assert!(grid_biased_sample(&ds, &GridBiasedConfig::new(0, -0.5)).is_err());
        // Degenerate table/exponent settings must fail up front with a
        // parameter error, not as a downstream normalizer surprise.
        let mut no_slots = GridBiasedConfig::new(5, -0.5);
        no_slots.table_slots = 0;
        let err = grid_biased_sample(&ds, &no_slots).unwrap_err();
        assert!(err.to_string().contains("table_slots"), "{err}");
        for bad_e in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = grid_biased_sample(&ds, &GridBiasedConfig::new(5, bad_e)).unwrap_err();
            assert!(err.to_string().contains("exponent"), "{bad_e}: {err}");
        }
    }

    #[test]
    fn fit_pass_and_one_sampling_pass() {
        let ds = two_blobs(20_000, 12);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let cfg = GridBiasedConfig::new(500, -0.5).with_seed(13);
        let (_, stats) = grid_biased_sample(&counted, &cfg).unwrap();
        assert_eq!(counted.passes(), 2);
        assert_eq!(stats.passes, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = two_blobs(5000, 10);
        let cfg = GridBiasedConfig::new(200, -0.5).with_seed(11);
        let (a, _) = grid_biased_sample(&ds, &cfg).unwrap();
        let (b, _) = grid_biased_sample(&ds, &cfg).unwrap();
        assert_eq!(a.source_indices(), b.source_indices());
    }
}
