//! The `sketch` preset: a streaming Count-Min shifted-grid density sketch.
//!
//! The ingest path for unbounded sources: `m` grids shifted as in
//! [`crate::agrid`], each hashing its (virtual) cells into a fixed row of
//! `slots` counters as in [`crate::hashgrid`] — with a per-row salt, so the
//! rows are exactly the counter table of a Count-Min sketch (SNIPPETS.md
//! Snippet 1). Memory is `m * slots * 8` bytes however long the stream or
//! fine the virtual resolution, and one such table per worker while a
//! parallel [`ShiftedGrids::fit`] runs. The density query averages the rows
//! rather than taking the Count-Min minimum: every row is shifted, so the rows
//! estimate `m` differently-smoothed versions of the same density, and
//! their minimum would be an order statistic biased low that breaks the
//! `∫ f ≈ n` frequency contract.
//!
//! The engine makes it a streaming service summary: [`DensitySketch::new`]
//! starts empty, [`ShiftedGrids::update`] folds in one point in O(m),
//! [`ShiftedGrids::fit`] folds a whole source on per-worker tables, and
//! [`ShiftedGrids::merge`] adds counters element-wise (any grouping of
//! per-worker or per-shard sketches equals the single-pass sketch byte for
//! byte, `tests/sketch_parity.rs`), and the one-pass biased sampler and the
//! outlier prefilter run straight off it.

use dbs_core::rng::sub_seed;
use dbs_core::{BoundingBox, Error, Result};

use crate::shifted::{auto_resolution, Hashed, ShiftedGrids};

/// Configuration for [`DensitySketch::new`].
#[derive(Debug, Clone)]
pub struct SketchConfig {
    /// Number of hashed shifted grids `m` (Count-Min depth).
    pub grids: usize,
    /// Counters per grid row (Count-Min width) — the memory budget:
    /// `grids * slots * 8` bytes per table, one table per fit worker.
    pub slots: usize,
    /// Virtual cells per dimension. `None` picks a dimension-dependent
    /// default; any value is memory-safe because cells are hashed, never
    /// allocated.
    pub resolution: Option<usize>,
    /// Domain of the data. Defaults to the unit cube when `None`; the
    /// caller is expected to have normalized the data (§2.1).
    pub domain: Option<BoundingBox>,
    /// Seed for the counter-hashed shift offsets and the per-row hash
    /// salts.
    pub seed: u64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            grids: 4,
            slots: 1 << 16,
            resolution: None,
            domain: None,
            seed: 0,
        }
    }
}

impl SketchConfig {
    /// A config with `grids` rows of `slots` counters and everything else
    /// default.
    pub fn new(grids: usize, slots: usize) -> Self {
        SketchConfig {
            grids,
            slots,
            ..Default::default()
        }
    }
}

/// A streaming Count-Min shifted-grid density sketch (see the module
/// docs).
pub type DensitySketch = ShiftedGrids<Hashed>;

impl ShiftedGrids<Hashed> {
    /// An empty `sketch` preset for `dim`-dimensional points, ready for
    /// [`ShiftedGrids::update`], [`ShiftedGrids::merge`] or
    /// [`ShiftedGrids::fit`]. Shift offsets share the averaged grid's key
    /// layout; row salts use the keys just past it so the two streams never
    /// overlap. Errors on `grids == 0`, `slots == 0`, an explicit resolution
    /// of 0, or a domain/`dim` mismatch.
    pub fn new(dim: usize, config: &SketchConfig) -> Result<Self> {
        let domain = config
            .domain
            .clone()
            .unwrap_or_else(|| BoundingBox::unit(dim));
        if domain.dim() != dim {
            return Err(Error::DimensionMismatch {
                expected: dim,
                got: domain.dim(),
            });
        }
        let grids = config.grids;
        let res = config.resolution.unwrap_or_else(|| auto_resolution(dim));
        let salts = (0..grids)
            .map(|g| sub_seed(config.seed, (grids * dim + g) as u64))
            .collect();
        let store = Hashed {
            salts,
            slots: config.slots,
        };
        Self::with_layout(domain, grids, res, true, config.seed, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{midpoint_integral, two_blobs, uniform_dataset};
    use crate::DensityEstimator;
    use dbs_core::{par, Dataset, PointSource};
    use std::num::NonZeroUsize;

    fn fit<S: PointSource + ?Sized>(source: &S, cfg: &SketchConfig) -> DensitySketch {
        DensitySketch::new(source.dim(), cfg)
            .unwrap()
            .fit(source, par::serial())
            .unwrap()
    }

    #[test]
    fn fit_is_one_pass() {
        let ds = uniform_dataset(2000, 2, 1);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let _ = fit(&counted, &SketchConfig::default());
        assert_eq!(counted.passes(), 1);
    }

    #[test]
    fn incremental_updates_equal_fit() {
        let ds = uniform_dataset(3000, 2, 2);
        let cfg = SketchConfig::default();
        let mut streamed = DensitySketch::new(2, &cfg).unwrap();
        for p in ds.iter() {
            streamed.update(p).unwrap();
        }
        assert_eq!(fit(&ds, &cfg), streamed);
        assert_eq!(streamed.points_ingested(), 3000);
    }

    #[test]
    fn merge_of_splits_equals_single_pass_in_any_order() {
        let ds = uniform_dataset(5000, 3, 3);
        let cfg = SketchConfig::new(4, 1 << 10);
        let whole = fit(&ds, &cfg);
        let parts: Vec<DensitySketch> = [0..1700, 1700..3400, 3400..5000]
            .into_iter()
            .map(|r| fit(&ds.select(&r.collect::<Vec<_>>()), &cfg))
            .collect();
        // Forward order and a permuted order both reproduce the whole.
        for order in [[0usize, 1, 2], [2, 0, 1]] {
            let mut merged = DensitySketch::new(3, &cfg).unwrap();
            for &i in &order {
                merged.merge(&parts[i]).unwrap();
            }
            assert_eq!(merged, whole, "order {order:?}");
        }
    }

    #[test]
    fn parallel_fit_matches_incremental_updates_at_every_thread_count() {
        let ds = uniform_dataset(10_000, 2, 4);
        let cfg = SketchConfig::new(3, 1 << 9);
        let mut streamed = DensitySketch::new(2, &cfg).unwrap();
        for p in ds.iter() {
            streamed.update(p).unwrap();
        }
        for t in [1usize, 2, 7] {
            let par = DensitySketch::new(2, &cfg)
                .unwrap()
                .fit(&ds, NonZeroUsize::new(t).unwrap())
                .unwrap();
            assert_eq!(par, streamed, "threads {t}");
        }
        // Fitting adds to what the sketch already holds.
        let half: Vec<usize> = (0..5_000).collect();
        let rest: Vec<usize> = (5_000..10_000).collect();
        let mut first = DensitySketch::new(2, &cfg).unwrap();
        for p in ds.select(&half).iter() {
            first.update(p).unwrap();
        }
        let both = first.fit(&ds.select(&rest), NonZeroUsize::new(2).unwrap());
        assert_eq!(both.unwrap(), streamed);
    }

    #[test]
    fn density_contrasts_blob_and_void() {
        let est = fit(&two_blobs(10_000, 5), &SketchConfig::default());
        let dense = est.density(&[0.25, 0.25]);
        let sparse = est.density(&[0.75, 0.75]);
        let empty = est.density(&[0.5, 0.95]);
        assert!(dense > 3.0 * sparse, "dense {dense} sparse {sparse}");
        assert!(sparse > empty, "sparse {sparse} empty {empty}");
        assert_eq!(est.density(&[2.0, 2.0]), 0.0);
    }

    #[test]
    fn empty_sketch_is_zero_everywhere() {
        let sk = DensitySketch::new(2, &SketchConfig::default()).unwrap();
        assert_eq!(sk.density(&[0.5, 0.5]), 0.0);
        assert_eq!(sk.dataset_size(), 0.0);
        assert_eq!(sk.summary_normalizer(1.0, 0.0), Some(0.0));
    }

    #[test]
    fn summary_normalizer_tracks_exact_sum() {
        let ds = two_blobs(20_000, 6);
        let est = fit(&ds, &SketchConfig::default());
        let floor = 0.01 * est.average_density();
        let approx = est.summary_normalizer(1.0, floor).unwrap();
        let exact: f64 = ds.iter().map(|p| est.density(p).max(floor)).sum();
        let rel = (approx - exact).abs() / exact;
        // With ample slots the gap is the shifted-cell disagreement only.
        assert!(rel < 0.25, "approx {approx} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn whole_domain_quadrature_close_to_n() {
        let est = fit(&uniform_dataset(20_000, 2, 7), &SketchConfig::default());
        let total = midpoint_integral(&est, &BoundingBox::unit(2), 256);
        // Boundary cells overhang the domain and collisions add mass;
        // allow a generous band around n.
        assert!((total - 20_000.0).abs() < 0.2 * 20_000.0, "total {total}");
    }

    #[test]
    fn bounded_memory_independent_of_resolution() {
        let cfg = SketchConfig {
            resolution: Some(1000),
            slots: 1 << 10,
            ..Default::default()
        };
        // 1000^5 virtual cells; only grids * 1024 counters allocated.
        let est = fit(&uniform_dataset(1000, 5, 8), &cfg);
        assert_eq!(est.memory_bytes(), est.grids() * (1 << 10) * 8);
        assert!(est.density(&[0.5; 5]) >= 0.0);
    }

    #[test]
    fn deterministic_given_seed_and_seed_sensitive() {
        let ds = uniform_dataset(2000, 2, 9);
        let a = fit(&ds, &SketchConfig::default());
        assert_eq!(a, fit(&ds, &SketchConfig::default()));
        let cfg = SketchConfig {
            seed: 99,
            ..Default::default()
        };
        assert_ne!(a.counters(), fit(&ds, &cfg).counters());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(DensitySketch::new(2, &SketchConfig::new(0, 16)).is_err());
        assert!(DensitySketch::new(2, &SketchConfig::new(4, 0)).is_err());
        let zero_res = SketchConfig {
            resolution: Some(0),
            ..Default::default()
        };
        assert!(DensitySketch::new(2, &zero_res).is_err());
        let cfg = SketchConfig::default();
        let empty = DensitySketch::new(2, &cfg).unwrap();
        assert!(empty.clone().fit(&Dataset::new(2), par::serial()).is_err());
        let wrong_domain = SketchConfig {
            domain: Some(BoundingBox::unit(3)),
            ..Default::default()
        };
        assert!(DensitySketch::new(2, &wrong_domain).is_err());
        let mut bad = uniform_dataset(10, 2, 11);
        bad.push(&[f64::NAN, 0.5]).unwrap();
        let err = empty.clone().fit(&bad, par::serial()).unwrap_err();
        assert_eq!(err.to_string(), "non-finite coordinate at point 10");
        // Across chunks and workers, the first bad point is the one named.
        let mut late = uniform_dataset(12_000, 2, 12);
        late.point_mut(9_000)[1] = f64::INFINITY;
        late.point_mut(11_000)[0] = f64::NAN;
        late.point_mut(4_500)[0] = f64::NAN;
        for t in [1, 2, 7] {
            let threads = NonZeroUsize::new(t).unwrap();
            let err = empty.clone().fit(&late, threads).unwrap_err();
            assert_eq!(err.to_string(), "non-finite coordinate at point 4500");
        }
        let mut sk = empty;
        assert!(sk.update(&[0.5]).is_err());
        assert!(sk.update(&[f64::INFINITY, 0.0]).is_err());
    }

    #[test]
    fn merge_rejects_mismatched_configs() {
        let cfg = SketchConfig::default();
        let mut a = DensitySketch::new(2, &cfg).unwrap();
        for (other_dim, other_cfg) in [
            (3, cfg.clone()),
            (2, SketchConfig::new(8, 1 << 16)),
            (2, SketchConfig::new(4, 1 << 8)),
            (
                2,
                SketchConfig {
                    seed: 5,
                    ..cfg.clone()
                },
            ),
            (
                2,
                SketchConfig {
                    resolution: Some(16),
                    ..cfg.clone()
                },
            ),
        ] {
            let b = DensitySketch::new(other_dim, &other_cfg).unwrap();
            assert!(a.merge(&b).is_err(), "{other_dim} {other_cfg:?}");
        }
    }
}
