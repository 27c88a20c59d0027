//! The shifted-grid engine behind the four histogram presets.
//!
//! Every histogram backend of this crate is the same estimator: `m`
//! uniform grids over the domain, optionally shifted by a counter-hashed
//! fractional offset per dimension ([`dbs_core::rng::keyed_unit`]), whose
//! cell counts live in a [`CounterStore`] — one exact counter per cell
//! ([`Dense`]) or cells hashed into a fixed row of counters per grid
//! ([`Hashed`], the Palmer–Faloutsos storage model \[22\] and, with `m`
//! salted rows, a Count-Min table). The estimate is frequency-scaled like
//! every backend in this crate:
//!
//! ```text
//! f(x) = Σ_g count_g(cell_g(x)) / m / volume(cell)
//! ```
//!
//! so `∫ f ≈ n` (§2.1 of the source paper), up to hash-collision inflation
//! and the mass a shifted grid's boundary cells spread past the domain.
//! Averaging `m` shifted grids is the Wells–Ting combine: it smooths a
//! single histogram's jumps at arbitrary cell boundaries, and unlike the
//! Count-Min minimum it keeps `∫ f ≈ n`.
//!
//! The two switches — shift and store — are set only by the four presets,
//! each in its own module: [`crate::grid`] (one dense unshifted grid),
//! [`crate::hashgrid`] (one hashed unshifted grid), [`crate::agrid`] (`m`
//! shifted dense grids) and [`crate::sketch`] (`m` shifted, salted, hashed
//! grids). Whatever the preset, the engine is
//!
//! * **one-pass and incremental**: [`ShiftedGrids::fit`] folds a source in
//!   one scan, [`ShiftedGrids::update`] one point in O(m);
//! * **mergeable**: [`ShiftedGrids::merge`] adds exact `u64` counters, so
//!   per-chunk or per-shard summaries merged in any grouping equal the
//!   single-pass summary byte for byte ([`ShiftedGrids::fit_obs`] relies on
//!   it);
//! * **normalizer-ready**: grid 0 partitions the ingested points, so
//!   [`DensityEstimator::summary_normalizer`] sums over its counters without
//!   a dataset pass.

use std::fmt::Debug;
use std::num::NonZeroUsize;
use std::sync::Mutex;

use dbs_core::obs::{Counter, Recorder, Tally};
use dbs_core::rng::keyed_unit;
use dbs_core::{par, BoundingBox, Error, PointBlock, PointSource, Result};

use crate::traits::DensityEstimator;

/// Hard cap on the counters of a [`Dense`] store, over all grids.
const DENSE_CAP: usize = 1 << 26;

/// Budget an automatically chosen [`Dense`] resolution shrinks to fit
/// (2^22 counters, 32 MB).
const DENSE_BUDGET: usize = 1 << 22;

/// Where the engine keeps its cell counts.
pub trait CounterStore: Clone + Debug + PartialEq + Send + Sync {
    /// Counters per grid.
    fn row_len(&self) -> usize;

    /// Index, within grid `g`'s row, of the counter holding flattened cell
    /// id `cell`.
    fn slot(&self, g: usize, cell: u64) -> usize;
}

/// One exact counter per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    cells: usize,
}

impl Dense {
    /// A store for `grids` grids of `span^dim` cells each; errors when the
    /// total exceeds the 2^26-counter cap.
    pub(crate) fn sized(dim: usize, span: usize, grids: usize) -> Result<Self> {
        span.checked_pow(dim as u32)
            .filter(|&cells| cells.checked_mul(grids).is_some_and(|t| t <= DENSE_CAP))
            .map(|cells| Dense { cells })
            .ok_or_else(|| {
                Error::InvalidParameter("grid too large; fewer grids or lower res".into())
            })
    }

    /// The automatic resolution of `grids` shifted dense grids: the
    /// [`auto_resolution`] table, shrunk until the whole ensemble fits the
    /// 2^22-counter budget.
    pub(crate) fn auto_resolution(dim: usize, grids: usize) -> usize {
        let mut res = auto_resolution(dim);
        while res > 1
            && (res + 1)
                .checked_pow(dim as u32)
                .and_then(|cells| cells.checked_mul(grids.max(1)))
                .is_none_or(|total| total > DENSE_BUDGET)
        {
            res -= 1;
        }
        res
    }
}

impl CounterStore for Dense {
    fn row_len(&self) -> usize {
        self.cells
    }

    #[inline]
    fn slot(&self, _g: usize, cell: u64) -> usize {
        cell as usize
    }
}

/// Cells hashed into `slots` counters per grid by a salted multiplicative
/// Fibonacci hash (one salt per grid); colliding cells share a counter.
#[derive(Debug, Clone, PartialEq)]
pub struct Hashed {
    pub(crate) salts: Vec<u64>,
    pub(crate) slots: usize,
}

impl CounterStore for Hashed {
    fn row_len(&self) -> usize {
        self.slots
    }

    #[inline]
    fn slot(&self, g: usize, cell: u64) -> usize {
        ((cell ^ self.salts[g]).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.slots
    }
}

/// The default resolution for `dim`-dimensional data when a shifted preset
/// leaves it open.
pub(crate) fn auto_resolution(dim: usize) -> usize {
    match dim {
        0 | 1 => 256,
        2 => 64,
        3 => 24,
        4 => 16,
        _ => 12,
    }
}

/// `m` grids, shifted or not, over dense or hashed counters (see the
/// module docs). Built only through the presets.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedGrids<S: CounterStore> {
    domain: BoundingBox,
    dim: usize,
    /// Cells per dimension the domain is divided into.
    res: usize,
    /// Cell coordinates per dimension a grid indexes: `res + 1` when
    /// shifted (the shift pushes the last cell past the domain), else
    /// `res`. Coordinates are clamped into `0..span`, so out-of-domain
    /// points land in boundary cells.
    span: usize,
    /// Ensemble size `m`.
    grids: usize,
    /// Fractional shift of grid `g` along dimension `j`, in cell units:
    /// `offsets[g * dim + j] ∈ [0, 1)`, all zero when unshifted.
    offsets: Vec<f64>,
    /// `res / extent_j` per dimension (0 for degenerate extents).
    inv_widths: Vec<f64>,
    /// Volume of one cell (degenerate dimensions count as width 1).
    cell_volume: f64,
    store: S,
    /// Concatenated grid rows: grid `g` is
    /// `counts[g * row_len .. (g + 1) * row_len]`. Exact integers, so
    /// merging is associative and commutative.
    counts: Vec<u64>,
    /// Points ingested.
    n: u64,
}

impl<S: CounterStore> ShiftedGrids<S> {
    /// The one validated constructor behind every preset: an empty engine
    /// of `grids` grids of `res` cells per dimension over `domain`, shifted
    /// by `keyed_unit(seed, g * dim + j)` offsets when `shifted`.
    pub(crate) fn with_layout(
        domain: BoundingBox,
        grids: usize,
        res: usize,
        shifted: bool,
        seed: u64,
        store: S,
    ) -> Result<Self> {
        if grids == 0 || res == 0 || store.row_len() == 0 {
            return Err(Error::InvalidParameter(
                "grids, cells per dimension and counters per grid must be >= 1".into(),
            ));
        }
        let total = grids
            .checked_mul(store.row_len())
            .ok_or_else(|| Error::InvalidParameter("too many counters".into()))?;
        let dim = domain.dim();
        let offsets = match shifted {
            true => (0..grids * dim)
                .map(|s| keyed_unit(seed, s as u64))
                .collect(),
            false => vec![0.0; grids * dim],
        };
        let inv_widths = (0..dim)
            .map(|j| {
                let extent = domain.extent(j);
                if extent > 0.0 {
                    res as f64 / extent
                } else {
                    0.0
                }
            })
            .collect();
        let cell_volume = (0..dim)
            .map(|j| {
                let w = domain.extent(j) / res as f64;
                if w > 0.0 {
                    w
                } else {
                    1.0
                }
            })
            .product();
        Ok(ShiftedGrids {
            domain,
            dim,
            res,
            span: res + usize::from(shifted),
            grids,
            offsets,
            inv_widths,
            cell_volume,
            store,
            counts: vec![0; total],
            n: 0,
        })
    }

    /// Flattened cell id of `p` in grid `g` (u64 arithmetic: a hashed
    /// virtual grid may far exceed `usize` cells).
    #[inline]
    fn cell_of(&self, p: &[f64], g: usize) -> u64 {
        let offs = &self.offsets[g * self.dim..(g + 1) * self.dim];
        let dmin = self.domain.min();
        let top = self.span as i64 - 1;
        let mut cell: u64 = 0;
        for j in 0..self.dim {
            let t = (p[j] - dmin[j]) * self.inv_widths[j] + offs[j];
            let c = (t as i64).clamp(0, top) as u64;
            cell = cell.wrapping_mul(self.span as u64).wrapping_add(c);
        }
        cell
    }

    /// Position of `p`'s counter for grid `g` in `counts`.
    #[inline]
    fn counter_of(&self, p: &[f64], g: usize) -> usize {
        g * self.store.row_len() + self.store.slot(g, self.cell_of(p, g))
    }

    /// Unchecked single-point ingest (callers have validated dim and
    /// finiteness).
    #[inline]
    fn ingest(&mut self, p: &[f64]) {
        for g in 0..self.grids {
            let k = self.counter_of(p, g);
            self.counts[k] += 1;
        }
        self.n += 1;
    }

    /// The density of an in-domain `x`.
    #[inline]
    fn density_inside(&self, x: &[f64]) -> f64 {
        let total: u64 = (0..self.grids)
            .map(|g| self.counts[self.counter_of(x, g)])
            .sum();
        total as f64 / self.grids as f64 / self.cell_volume
    }

    /// Folds one point in: O(m) counter increments. The summary after any
    /// sequence of updates is a pure function of the ingested multiset.
    pub fn update(&mut self, p: &[f64]) -> Result<()> {
        if p.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                got: p.len(),
            });
        }
        if !p.iter().all(|v| v.is_finite()) {
            return Err(Error::InvalidParameter(
                "non-finite coordinate in update".into(),
            ));
        }
        self.ingest(p);
        Ok(())
    }

    /// Element-wise add of `other`'s counters (callers have checked
    /// compatibility or built both from one engine).
    fn merge_counts(&mut self, other: &Self) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Merges an engine of the same preset and configuration into this one
    /// by element-wise counter addition — commutative and associative, so
    /// summaries merged in any grouping equal the single-pass summary byte
    /// for byte. Errors when the layouts (domain, resolution, grids,
    /// offsets, store) differ: such counters do not address the same cells.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if self.dim != other.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                got: other.dim,
            });
        }
        if self.res != other.res
            || self.span != other.span
            || self.domain != other.domain
            || self.offsets != other.offsets
            || self.store != other.store
        {
            return Err(Error::InvalidParameter(
                "cannot merge grids with different configurations".into(),
            ));
        }
        self.merge_counts(other);
        Ok(())
    }

    fn check_source<P: PointSource + ?Sized>(&self, source: &P) -> Result<()> {
        if source.is_empty() {
            return Err(Error::InvalidParameter(
                "cannot fit on an empty source".into(),
            ));
        }
        if source.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: source.dim(),
                got: self.dim,
            });
        }
        Ok(())
    }

    /// Folds every point of `source` in, in one sequential pass.
    ///
    /// Errors on an empty source, a source/domain dimension mismatch, or a
    /// non-finite coordinate ([`Error::NonFinite`], naming the first bad
    /// point; validation rides the single pass).
    pub fn fit<P: PointSource + ?Sized>(mut self, source: &P) -> Result<Self> {
        self.check_source(source)?;
        let mut bad: Option<usize> = None;
        source.scan(&mut |i, p| {
            if bad.is_some() {
                return;
            }
            if p.iter().all(|v| v.is_finite()) {
                self.ingest(p);
            } else {
                bad = Some(i);
            }
        })?;
        match bad {
            Some(index) => Err(Error::NonFinite { index }),
            None => Ok(self),
        }
    }

    /// [`Self::fit`] through the chunked executor with metrics: each fixed
    /// 4096-point chunk ingests into its own empty copy, folded into the
    /// result as the chunk completes. Counter addition commutes, so the
    /// result is byte-identical to [`Self::fit`] at every thread count.
    /// Records [`Counter::SketchUpdates`] per ingested point and
    /// [`Counter::SketchMerges`] per chunk fold; does not record
    /// `DatasetPasses` (the caller knows whether `source` is primary).
    pub fn fit_obs<P: PointSource + ?Sized>(
        self,
        source: &P,
        threads: NonZeroUsize,
        recorder: &Recorder,
    ) -> Result<Self> {
        self.check_source(source)?;
        let mut empty = self.clone();
        empty.counts.fill(0);
        empty.n = 0;
        let shared = Mutex::new(self);
        let bad_chunks =
            par::par_scan_tallied(source, threads, recorder, |range, block, tally| {
                let mut local = empty.clone();
                let mut bad: Option<usize> = None;
                for i in range {
                    let p = block.point(i);
                    if !p.iter().all(|v| v.is_finite()) {
                        bad = Some(i);
                        break;
                    }
                    local.ingest(p);
                }
                tally.add(Counter::SketchUpdates, local.n);
                shared
                    .lock()
                    .expect("merging never panics")
                    .merge_counts(&local);
                tally.add(Counter::SketchMerges, 1);
                bad
            })?;
        match bad_chunks.into_iter().flatten().min() {
            Some(index) => Err(Error::NonFinite { index }),
            None => Ok(shared.into_inner().expect("no panics held the lock")),
        }
    }

    /// Ensemble size `m`.
    pub fn grids(&self) -> usize {
        self.grids
    }

    /// Cells per dimension.
    pub fn resolution(&self) -> usize {
        self.res
    }

    /// Volume of one grid cell.
    pub fn cell_volume(&self) -> f64 {
        self.cell_volume
    }

    /// Points ingested so far.
    pub fn points_ingested(&self) -> u64 {
        self.n
    }

    /// The raw counters (grid-major), for parity tests and diagnostics.
    pub fn counters(&self) -> &[u64] {
        &self.counts
    }

    /// Bytes held by the counters — the whole data-dependent footprint.
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }
}

impl<S: CounterStore> DensityEstimator for ShiftedGrids<S> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn dataset_size(&self) -> f64 {
        self.n as f64
    }

    /// Zero outside the domain box: every preset models a density supported
    /// on the domain (out-of-domain points were clamped into boundary cells
    /// at ingest time, but the density beyond the box is zero).
    fn density(&self, x: &[f64]) -> f64 {
        if !self.domain.contains(x) {
            return 0.0;
        }
        self.density_inside(x)
    }

    fn average_density(&self) -> f64 {
        self.n as f64 / self.domain.volume().max(f64::MIN_POSITIVE)
    }

    /// Per-point queries plus two work counts: the grids averaged
    /// ([`Counter::AgridGridsAveraged`], `m` per chunk) and the counter
    /// reads ([`Counter::AgridCellTouches`], `m` per in-domain query).
    /// Bit-identical to [`DensityEstimator::density`] per point.
    fn densities_into(&self, block: &PointBlock, out: &mut [f64], tally: &mut Tally) {
        let mut inside = 0u64;
        for (o, i) in out.iter_mut().zip(block.range()) {
            let x = block.point(i);
            *o = if self.domain.contains(x) {
                inside += 1;
                self.density_inside(x)
            } else {
                0.0
            };
        }
        tally.add(Counter::AgridCellTouches, inside * self.grids as u64);
        tally.add(Counter::AgridGridsAveraged, self.grids as u64);
    }

    /// From grid 0 alone: its counters partition the ingested points (every
    /// point increments exactly one), so
    /// `Σ_{c>0} c · max(c / cell_volume, floor)^a` is the §2.2 sum with
    /// every point of a grid-0 cell (or slot) at that cell's density. Exact
    /// for the one-grid presets on in-domain data, collisions included;
    /// for the ensembles it differs from the averaged query by cell-boundary
    /// placement only.
    fn summary_normalizer(&self, a: f64, floor: f64) -> Option<f64> {
        Some(
            self.counts[..self.store.row_len()]
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| c as f64 * (c as f64 / self.cell_volume).max(floor).powf(a))
                .sum(),
        )
    }
}
