//! Multi-pass point sources.
//!
//! The paper is careful about dataset passes: building the kernel estimator
//! takes one pass, computing the normalizer `k` one more, and the sampling
//! itself another (§1, §2.2). Algorithms in this workspace are written
//! against [`PointSource`], whose one read primitive is a positional chunk
//! read: sequential scans, the parallel executor's passes and index fetches
//! are all built on it. Every pass reads the chunk at point 0 once, which
//! is how [`PassCounter`] holds an algorithm to the passes it claims.
//! In-memory [`Dataset`]s, `DBS1` files ([`crate::io::FileSource`]) and
//! shard directories ([`crate::shard::ShardedSource`]) all implement the
//! trait, and none of them is ever copied whole unless a caller asks.

use std::ops::Range;

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::obs::{Recorder, Tally};
use crate::par::CHUNK_POINTS;

/// Environment variable overriding the default in-memory materialization
/// cap, in bytes (see [`collect_cap_bytes`]).
pub const COLLECT_CAP_ENV: &str = "DBS_COLLECT_CAP_BYTES";

/// Default materialization cap: 8 GiB of raw `f64` payload.
const DEFAULT_COLLECT_CAP_BYTES: u64 = 8 << 30;

/// The ambient in-memory materialization cap in bytes, read once from
/// [`COLLECT_CAP_ENV`] (default 8 GiB). [`PointSource::collect_dataset`]
/// refuses — with a clean [`Error::InvalidParameter`], not an OOM abort —
/// to materialize sources whose raw payload exceeds it.
pub fn collect_cap_bytes() -> u64 {
    static CAP: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var(COLLECT_CAP_ENV)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_COLLECT_CAP_BYTES)
    })
}

/// A contiguous run of consecutive points handed to parallel per-chunk
/// closures — the view type of [`crate::par::par_scan`].
///
/// A block addresses its points by **global index** (the same indices the
/// chunk range carries), so closure bodies read `block.point(i)` for `i` in
/// their range exactly as they previously read `dataset.point(i)`. Blocks
/// borrow either an in-memory [`Dataset`] (zero-copy) or a worker-local
/// buffer filled by [`PointSource::read_points_into`].
#[derive(Debug, Clone, Copy)]
pub struct PointBlock<'a> {
    first: usize,
    dim: usize,
    data: &'a [f64],
}

impl<'a> PointBlock<'a> {
    /// A zero-copy view of `data[range]`.
    ///
    /// Panics if the range is out of bounds.
    pub fn from_dataset(data: &'a Dataset, range: Range<usize>) -> Self {
        let dim = data.dim();
        PointBlock {
            first: range.start,
            dim,
            data: &data.as_flat()[range.start * dim..range.end * dim],
        }
    }

    /// Wraps a flat row-major buffer whose first point has global index
    /// `first`. Panics if the buffer length is not a multiple of `dim`.
    pub fn from_flat(first: usize, dim: usize, data: &'a [f64]) -> Self {
        assert!(dim >= 1, "block dimensionality must be >= 1");
        assert!(
            data.len().is_multiple_of(dim),
            "flat block buffer must hold whole points"
        );
        PointBlock { first, dim, data }
    }

    /// Dimensionality of every point in the block.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The global index range this block covers.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.first..self.first + self.len()
    }

    /// The point with **global** index `i`.
    ///
    /// Panics if `i` is outside [`PointBlock::range`].
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        let k = i - self.first;
        &self.data[k * self.dim..(k + 1) * self.dim]
    }

    /// The block's flat row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        self.data
    }
}

/// A source of `d`-dimensional points, read by positional chunk reads.
///
/// Every source — an in-memory [`Dataset`], a `DBS1` file
/// ([`crate::io::FileSource`]), a shard directory
/// ([`crate::shard::ShardedSource`]) and the adapters over them — delivers
/// its points through one required method,
/// [`PointSource::read_points_into`]. Sequential scans, materialization
/// and index fetches are provided on top of it, and the parallel executor
/// ([`crate::par`]) hands each worker its chunk through it.
///
/// `Sync` is a supertrait because the executor shares `&S` across worker
/// threads; implementations therefore use positional reads (or immutable
/// mappings), not a shared seek cursor.
pub trait PointSource: Sync {
    /// Dimensionality of the points.
    fn dim(&self) -> usize;

    /// Number of points (known up front, as in the paper's samplers which
    /// read the dataset size `N` before scanning).
    fn len(&self) -> usize;

    /// Whether the source has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` with the points in `range`, row-major, replacing its
    /// contents (`buf.len()` becomes `range.len() * dim`). I/O work counts
    /// accumulate into `tally`; like all observability, they never affect
    /// the values read. A range past the end is an error.
    fn read_points_into(
        &self,
        range: Range<usize>,
        buf: &mut Vec<f64>,
        tally: &mut Tally,
    ) -> Result<()>;

    /// The in-memory [`Dataset`] backing this source, if there is one: the
    /// executor then reads it in place instead of copying chunks.
    /// [`PassCounter`] deliberately hides it, so every pass over a counted
    /// source goes through (and is counted by) its chunk reads.
    fn as_dataset(&self) -> Option<&Dataset> {
        None
    }

    /// Performs one sequential pass, invoking `visit(index, point)` for every
    /// point in order, one [`CHUNK_POINTS`]-point chunk read at a time.
    fn scan(&self, visit: &mut dyn FnMut(usize, &[f64])) -> Result<()> {
        if let Some(ds) = self.as_dataset() {
            ds.iter().enumerate().for_each(|(i, p)| visit(i, p));
            return Ok(());
        }
        let (mut buf, mut tally) = (Vec::new(), Tally::default());
        for start in (0..self.len()).step_by(CHUNK_POINTS) {
            let end = (start + CHUNK_POINTS).min(self.len());
            self.read_points_into(start..end, &mut buf, &mut tally)?;
            for (k, p) in buf.chunks_exact(self.dim()).enumerate() {
                visit(start + k, p);
            }
        }
        Ok(())
    }

    /// Materializes the source into an in-memory [`Dataset`] (one pass),
    /// refusing with [`Error::InvalidParameter`] when the raw payload
    /// exceeds the ambient cap ([`collect_cap_bytes`]) — accidental
    /// materialization of a huge out-of-core source is a clean error, not
    /// an OOM abort.
    fn collect_dataset(&self) -> Result<Dataset> {
        self.collect_dataset_capped(collect_cap_bytes())
    }

    /// [`PointSource::collect_dataset`] with an explicit cap in bytes. An
    /// allocation the machine refuses below the cap is the same clean
    /// error.
    fn collect_dataset_capped(&self, cap_bytes: u64) -> Result<Dataset> {
        let (len, dim) = (self.len(), self.dim());
        let payload = (len as u128) * (dim as u128) * 8;
        if payload > cap_bytes as u128 {
            return Err(Error::InvalidParameter(format!(
                "materializing {len} points x {dim} dims needs {payload} bytes, over the \
                 {cap_bytes}-byte in-memory cap ({COLLECT_CAP_ENV} overrides it)"
            )));
        }
        let mut flat = Vec::new();
        let coords = len.checked_mul(dim);
        if coords.is_none_or(|c| flat.try_reserve_exact(c).is_err()) {
            return Err(Error::InvalidParameter(format!(
                "materializing {len} points x {dim} dims: cannot allocate {payload} bytes"
            )));
        }
        self.scan(&mut |_, p| flat.extend_from_slice(p))?;
        Dataset::from_flat(dim, flat)
    }

    /// Fetches the points at `indices` (in that order) into a small
    /// in-memory dataset — how the CLI recovers original coordinates for a
    /// sample without materializing the source. Ascending indices read
    /// each touched chunk once; the reads' I/O counts go to `recorder`.
    fn select(&self, indices: &[usize], recorder: &Recorder) -> Result<Dataset> {
        let (len, dim) = (self.len(), self.dim());
        let mut out = Dataset::with_capacity(dim, indices.len());
        let mut tally = Tally::default();
        let mut buf: Vec<f64> = Vec::new();
        let mut cached: Option<Range<usize>> = None;
        for &i in indices {
            if i >= len {
                return Err(Error::InvalidParameter(format!(
                    "index {i} out of range for {len} points"
                )));
            }
            if cached.as_ref().is_none_or(|r| !r.contains(&i)) {
                let c = i / CHUNK_POINTS;
                let range = c * CHUNK_POINTS..((c + 1) * CHUNK_POINTS).min(len);
                self.read_points_into(range.clone(), &mut buf, &mut tally)?;
                cached = Some(range);
            }
            let k = i - cached.as_ref().expect("filled above").start;
            out.push(&buf[k * dim..(k + 1) * dim])
                .expect("chunk reads yield points of the declared dimension");
        }
        recorder.merge(&tally);
        Ok(out)
    }
}

/// The error for a chunk read past the end of a `len`-point source.
pub(crate) fn out_of_bounds(range: &Range<usize>, len: usize) -> Error {
    Error::InvalidParameter(format!(
        "point range {range:?} out of bounds for {len} points"
    ))
}

/// Materializes `source` into an in-memory [`Dataset`] under the ambient
/// cap — the sanctioned entry point for pipeline stages that genuinely
/// need random access to every point (e.g. full-dataset CURE).
pub fn materialize<S: PointSource + ?Sized>(source: &S) -> Result<Dataset> {
    match source.as_dataset() {
        Some(ds) => Ok(ds.clone()),
        None => source.collect_dataset(),
    }
}

impl PointSource for Dataset {
    fn dim(&self) -> usize {
        Dataset::dim(self)
    }

    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn read_points_into(
        &self,
        range: Range<usize>,
        buf: &mut Vec<f64>,
        _tally: &mut Tally,
    ) -> Result<()> {
        if range.end > Dataset::len(self) {
            return Err(out_of_bounds(&range, Dataset::len(self)));
        }
        let dim = Dataset::dim(self);
        buf.clear();
        buf.extend_from_slice(&self.as_flat()[range.start * dim..range.end * dim]);
        Ok(())
    }

    fn as_dataset(&self) -> Option<&Dataset> {
        Some(self)
    }
}

/// A counter that records how many full passes an algorithm performed over a
/// wrapped source. Used by tests to assert the pass guarantees the paper
/// claims (e.g. "the biased sample is collected in one or two additional
/// passes").
///
/// Every pass — a [`PointSource::scan`] or one parallel executor pass —
/// reads the chunk starting at point 0 exactly once, so that read is what
/// gets counted.
pub struct PassCounter<'a, S: PointSource + ?Sized> {
    inner: &'a S,
    // Atomic (not `Cell`) so counted sources stay `Sync` and can be shared
    // with the parallel executor.
    passes: std::sync::atomic::AtomicUsize,
}

impl<'a, S: PointSource + ?Sized> PassCounter<'a, S> {
    /// Wraps `inner`, starting the pass count at zero.
    pub fn new(inner: &'a S) -> Self {
        PassCounter {
            inner,
            passes: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of passes (scans and executor passes) begun so far.
    pub fn passes(&self) -> usize {
        self.passes.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl<S: PointSource + ?Sized> PointSource for PassCounter<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn read_points_into(
        &self,
        range: Range<usize>,
        buf: &mut Vec<f64>,
        tally: &mut Tally,
    ) -> Result<()> {
        self.inner.read_points_into(range.clone(), buf, tally)?;
        if range.start == 0 {
            self.passes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        Ok(())
    }

    // Deliberately not forwarding `as_dataset`: a counted source must make
    // every scan and executor pass read through the counting chunk reads,
    // even when the inner source could hand out its buffer for free.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn dataset_scan_visits_in_order() {
        let ds = dataset();
        let mut seen = Vec::new();
        ds.scan(&mut |i, p| seen.push((i, p.to_vec()))).unwrap();
        assert_eq!(seen, vec![(0, vec![1.0, 2.0]), (1, vec![3.0, 4.0])]);
    }

    #[test]
    fn collect_dataset_round_trips() {
        let ds = dataset();
        let copy = ds.collect_dataset().unwrap();
        assert_eq!(ds, copy);
    }

    #[test]
    fn point_block_addresses_globally() {
        let ds = dataset();
        let block = PointBlock::from_dataset(&ds, 1..2);
        assert_eq!(block.len(), 1);
        assert_eq!(block.range(), 1..2);
        assert_eq!(block.point(1), &[3.0, 4.0]);
        let flat = [9.0, 8.0, 7.0, 6.0];
        let block = PointBlock::from_flat(5, 2, &flat);
        assert_eq!(block.range(), 5..7);
        assert_eq!(block.point(6), &[7.0, 6.0]);
    }

    #[test]
    fn collect_cap_rejects_oversized_sources() {
        let ds = dataset();
        // 2 points x 2 dims x 8 bytes = 32 bytes; a 31-byte cap refuses.
        let err = ds.collect_dataset_capped(31).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
        assert!(err.to_string().contains("DBS_COLLECT_CAP_BYTES"));
        assert_eq!(ds.collect_dataset_capped(32).unwrap(), ds);
        // The ambient default is far above any test dataset.
        assert_eq!(ds.collect_dataset().unwrap(), ds);
    }

    /// Claims more points than any allocation can hold; never read.
    struct Unallocatable;

    impl PointSource for Unallocatable {
        fn dim(&self) -> usize {
            1
        }
        fn len(&self) -> usize {
            usize::MAX / 8
        }
        fn read_points_into(&self, _: Range<usize>, _: &mut Vec<f64>, _: &mut Tally) -> Result<()> {
            unreachable!("the reservation fails before any read")
        }
    }

    #[test]
    fn failed_reservation_is_an_error_not_an_abort() {
        let err = Unallocatable.collect_dataset_capped(u64::MAX).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
        let bytes = (usize::MAX / 8) as u128 * 8;
        assert!(err.to_string().contains(&format!("{bytes} bytes")), "{err}");
    }

    #[test]
    fn materialize_borrows_or_collects() {
        let ds = dataset();
        assert_eq!(materialize(&ds).unwrap(), ds);
        let counted = PassCounter::new(&ds);
        assert_eq!(materialize(&counted).unwrap(), ds);
        assert_eq!(counted.passes(), 1);
    }

    #[test]
    fn pass_counter_counts() {
        let ds = dataset();
        let counted = PassCounter::new(&ds);
        assert_eq!(counted.passes(), 0);
        counted.scan(&mut |_, _| {}).unwrap();
        counted.scan(&mut |_, _| {}).unwrap();
        assert_eq!(counted.passes(), 2);
        assert_eq!(counted.len(), 2);
        assert_eq!(counted.dim(), 2);
    }
}
