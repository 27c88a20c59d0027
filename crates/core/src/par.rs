//! Deterministic parallel execution over [`PointSource`]s.
//!
//! Every multi-threaded code path in the workspace goes through this module,
//! and all of it obeys one contract: **the result is a pure function of the
//! input and the algorithm's seed — never of the thread count or the
//! scheduler.** Concretely:
//!
//! * Work is split into fixed-size chunks of [`CHUNK_POINTS`] consecutive
//!   points. The chunk grid depends only on the dataset length, not on the
//!   number of threads.
//! * Worker threads grab chunks from a shared cursor (so a slow chunk does
//!   not stall the others), but results are merged **in chunk order**, and
//!   within a chunk points are processed in index order.
//! * A floating-point reduction that must match a streaming left-to-right
//!   fold returns per-point (or per-chunk, in-order) values from
//!   [`par_scan`] and folds them serially afterwards. Only exactly
//!   associative combines (integer sums, min/max) may be merged per chunk.
//! * [`par_fold`] folds every chunk a worker claims into that worker's one
//!   accumulator, so which chunks share an accumulator depends on the
//!   scheduler. It is allowed only for state whose merge is exact and
//!   order-free — integer sums, max, set union — where the merged
//!   accumulators equal the serial fold at every thread count.
//!
//! * [`par_scan_in_order`] streams such an order-sensitive fold with the
//!   scan: it folds each chunk's value as soon as every earlier chunk's has
//!   been folded, so only chunks that finished early wait in memory.
//!
//! Under this contract `parallelism = 1` and `parallelism = 64` produce
//! bit-identical results, so callers expose a single
//! [`std::num::NonZeroUsize`] knob and tests can assert equality outright
//! (see `tests/parallel_parity.rs` at the workspace root).
//!
//! Chunks reach workers through one of two backings:
//!
//! 1. **Borrowed** — [`PointSource::as_dataset`]: every chunk is a zero-copy
//!    [`PointBlock`] view into the shared in-memory buffer.
//! 2. **Chunk-read** — every other source: each worker owns one reusable
//!    chunk buffer and fills it via [`PointSource::read_points_into`], so
//!    peak memory is `workers x CHUNK_POINTS x dim` regardless of the
//!    dataset size. This is how `DBS1` files ([`crate::io::FileSource`])
//!    and shard directories ([`crate::shard`]) flow through
//!    every parallel algorithm out-of-core.
//!
//! Both produce the same blocks over the same chunk grid in the same merge
//! order, so which backing served a scan is unobservable in the results —
//! `tests/shard_parity.rs` asserts exactly that.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::bbox::BoundingBox;
use crate::error::{Error, Result};
use crate::obs::{Recorder, Tally};
use crate::scan::{PointBlock, PointSource};

/// Points per work chunk. Fixed — *never* derived from the thread count —
/// so the chunk grid (and therefore any chunk-ordered merge) is identical
/// for every parallelism level.
pub const CHUNK_POINTS: usize = 4096;

/// The machine's available parallelism, the default for every `parallelism`
/// knob in the workspace. Falls back to 1 where the platform cannot tell.
pub fn available_parallelism() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// The serial execution level (`parallelism = 1`).
pub fn serial() -> NonZeroUsize {
    NonZeroUsize::MIN
}

/// The chunked parallel scan: applies `per_chunk` to every chunk of
/// [`CHUNK_POINTS`] consecutive point indices and returns the results in
/// chunk order. `per_chunk` receives the chunk's index range and a
/// [`PointBlock`] holding exactly those points (addressed by global
/// index).
///
/// Merge the per-chunk values yourself — in chunk order for
/// order-sensitive data, any-order only for exactly commutative combines.
pub fn par_scan<S, T, F>(source: &S, threads: NonZeroUsize, per_chunk: F) -> Result<Vec<T>>
where
    S: PointSource + ?Sized,
    T: Send,
    F: Fn(Range<usize>, &PointBlock) -> T + Sync,
{
    let pairs = scan_chunks(source, threads, CHUNK_POINTS, |range, block, _| {
        per_chunk(range, block)
    })?;
    Ok(pairs.into_iter().map(|(out, _)| out).collect())
}

/// [`par_scan`] with a per-chunk [`Tally`] for operation counting: each
/// chunk accumulates counts into its own stack-local tally, and the tallies
/// are merged **in chunk order** into `recorder` after the scan. Counter
/// merging is integer addition (exactly associative), so recorded totals —
/// like the scan results themselves — are identical at every thread count.
///
/// The tally is passed unconditionally (incrementing a stack `u64` is
/// cheaper than branching on the recorder per point); a disabled recorder
/// makes the final merge a no-op. This primitive does **not** count
/// [`crate::obs::Counter::DatasetPasses`] — pass accounting belongs to
/// pipeline entry points, which know whether `source` is the caller's
/// primary data or a derived buffer.
pub fn par_scan_tallied<S, T, F>(
    source: &S,
    threads: NonZeroUsize,
    recorder: &Recorder,
    per_chunk: F,
) -> Result<Vec<T>>
where
    S: PointSource + ?Sized,
    T: Send,
    F: Fn(Range<usize>, &PointBlock, &mut Tally) -> T + Sync,
{
    let pairs = scan_chunks(source, threads, CHUNK_POINTS, per_chunk)?;
    let mut results = Vec::with_capacity(pairs.len());
    if recorder.is_enabled() {
        let mut total = Tally::default();
        for (out, tally) in pairs {
            total.merge(&tally);
            results.push(out);
        }
        recorder.merge(&total);
    } else {
        results.extend(pairs.into_iter().map(|(out, _)| out));
    }
    Ok(results)
}

/// One accumulator per worker, folded over the chunks that worker claims:
/// each worker takes one accumulator from `init` and folds into it, with
/// `fold`, every chunk of [`CHUNK_POINTS`] consecutive points it takes from
/// the shared cursor. The accumulators come back, one per worker, for the
/// caller to merge.
///
/// Which chunks share an accumulator depends on the scheduler, so use this
/// only for state whose merge is exact and order-free — integer sums, max,
/// set union; anything order-sensitive goes through [`par_scan`]. With one
/// worker the fold runs in the calling thread. A chunk read error is
/// reported from the lowest failing chunk. Like [`par_scan`], it records no
/// tally.
pub fn par_fold<S, A, I, F>(source: &S, threads: NonZeroUsize, init: I, fold: F) -> Result<Vec<A>>
where
    S: PointSource + ?Sized,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, Range<usize>, &PointBlock) + Sync,
{
    fold_chunks(
        source,
        threads,
        CHUNK_POINTS,
        init,
        |acc, _, range, block, _| fold(acc, range, block),
    )
}

/// [`par_scan_tallied`] that reduces as it scans: `reduce` folds the
/// chunks' results into `reduced` in chunk order, each as soon as every
/// earlier chunk's result has been folded, and then drops it.
///
/// So an order-sensitive reduction — a float sum that must equal the
/// serial left fold — streams with the scan and holds only the results of
/// chunks that finished ahead of an earlier one, never one per chunk.
/// `reduce` runs on one thread at a time. Each chunk's [`Tally`] (its
/// work and I/O counts) merges into `recorder`. A chunk read error is
/// reported from the lowest failing chunk.
pub fn par_scan_in_order<S, T, R, F, G>(
    source: &S,
    threads: NonZeroUsize,
    recorder: &Recorder,
    per_chunk: F,
    reduced: R,
    reduce: G,
) -> Result<R>
where
    S: PointSource + ?Sized,
    T: Send,
    R: Send,
    F: Fn(Range<usize>, &PointBlock, &mut Tally) -> T + Sync,
    G: Fn(&mut R, T) + Sync,
{
    let state = Mutex::new((InOrder::default(), reduced, Tally::default()));
    fold_chunks(
        source,
        threads,
        CHUNK_POINTS,
        || (),
        |_, c, range, block, mut tally| {
            let value = per_chunk(range, block, &mut tally);
            let mut state = state.lock().expect("no poisoned reduction");
            let (order, reduced, total) = &mut *state;
            total.merge(&tally);
            order.offer(c, value, |v| reduce(reduced, v));
        },
    )?;
    let (_, reduced, total) = state.into_inner().expect("workers joined");
    recorder.merge(&total);
    Ok(reduced)
}

/// Runs `task(c)` for every `c` in `0..count` on up to `threads` workers
/// and hands each result to `sink` in index order, as soon as every lower
/// index's result has been handed over — so only results that finished
/// early wait in memory. `sink` runs on one thread at a time. Its first
/// error stops the run and is returned; no later result reaches it.
pub fn par_ordered<T, E, F, G>(
    count: usize,
    threads: NonZeroUsize,
    task: F,
    sink: G,
) -> std::result::Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(T) -> std::result::Result<(), E> + Send,
{
    let workers = threads.get().min(count);
    if workers <= 1 {
        return (0..count).map(task).try_for_each(sink);
    }
    let cursor = AtomicUsize::new(0);
    // Only tells workers to stop claiming; the error itself sits in the
    // mutex, so `Relaxed`.
    let failed = AtomicBool::new(false);
    let state = Mutex::new((InOrder::default(), sink, None));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= count || failed.load(Ordering::Relaxed) {
                    return;
                }
                let value = task(c);
                let mut state = state.lock().expect("no poisoned sink");
                let (order, sink, first_error) = &mut *state;
                order.offer(c, value, |v| {
                    if first_error.is_none() {
                        if let Err(e) = sink(v) {
                            *first_error = Some(e);
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                });
            });
        }
    });
    match state.into_inner().expect("workers joined").2 {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Work units that finish out of order, released in index order: `offer`
/// holds a unit's value until every lower unit has been released, then
/// hands each value that is ready to `release`.
struct InOrder<T> {
    next: usize,
    pending: BTreeMap<usize, T>,
}

impl<T> Default for InOrder<T> {
    fn default() -> Self {
        InOrder {
            next: 0,
            pending: BTreeMap::new(),
        }
    }
}

impl<T> InOrder<T> {
    fn offer(&mut self, unit: usize, value: T, mut release: impl FnMut(T)) {
        self.pending.insert(unit, value);
        while let Some(value) = self.pending.remove(&self.next) {
            release(value);
            self.next += 1;
        }
    }
}

/// [`par_scan`] with an explicit chunk size (kept non-public: a caller-chosen
/// chunk size would let two call sites disagree on the chunk grid; tests use
/// it to exercise multi-chunk merging on small data). Returns per-chunk
/// results paired with per-chunk tallies, both in chunk order; chunk-read
/// backings record their I/O counts into the chunk's tally, so even storage
/// counters are identical at every thread count.
fn scan_chunks<S, T, F>(
    source: &S,
    threads: NonZeroUsize,
    chunk_points: usize,
    per_chunk: F,
) -> Result<Vec<(T, Tally)>>
where
    S: PointSource + ?Sized,
    T: Send,
    F: Fn(Range<usize>, &PointBlock, &mut Tally) -> T + Sync,
{
    // One collector, sized in the calling thread. Per-worker result vectors
    // grown inside the workers measured ~0.3 MB more peak RSS on a
    // 10k-point, two-thread `dbs outliers` run.
    let chunks = source.len().div_ceil(chunk_points.max(1));
    let slots = Mutex::new(Vec::with_capacity(chunks));
    fold_chunks(
        source,
        threads,
        chunk_points,
        || (),
        |_, c, range, block, mut tally| {
            let out = per_chunk(range, block, &mut tally);
            slots
                .lock()
                .expect("no poisoned chunk collector")
                .push((c, out, tally));
        },
    )?;
    let mut slots = slots.into_inner().expect("workers joined");
    slots.sort_unstable_by_key(|&(c, _, _)| c);
    Ok(slots
        .into_iter()
        .map(|(_, out, tally)| (out, tally))
        .collect())
}

/// The one worker loop behind [`par_fold`] and [`scan_chunks`]: `fold`
/// receives the worker's accumulator, the chunk index and range, the
/// chunk's points and the tally its read recorded into.
fn fold_chunks<S, A, I, F>(
    source: &S,
    threads: NonZeroUsize,
    chunk_points: usize,
    init: I,
    fold: F,
) -> Result<Vec<A>>
where
    S: PointSource + ?Sized,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, Range<usize>, &PointBlock, Tally) + Sync,
{
    let (n, dim, borrowed) = (source.len(), source.dim(), source.as_dataset());
    if n == 0 {
        return Ok(Vec::new());
    }
    let chunk_points = chunk_points.max(1);
    let chunks = n.div_ceil(chunk_points);
    let cursor = AtomicUsize::new(0);

    // One worker: claims chunks until none is left, reading each into its
    // reusable buffer (untouched by the borrowed backing). It stops at its
    // first read error; every chunk below that one was claimed earlier, so
    // the lowest failure over all workers is the lowest failing chunk.
    let work = || -> (A, Option<(usize, Error)>) {
        let mut acc = init();
        let mut buf = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                return (acc, None);
            }
            let range = c * chunk_points..((c + 1) * chunk_points).min(n);
            let mut tally = Tally::default();
            let block = match borrowed {
                Some(ds) => PointBlock::from_dataset(ds, range.clone()),
                None => {
                    if let Err(e) = source.read_points_into(range.clone(), &mut buf, &mut tally) {
                        return (acc, Some((c, e)));
                    }
                    debug_assert_eq!(buf.len(), range.len() * dim);
                    PointBlock::from_flat(range.start, dim, &buf)
                }
            };
            fold(&mut acc, c, range, &block, tally);
        }
    };

    let workers = threads.get().min(chunks);
    let done = if workers == 1 {
        // In-thread fast path; the same loop the threaded path runs.
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    let mut accs = Vec::with_capacity(done.len());
    let mut first_failure: Option<(usize, Error)> = None;
    for (acc, failed) in done {
        accs.push(acc);
        if let Some((c, e)) = failed {
            if first_failure.as_ref().is_none_or(|&(lowest, _)| c < lowest) {
                first_failure = Some((c, e));
            }
        }
    }
    match first_failure {
        Some((_, e)) => Err(e),
        None => Ok(accs),
    }
}

/// The tight axis-aligned bounding box of `source`, or `None` when it is
/// empty — one chunked parallel pass. A point with a NaN or infinite
/// coordinate has no place in a box: the first one (in point order) is
/// reported as [`Error::NonFinite`].
///
/// Per-chunk min/max folds are merged in chunk order; min/max is exactly
/// associative, so the result is bit-identical to the sequential fold of
/// [`crate::Dataset::bounding_box`] at every thread count and for every backing.
pub fn par_bounding_box<S>(source: &S, threads: NonZeroUsize) -> Result<Option<BoundingBox>>
where
    S: PointSource + ?Sized,
{
    let per_chunk = par_scan(source, threads, |range, block| {
        let first_bad = range
            .clone()
            .find(|&i| !block.point(i).iter().all(|v| v.is_finite()));
        let mut min = block.point(range.start).to_vec();
        let mut max = min.clone();
        for i in range.start + 1..range.end {
            let p = block.point(i);
            for j in 0..p.len() {
                if p[j] < min[j] {
                    min[j] = p[j];
                }
                if p[j] > max[j] {
                    max[j] = p[j];
                }
            }
        }
        (min, max, first_bad)
    })?;
    // Chunks come back in point order, so the first bad chunk holds the
    // first bad point.
    if let Some(index) = per_chunk.iter().find_map(|c| c.2) {
        return Err(Error::NonFinite { index });
    }
    Ok(per_chunk
        .into_iter()
        .map(|(min, max, _)| (min, max))
        .reduce(|(mut min, mut max), (lo, hi)| {
            for j in 0..min.len() {
                if lo[j] < min[j] {
                    min[j] = lo[j];
                }
                if hi[j] > max[j] {
                    max[j] = hi[j];
                }
            }
            (min, max)
        })
        .map(|(min, max)| BoundingBox::new(min, max)))
}

/// Runs `task(index)` for every index in `0..count` and returns the results
/// in index order — for few, coarse, possibly unequal tasks (e.g. one
/// CURE partition each). Workers claim one index at a time from a shared
/// cursor.
pub fn par_tasks<T, F>(count: usize, threads: NonZeroUsize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.get().min(count);
    if workers <= 1 {
        return (0..count).map(&task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                let out = task(i);
                slots
                    .lock()
                    .expect("no poisoned task collector")
                    .push((i, out));
            });
        }
    });
    let mut slots = slots.into_inner().expect("workers joined");
    slots.sort_unstable_by_key(|&(i, _)| i);
    slots.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::io::{write_binary, FileSource};
    use crate::scan::PassCounter;

    fn numbered(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, -(i as f64)]).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    fn t(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    /// `data` written as a `DBS1` file, opened as a chunk-read source.
    fn dbs1(name: &str, data: &Dataset) -> (FileSource, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!("dbs_core_par_{}_{name}.dbs1", std::process::id()));
        write_binary(&path, data).unwrap();
        (FileSource::open(&path).unwrap(), path)
    }

    /// Every point of `source` with its index, as one executor pass sees
    /// them, coordinates as bits.
    fn points<S: PointSource + ?Sized>(source: &S, threads: usize) -> Vec<(usize, Vec<u64>)> {
        let per_chunk = par_scan(source, t(threads), |range, block| {
            range
                .map(|i| (i, block.point(i).iter().map(|x| x.to_bits()).collect()))
                .collect::<Vec<_>>()
        });
        per_chunk.unwrap().into_iter().flatten().collect()
    }

    #[test]
    fn multi_chunk_merge_preserves_index_order() {
        // Chunks smaller than the dataset so the merge path is exercised.
        let ds = numbered(1000);
        for threads in [1, 3, 8] {
            let nested =
                scan_chunks(&ds, t(threads), 64, |range, _, _| range.collect::<Vec<_>>()).unwrap();
            let flat: Vec<usize> = nested.into_iter().flat_map(|(v, _)| v).collect();
            assert_eq!(flat, (0..1000).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn counted_sources_pay_exactly_one_pass() {
        let ds = numbered(10_000);
        let (file, path) = dbs1("counted", &ds);
        for (name, source) in [("memory", &ds as &dyn PointSource), ("file", &file)] {
            for threads in [1, 2, 7] {
                let counted = PassCounter::new(source);
                let sizes = par_scan(&counted, t(threads), |range, _| range.len()).unwrap();
                assert_eq!(sizes.iter().sum::<usize>(), 10_000);
                assert_eq!(counted.passes(), 1, "{name}, threads = {threads}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tallied_scan_counts_deterministically() {
        use crate::obs::{Counter, Recorder};
        let ds = numbered(10_000);
        let mut expected: Option<(Vec<usize>, u64)> = None;
        for threads in [1, 2, 7] {
            let rec = Recorder::enabled();
            let per_chunk = par_scan_tallied(&ds, t(threads), &rec, |range, _, tally| {
                tally.add(Counter::VerifyDistanceEvals, range.len() as u64);
                range.len()
            })
            .unwrap();
            let total = rec.counter(Counter::VerifyDistanceEvals);
            assert_eq!(total, 10_000);
            match &expected {
                None => expected = Some((per_chunk, total)),
                Some((chunks, count)) => {
                    assert_eq!(&per_chunk, chunks, "threads = {threads}");
                    assert_eq!(total, *count, "threads = {threads}");
                }
            }
        }
        // A disabled recorder changes nothing about the results.
        let rec = Recorder::disabled();
        let per_chunk = par_scan_tallied(&ds, t(4), &rec, |range, _, tally| {
            tally.add(Counter::VerifyDistanceEvals, range.len() as u64);
            range.len()
        })
        .unwrap();
        assert_eq!(per_chunk, expected.unwrap().0);
        assert_eq!(rec.counter(Counter::VerifyDistanceEvals), 0);
    }

    #[test]
    fn empty_source_yields_empty() {
        let ds = Dataset::new(3);
        assert!(points(&ds, 4).is_empty());
        assert!(points(&PassCounter::new(&ds), 2).is_empty());
    }

    #[test]
    fn chunk_read_backing_matches_borrowed() {
        // A pass counter hides `as_dataset`, so over memory it takes the
        // same chunk-read path as a file.
        let ds = numbered(10_000);
        let (file, path) = dbs1("chunk_read", &ds);
        let want = points(&ds, 1);
        assert_eq!(want.len(), 10_000);
        for threads in [1, 2, 7] {
            let counted_mem = points(&PassCounter::new(&ds), threads);
            assert_eq!(counted_mem, want, "counted memory, threads = {threads}");
            assert_eq!(points(&file, threads), want, "file, threads = {threads}");
            let counted_file = points(&PassCounter::new(&file), threads);
            assert_eq!(counted_file, want, "counted file, threads = {threads}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn par_bounding_box_matches_sequential() {
        let ds = numbered(9_000);
        let want = ds.bounding_box().unwrap();
        for threads in [1, 2, 7] {
            let bb = par_bounding_box(&ds, t(threads)).unwrap().unwrap();
            assert_eq!(bb.min(), want.min(), "threads = {threads}");
            assert_eq!(bb.max(), want.max(), "threads = {threads}");
            let bb = par_bounding_box(&PassCounter::new(&ds), t(threads))
                .unwrap()
                .unwrap();
            assert_eq!(bb.min(), want.min());
            assert_eq!(bb.max(), want.max());
        }
        assert!(par_bounding_box(&Dataset::new(2), t(2)).unwrap().is_none());
    }

    /// Points seen, the sum of their first coordinates, the largest index
    /// and the set of chunk starts: every merge is exact and order-free.
    type Fold = (u64, u64, usize, Vec<usize>);

    fn fold_chunk(acc: &mut Fold, range: Range<usize>, block: &PointBlock) {
        acc.3.push(range.start);
        for i in range {
            acc.0 += 1;
            acc.1 += block.point(i)[0] as u64;
            acc.2 = acc.2.max(i);
        }
    }

    fn merged<S: PointSource + ?Sized>(source: &S, threads: usize) -> Result<Fold> {
        let accs = par_fold(source, t(threads), Fold::default, fold_chunk)?;
        assert!(!accs.is_empty() && accs.len() <= threads);
        Ok(accs.into_iter().fold(Fold::default(), |mut a, b| {
            a.0 += b.0;
            a.1 += b.1;
            a.2 = a.2.max(b.2);
            a.3.extend(b.3);
            a.3.sort_unstable();
            a
        }))
    }

    #[test]
    fn par_fold_merges_to_the_serial_fold() {
        let n = 7 * CHUNK_POINTS + 123;
        let ds = numbered(n);
        let (file, path) = dbs1("fold", &ds);
        let mut serial = Fold::default();
        fold_chunk(&mut serial, 0..n, &PointBlock::from_dataset(&ds, 0..n));
        serial.3 = (0..n).step_by(CHUNK_POINTS).collect();
        for threads in [1, 2, 7] {
            let sources: [(&str, &dyn PointSource); 3] = [
                ("borrowed", &ds),
                ("counted memory", &PassCounter::new(&ds)),
                ("file", &file),
            ];
            for (name, source) in sources {
                let got = merged(source, threads).unwrap();
                assert_eq!(got, serial, "{name}, threads = {threads}");
            }
        }
        std::fs::remove_file(&path).ok();
        assert!(par_fold(&Dataset::new(2), t(3), Fold::default, fold_chunk)
            .unwrap()
            .is_empty());
    }

    /// A memory source whose reads of the listed chunks fail, naming the
    /// chunk.
    struct Failing {
        data: Dataset,
        bad_chunks: Vec<usize>,
    }

    impl PointSource for Failing {
        fn dim(&self) -> usize {
            self.data.dim()
        }

        fn len(&self) -> usize {
            self.data.len()
        }

        fn read_points_into(
            &self,
            range: Range<usize>,
            buf: &mut Vec<f64>,
            tally: &mut Tally,
        ) -> Result<()> {
            let c = range.start / CHUNK_POINTS;
            if self.bad_chunks.contains(&c) {
                return Err(Error::InvalidParameter(format!("chunk {c} unreadable")));
            }
            self.data.read_points_into(range, buf, tally)
        }
    }

    #[test]
    fn par_fold_reports_the_lowest_failing_chunk() {
        let data = numbered(9 * CHUNK_POINTS);
        for (bad_chunks, lowest) in [(vec![8], 8), (vec![7, 1], 1), (vec![0, 5], 0)] {
            let source = Failing {
                data: data.clone(),
                bad_chunks,
            };
            for threads in [1, 2, 7] {
                let err = merged(&source, threads).unwrap_err();
                let want = format!("invalid parameter: chunk {lowest} unreadable");
                assert_eq!(err.to_string(), want, "threads = {threads}");
            }
        }
    }

    #[test]
    fn par_scan_in_order_streams_the_serial_fold() {
        use crate::obs::{Counter, Recorder};
        let n = 7 * CHUNK_POINTS + 123;
        let ds = numbered(n);
        let (file, path) = dbs1("in_order", &ds);
        // An order-sensitive float fold and the order the values arrive in.
        let want = (0..n).fold(-0.0f64, |sum, i| sum + i as f64 * 0.1);
        for threads in [1, 2, 7] {
            let sources: [(&str, &dyn PointSource); 3] = [
                ("borrowed", &ds),
                ("counted memory", &PassCounter::new(&ds)),
                ("file", &file),
            ];
            for (name, source) in sources {
                let rec = Recorder::enabled();
                let (order, sum) = par_scan_in_order(
                    source,
                    t(threads),
                    &rec,
                    |range, block, tally| {
                        tally.add(Counter::VerifyDistanceEvals, range.len() as u64);
                        range.map(|i| (i, block.point(i)[0])).collect::<Vec<_>>()
                    },
                    (Vec::new(), -0.0f64),
                    |(order, sum), chunk| {
                        for (i, x) in chunk {
                            order.push(i);
                            *sum += x * 0.1;
                        }
                    },
                )
                .unwrap();
                assert!(
                    order.iter().copied().eq(0..n),
                    "{name}, threads = {threads}"
                );
                assert_eq!(sum.to_bits(), want.to_bits(), "{name}, threads = {threads}");
                assert_eq!(rec.counter(Counter::VerifyDistanceEvals), n as u64);
            }
        }
        std::fs::remove_file(&path).ok();
        let failing = Failing {
            data: ds,
            bad_chunks: vec![3, 5],
        };
        let err = par_scan_in_order(
            &failing,
            t(2),
            &Recorder::disabled(),
            |_, _, _| (),
            (),
            |_, _| (),
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "invalid parameter: chunk 3 unreadable");
    }

    #[test]
    fn par_ordered_hands_results_over_in_index_order() {
        for count in [0, 1, 5, 100] {
            for threads in [1, 2, 7] {
                let mut seen = Vec::new();
                let sink = |x: usize| -> std::result::Result<(), String> {
                    seen.push(x);
                    Ok(())
                };
                par_ordered(count, t(threads), |c| c * 3, sink).unwrap();
                let want: Vec<usize> = (0..count).map(|c| c * 3).collect();
                assert_eq!(seen, want, "count = {count}, threads = {threads}");
            }
        }
        // The sink's first error stops the run; nothing after it is handed over.
        for threads in [1, 2, 7] {
            let mut seen = Vec::new();
            let sink = |x: usize| {
                if x == 40 {
                    return Err(format!("refused {x}"));
                }
                seen.push(x);
                Ok(())
            };
            let err = par_ordered(100, t(threads), |c| c, sink).unwrap_err();
            assert_eq!(err, "refused 40");
            assert!(seen.iter().copied().eq(0..40), "threads = {threads}");
        }
    }

    #[test]
    fn par_tasks_matches_serial_loop() {
        let serial: Vec<usize> = (0..500).map(|i| i * i).collect();
        for threads in [1, 2, 7] {
            assert_eq!(par_tasks(500, t(threads), |i| i * i), serial);
        }
        assert!(par_tasks(0, t(2), |i| i).is_empty());
    }
}
