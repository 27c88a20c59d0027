//! On-disk shards: the out-of-core dataset engine.
//!
//! The paper's algorithms are few-pass by design — one scan to fit the
//! estimator, one or two to sample (§1, §2.2) — precisely so they apply to
//! datasets too large to hold exactly. This module supplies the storage
//! side of that bargain: a dataset is split into **shard files**, each a
//! fixed 4096-byte header followed by the points as row-major `f64`
//! little-endian values, byte for byte as a `DBS1` file stores them after
//! its header. A [`ShardedSource`] serves [`PointSource::read_points_into`]
//! from one file region per shard a range touches, so every parallel
//! algorithm in the workspace runs over it with peak memory bounded by
//! `workers x CHUNK_POINTS x dim` — independent of the dataset size.
//!
//! # Format
//!
//! Each shard file (`shard-NNNNN.dbss`, ordered by name) is:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "DBSSHRD1"
//! 8       4     format version (u32 LE, = 2)
//! 12      4     dim (u32 LE, >= 1)
//! 16      8     points in this shard (u64 LE)
//! 24      8     provenance seed (u64 LE; 0 for converted data)
//! 32      4     shard index (u32 LE, position in the directory order)
//! 36      4060  zero padding (header is exactly 4096 bytes)
//! 4096    ...   point data, row-major: point 0's dim values, then point 1's
//! ```
//!
//! Every shard except the last must hold a multiple of [`CHUNK_POINTS`]
//! points, so the executor's chunk grid never straddles a shard boundary
//! and each executor chunk is one read of one file. Version 1 stored each
//! chunk column-major; it is refused at open, and `dbs convert` rewrites
//! the source data as version 2.
//!
//! # Determinism contract
//!
//! Reading a shard directory reproduces the written coordinates exactly
//! (lossless `f64` round trip), and chunk reads hand the executor the same
//! blocks over the same chunk grid as the in-memory backing. A shard that
//! shrinks after opening fails the read with a typed I/O error. Hence every
//! pipeline output over a sharded dataset is **byte-identical** to the
//! in-memory run at every thread count (`tests/shard_parity.rs`).

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::error::{Error, Result};
use crate::io::{checked_size, read_f64s_at};
use crate::obs::{Counter, Tally};
use crate::par::CHUNK_POINTS;
use crate::scan::{out_of_bounds, PointSource};

/// Shard file magic (8 bytes).
const MAGIC: &[u8; 8] = b"DBSSHRD1";

/// Shard format version.
const VERSION: u32 = 2;

/// Fixed header size: one 4096-byte block, room for the fields above and
/// later ones without moving the point data.
pub const HEADER_BYTES: usize = 4096;

/// Shard file extension.
pub const SHARD_EXT: &str = "dbss";

/// Default points per shard file: 256 executor chunks (~8 MiB per
/// dimension).
pub const DEFAULT_SHARD_POINTS: usize = 256 * CHUNK_POINTS;

/// Whether `path` looks like a shard directory (a directory containing at
/// least one `.dbss` file). Used by the CLI's `--input dir/`
/// auto-detection.
pub fn is_shard_dir(path: &Path) -> bool {
    path.is_dir()
        && std::fs::read_dir(path).is_ok_and(|entries| {
            entries
                .flatten()
                .any(|e| e.path().extension().is_some_and(|x| x == SHARD_EXT))
        })
}

fn corrupt(path: &Path, what: &str) -> Error {
    Error::Parse {
        line: 0,
        message: format!("{}: {what}", path.display()),
    }
}

#[derive(Debug, Clone, Copy)]
struct ShardHeader {
    dim: u32,
    count: u64,
    seed: u64,
    index: u32,
}

fn encode_header(h: &ShardHeader) -> Vec<u8> {
    let mut buf = vec![0u8; HEADER_BYTES];
    buf[0..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
    buf[12..16].copy_from_slice(&h.dim.to_le_bytes());
    buf[16..24].copy_from_slice(&h.count.to_le_bytes());
    buf[24..32].copy_from_slice(&h.seed.to_le_bytes());
    buf[32..36].copy_from_slice(&h.index.to_le_bytes());
    buf
}

fn decode_header(path: &Path, buf: &[u8; 36]) -> Result<ShardHeader> {
    if &buf[0..8] != MAGIC {
        return Err(corrupt(path, "bad magic, not a DBSSHRD1 shard"));
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(corrupt(
            path,
            &format!(
                "shard format version {version}, but this build reads version {VERSION}; \
                 re-run `dbs convert` on the source data"
            ),
        ));
    }
    let dim = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
    if dim == 0 {
        return Err(corrupt(path, "header declares dim 0"));
    }
    Ok(ShardHeader {
        dim,
        count: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
        seed: u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes")),
        index: u32::from_le_bytes(buf[32..36].try_into().expect("4 bytes")),
    })
}

fn shard_path(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("shard-{index:05}.{SHARD_EXT}"))
}

/// Streaming shard-directory writer: push points in order, each row goes
/// straight to the current shard's buffered file, and shard files roll
/// over at the configured size. Memory use is one write buffer, regardless
/// of how many points flow through.
pub struct ShardWriter {
    dir: PathBuf,
    dim: usize,
    seed: u64,
    shard_points: usize,
    cur: Option<CurrentShard>,
    next_index: u32,
    total: u64,
}

struct CurrentShard {
    file: BufWriter<File>,
    count: usize,
}

impl ShardWriter {
    /// Creates a writer targeting `dir` (created if missing). `seed` is
    /// provenance recorded in every header (use 0 for converted external
    /// data). `shard_points` ([`DEFAULT_SHARD_POINTS`] unless a caller
    /// needs small shards) must be a positive multiple of [`CHUNK_POINTS`]
    /// so the chunk grid never straddles shard boundaries.
    pub fn create(dir: &Path, dim: usize, seed: u64, shard_points: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidParameter("shard dim must be >= 1".into()));
        }
        if shard_points == 0 || !shard_points.is_multiple_of(CHUNK_POINTS) {
            return Err(Error::InvalidParameter(format!(
                "shard size {shard_points} must be a positive multiple of {CHUNK_POINTS}"
            )));
        }
        std::fs::create_dir_all(dir)?;
        if is_shard_dir(dir) {
            return Err(Error::InvalidParameter(format!(
                "{} already contains shards; refusing to mix",
                dir.display()
            )));
        }
        Ok(ShardWriter {
            dir: dir.to_path_buf(),
            dim,
            seed,
            shard_points,
            cur: None,
            next_index: 0,
            total: 0,
        })
    }

    /// Appends one point, opening a new shard file when none is open and
    /// closing it when full. Errors on dimension mismatch.
    pub fn push(&mut self, point: &[f64]) -> Result<()> {
        if point.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        let cur = match &mut self.cur {
            Some(cur) => cur,
            None => {
                let path = shard_path(&self.dir, self.next_index);
                let mut file = BufWriter::new(File::create(path)?);
                // Count is patched in when the shard closes.
                file.write_all(&encode_header(&ShardHeader {
                    dim: self.dim as u32,
                    count: 0,
                    seed: self.seed,
                    index: self.next_index,
                }))?;
                self.cur.insert(CurrentShard { file, count: 0 })
            }
        };
        for &x in point {
            cur.file.write_all(&x.to_le_bytes())?;
        }
        cur.count += 1;
        self.total += 1;
        if cur.count == self.shard_points {
            self.close_shard()?;
        }
        Ok(())
    }

    /// Patches the real point count into the current shard's header and
    /// closes it.
    fn close_shard(&mut self) -> Result<()> {
        let Some(cur) = self.cur.take() else {
            return Ok(());
        };
        let count = cur.count;
        let mut file = cur.file.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&(count as u64).to_le_bytes())?;
        self.next_index += 1;
        Ok(())
    }

    /// Closes the last shard and returns the total number of points
    /// written. Errors if no points were pushed (an empty shard directory
    /// is unreadable by construction).
    pub fn finish(mut self) -> Result<u64> {
        self.close_shard()?;
        if self.total == 0 {
            return Err(Error::InvalidParameter(
                "refusing to write an empty shard directory".into(),
            ));
        }
        Ok(self.total)
    }
}

/// Writes every point of `source` into `dir` as shards of `shard_points`
/// points (see [`ShardWriter::create`]) in one sequential pass, and returns
/// the point count.
pub fn write_shards_with<S: PointSource + ?Sized>(
    dir: &Path,
    source: &S,
    seed: u64,
    shard_points: usize,
) -> Result<u64> {
    let mut writer = ShardWriter::create(dir, source.dim(), seed, shard_points)?;
    let mut failed = None;
    source.scan(&mut |_, p| {
        if failed.is_none() {
            if let Err(e) = writer.push(p) {
                failed = Some(e);
            }
        }
    })?;
    if let Some(e) = failed {
        return Err(e);
    }
    writer.finish()
}

/// A shard directory exposed as a [`PointSource`]: scans, the parallel
/// executor and index fetches all read it chunk by chunk, so the whole
/// pipeline runs over it without ever materializing the data.
#[derive(Debug)]
pub struct ShardedSource {
    dim: usize,
    len: usize,
    seed: u64,
    /// Start point index of each shard, plus the total as a sentinel.
    starts: Vec<usize>,
    shards: Vec<File>,
}

impl ShardedSource {
    /// Opens `dir`, validating every shard header, the cross-shard
    /// dim/seed consistency, the chunk alignment of interior shards, and
    /// each file's exact size.
    pub fn open(dir: &Path) -> Result<Self> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == SHARD_EXT))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "{} contains no .{SHARD_EXT} shards",
                dir.display()
            )));
        }
        let mut dim = 0u32;
        let mut seed = 0u64;
        let mut starts = vec![0usize];
        let mut shards = Vec::with_capacity(paths.len());
        let last = paths.len() - 1;
        for (pos, path) in paths.iter().enumerate() {
            let mut file = File::open(path)?;
            let mut head = [0u8; 36];
            file.read_exact(&mut head)
                .map_err(|_| corrupt(path, "file shorter than the shard header"))?;
            let h = decode_header(path, &head)?;
            if pos == 0 {
                dim = h.dim;
                seed = h.seed;
            } else if h.dim != dim {
                return Err(corrupt(
                    path,
                    &format!("shard dim {} != directory dim {dim}", h.dim),
                ));
            } else if h.seed != seed {
                return Err(corrupt(path, "shard seed differs from directory seed"));
            }
            if h.index as usize != pos {
                return Err(corrupt(
                    path,
                    &format!("shard index {} at directory position {pos}", h.index),
                ));
            }
            if h.count == 0 {
                return Err(corrupt(path, "shard holds no points"));
            }
            if pos != last && !h.count.is_multiple_of(CHUNK_POINTS as u64) {
                return Err(corrupt(
                    path,
                    &format!(
                        "interior shard holds {} points, not a multiple of {CHUNK_POINTS}",
                        h.count
                    ),
                ));
            }
            let actual = file.metadata()?.len();
            checked_size("shard", HEADER_BYTES as u64, h.dim, h.count, actual)
                .map_err(|message| corrupt(path, &message))?;
            // The size check bounds `count` by the file's length.
            starts.push(starts.last().expect("non-empty") + h.count as usize);
            shards.push(file);
        }
        Ok(ShardedSource {
            dim: dim as usize,
            len: *starts.last().expect("non-empty"),
            seed,
            starts,
            shards,
        })
    }

    /// The provenance seed recorded when the shards were written.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shard files.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl PointSource for ShardedSource {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.len
    }

    fn read_points_into(
        &self,
        range: Range<usize>,
        buf: &mut Vec<f64>,
        tally: &mut Tally,
    ) -> Result<()> {
        if range.end > self.len {
            return Err(out_of_bounds(&range, self.len));
        }
        let dim = self.dim;
        buf.clear();
        buf.resize(range.len() * dim, 0.0);
        if range.is_empty() {
            return Ok(());
        }
        // First shard overlapping the range: starts[s] <= range.start.
        let mut s = self.starts.partition_point(|&st| st <= range.start) - 1;
        let mut pos = range.start;
        while pos < range.end {
            let shard_start = self.starts[s];
            // Shard-local points `a..b`, one file region.
            let a = pos - shard_start;
            let b = range.end.min(self.starts[s + 1]) - shard_start;
            let dest_off = (pos - range.start) * dim;
            let dest = &mut buf[dest_off..dest_off + (b - a) * dim];
            read_f64s_at(&self.shards[s], dest, (HEADER_BYTES + a * dim * 8) as u64)?;
            // `ShardChunkReads` counts the grid chunks the region spans.
            let chunks = (b - 1) / CHUNK_POINTS - a / CHUNK_POINTS + 1;
            tally.add(Counter::ShardChunkReads, chunks as u64);
            tally.add(Counter::ShardBytesMapped, ((b - a) * dim * 8) as u64);
            pos = shard_start + b;
            s += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::obs::Recorder;
    use crate::par;
    use std::num::NonZeroUsize;

    fn numbered(n: usize, dim: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|j| (i * dim + j) as f64 * 0.5 - 3.0).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbs_core_shard_{}_{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn t(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn round_trips_across_backends_and_shard_sizes() {
        let ds = numbered(3 * CHUNK_POINTS + 17, 3);
        for (name, shard_points) in [
            ("single", 16 * CHUNK_POINTS),
            ("multi", CHUNK_POINTS),
            ("two", 2 * CHUNK_POINTS),
        ] {
            let dir = tmp(&format!("rt_{name}"));
            let total = write_shards_with(&dir, &ds, 42, shard_points).unwrap();
            assert_eq!(total as usize, ds.len());
            let src = ShardedSource::open(&dir).unwrap();
            assert_eq!(src.dim, 3);
            assert_eq!(PointSource::len(&src), ds.len());
            assert_eq!(src.seed(), 42);
            let back = src.collect_dataset().unwrap();
            assert_eq!(back, ds, "{name}");
            if shard_points == CHUNK_POINTS {
                assert_eq!(src.shard_count(), 4);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn chunk_reads_match_scan_and_count_io() {
        let ds = numbered(2 * CHUNK_POINTS + 100, 2);
        let dir = tmp("chunks");
        write_shards_with(&dir, &ds, 7, CHUNK_POINTS).unwrap();
        let src = ShardedSource::open(&dir).unwrap();
        let mut buf = Vec::new();
        let mut tally = Tally::default();
        // A range spanning a shard boundary.
        let range = CHUNK_POINTS - 5..CHUNK_POINTS + 5;
        src.read_points_into(range.clone(), &mut buf, &mut tally)
            .unwrap();
        for (k, i) in range.clone().enumerate() {
            assert_eq!(&buf[k * 2..k * 2 + 2], ds.point(i), "point {i}");
        }
        assert_eq!(tally.get(Counter::ShardChunkReads), 2);
        assert_eq!(
            tally.get(Counter::ShardBytesMapped),
            (range.len() * 2 * 8) as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn executor_output_is_identical_over_shards() {
        let ds = numbered(CHUNK_POINTS * 2 + 333, 2);
        let dir = tmp("exec");
        write_shards_with(&dir, &ds, 1, CHUNK_POINTS).unwrap();
        let src = ShardedSource::open(&dir).unwrap();
        let points = |source: &dyn PointSource, threads| {
            let per_chunk = par::par_scan(source, t(threads), |range, block| {
                range
                    .map(|i| (i, block.point(i)[0].to_bits()))
                    .collect::<Vec<_>>()
            });
            per_chunk.unwrap().concat()
        };
        let want = points(&ds, 1);
        for threads in [1, 2, 7] {
            assert_eq!(points(&src, threads), want, "threads = {threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn select_fetches_original_points() {
        let ds = numbered(CHUNK_POINTS + 50, 2);
        let dir = tmp("select");
        write_shards_with(&dir, &ds, 1, CHUNK_POINTS).unwrap();
        let src = ShardedSource::open(&dir).unwrap();
        let indices = [0usize, 3, CHUNK_POINTS - 1, CHUNK_POINTS, CHUNK_POINTS + 49];
        let rec = Recorder::enabled();
        let got = src.select(&indices, &rec).unwrap();
        assert_eq!(got, ds.select(&indices));
        assert!(rec.counter(Counter::ShardChunkReads) >= 2);
        assert!(src.select(&[ds.len()], &rec).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collect_honors_the_materialization_cap() {
        let ds = numbered(CHUNK_POINTS, 2);
        let dir = tmp("cap");
        write_shards_with(&dir, &ds, 0, DEFAULT_SHARD_POINTS).unwrap();
        let src = ShardedSource::open(&dir).unwrap();
        let err = src.collect_dataset_capped(1024).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_corruption() {
        let ds = numbered(CHUNK_POINTS + 10, 2);
        let dir = tmp("corrupt");
        write_shards_with(&dir, &ds, 0, CHUNK_POINTS).unwrap();

        // Bad magic.
        let shard0 = shard_path(&dir, 0);
        let original = std::fs::read(&shard0).unwrap();
        let mut bad = original.clone();
        bad[0..8].copy_from_slice(b"NOTSHARD");
        std::fs::write(&shard0, &bad).unwrap();
        assert!(matches!(
            ShardedSource::open(&dir),
            Err(Error::Parse { .. })
        ));

        // Truncated data region.
        std::fs::write(&shard0, &original[..original.len() - 9]).unwrap();
        let err = ShardedSource::open(&dir).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // Dim mismatch across shards.
        std::fs::write(&shard0, &original).unwrap();
        let shard1 = shard_path(&dir, 1);
        let mut other = std::fs::read(&shard1).unwrap();
        other[12..16].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&shard1, &other).unwrap();
        let err = ShardedSource::open(&dir).unwrap_err();
        assert!(err.to_string().contains("dim"), "{err}");
        std::fs::remove_dir_all(&dir).ok();

        // A last shard whose dim 1 x count x 8 wraps to exactly its file
        // size: 2^61 + 5000 points over 5000 points' bytes.
        let dir = tmp("overflow");
        write_shards_with(&dir, &numbered(5000, 1), 0, DEFAULT_SHARD_POINTS).unwrap();
        let shard0 = shard_path(&dir, 0);
        let mut lying = std::fs::read(&shard0).unwrap();
        assert_eq!(lying.len(), 44_096);
        lying[16..24].copy_from_slice(&((1u64 << 61) + 5000).to_le_bytes());
        std::fs::write(&shard0, &lying).unwrap();
        match ShardedSource::open(&dir) {
            Err(Error::Parse { message, .. }) => {
                assert!(message.contains("overflows"), "{message}")
            }
            other => panic!("expected a Parse error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rows_are_stored_as_dbs1_stores_them() {
        let ds = numbered(2 * CHUNK_POINTS + 17, 3);
        let dir = tmp("dbs1_bytes");
        write_shards_with(&dir, &ds, 5, DEFAULT_SHARD_POINTS).unwrap();
        let file = dir.join("rows.dbs1");
        crate::io::write_binary(&file, &ds).unwrap();
        let shard = std::fs::read(shard_path(&dir, 0)).unwrap();
        let dbs1 = std::fs::read(&file).unwrap();
        assert!(shard[HEADER_BYTES..] == dbs1[16..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_directories_are_refused() {
        let dir = tmp("v1");
        write_shards_with(&dir, &numbered(10, 2), 0, DEFAULT_SHARD_POINTS).unwrap();
        let shard0 = shard_path(&dir, 0);
        let mut v1 = std::fs::read(&shard0).unwrap();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&shard0, &v1).unwrap();
        match ShardedSource::open(&dir) {
            Err(Error::Parse { message, .. }) => {
                assert!(message.contains("version 1"), "{message}");
                assert!(message.contains("dbs convert"), "{message}");
            }
            other => panic!("expected a Parse error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_shrunk_after_open_fails_the_read() {
        let ds = numbered(CHUNK_POINTS + 10, 2);
        let dir = tmp("shrink");
        write_shards_with(&dir, &ds, 0, DEFAULT_SHARD_POINTS).unwrap();
        let src = ShardedSource::open(&dir).unwrap();
        File::options()
            .write(true)
            .open(shard_path(&dir, 0))
            .unwrap()
            .set_len(HEADER_BYTES as u64)
            .unwrap();
        let mut buf = Vec::new();
        let err = src
            .read_points_into(0..CHUNK_POINTS, &mut buf, &mut Tally::default())
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_misuse() {
        let dir = tmp("misuse");
        assert!(ShardWriter::create(&dir, 2, 0, CHUNK_POINTS + 1).is_err());
        assert!(ShardWriter::create(&dir, 0, 0, CHUNK_POINTS).is_err());
        let mut w = ShardWriter::create(&dir, 2, 0, DEFAULT_SHARD_POINTS).unwrap();
        assert!(w.push(&[1.0]).is_err());
        drop(w);
        let empty = ShardWriter::create(&dir, 2, 0, DEFAULT_SHARD_POINTS).unwrap();
        assert!(empty.finish().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_dir_detection() {
        let dir = tmp("detect");
        assert!(!is_shard_dir(&dir));
        write_shards_with(&dir, &numbered(10, 2), 0, DEFAULT_SHARD_POINTS).unwrap();
        assert!(is_shard_dir(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
}
