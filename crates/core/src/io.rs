//! Dataset file I/O.
//!
//! Two formats are supported:
//!
//! * a whitespace/comma-separated text format (one point per line, `#`
//!   comments), convenient for importing external data;
//! * a little-endian binary format (`DBS1` magic, `u32` dim, `u64` count,
//!   then `f64` coordinates, row-major). [`FileSource`] serves it by
//!   positional chunk reads, so a file far larger than memory runs through
//!   every pass of every algorithm out-of-core — this is what makes the
//!   paper's "one/two dataset passes" claims meaningful for large data.
//!
//! A shard of [`crate::shard`] stores its rows byte for byte as a `DBS1`
//! file does after its header, so `read_f64s_at` is the one reader of
//! both formats, and `checked_size` their one header size check.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::obs::Tally;
use crate::scan::{out_of_bounds, PointSource};

const MAGIC: &[u8; 4] = b"DBS1";

/// Magic + `u32` dim + `u64` count.
const HEADER_BYTES: u64 = 16;

/// Rows per formatting block of [`write_rows`]: small, so that a sample of
/// a few thousand rows still splits evenly over the workers and the blocks
/// waiting for their turn to be written hold little memory.
const TEXT_BLOCK_ROWS: usize = 1024;

/// Writes `data` in the text format: one point per line, values separated by
/// a single space. [`write_rows`] on one thread.
pub fn write_text(path: &Path, data: &Dataset) -> Result<()> {
    write_rows(path, data.as_flat(), data.dim(), crate::par::serial())
}

/// Writes `values` in the text format, `width` values per line, separated
/// by a single space (`width = 1` writes one value per line). Blocks of
/// 1024 lines are formatted on up to `threads` workers and written in
/// order, so the file's bytes are the same at every thread count. Errors
/// if `width` is 0 or does not divide `values.len()`.
pub fn write_rows(path: &Path, values: &[f64], width: usize, threads: NonZeroUsize) -> Result<()> {
    if width == 0 || !values.len().is_multiple_of(width) {
        return Err(Error::InvalidParameter(format!(
            "{} values do not form rows of width {width}",
            values.len()
        )));
    }
    let mut file = File::create(path)?;
    let block = TEXT_BLOCK_ROWS * width;
    let format_block = |c: usize| {
        let mut text = String::new();
        for row in values[c * block..((c + 1) * block).min(values.len())].chunks_exact(width) {
            for (j, x) in row.iter().enumerate() {
                if j > 0 {
                    text.push(' ');
                }
                write!(text, "{x}").expect("formatting into a String cannot fail");
            }
            text.push('\n');
        }
        text
    };
    let blocks = values.len().div_ceil(block);
    crate::par::par_ordered(blocks, threads, format_block, |text| {
        file.write_all(text.as_bytes())
    })?;
    Ok(())
}

/// Reads the text format. Lines may separate values with spaces, tabs, or
/// commas; empty lines and lines starting with `#` are skipped. All rows
/// must have the same number of values, and every value must be finite
/// (`nan` or `inf` fails with [`Error::NonFinite`] naming the 0-based
/// point, comments and blank lines not counted).
pub fn read_text(path: &Path) -> Result<Dataset> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut ds: Option<Dataset> = None;
    let mut row: Vec<f64> = Vec::new();
    // One line buffer for the whole pass: `lines()` would allocate a fresh
    // `String` per line, which dominates parsing on large files.
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        row.clear();
        for tok in trimmed.split(|c: char| c.is_whitespace() || c == ',') {
            if tok.is_empty() {
                continue;
            }
            let v: f64 = tok.parse().map_err(|_| Error::Parse {
                line: lineno,
                message: format!("not a number: {tok:?}"),
            })?;
            if !v.is_finite() {
                let index = ds.as_ref().map_or(0, Dataset::len);
                return Err(Error::NonFinite { index });
            }
            row.push(v);
        }
        match &mut ds {
            None => {
                let mut d = Dataset::new(row.len());
                d.push(&row).expect("first row defines the dimension");
                ds = Some(d);
            }
            Some(d) => {
                d.push(&row).map_err(|_| Error::Parse {
                    line: lineno,
                    message: format!("row has {} values, expected {}", row.len(), d.dim()),
                })?;
            }
        }
    }
    ds.ok_or_else(|| Error::InvalidParameter("file contains no points".into()))
}

/// Writes `data` in the binary format.
pub fn write_binary(path: &Path, data: &Dataset) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(data.dim() as u32).to_le_bytes())?;
    w.write_all(&(data.len() as u64).to_le_bytes())?;
    for &x in data.as_flat() {
        w.write_all(&x.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads and validates the 16-byte header against the actual file size.
///
/// The header is untrusted input: a corrupt or hostile `(dim, len)` pair
/// can overflow `dim * len * 8` (wrapping in release) or demand a buffer
/// far past the bytes that exist, so [`checked_size`] checks it against
/// `actual_bytes` before any caller sizes an allocation from it.
fn read_header(r: &mut impl Read, actual_bytes: u64) -> Result<(usize, usize)> {
    let corrupt = |message: String| Error::Parse { line: 0, message };
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic, not a DBS1 file".into()));
    }
    let mut dim_buf = [0u8; 4];
    r.read_exact(&mut dim_buf)?;
    let mut len_buf = [0u8; 8];
    r.read_exact(&mut len_buf)?;
    let dim = u32::from_le_bytes(dim_buf);
    let len = u64::from_le_bytes(len_buf);
    if dim == 0 {
        return Err(corrupt("header declares dim 0".into()));
    }
    checked_size("file", HEADER_BYTES, dim, len, actual_bytes).map_err(corrupt)?;
    Ok((dim as usize, len as usize))
}

/// Checks that a `what` of `actual_bytes` holds exactly a `header_bytes`
/// header and `len` rows of `dim` `f64`s. The product is checked, so a
/// header whose `dim * len * 8` wraps fails as "overflows" rather than
/// passing a size check it should fail. Returns the error message.
pub(crate) fn checked_size(
    what: &str,
    header_bytes: u64,
    dim: u32,
    len: u64,
    actual_bytes: u64,
) -> std::result::Result<(), String> {
    let expect = u64::from(dim)
        .checked_mul(len)
        .and_then(|coords| coords.checked_mul(8))
        .and_then(|bytes| bytes.checked_add(header_bytes))
        .ok_or_else(|| format!("header declares {len} points of dim {dim}: byte size overflows"))?;
    if actual_bytes < expect {
        return Err(format!(
            "truncated {what}: {actual_bytes} bytes, header promises {expect}"
        ));
    }
    if actual_bytes > expect {
        return Err(format!(
            "oversized {what}: {actual_bytes} bytes, header promises {expect}"
        ));
    }
    Ok(())
}

/// A binary dataset file exposed as a [`PointSource`].
///
/// The file stays open, and rows are contiguous, so a chunk read fills
/// the caller's buffer from one file region (`read_f64s_at`): memory use
/// is one chunk per reader, whatever the file size. A file that shrinks
/// after open fails the first read past its new end.
pub struct FileSource {
    file: File,
    dim: usize,
    len: usize,
}

impl FileSource {
    /// Opens a binary dataset file, reading only its header (validated
    /// against the file's actual size).
    pub fn open(path: &Path) -> Result<Self> {
        let mut file = File::open(path)?;
        let actual = file.metadata()?.len();
        let (dim, len) = read_header(&mut file, actual)?;
        Ok(FileSource { file, dim, len })
    }
}

impl PointSource for FileSource {
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
        _tally: &mut Tally,
    ) -> Result<()> {
        if range.end > self.len {
            return Err(out_of_bounds(&range, self.len));
        }
        buf.clear();
        buf.resize(range.len() * self.dim, 0.0);
        let offset = HEADER_BYTES + (range.start * self.dim * 8) as u64;
        read_f64s_at(&self.file, buf, offset).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => Error::Parse {
                line: 0,
                message: format!("truncated file: points {range:?} lie past its end"),
            },
            _ => e.into(),
        })
    }
}

/// Bytes of [`read_f64s_at`]'s stack buffer. Kept small: a 64 KiB stack
/// buffer, or a chunk-sized buffer kept per thread, measured a higher peak
/// RSS on the 10k-point `outliers_kde_d3` benchmark workload.
const READ_BUF_BYTES: usize = 16 * 1024;

/// Fills `dest` with the little-endian `f64`s stored from `offset` of
/// `file` on, through a fixed [`READ_BUF_BYTES`] stack buffer. Both binary
/// formats (`DBS1` files and shard directories) store rows this way and
/// read them through here.
pub(crate) fn read_f64s_at(file: &File, dest: &mut [f64], offset: u64) -> std::io::Result<()> {
    let mut bytes = [0u8; READ_BUF_BYTES];
    let mut offset = offset;
    for block in dest.chunks_mut(READ_BUF_BYTES / 8) {
        let raw = &mut bytes[..block.len() * 8];
        read_exact_at(file, raw, offset)?;
        for (x, b) in block.iter_mut().zip(raw.chunks_exact(8)) {
            *x = f64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        offset += raw.len() as u64;
    }
    Ok(())
}

/// Fills `buf` from `file` at `offset` without moving a shared cursor, so
/// concurrent readers of one `File` never interfere.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    // No positional-read API: clone the handle so the shared cursor of
    // `file` itself is never moved concurrently.
    use std::io::{Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Dataset {
        Dataset::from_rows(&[vec![1.5, -2.0], vec![0.0, 3.25], vec![1e9, 1e-9]]).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbs_core_io_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn text_round_trip() {
        let path = tmp("text.txt");
        let ds = sample();
        write_text(&path, &ds).unwrap();
        let back = read_text(&path).unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(&path).ok();
    }

    /// The text the writer produced before it formatted on workers: one
    /// `write!` per value, straight into the file.
    fn serial_text(data: &Dataset) -> String {
        let mut text = String::new();
        for p in data.iter() {
            let mut first = true;
            for &x in p {
                if !first {
                    text.push(' ');
                }
                write!(text, "{x}").unwrap();
                first = false;
            }
            text.push('\n');
        }
        text
    }

    /// Values whose shortest representations differ in length and form.
    fn value(i: usize) -> f64 {
        match i % 5 {
            0 => i as f64 * 0.37 - 1e3,
            1 => 1.0 / (i as f64 + 3.0),
            2 => -(i as f64) * 1e-300,
            3 => (i as f64).powi(7),
            _ => i as f64,
        }
    }

    #[test]
    fn threaded_writer_is_byte_identical() {
        let path = tmp("threaded.txt");
        let b = TEXT_BLOCK_ROWS;
        for rows in [0, 1, b - 1, b, b + 1, 5 * b + 17] {
            for dim in [1, 3] {
                let flat: Vec<f64> = (0..rows * dim).map(value).collect();
                let data = Dataset::from_flat(dim, flat).unwrap();
                let want = serial_text(&data);
                for threads in [1, 2, 7] {
                    let threads = NonZeroUsize::new(threads).unwrap();
                    write_rows(&path, data.as_flat(), dim, threads).unwrap();
                    let got = std::fs::read_to_string(&path).unwrap();
                    assert!(
                        got == want,
                        "rows = {rows}, dim = {dim}, threads = {threads}"
                    );
                }
                write_text(&path, &data).unwrap();
                assert!(std::fs::read_to_string(&path).unwrap() == want);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weights_file_matches_one_format_per_weight() {
        let path = tmp("weights.txt");
        let weights: Vec<f64> = (1..3 * TEXT_BLOCK_ROWS + 5)
            .map(|i| 1.0 / value(i).abs().max(1e-3))
            .collect();
        let want: String = weights.iter().map(|w| format!("{w}\n")).collect();
        for threads in [1, 2, 7] {
            write_rows(&path, &weights, 1, NonZeroUsize::new(threads).unwrap()).unwrap();
            assert!(
                std::fs::read_to_string(&path).unwrap() == want,
                "threads = {threads}"
            );
        }
        let two = NonZeroUsize::new(2).unwrap();
        assert!(write_rows(&path, &weights[..3], 2, two).is_err());
        assert!(write_rows(&path, &weights, 0, two).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_skips_comments_and_parses_commas() {
        let path = tmp("comments.txt");
        std::fs::write(&path, "# header\n1,2\n\n3\t4\n").unwrap();
        let ds = read_text(&path).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(1), &[3.0, 4.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_rejects_ragged_rows() {
        let path = tmp("ragged.txt");
        std::fs::write(&path, "1 2\n3 4 5\n").unwrap();
        assert!(matches!(
            read_text(&path),
            Err(Error::Parse { line: 2, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_rejects_non_finite_values() {
        let path = tmp("nonfinite.txt");
        for (body, index) in [
            ("nan 1\n2 3\n", 0),
            ("# c\n1 2\n\n3 -inf\n", 1),
            ("1 2\n3 4\n# c\n5 6\ninf 7\n", 3),
        ] {
            std::fs::write(&path, body).unwrap();
            assert!(
                matches!(read_text(&path), Err(Error::NonFinite { index: i }) if i == index),
                "{body:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_round_trip() {
        let path = tmp("bin.dbs");
        let ds = sample();
        write_binary(&path, &ds).unwrap();
        let back = FileSource::open(&path).unwrap().collect_dataset().unwrap();
        assert_eq!(ds, back);
        std::fs::remove_file(&path).ok();
    }

    /// A raw DBS1 file with an arbitrary (possibly lying) header.
    fn write_raw(path: &Path, dim: u32, len: u64, coords: &[f64]) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&dim.to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        for &c in coords {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        std::fs::write(path, bytes).unwrap();
    }

    /// Asserts that opening `path` fails with a `Parse` error whose message
    /// contains `needle`.
    fn assert_open_fails(path: &Path, needle: &str) {
        match FileSource::open(path) {
            Err(Error::Parse { line: 0, message }) => {
                assert!(message.contains(needle), "{needle}: {message}");
            }
            Err(other) => panic!("{needle}: expected Parse error, got {other:?}"),
            Ok(_) => panic!("{needle}: expected Parse error, got an open source"),
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let path = tmp("bad.dbs");
        std::fs::write(&path, b"NOPE____________").unwrap();
        assert_open_fails(&path, "bad magic");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_truncated_header() {
        let path = tmp("short_header.dbs");
        std::fs::write(&path, b"DBS1\x02\x00").unwrap();
        assert!(matches!(FileSource::open(&path), Err(Error::Io(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_truncated_body() {
        let path = tmp("short_body.dbs");
        // Header promises 5 points of dim 2; only 3 coordinates follow.
        write_raw(&path, 2, 5, &[1.0, 2.0, 3.0]);
        assert_open_fails(&path, "truncated file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_oversized_body() {
        let path = tmp("long_body.dbs");
        // Header promises 1 point of dim 2; two points follow.
        write_raw(&path, 2, 1, &[1.0, 2.0, 3.0, 4.0]);
        assert_open_fails(&path, "oversized file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_overflowing_dim_len_product() {
        let path = tmp("overflow.dbs");
        // dim * len * 8 wraps u64; a naive `vec![0.0; dim * len]` would
        // OOM or mis-size the buffer. Must fail fast instead.
        write_raw(&path, u32::MAX, u64::MAX / 2, &[]);
        assert_open_fails(&path, "overflows");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_huge_declared_count() {
        let path = tmp("huge_count.dbs");
        // No arithmetic overflow, but the header demands ~64 GiB that the
        // 16-byte file does not hold: size cross-check catches it before
        // any allocation.
        write_raw(&path, 1, 1 << 33, &[]);
        assert_open_fails(&path, "truncated file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_zero_dim() {
        let path = tmp("zero_dim.dbs");
        write_raw(&path, 0, 10, &[]);
        assert_open_fails(&path, "dim 0");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_scan_revalidates_size() {
        let path = tmp("shrunk.dbs");
        let ds = sample();
        write_binary(&path, &ds).unwrap();
        let src = FileSource::open(&path).unwrap();
        // Truncate the body after open: a chunk read past the new end, and
        // so every pass, must fail instead of reading short.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 8]).unwrap();
        let err = src.collect_dataset().unwrap_err();
        assert!(err.to_string().contains("truncated file"), "{err}");
        let err = src.scan(&mut |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("truncated file"), "{err}");
        let (mut buf, mut tally) = (Vec::new(), Tally::default());
        let err = src.read_points_into(2..3, &mut buf, &mut tally);
        assert!(err.unwrap_err().to_string().contains("truncated file"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_chunk_reads_equal_the_written_dataset_bit_for_bit() {
        use crate::par::CHUNK_POINTS;
        use rand::Rng;
        let path = tmp("chunks.dbs");
        let mut rng = crate::rng::seeded(11);
        let n = 3 * CHUNK_POINTS + 777;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen::<f64>() * 1e6 - 5e5).collect())
            .collect();
        let want = Dataset::from_rows(&rows).unwrap();
        write_binary(&path, &want).unwrap();
        let src = FileSource::open(&path).unwrap();
        // Ranges of one buffer's worth of rows and a row more or less: 24
        // bytes per row, so only the last is a whole number of buffers.
        let buf_rows = READ_BUF_BYTES / 24;
        let mut ranges = vec![
            0..n,
            CHUNK_POINTS - 3..CHUNK_POINTS + 3,
            3 * CHUNK_POINTS..n,
            n - 1..n,
            5..5,
            0..buf_rows,
            7..8 + buf_rows,
            100..100 + 2 * buf_rows + 1,
            9..9 + READ_BUF_BYTES / 8,
        ];
        for _ in 0..50 {
            let a = rng.gen_range(0..n);
            ranges.push(a..rng.gen_range(a..=n));
        }
        let (mut buf, mut tally) = (Vec::new(), Tally::default());
        for range in ranges {
            src.read_points_into(range.clone(), &mut buf, &mut tally)
                .unwrap();
            let expect = &want.as_flat()[range.start * 3..range.end * 3];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&buf), bits(expect), "{range:?}");
        }
        assert!(src
            .read_points_into(n - 1..n + 1, &mut buf, &mut tally)
            .is_err());
        assert!(tally.is_empty(), "file reads record no counters");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_streams_identical_points() {
        let path = tmp("stream.dbs");
        let ds = sample();
        write_binary(&path, &ds).unwrap();
        let src = FileSource::open(&path).unwrap();
        assert_eq!(src.dim(), 2);
        assert_eq!(PointSource::len(&src), 3);
        let collected = src.collect_dataset().unwrap();
        assert_eq!(ds, collected);
        std::fs::remove_file(&path).ok();
    }
}
