//! Min-max normalization to the unit cube.
//!
//! The paper assumes "for simplicity ... the space domain is `[0,1]^d`,
//! otherwise we can scale the attributes" (§2.1). [`MinMaxScaler`] performs
//! exactly that scaling and can invert it to report results in the original
//! coordinates.

use std::num::NonZeroUsize;
use std::ops::Range;

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::obs::Tally;
use crate::scan::PointSource;

/// Per-dimension affine map onto `[0,1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>, // max - min, with degenerate dimensions mapped to 1.0
}

impl MinMaxScaler {
    /// Learns the per-dimension min/max of `data`: [`MinMaxScaler::fit_source`]
    /// on one thread.
    ///
    /// Dimensions with zero spread map every value to `0.0` (and invert back
    /// to the constant). Errors on an empty dataset, with
    /// [`Error::NonFinite`] naming the first point with a NaN or infinite
    /// coordinate — every command fits a scaler first, so this one check
    /// screens the input for every backend — and with
    /// [`Error::InvalidParameter`] naming the first dimension whose
    /// `max - min` overflows to infinity.
    pub fn fit(data: &Dataset) -> Result<Self> {
        Self::fit_source(data, crate::par::serial())
    }

    /// The dimensionality the scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Maps one point into `[0,1]^d` (in place).
    pub fn transform_point(&self, p: &mut [f64]) {
        debug_assert_eq!(p.len(), self.dim());
        for j in 0..p.len() {
            p[j] = (p[j] - self.mins[j]) / self.ranges[j];
        }
    }

    /// Maps one point back to the original coordinates (in place).
    pub fn inverse_point(&self, p: &mut [f64]) {
        debug_assert_eq!(p.len(), self.dim());
        for j in 0..p.len() {
            p[j] = p[j] * self.ranges[j] + self.mins[j];
        }
    }

    /// Returns a copy of `data` scaled into `[0,1]^d`.
    pub fn transform(&self, data: &Dataset) -> Result<Dataset> {
        if data.dim() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                got: data.dim(),
            });
        }
        let mut out = data.clone();
        for i in 0..out.len() {
            self.transform_point(out.point_mut(i));
        }
        Ok(out)
    }

    /// Returns a copy of `data` mapped back to original coordinates.
    pub fn inverse(&self, data: &Dataset) -> Result<Dataset> {
        if data.dim() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                got: data.dim(),
            });
        }
        let mut out = data.clone();
        for i in 0..out.len() {
            self.inverse_point(out.point_mut(i));
        }
        Ok(out)
    }

    /// Convenience: fit on `data` and return the scaled copy plus the scaler.
    pub fn fit_transform(data: &Dataset) -> Result<(Dataset, MinMaxScaler)> {
        let scaler = MinMaxScaler::fit(data)?;
        let scaled = scaler.transform(data)?;
        Ok((scaled, scaler))
    }

    /// Learns the per-dimension min/max of `source` in one chunked parallel
    /// pass, without materializing it.
    ///
    /// Min/max merging is exactly associative, so the fitted scaler — or
    /// the error — is identical at every thread count and for every storage
    /// backing. See [`MinMaxScaler::fit`] for the errors.
    pub fn fit_source<S: PointSource + ?Sized>(source: &S, threads: NonZeroUsize) -> Result<Self> {
        let bb = crate::par::par_bounding_box(source, threads)?
            .ok_or_else(|| Error::InvalidParameter("cannot fit scaler on empty dataset".into()))?;
        let mins = bb.min().to_vec();
        let mut ranges = Vec::with_capacity(mins.len());
        for (j, (&lo, &hi)) in bb.min().iter().zip(bb.max()).enumerate() {
            let r = hi - lo;
            if !r.is_finite() {
                return Err(Error::InvalidParameter(format!(
                    "dimension {j} spans [{lo:e}, {hi:e}], a range too wide to scale"
                )));
            }
            ranges.push(if r > 0.0 { r } else { 1.0 });
        }
        Ok(MinMaxScaler { mins, ranges })
    }

    /// Wraps `source` as a lazily-scaled view: every point read through it
    /// comes out transformed into `[0,1]^d`. Point values are bit-identical
    /// to materializing `source` and calling [`MinMaxScaler::transform`] —
    /// the same per-coordinate operations in the same order.
    pub fn scaled<'a, S: PointSource + ?Sized>(
        &'a self,
        source: &'a S,
    ) -> Result<ScaledSource<'a, S>> {
        if source.dim() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                got: source.dim(),
            });
        }
        Ok(ScaledSource {
            scaler: self,
            inner: source,
        })
    }
}

/// A [`PointSource`] adapter applying a fitted [`MinMaxScaler`] to every
/// point on the way out (see [`MinMaxScaler::scaled`]). It transforms each
/// chunk its inner source reads in place, so on-disk sources stay
/// out-of-core through normalization.
pub struct ScaledSource<'a, S: PointSource + ?Sized> {
    scaler: &'a MinMaxScaler,
    inner: &'a S,
}

impl<S: PointSource + ?Sized> PointSource for ScaledSource<'_, S> {
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
        self.inner.read_points_into(range, buf, tally)?;
        for p in buf.chunks_exact_mut(self.scaler.dim()) {
            self.scaler.transform_point(p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_lands_in_unit_cube() {
        let ds = Dataset::from_rows(&[vec![10.0, -5.0], vec![20.0, 5.0], vec![15.0, 0.0]]).unwrap();
        let (scaled, _) = MinMaxScaler::fit_transform(&ds).unwrap();
        for p in scaled.iter() {
            for &x in p {
                assert!((0.0..=1.0).contains(&x));
            }
        }
        assert_eq!(scaled.point(0), &[0.0, 0.0]);
        assert_eq!(scaled.point(1), &[1.0, 1.0]);
        assert_eq!(scaled.point(2), &[0.5, 0.5]);
    }

    #[test]
    fn inverse_round_trips() {
        let ds = Dataset::from_rows(&[vec![3.0, 7.0], vec![-1.0, 2.0], vec![0.5, 4.5]]).unwrap();
        let (scaled, scaler) = MinMaxScaler::fit_transform(&ds).unwrap();
        let back = scaler.inverse(&scaled).unwrap();
        for (a, b) in ds.iter().zip(back.iter()) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn degenerate_dimension_is_stable() {
        let ds = Dataset::from_rows(&[vec![2.0, 1.0], vec![2.0, 3.0]]).unwrap();
        let (scaled, scaler) = MinMaxScaler::fit_transform(&ds).unwrap();
        assert_eq!(scaled.point(0)[0], 0.0);
        assert_eq!(scaled.point(1)[0], 0.0);
        let back = scaler.inverse(&scaled).unwrap();
        assert_eq!(back.point(0)[0], 2.0);
        assert_eq!(back.point(1)[0], 2.0);
    }

    #[test]
    fn fit_rejects_empty() {
        assert!(MinMaxScaler::fit(&Dataset::new(2)).is_err());
    }

    #[test]
    fn fit_source_matches_fit_and_scaled_view_matches_transform() {
        let rows: Vec<Vec<f64>> = (0..5000)
            .map(|i| vec![i as f64 * 0.25 - 100.0, (i % 37) as f64])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let fitted = MinMaxScaler::fit(&ds).unwrap();
        for threads in [1, 2, 7] {
            let from_source =
                MinMaxScaler::fit_source(&ds, NonZeroUsize::new(threads).unwrap()).unwrap();
            assert_eq!(from_source, fitted, "threads = {threads}");
        }
        let want = fitted.transform(&ds).unwrap();
        let view = fitted.scaled(&ds).unwrap();
        assert_eq!(view.collect_dataset().unwrap(), want);
        let other = Dataset::from_rows(&[vec![0.0]]).unwrap();
        assert!(fitted.scaled(&other).is_err());
    }

    #[test]
    fn fit_names_the_first_non_finite_point() {
        let mut rows: Vec<Vec<f64>> = (0..9000).map(|i| vec![i as f64, 1.0]).collect();
        rows[5000][1] = f64::NAN;
        rows[8000][0] = f64::NEG_INFINITY;
        let ds = Dataset::from_rows(&rows).unwrap();
        let err = MinMaxScaler::fit(&ds).unwrap_err();
        assert_eq!(err.to_string(), "non-finite coordinate at point 5000");
        for threads in [1, 2, 7] {
            let err = MinMaxScaler::fit_source(&ds, NonZeroUsize::new(threads).unwrap());
            assert!(matches!(err, Err(Error::NonFinite { index: 5000 })));
        }
    }

    #[test]
    fn fit_rejects_a_range_too_wide_to_scale() {
        // Every coordinate is finite, but max - min overflows in dimension 0.
        let ds =
            Dataset::from_rows(&[vec![-1e308, 0.0], vec![1e308, 1.0], vec![0.0, 0.5]]).unwrap();
        for threads in [1, 2] {
            let err = MinMaxScaler::fit_source(&ds, NonZeroUsize::new(threads).unwrap());
            match err {
                Err(Error::InvalidParameter(msg)) => assert!(msg.contains("dimension 0"), "{msg}"),
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        }
        assert!(MinMaxScaler::fit(&ds).is_err());
    }

    #[test]
    fn transform_rejects_wrong_dim() {
        let ds = Dataset::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let scaler = MinMaxScaler::fit(&ds).unwrap();
        let other = Dataset::from_rows(&[vec![0.0]]).unwrap();
        assert!(scaler.transform(&other).is_err());
    }
}
