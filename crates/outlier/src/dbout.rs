//! The DB(p,k)-outlier parameterization.

use dbs_core::{Error, Result};

/// Parameters of Definition 1: `O` is an outlier if at most `p` other
/// objects lie within distance `k` of `O`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbOutlierParams {
    /// Neighborhood radius `k` (the paper's `k`; a distance, not a count).
    pub radius: f64,
    /// Maximum number of neighbors an outlier may have (`p`), excluding
    /// the object itself.
    pub max_neighbors: usize,
}

impl DbOutlierParams {
    /// Creates the parameters, validating them with [`Self::check`].
    pub fn new(radius: f64, max_neighbors: usize) -> Result<Self> {
        let params = DbOutlierParams {
            radius,
            max_neighbors,
        };
        params.check()?;
        Ok(params)
    }

    /// Rejects a radius that is not finite and positive. The fields are
    /// public, so the density-pruned detectors repeat this check rather
    /// than trust that the value came through [`Self::new`].
    pub fn check(&self) -> Result<()> {
        let radius = self.radius;
        if !(radius > 0.0) || !radius.is_finite() {
            return Err(Error::InvalidParameter(format!(
                "radius must be positive, got {radius}"
            )));
        }
        Ok(())
    }

    /// The fraction form of Definition 1: `p = fr * |D|` ("the number of
    /// objects ... can also be specified as a fraction fr of the dataset
    /// size"). `fr` is clamped to `[0, 1]`.
    pub fn from_fraction(radius: f64, fr: f64, dataset_size: usize) -> Result<Self> {
        if !(0.0..=1.0).contains(&fr) {
            return Err(Error::InvalidParameter(format!(
                "fraction must be in [0,1], got {fr}"
            )));
        }
        Self::new(radius, (fr * dataset_size as f64).floor() as usize)
    }

    /// Whether an observed neighbor count (self excluded) qualifies as an
    /// outlier.
    #[inline]
    pub fn is_outlier_count(&self, neighbors_excluding_self: usize) -> bool {
        neighbors_excluding_self <= self.max_neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_radius() {
        assert!(DbOutlierParams::new(0.1, 5).is_ok());
        assert!(DbOutlierParams::new(0.0, 5).is_err());
        assert!(DbOutlierParams::new(-1.0, 5).is_err());
        assert!(DbOutlierParams::new(f64::NAN, 5).is_err());
    }

    #[test]
    fn fraction_form() {
        let p = DbOutlierParams::from_fraction(0.1, 0.01, 10_000).unwrap();
        assert_eq!(p.max_neighbors, 100);
        assert!(DbOutlierParams::from_fraction(0.1, 1.5, 100).is_err());
    }

    #[test]
    fn count_threshold_is_inclusive() {
        let p = DbOutlierParams::new(0.1, 3).unwrap();
        assert!(p.is_outlier_count(0));
        assert!(p.is_outlier_count(3));
        assert!(!p.is_outlier_count(4));
    }
}
