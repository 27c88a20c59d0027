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
}
