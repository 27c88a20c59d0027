//! Bandwidth selection rules.
//!
//! The kernel estimator needs one bandwidth per dimension. The paper does
//! not commit to a specific rule; we default to Scott's rule (the standard
//! choice for multivariate product kernels, Scott 1992 — reference \[24\] of
//! the paper) and provide Silverman's rule and fixed bandwidths for the
//! ablation benchmarks.

/// A bandwidth selection rule.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Bandwidth {
    /// `h_j = sigma_j * n^{-1/(d+4)}` (Scott 1992).
    #[default]
    Scott,
    /// `h_j = sigma_j * (4 / (d + 2))^{1/(d+4)} * n^{-1/(d+4)}`
    /// (Silverman 1986 — reference \[25\] of the paper).
    Silverman,
    /// The same bandwidth for every dimension.
    Fixed(f64),
}

/// Bandwidths are floored here so degenerate dimensions (zero variance)
/// still smooth over a sliver of the domain instead of producing a Dirac.
pub const MIN_BANDWIDTH: f64 = 1e-6;

impl Bandwidth {
    /// Resolves the rule into per-dimension bandwidths.
    ///
    /// `sigmas` are the per-dimension sample standard deviations of the
    /// data, `n` the dataset size, `dim` the dimensionality.
    ///
    /// Panics if a fixed bandwidth is non-positive.
    pub fn resolve(&self, sigmas: &[f64], n: usize, dim: usize) -> Vec<f64> {
        assert_eq!(sigmas.len(), dim, "sigma count must equal dim");
        assert!(n >= 1, "need at least one point");
        match self {
            Bandwidth::Scott => {
                let factor = (n as f64).powf(-1.0 / (dim as f64 + 4.0));
                sigmas
                    .iter()
                    .map(|s| (s * factor).max(MIN_BANDWIDTH))
                    .collect()
            }
            Bandwidth::Silverman => {
                let factor = (4.0 / (dim as f64 + 2.0)).powf(1.0 / (dim as f64 + 4.0))
                    * (n as f64).powf(-1.0 / (dim as f64 + 4.0));
                sigmas
                    .iter()
                    .map(|s| (s * factor).max(MIN_BANDWIDTH))
                    .collect()
            }
            Bandwidth::Fixed(h) => {
                assert!(*h > 0.0, "fixed bandwidth must be positive");
                vec![*h; dim]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scott_shrinks_with_n() {
        let small = Bandwidth::Scott.resolve(&[1.0, 1.0], 100, 2);
        let large = Bandwidth::Scott.resolve(&[1.0, 1.0], 1_000_000, 2);
        assert!(large[0] < small[0]);
        // d=2: exponent -1/6; n=1e6 -> 1e-1.
        assert!((large[0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn silverman_close_to_scott() {
        let sc = Bandwidth::Scott.resolve(&[2.0], 1000, 1);
        let si = Bandwidth::Silverman.resolve(&[2.0], 1000, 1);
        // For d=1 the Silverman factor is (4/3)^(1/5) ≈ 1.059.
        assert!((si[0] / sc[0] - (4.0f64 / 3.0).powf(0.2)).abs() < 1e-9);
    }

    #[test]
    fn zero_variance_dimension_gets_floor() {
        let hs = Bandwidth::Scott.resolve(&[0.0, 1.0], 1000, 2);
        assert_eq!(hs[0], MIN_BANDWIDTH);
        assert!(hs[1] > MIN_BANDWIDTH);
    }

    #[test]
    fn fixed_is_shared_by_every_dimension() {
        assert_eq!(
            Bandwidth::Fixed(0.05).resolve(&[9.0, 9.0], 10, 2),
            vec![0.05, 0.05]
        );
    }

    #[test]
    #[should_panic]
    fn fixed_nonpositive_panics() {
        Bandwidth::Fixed(0.0).resolve(&[1.0], 10, 1);
    }
}
