//! Distance metrics.
//!
//! The paper's algorithms default to the Euclidean distance but explicitly
//! note (§3.2) that other metrics such as L1/Manhattan work equally well; all
//! distance-consuming code in the workspace is parameterized on [`Metric`].

/// A distance metric on `R^d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// L2 (straight-line) distance — the paper's default.
    #[default]
    Euclidean,
    /// L1 / Manhattan distance.
    Manhattan,
    /// L∞ / Chebyshev distance.
    Chebyshev,
}

impl Metric {
    /// Distance between two points of equal dimensionality.
    #[inline]
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Euclidean => euclidean_sq(a, b).sqrt(),
            Metric::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Metric::Chebyshev => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        }
    }

    /// A value that orders pairs identically to [`Metric::distance`] but is
    /// cheaper to compute (squared distance for Euclidean; the distance
    /// itself otherwise). Use for nearest-neighbor comparisons.
    #[inline]
    pub fn rank_distance(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Metric::Euclidean => euclidean_sq(a, b),
            _ => self.distance(a, b),
        }
    }

    /// Converts a [`Metric::rank_distance`] value back to a true distance.
    #[inline]
    pub fn rank_to_distance(&self, rank: f64) -> f64 {
        match self {
            Metric::Euclidean => rank.sqrt(),
            _ => rank,
        }
    }

    /// Converts a true distance to the [`Metric::rank_distance`] scale, so
    /// a radius can be compared against rank distances without square
    /// roots.
    #[inline]
    pub fn rank_distance_of(&self, distance: f64) -> f64 {
        match self {
            Metric::Euclidean => distance * distance,
            _ => distance,
        }
    }

    /// Volume of the `d`-dimensional ball of radius `r` under this metric:
    /// `V_d(r) = pi^{d/2} / Gamma(d/2 + 1) * r^d` for L2, the cross-polytope
    /// `(2r)^d / d!` for L1, the cube `(2r)^d` for L∞. Used by the
    /// approximate outlier detector to convert densities into expected
    /// neighbor counts.
    pub fn ball_volume(&self, dim: usize, r: f64) -> f64 {
        assert!(dim >= 1);
        match self {
            Metric::Euclidean => unit_ball_volume(dim) * r.powi(dim as i32),
            Metric::Manhattan => (1..=dim).fold(1.0, |v, j| v * (2.0 * r / j as f64)),
            Metric::Chebyshev => (2.0 * r).powi(dim as i32),
        }
    }
}

/// Squared Euclidean distance.
#[inline]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

/// Volume of the unit ball in `d` dimensions, via the recurrence
/// `V_d = 2 pi / d * V_{d-2}`, `V_0 = 1`, `V_1 = 2`.
pub fn unit_ball_volume(dim: usize) -> f64 {
    match dim {
        0 => 1.0,
        1 => 2.0,
        _ => 2.0 * std::f64::consts::PI / dim as f64 * unit_ball_volume(dim - 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_known_values() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(euclidean_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn manhattan_and_chebyshev() {
        let a = [0.0, 0.0];
        let b = [3.0, -4.0];
        assert!((Metric::Manhattan.distance(&a, &b) - 7.0).abs() < 1e-12);
        assert!((Metric::Chebyshev.distance(&a, &b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rank_distance_orders_like_distance() {
        let o = [0.0, 0.0];
        let near = [1.0, 1.0];
        let far = [2.0, 2.0];
        for m in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            assert!(m.rank_distance(&o, &near) < m.rank_distance(&o, &far));
            let d = m.distance(&o, &far);
            let via_rank = m.rank_to_distance(m.rank_distance(&o, &far));
            assert!((d - via_rank).abs() < 1e-12);
        }
    }

    #[test]
    fn ball_volumes_match_closed_forms() {
        use std::f64::consts::PI;
        let cases = [
            // L2: V_1(r) = 2r, V_2(r) = pi r^2, V_3(r) = 4/3 pi r^3.
            (Metric::Euclidean, 1, 2.0, 4.0),
            (Metric::Euclidean, 2, 1.0, PI),
            (Metric::Euclidean, 3, 1.0, 4.0 / 3.0 * PI),
            // L1: the 2-d ball is a square rotated 45°, area 2r².
            (Metric::Manhattan, 2, 1.0, 2.0),
            (Metric::Manhattan, 3, 1.0, 4.0 / 3.0),
            // L∞: the cube (2r)^d.
            (Metric::Chebyshev, 2, 0.5, 1.0),
            (Metric::Chebyshev, 3, 1.0, 8.0),
        ];
        for (metric, dim, r, want) in cases {
            let got = metric.ball_volume(dim, r);
            assert!(
                (got - want).abs() < 1e-12,
                "{metric:?} d={dim} r={r}: {got}"
            );
        }
        // Higher even dimension: V_4 = pi^2/2.
        assert!((unit_ball_volume(4) - PI.powi(2) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn default_metric_is_euclidean() {
        assert_eq!(Metric::default(), Metric::Euclidean);
    }
}
