//! Small statistics helpers used across the workspace.

use crate::dataset::Dataset;

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance; `0.0` for fewer than two values.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Per-dimension means of a dataset.
pub fn column_means(data: &Dataset) -> Vec<f64> {
    let mut acc = vec![0.0; data.dim()];
    for p in data.iter() {
        for (a, &x) in acc.iter_mut().zip(p) {
            *a += x;
        }
    }
    let n = data.len().max(1) as f64;
    for a in acc.iter_mut() {
        *a /= n;
    }
    acc
}

/// Linear-interpolated quantile (`q` in `[0,1]`) of an unsorted slice.
///
/// Panics if the slice is empty or `q` is outside `[0,1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Online {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Online {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`0.0` before the first observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased running variance (`0.0` before the second observation).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Running standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // population variance is 4, sample variance is 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn column_stats() {
        let ds = Dataset::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]).unwrap();
        assert_eq!(column_means(&ds), vec![2.0, 20.0]);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_boundaries() {
        // q = 0 and q = 1 are exact order statistics (no interpolation),
        // even with duplicates at the extremes.
        let xs = [5.0, -1.0, 5.0, 3.0, -1.0];
        assert_eq!(quantile(&xs, 0.0), -1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        // A single element is every quantile of itself.
        assert_eq!(quantile(&[7.25], 0.0), 7.25);
        assert_eq!(quantile(&[7.25], 0.5), 7.25);
        assert_eq!(quantile(&[7.25], 1.0), 7.25);
    }

    #[test]
    #[should_panic(expected = "quantile of empty slice")]
    fn quantile_rejects_empty() {
        quantile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "q must be in [0,1]")]
    fn quantile_rejects_out_of_range_q() {
        quantile(&[1.0, 2.0], 1.5);
    }

    #[test]
    fn online_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut o = Online::new();
        for &x in &xs {
            o.push(x);
        }
        assert_eq!(o.count(), 8);
        assert!((o.mean() - mean(&xs)).abs() < 1e-12);
        assert!((o.variance() - variance(&xs)).abs() < 1e-12);
    }
}
