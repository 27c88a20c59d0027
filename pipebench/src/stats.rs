//! Order statistics of repeated measurements.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let q = quartiles(xs);
    q.1
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads computed here match the
/// ones a reader recomputes from the raw samples. A single value is its
/// own quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Summary of one metric's samples, as recorded in the results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(xs);
        Summary {
            median,
            q1,
            q3,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            count: xs.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
