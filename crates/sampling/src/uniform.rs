//! Uniform random sampling baselines.

use dbs_core::rng::seeded;
use dbs_core::{Dataset, Error, PointSource, Result, WeightedSample};
use rand::Rng;

/// Bernoulli uniform sampling: one sequential pass, including each point
/// with probability `b / n`. This is exactly the uniform sampler of §4.2 of
/// the paper ("first reading the size N of the dataset and then sequentially
/// scanning ... choosing a point with probability b/N"); the sample size is
/// `b` in expectation.
pub fn bernoulli_sample<S: PointSource + ?Sized>(
    source: &S,
    b: usize,
    seed: u64,
) -> Result<WeightedSample> {
    let n = source.len();
    if n == 0 {
        return Err(Error::InvalidParameter(
            "cannot sample an empty source".into(),
        ));
    }
    if b == 0 {
        return Err(Error::InvalidParameter("sample size must be >= 1".into()));
    }
    let p = (b as f64 / n as f64).min(1.0);
    let mut rng = seeded(seed);
    let mut points = Dataset::with_capacity(source.dim(), b + b / 4 + 8);
    let mut indices = Vec::with_capacity(b + b / 4 + 8);
    source.scan(&mut |i, x| {
        if rng.gen::<f64>() < p {
            points.push(x).expect("scan yields declared dimension");
            indices.push(i);
        }
    })?;
    let weights = vec![1.0 / p; points.len()];
    WeightedSample::new(points, weights, indices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::with_capacity(1, n);
        for i in 0..n {
            ds.push(&[i as f64]).unwrap();
        }
        ds
    }

    #[test]
    fn bernoulli_expected_size() {
        let ds = dataset(10_000);
        let s = bernoulli_sample(&ds, 500, 1).unwrap();
        let size = s.len() as f64;
        assert!((size - 500.0).abs() < 80.0, "size {size}");
        // Weights are n/b.
        assert!((s.weights()[0] - 20.0).abs() < 1e-12);
        // Horvitz–Thompson recovers n in expectation.
        assert!((s.estimated_source_size() - 10_000.0).abs() < 2_000.0);
    }

    #[test]
    fn bernoulli_indices_match_points() {
        let ds = dataset(1000);
        let s = bernoulli_sample(&ds, 100, 2).unwrap();
        for (k, &i) in s.source_indices().iter().enumerate() {
            assert_eq!(s.points().point(k), ds.point(i));
        }
    }

    #[test]
    fn bernoulli_b_at_least_n_takes_everything() {
        let ds = dataset(50);
        let s = bernoulli_sample(&ds, 500, 3).unwrap();
        assert_eq!(s.len(), 50);
        assert_eq!(s.weights()[0], 1.0);
    }

    #[test]
    fn bernoulli_rejects_degenerate_inputs() {
        assert!(bernoulli_sample(&Dataset::new(1), 5, 0).is_err());
        assert!(bernoulli_sample(&dataset(10), 0, 0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset(500);
        let a = bernoulli_sample(&ds, 50, 7).unwrap();
        let b = bernoulli_sample(&ds, 50, 7).unwrap();
        assert_eq!(a.source_indices(), b.source_indices());
    }
}
