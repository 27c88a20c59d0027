//! Reservoir sampling (Vitter, reference \[29\] of the paper).
//!
//! Produces an exact-size uniform sample in a single pass without knowing
//! the dataset size in advance, with the classic Algorithm R (one random
//! number per point) of [`dbs_core::Reservoir`], the same reservoir the CLI
//! and the KDE fit draw their uniform samples with.

use dbs_core::obs::{Counter, Recorder};
use dbs_core::{Error, PointSource, Reservoir, Result, WeightedSample};

fn check_inputs<S: PointSource + ?Sized>(source: &S, b: usize) -> Result<()> {
    if b == 0 {
        return Err(Error::InvalidParameter("sample size must be >= 1".into()));
    }
    if source.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot sample an empty source".into(),
        ));
    }
    Ok(())
}

/// Algorithm R: keep the first `b` points, then replace a random slot with
/// probability `b / (i+1)` for the `i`-th point.
pub fn reservoir_sample<S: PointSource + ?Sized>(
    source: &S,
    b: usize,
    seed: u64,
) -> Result<WeightedSample> {
    reservoir_sample_obs(source, b, seed, &Recorder::disabled())
}

/// [`reservoir_sample`] with metrics: records the single dataset pass and
/// every post-fill slot replacement into `recorder`. Output is identical
/// whether the recorder is enabled or not (the plain entry point is this
/// function with a disabled recorder).
pub fn reservoir_sample_obs<S: PointSource + ?Sized>(
    source: &S,
    b: usize,
    seed: u64,
    recorder: &Recorder,
) -> Result<WeightedSample> {
    check_inputs(source, b)?;
    let mut reservoir = Reservoir::new(source.dim(), b, seed);
    recorder.add(Counter::DatasetPasses, 1);
    source.scan(&mut |i, x| reservoir.offer(i, x))?;
    recorder.add(Counter::ReservoirReplacements, reservoir.replacements());
    let (points, indices) = reservoir.into_parts();
    WeightedSample::uniform(points, indices, source.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng;
    use dbs_core::Dataset;

    fn dataset(n: usize) -> Dataset {
        let mut ds = Dataset::with_capacity(1, n);
        for i in 0..n {
            ds.push(&[i as f64]).unwrap();
        }
        ds
    }

    #[test]
    fn exact_size_and_distinct_indices() {
        let ds = dataset(5000);
        let s = reservoir_sample(&ds, 100, 1).unwrap();
        assert_eq!(s.len(), 100);
        let mut idx = s.source_indices().to_vec();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn small_stream_keeps_everything() {
        let ds = dataset(7);
        assert_eq!(reservoir_sample(&ds, 20, 2).unwrap().len(), 7);
    }

    #[test]
    fn one_pass_only() {
        let ds = dataset(100);
        let counted = dbs_core::scan::PassCounter::new(&ds);
        let _ = reservoir_sample(&counted, 10, 3).unwrap();
        assert_eq!(counted.passes(), 1);
    }

    #[test]
    fn indices_match_points() {
        let ds = dataset(1000);
        let s = reservoir_sample(&ds, 50, 4).unwrap();
        for (k, &i) in s.source_indices().iter().enumerate() {
            assert_eq!(s.points().point(k), ds.point(i));
        }
    }

    #[test]
    fn algorithm_r_is_uniform() {
        // Chi-square-style sanity: each of 50 items picked ~ trials*b/n.
        let ds = dataset(50);
        let trials = 3000;
        let mut counts = vec![0usize; 50];
        for t in 0..trials {
            let s = reservoir_sample(&ds, 10, rng::sub_seed(5, t)).unwrap();
            for &i in s.source_indices() {
                counts[i] += 1;
            }
        }
        let expect = trials as f64 * 10.0 / 50.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.2,
                "item {i} picked {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(reservoir_sample(&Dataset::new(1), 5, 0).is_err());
        assert!(reservoir_sample(&dataset(5), 0, 0).is_err());
    }
}
