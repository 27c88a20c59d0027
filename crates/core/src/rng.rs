//! Deterministic RNG plumbing.
//!
//! Every stochastic component in the workspace takes an explicit `u64` seed
//! so that the paper's experiments regenerate identically from run to run.
//! This module provides the canonical way to turn seeds into generators, to
//! derive independent sub-seeds, and a small Box–Muller standard-normal
//! sampler (the `rand_distr` crate is outside the allowed dependency set).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator type used throughout the workspace.
pub type DbsRng = StdRng;

/// Creates the workspace's standard generator from a seed.
pub fn seeded(seed: u64) -> DbsRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent sub-seed from a parent seed and a stream index
/// using the SplitMix64 finalizer. Components that need several independent
/// streams (e.g. one per cluster in a generator) use
/// `seeded(sub_seed(seed, i))`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` fully determined by `(seed, key)`.
///
/// This is the per-point randomness primitive for parallel algorithms: the
/// draw for point `key` depends only on the seed and the point's index, not
/// on scan order or thread schedule, so serial and parallel runs make
/// identical accept/reject decisions. The 53 high bits of [`sub_seed`]
/// become the mantissa, the same `[0, 1)` mapping the workspace generator
/// uses for `f64`.
pub fn keyed_unit(seed: u64, key: u64) -> f64 {
    (sub_seed(seed, key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws a standard-normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0,1] so the log is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws `N(mean, sd^2)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        let s0 = sub_seed(7, 0);
        let s1 = sub_seed(7, 1);
        let s2 = sub_seed(8, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // And they are stable.
        assert_eq!(s0, sub_seed(7, 0));
    }

    #[test]
    fn keyed_unit_is_stable_and_uniform() {
        assert_eq!(keyed_unit(9, 100), keyed_unit(9, 100));
        assert_ne!(keyed_unit(9, 100), keyed_unit(9, 101));
        assert_ne!(keyed_unit(9, 100), keyed_unit(10, 100));
        let n = 100_000u64;
        let mut mean = 0.0;
        for i in 0..n {
            let u = keyed_unit(1234, i);
            assert!((0.0..1.0).contains(&u));
            mean += u;
        }
        mean /= n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(1);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_respects_mean_and_sd() {
        let mut rng = seeded(2);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }
}
