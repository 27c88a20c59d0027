//! Weighted K-means (Lloyd's algorithm with k-means++ seeding).
//!
//! §3.1 of the paper: K-means optimizes `Σ_clusters Σ_{x in cluster}
//! dist(x, mean)`, an objective that weighs every *original* point equally.
//! "To use density biased sampling in this case, we have to weight the
//! sample points with the inverse of the probability that each was
//! sampled." The `weights` parameter carries exactly those `1/p_i` values;
//! pass uniform weights for plain K-means.

use dbs_core::metric::euclidean_sq;
use dbs_core::rng::{seeded, weighted_index};
use dbs_core::{Dataset, Error, Result};

/// Configuration of a K-means run.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub num_clusters: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when the relative objective improvement falls below this.
    pub tolerance: f64,
    /// Seed for the k-means++ initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// Defaults: 100 iterations, 1e-6 tolerance.
    pub fn new(num_clusters: usize) -> Self {
        KMeansConfig {
            num_clusters,
            max_iters: 100,
            tolerance: 1e-6,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a K-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centers.
    pub centers: Vec<Vec<f64>>,
    /// Cluster id per input point.
    pub assignments: Vec<usize>,
    /// Weighted sum of squared distances to assigned centers.
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

/// Runs weighted K-means on `data` with per-point `weights`.
///
/// Errors if inputs are inconsistent or `k` exceeds the point count.
pub fn kmeans(data: &Dataset, weights: &[f64], config: &KMeansConfig) -> Result<KMeansResult> {
    let n = data.len();
    let k = config.num_clusters;
    if n == 0 {
        return Err(Error::InvalidParameter(
            "cannot cluster an empty dataset".into(),
        ));
    }
    if weights.len() != n {
        return Err(Error::InvalidParameter(format!(
            "{} weights for {} points",
            weights.len(),
            n
        )));
    }
    if k == 0 || k > n {
        return Err(Error::InvalidParameter(format!(
            "need 1 <= k <= n, got k={k}, n={n}"
        )));
    }
    if weights.iter().any(|&w| !(w > 0.0) || !w.is_finite()) {
        return Err(Error::InvalidParameter(
            "weights must be positive and finite".into(),
        ));
    }
    let dim = data.dim();
    let mut rng = seeded(config.seed);

    // k-means++ seeding (weighted: the D^2 mass of a point is scaled by its
    // importance weight).
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = weighted_index(&mut rng, weights);
    centers.push(data.point(first).to_vec());
    let mut d2: Vec<f64> = (0..n)
        .map(|i| euclidean_sq(data.point(i), &centers[0]) * weights[i])
        .collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total > 0.0 {
            weighted_index(&mut rng, &d2)
        } else {
            // All remaining mass at existing centers; pick any point.
            rng_pick(&mut rng, n)
        };
        centers.push(data.point(next).to_vec());
        let c = centers.last().expect("just pushed");
        for i in 0..n {
            let d = euclidean_sq(data.point(i), c) * weights[i];
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }

    // Lloyd iterations.
    let mut assignments = vec![0usize; n];
    let mut prev_inertia = f64::INFINITY;
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..config.max_iters.max(1) {
        iterations = it + 1;
        // Assignment step.
        inertia = 0.0;
        for i in 0..n {
            let p = data.point(i);
            let mut best = (0usize, f64::INFINITY);
            for (c, center) in centers.iter().enumerate() {
                let d = euclidean_sq(p, center);
                if d < best.1 {
                    best = (c, d);
                }
            }
            assignments[i] = best.0;
            inertia += best.1 * weights[i];
        }
        // Update step (weighted means).
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut mass = vec![0.0f64; k];
        for i in 0..n {
            let c = assignments[i];
            mass[c] += weights[i];
            for (s, &x) in sums[c].iter_mut().zip(data.point(i)) {
                *s += x * weights[i];
            }
        }
        for c in 0..k {
            if mass[c] > 0.0 {
                for (j, s) in sums[c].iter().enumerate() {
                    centers[c][j] = s / mass[c];
                }
            } else {
                // Empty cluster: reseed at the point farthest from its
                // center (weighted).
                let (far, _) = (0..n)
                    .map(|i| {
                        (
                            i,
                            euclidean_sq(data.point(i), &centers[assignments[i]]) * weights[i],
                        )
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
                    .expect("n >= 1");
                centers[c] = data.point(far).to_vec();
            }
        }
        if prev_inertia.is_finite()
            && (prev_inertia - inertia).abs() <= config.tolerance * prev_inertia.max(1e-12)
        {
            break;
        }
        prev_inertia = inertia;
    }

    Ok(KMeansResult {
        centers,
        assignments,
        inertia,
        iterations,
    })
}

fn rng_pick(rng: &mut impl rand::Rng, n: usize) -> usize {
    rng.gen_range(0..n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng::seeded;
    use rand::Rng;

    fn blobs(k: usize, per: usize, seed: u64) -> (Dataset, Vec<Vec<f64>>) {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, k * per);
        let mut centers = Vec::new();
        for c in 0..k {
            let center = vec![(c as f64 + 0.5) / k as f64, 0.5];
            for _ in 0..per {
                ds.push(&[
                    center[0] + (rng.gen::<f64>() - 0.5) * 0.05,
                    center[1] + (rng.gen::<f64>() - 0.5) * 0.05,
                ])
                .unwrap();
            }
            centers.push(center);
        }
        (ds, centers)
    }

    #[test]
    fn recovers_blob_centers() {
        let (ds, truth) = blobs(3, 100, 1);
        let res = kmeans(&ds, &vec![1.0; 300], &KMeansConfig::new(3).with_seed(2)).unwrap();
        for t in &truth {
            let nearest = res
                .centers
                .iter()
                .map(|c| euclidean_sq(c, t).sqrt())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.03, "no center near {t:?}");
        }
    }

    #[test]
    fn inertia_never_increases_with_more_clusters() {
        let (ds, _) = blobs(4, 50, 3);
        let w = vec![1.0; 200];
        let i2 = kmeans(&ds, &w, &KMeansConfig::new(2).with_seed(4))
            .unwrap()
            .inertia;
        let i8 = kmeans(&ds, &w, &KMeansConfig::new(8).with_seed(4))
            .unwrap()
            .inertia;
        assert!(i8 <= i2);
    }

    #[test]
    fn weights_shift_centers() {
        // Two points; weight one of them 9x: the 1-mean lands at the
        // weighted mean.
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let res = kmeans(&ds, &[9.0, 1.0], &KMeansConfig::new(1)).unwrap();
        assert!((res.centers[0][0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn weighted_sample_debiasing_recovers_small_cluster_center() {
        // A biased sample that over-represents cluster A 5:1; weights undo
        // the bias so the global 1-mean is close to the true global mean.
        let mut rows = Vec::new();
        let mut weights = Vec::new();
        for _ in 0..100 {
            rows.push(vec![0.0]);
            weights.push(1.0); // oversampled: low weight
        }
        for _ in 0..20 {
            rows.push(vec![1.0]);
            weights.push(5.0); // undersampled: high weight
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let res = kmeans(&ds, &weights, &KMeansConfig::new(1)).unwrap();
        // Debiased mean = (100*0 + 20*5*1) / 200 = 0.5.
        assert!((res.centers[0][0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let (ds, _) = blobs(1, 5, 5);
        let res = kmeans(&ds, &[1.0; 5], &KMeansConfig::new(5).with_seed(6)).unwrap();
        assert!(res.inertia < 1e-9, "inertia {}", res.inertia);
    }

    #[test]
    fn assignments_index_nearest_center() {
        let (ds, _) = blobs(3, 40, 7);
        let res = kmeans(&ds, &vec![1.0; 120], &KMeansConfig::new(3).with_seed(8)).unwrap();
        for i in 0..ds.len() {
            let assigned = res.assignments[i];
            let d_assigned = euclidean_sq(ds.point(i), &res.centers[assigned]);
            for c in &res.centers {
                assert!(d_assigned <= euclidean_sq(ds.point(i), c) + 1e-9);
            }
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (ds, _) = blobs(1, 10, 9);
        assert!(kmeans(&Dataset::new(2), &[], &KMeansConfig::new(2)).is_err());
        assert!(kmeans(&ds, &[1.0; 10], &KMeansConfig::new(0)).is_err());
        assert!(kmeans(&ds, &[1.0; 10], &KMeansConfig::new(11)).is_err());
        assert!(kmeans(&ds, &[1.0; 9], &KMeansConfig::new(2)).is_err());
        assert!(kmeans(&ds, &[-1.0; 10], &KMeansConfig::new(2)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (ds, _) = blobs(3, 50, 10);
        let w = vec![1.0; 150];
        let a = kmeans(&ds, &w, &KMeansConfig::new(3).with_seed(11)).unwrap();
        let b = kmeans(&ds, &w, &KMeansConfig::new(3).with_seed(11)).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }
}
