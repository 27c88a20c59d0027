//! Exact DB-outlier baselines.

use dbs_core::metric::Metric;
use dbs_core::Dataset;
use dbs_spatial::KdTree;

use crate::dbout::DbOutlierParams;

/// The classic nested-loop detector (Knorr & Ng \[13\]): for each object,
/// scan the dataset counting neighbors within `k` under `metric`, abandoning
/// the object as a non-outlier as soon as `p + 1` neighbors are seen. O(n²)
/// worst case — this is the baseline the paper's approximation beats.
pub fn nested_loop_outliers(
    data: &Dataset,
    params: &DbOutlierParams,
    metric: Metric,
) -> Vec<usize> {
    let n = data.len();
    let rank_k = metric.rank_distance_of(params.radius);
    let mut outliers = Vec::new();
    for i in 0..n {
        let pi = data.point(i);
        let mut count = 0usize;
        let mut is_outlier = true;
        for j in 0..n {
            if j == i {
                continue;
            }
            if metric.rank_distance(pi, data.point(j)) <= rank_k {
                count += 1;
                if count > params.max_neighbors {
                    is_outlier = false;
                    break;
                }
            }
        }
        if is_outlier {
            outliers.push(i);
        }
    }
    outliers
}

/// kd-tree-accelerated exact L2 detector: identical output to
/// [`nested_loop_outliers`] under [`Metric::Euclidean`], using capped
/// radius counts.
pub fn kdtree_outliers(data: &Dataset, params: &DbOutlierParams) -> Vec<usize> {
    if data.is_empty() {
        return Vec::new();
    }
    let tree = KdTree::build(data);
    let mut outliers = Vec::new();
    // The query point itself is always counted by the tree (distance 0), so
    // the cap shifts by one.
    let cap = params.max_neighbors + 1;
    for i in 0..data.len() {
        let count = tree.count_within_capped(data, data.point(i), params.radius, cap);
        if count <= cap {
            outliers.push(i);
        }
    }
    outliers
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng::seeded;
    use rand::Rng;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    /// A dense blob plus `extra` isolated points appended at the end.
    fn blob_with_outliers(n_blob: usize, extras: &[[f64; 2]], seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, n_blob + extras.len());
        for _ in 0..n_blob {
            ds.push(&[
                0.5 + (rng.gen::<f64>() - 0.5) * 0.1,
                0.5 + (rng.gen::<f64>() - 0.5) * 0.1,
            ])
            .unwrap();
        }
        for e in extras {
            ds.push(e).unwrap();
        }
        ds
    }

    #[test]
    fn finds_planted_outliers() {
        let extras = [[0.05, 0.05], [0.95, 0.05], [0.05, 0.95]];
        let ds = blob_with_outliers(500, &extras, 1);
        let params = DbOutlierParams::new(0.2, 2).unwrap();
        for metric in METRICS {
            let got = nested_loop_outliers(&ds, &params, metric);
            assert_eq!(got, vec![500, 501, 502], "{metric:?}");
        }
    }

    #[test]
    fn kdtree_matches_nested_loop() {
        let mut rng = seeded(2);
        let mut ds = Dataset::with_capacity(2, 400);
        for _ in 0..400 {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        for p in [3usize, 10, 30] {
            for radius in [0.02, 0.05, 0.1] {
                let params = DbOutlierParams::new(radius, p).unwrap();
                let a = nested_loop_outliers(&ds, &params, Metric::Euclidean);
                let b = kdtree_outliers(&ds, &params);
                assert_eq!(a, b, "p={p} radius={radius}");
            }
        }
    }

    #[test]
    fn no_outliers_when_p_large() {
        let ds = blob_with_outliers(100, &[[0.05, 0.05]], 3);
        let params = DbOutlierParams::new(0.2, 200).unwrap();
        let wide = DbOutlierParams::new(5.0, 5).unwrap();
        for metric in METRICS {
            // Everything is an "outlier" when p >= n-1; nothing when the
            // radius spans the domain.
            assert_eq!(nested_loop_outliers(&ds, &params, metric).len(), 101);
            assert!(nested_loop_outliers(&ds, &wide, metric).is_empty());
        }
    }

    #[test]
    fn empty_and_singleton() {
        let params = DbOutlierParams::new(0.1, 0).unwrap();
        assert!(kdtree_outliers(&Dataset::new(2), &params).is_empty());
        let one = Dataset::from_rows(&[vec![0.5, 0.5]]).unwrap();
        // A lone point has zero neighbors: it is an outlier for any p.
        assert_eq!(
            nested_loop_outliers(&one, &params, Metric::Euclidean),
            vec![0]
        );
        assert_eq!(kdtree_outliers(&one, &params), vec![0]);
    }

    #[test]
    fn boundary_distance_counts_as_neighbor() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        // distance exactly 1.0 = k: neighbors, so with p = 0 neither is an
        // outlier; with k slightly smaller both are.
        let at = DbOutlierParams::new(1.0, 0).unwrap();
        let under = DbOutlierParams::new(0.999, 0).unwrap();
        for metric in METRICS {
            assert!(nested_loop_outliers(&ds, &at, metric).is_empty());
            assert_eq!(nested_loop_outliers(&ds, &under, metric), vec![0, 1]);
        }
    }
}
