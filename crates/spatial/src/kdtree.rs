//! Static kd-tree over a dataset.

use dbs_core::Dataset;

/// A node of the kd-tree, stored in a flat arena.
#[derive(Debug, Clone)]
enum Node {
    /// Interior node: split dimension, split value, children arena indices.
    Split {
        dim: usize,
        value: f64,
        left: u32,
        right: u32,
    },
    /// Leaf node: range `[start, end)` into the permuted index array.
    Leaf { start: u32, end: u32 },
}

/// A static kd-tree built once over a [`Dataset`].
///
/// The tree stores point *indices*; queries return indices into the dataset
/// it was built from. Leaves hold up to [`KdTree::LEAF_SIZE`] points.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    /// Permutation of `0..n`; leaves own contiguous sub-ranges.
    indices: Vec<u32>,
    root: u32,
    dim: usize,
}

/// A `(rank_distance, index)` pair used in a bounded max-heap for kNN.
#[derive(Debug, PartialEq)]
struct HeapItem(f64, u32);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("distances are never NaN")
    }
}

impl KdTree {
    /// Maximum number of points stored in a leaf.
    pub const LEAF_SIZE: usize = 16;

    /// Builds a kd-tree over all points of `data`.
    ///
    /// Panics if `data` is empty.
    pub fn build(data: &Dataset) -> Self {
        assert!(
            !data.is_empty(),
            "cannot build a kd-tree over an empty dataset"
        );
        let mut indices: Vec<u32> = (0..data.len() as u32).collect();
        let mut nodes = Vec::new();
        let n = indices.len();
        let root = Self::build_rec(data, &mut nodes, &mut indices, 0, n);
        KdTree {
            nodes,
            indices,
            root,
            dim: data.dim(),
        }
    }

    /// Chooses the split of `[start, end)` (widest spread, median point), or
    /// `None` when every point there is identical.
    fn choose_split(
        data: &Dataset,
        indices: &mut [u32],
        start: usize,
        end: usize,
    ) -> Option<(usize, f64, usize)> {
        let count = end - start;
        // Split on the dimension with the largest spread among this subset —
        // more robust than cycling dimensions for clustered data.
        let d = data.dim();
        let mut best_dim = 0;
        let mut best_spread = -1.0;
        for j in 0..d {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &i in &indices[start..end] {
                let v = data.point(i as usize)[j];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let spread = hi - lo;
            if spread > best_spread {
                best_spread = spread;
                best_dim = j;
            }
        }
        if best_spread <= 0.0 {
            // All points identical on every dimension: cannot split.
            return None;
        }
        let mid = start + count / 2;
        let sub = &mut indices[start..end];
        sub.select_nth_unstable_by(count / 2, |&a, &b| {
            data.point(a as usize)[best_dim]
                .partial_cmp(&data.point(b as usize)[best_dim])
                .expect("coordinates are never NaN")
        });
        let split_value = data.point(indices[mid] as usize)[best_dim];
        Some((best_dim, split_value, mid))
    }

    fn build_rec(
        data: &Dataset,
        nodes: &mut Vec<Node>,
        indices: &mut [u32],
        start: usize,
        end: usize,
    ) -> u32 {
        let split = if end - start > Self::LEAF_SIZE {
            Self::choose_split(data, indices, start, end)
        } else {
            None
        };
        let Some((best_dim, split_value, mid)) = split else {
            nodes.push(Node::Leaf {
                start: start as u32,
                end: end as u32,
            });
            return (nodes.len() - 1) as u32;
        };
        let left = Self::build_rec(data, nodes, indices, start, mid);
        let right = Self::build_rec(data, nodes, indices, mid, end);
        nodes.push(Node::Split {
            dim: best_dim,
            value: split_value,
            left,
            right,
        });
        (nodes.len() - 1) as u32
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the tree is empty (never true: `build` requires points).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Nearest neighbor of `query` (Euclidean). Returns `(index, distance)`.
    pub fn nearest(&self, data: &Dataset, query: &[f64]) -> (usize, f64) {
        let mut best = (u32::MAX, f64::INFINITY);
        self.nearest_rec(data, query, self.root, &mut best, u32::MAX);
        (best.0 as usize, best.1.sqrt())
    }

    /// Nearest neighbor of `query` excluding the point at `exclude` (useful
    /// when the query is itself an indexed point), returning the
    /// **squared** distance.
    ///
    /// The squared value is exactly what the search computed
    /// (`euclidean_sq`, no rounding through a square root), so callers that
    /// work in squared distances throughout — the hierarchical merge loop —
    /// stay bit-equal to direct `euclidean_sq` comparisons.
    pub fn nearest_excluding_sq(
        &self,
        data: &Dataset,
        query: &[f64],
        exclude: usize,
    ) -> Option<(usize, f64)> {
        let mut best = (u32::MAX, f64::INFINITY);
        self.nearest_rec(data, query, self.root, &mut best, exclude as u32);
        if best.0 == u32::MAX {
            None
        } else {
            Some((best.0 as usize, best.1))
        }
    }

    fn nearest_rec(
        &self,
        data: &Dataset,
        query: &[f64],
        node: u32,
        best: &mut (u32, f64),
        exclude: u32,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                for &i in &self.indices[*start as usize..*end as usize] {
                    if i == exclude {
                        continue;
                    }
                    let d = dbs_core::metric::euclidean_sq(query, data.point(i as usize));
                    if d < best.1 {
                        *best = (i, d);
                    }
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                let (near, far) = if diff < 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.nearest_rec(data, query, near, best, exclude);
                if diff * diff < best.1 {
                    self.nearest_rec(data, query, far, best, exclude);
                }
            }
        }
    }

    /// The `k` nearest neighbors of `query`, closest first.
    /// Returns `(index, distance)` pairs; fewer than `k` if the tree is small.
    pub fn k_nearest(&self, data: &Dataset, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut heap: std::collections::BinaryHeap<HeapItem> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        self.k_nearest_rec(data, query, self.root, k, &mut heap);
        let mut out: Vec<(usize, f64)> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|HeapItem(d, i)| (i as usize, d.sqrt()))
            .collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are never NaN"));
        out
    }

    fn k_nearest_rec(
        &self,
        data: &Dataset,
        query: &[f64],
        node: u32,
        k: usize,
        heap: &mut std::collections::BinaryHeap<HeapItem>,
    ) {
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                for &i in &self.indices[*start as usize..*end as usize] {
                    let d = dbs_core::metric::euclidean_sq(query, data.point(i as usize));
                    if heap.len() < k {
                        heap.push(HeapItem(d, i));
                    } else if d < heap.peek().expect("heap non-empty").0 {
                        heap.pop();
                        heap.push(HeapItem(d, i));
                    }
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                let (near, far) = if diff < 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.k_nearest_rec(data, query, near, k, heap);
                let worst = if heap.len() < k {
                    f64::INFINITY
                } else {
                    heap.peek().expect("heap non-empty").0
                };
                if diff * diff < worst {
                    self.k_nearest_rec(data, query, far, k, heap);
                }
            }
        }
    }

    /// Counts points within Euclidean distance `r` of `query` (inclusive).
    pub fn count_within(&self, data: &Dataset, query: &[f64], r: f64) -> usize {
        self.count_within_capped(data, query, r, usize::MAX)
    }

    /// Counts points within distance `r`, stopping early once the count
    /// exceeds `cap` (returns `cap + 1` in that case). The exact DB-outlier
    /// detectors use this: a point stops being an outlier candidate as soon
    /// as `p + 1` neighbors are seen.
    pub fn count_within_capped(&self, data: &Dataset, query: &[f64], r: f64, cap: usize) -> usize {
        let mut count = 0usize;
        let r2 = r * r;
        self.within_capped_rec(data, query, self.root, r2, cap, &mut count);
        count
    }

    fn within_capped_rec(
        &self,
        data: &Dataset,
        query: &[f64],
        node: u32,
        r2: f64,
        cap: usize,
        count: &mut usize,
    ) {
        if *count > cap {
            return;
        }
        match &self.nodes[node as usize] {
            Node::Leaf { start, end } => {
                for &i in &self.indices[*start as usize..*end as usize] {
                    if dbs_core::metric::euclidean_sq(query, data.point(i as usize)) <= r2 {
                        *count += 1;
                        if *count > cap {
                            return;
                        }
                    }
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let diff = query[*dim] - value;
                let (near, far) = if diff < 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.within_capped_rec(data, query, near, r2, cap, count);
                if diff * diff <= r2 {
                    self.within_capped_rec(data, query, far, r2, cap, count);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::rng::seeded;
    use rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(dim, n);
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            ds.push(&p).unwrap();
        }
        ds
    }

    fn brute_nearest(data: &Dataset, q: &[f64]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for (i, p) in data.iter().enumerate() {
            let d = dbs_core::metric::euclidean_sq(q, p);
            if d < best.1 {
                best = (i, d);
            }
        }
        (best.0, best.1.sqrt())
    }

    #[test]
    fn nearest_matches_brute_force() {
        let data = random_dataset(500, 3, 11);
        let tree = KdTree::build(&data);
        let mut rng = seeded(12);
        for _ in 0..50 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
            let (ti, td) = tree.nearest(&data, &q);
            let (bi, bd) = brute_nearest(&data, &q);
            assert!((td - bd).abs() < 1e-12);
            // Index may differ only under exact ties, which are measure-zero
            // here.
            assert_eq!(ti, bi);
        }
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let data = random_dataset(300, 2, 21);
        let tree = KdTree::build(&data);
        let mut rng = seeded(22);
        for _ in 0..20 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen::<f64>()).collect();
            let got = tree.k_nearest(&data, &q, 7);
            let mut all: Vec<(usize, f64)> = data
                .iter()
                .enumerate()
                .map(|(i, p)| (i, dbs_core::metric::euclidean(q.as_slice(), p)))
                .collect();
            all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            assert_eq!(got.len(), 7);
            for (g, w) in got.iter().zip(all.iter()) {
                assert!((g.1 - w.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn k_nearest_handles_k_larger_than_n() {
        let data = random_dataset(5, 2, 31);
        let tree = KdTree::build(&data);
        let got = tree.k_nearest(&data, &[0.5, 0.5], 10);
        assert_eq!(got.len(), 5);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn count_and_report_within_agree() {
        let data = random_dataset(400, 2, 41);
        let tree = KdTree::build(&data);
        let q = [0.5, 0.5];
        for r in [0.05, 0.2, 0.7] {
            let count = tree.count_within(&data, &q, r);
            let brute = data
                .iter()
                .filter(|p| dbs_core::metric::euclidean(&q, p) <= r)
                .count();
            assert_eq!(count, brute);
        }
    }

    #[test]
    fn capped_count_stops_early() {
        let data = random_dataset(1000, 2, 51);
        let tree = KdTree::build(&data);
        let q = [0.5, 0.5];
        let full = tree.count_within(&data, &q, 0.4);
        assert!(full > 10);
        let capped = tree.count_within_capped(&data, &q, 0.4, 10);
        assert_eq!(capped, 11);
        let uncapped = tree.count_within_capped(&data, &q, 0.4, full + 5);
        assert_eq!(uncapped, full);
    }

    #[test]
    fn nearest_excluding_skips_self() {
        let data = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![5.0, 5.0]]).unwrap();
        let tree = KdTree::build(&data);
        let (i, d2) = tree.nearest_excluding_sq(&data, data.point(0), 0).unwrap();
        assert_eq!(i, 1);
        assert_eq!(d2, 1.0);
    }

    #[test]
    fn duplicate_points_build_fine() {
        let rows = vec![vec![0.5, 0.5]; 100];
        let data = Dataset::from_rows(&rows).unwrap();
        let tree = KdTree::build(&data);
        assert_eq!(tree.count_within(&data, &[0.5, 0.5], 0.0), 100);
        let (_, d) = tree.nearest(&data, &[0.5, 0.5]);
        assert_eq!(d, 0.0);
    }

    #[test]
    #[should_panic]
    fn build_rejects_empty() {
        let _ = KdTree::build(&Dataset::new(2));
    }
}
