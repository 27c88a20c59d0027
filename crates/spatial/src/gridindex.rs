//! Uniform bucket grid over a dataset.

use dbs_core::{BoundingBox, Dataset};

/// A uniform grid index over a fixed domain.
///
/// The domain is divided into `cells_per_dim^dim` equal cells; each cell
/// stores the indices of the points that fall in it. Points outside the
/// domain are clamped into the boundary cells, so every indexed point is
/// always retrievable.
#[derive(Debug, Clone)]
pub struct GridIndex {
    domain: BoundingBox,
    cells_per_dim: usize,
    /// Flattened `cells_per_dim^dim` buckets of point indices.
    buckets: Vec<Vec<u32>>,
    len: usize,
}

impl GridIndex {
    /// Builds a grid over `domain` with `cells_per_dim` cells per dimension,
    /// indexing every point of `data`.
    ///
    /// Panics if `cells_per_dim == 0` or the total cell count would exceed
    /// `2^26` (the caller should lower the resolution instead).
    pub fn build(data: &Dataset, domain: BoundingBox, cells_per_dim: usize) -> Self {
        assert!(cells_per_dim >= 1, "need at least one cell per dimension");
        assert_eq!(domain.dim(), data.dim(), "domain dimensionality mismatch");
        let total = cells_per_dim
            .checked_pow(data.dim() as u32)
            .filter(|&t| t <= 1 << 26)
            .expect("grid too large; lower cells_per_dim");
        let mut grid = GridIndex {
            domain,
            cells_per_dim,
            buckets: vec![Vec::new(); total],
            len: data.len(),
        };
        for (i, p) in data.iter().enumerate() {
            let c = grid.cell_of(p);
            grid.buckets[c].push(i as u32);
        }
        grid
    }

    /// Picks a cell resolution so the expected points per cell is roughly
    /// `target_per_cell`, capped to keep total cells manageable.
    pub fn auto_resolution(n: usize, dim: usize, target_per_cell: usize) -> usize {
        let want_cells = (n / target_per_cell.max(1)).max(1) as f64;
        let per_dim = want_cells.powf(1.0 / dim as f64).round() as usize;
        let cap = match dim {
            1 => 1 << 16,
            2 => 1 << 12,
            3 => 256,
            4 => 64,
            5 => 32,
            _ => 16,
        };
        per_dim.clamp(1, cap)
    }

    /// The flattened cell index containing `p` (clamped into the domain).
    pub fn cell_of(&self, p: &[f64]) -> usize {
        debug_assert_eq!(p.len(), self.domain.dim());
        let mut cell = 0usize;
        for j in 0..p.len() {
            let extent = self.domain.extent(j);
            let rel = if extent > 0.0 {
                (p[j] - self.domain.min()[j]) / extent
            } else {
                0.0
            };
            let c = ((rel * self.cells_per_dim as f64) as isize)
                .clamp(0, self.cells_per_dim as isize - 1) as usize;
            cell = cell * self.cells_per_dim + c;
        }
        cell
    }

    /// Per-dimension cell coordinates of the flattened index.
    fn unflatten(&self, mut cell: usize) -> Vec<usize> {
        let d = self.domain.dim();
        let mut coords = vec![0usize; d];
        for j in (0..d).rev() {
            coords[j] = cell % self.cells_per_dim;
            cell /= self.cells_per_dim;
        }
        coords
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells per dimension.
    pub fn cells_per_dim(&self) -> usize {
        self.cells_per_dim
    }

    /// The side length of a cell along dimension `j`.
    pub fn cell_extent(&self, j: usize) -> f64 {
        self.domain.extent(j) / self.cells_per_dim as f64
    }

    /// The point indices stored in the flattened cell `cell`.
    pub fn bucket(&self, cell: usize) -> &[u32] {
        &self.buckets[cell]
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.buckets.len()
    }

    /// Visits every point index whose cell intersects the axis-aligned box
    /// `[center - radius, center + radius]` — a superset of the points within
    /// L2, L1 or L∞ distance `radius` of `center` (the box is the L∞ ball and
    /// contains the other two).
    ///
    /// Candidates are yielded in **ascending point-index order**. This is
    /// the canonical accumulation order of the density paths: both the
    /// scalar `KernelDensityEstimator::density` and the batch engine sum
    /// center contributions in ascending center index, which is what makes
    /// their outputs bit-identical (see `dbs-density`'s `batch` module).
    pub fn for_each_candidate_within(
        &self,
        center: &[f64],
        radius: f64,
        mut visit: impl FnMut(u32),
    ) {
        let d = self.domain.dim();
        let mut lo = vec![0usize; d];
        let mut hi = vec![0usize; d];
        for j in 0..d {
            let extent = self.domain.extent(j);
            let to_cell = |x: f64| -> usize {
                let rel = if extent > 0.0 {
                    (x - self.domain.min()[j]) / extent
                } else {
                    0.0
                };
                ((rel * self.cells_per_dim as f64) as isize)
                    .clamp(0, self.cells_per_dim as isize - 1) as usize
            };
            lo[j] = to_cell(center[j] - radius);
            hi[j] = to_cell(center[j] + radius);
        }
        // Single-cell fast path: the bucket is already ascending (cells are
        // filled by one in-order scan of the data in `build`).
        if lo == hi {
            let mut cell = 0usize;
            for j in 0..d {
                cell = cell * self.cells_per_dim + lo[j];
            }
            for &i in &self.buckets[cell] {
                visit(i);
            }
            return;
        }
        // Iterate the d-dimensional cell range with an odometer, collecting
        // candidates; cells are disjoint, so one sort restores the global
        // ascending-index order.
        let mut candidates: Vec<u32> = Vec::new();
        let mut coords = lo.clone();
        'odometer: loop {
            let mut cell = 0usize;
            for j in 0..d {
                cell = cell * self.cells_per_dim + coords[j];
            }
            candidates.extend_from_slice(&self.buckets[cell]);
            // Advance odometer.
            let mut j = d;
            loop {
                if j == 0 {
                    break 'odometer;
                }
                j -= 1;
                if coords[j] < hi[j] {
                    coords[j] += 1;
                    // Reset all trailing coordinates to their lows.
                    for (t, c) in coords.iter_mut().enumerate().skip(j + 1) {
                        *c = lo[t];
                    }
                    break;
                }
            }
        }
        candidates.sort_unstable();
        for i in candidates {
            visit(i);
        }
    }

    /// Counts the points within Euclidean distance `radius` of `center`
    /// (inclusive), verifying candidates against the dataset.
    pub fn count_within(&self, data: &Dataset, center: &[f64], radius: f64) -> usize {
        let r2 = radius * radius;
        let mut count = 0usize;
        self.for_each_candidate_within(center, radius, |i| {
            if dbs_core::metric::euclidean_sq(center, data.point(i as usize)) <= r2 {
                count += 1;
            }
        });
        count
    }

    /// The bounding box of the flattened cell `cell`.
    pub fn cell_bbox(&self, cell: usize) -> BoundingBox {
        let coords = self.unflatten(cell);
        let d = self.domain.dim();
        let mut min = vec![0.0; d];
        let mut max = vec![0.0; d];
        for j in 0..d {
            let w = self.cell_extent(j);
            min[j] = self.domain.min()[j] + coords[j] as f64 * w;
            max[j] = min[j] + w;
        }
        BoundingBox::new(min, max)
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

    #[test]
    fn every_point_lands_in_exactly_one_bucket() {
        let data = random_dataset(200, 2, 1);
        let grid = GridIndex::build(&data, BoundingBox::unit(2), 8);
        let total: usize = (0..grid.num_cells()).map(|c| grid.bucket(c).len()).sum();
        assert_eq!(total, 200);
        assert_eq!(grid.len(), 200);
    }

    #[test]
    fn out_of_domain_points_are_clamped() {
        let data = Dataset::from_rows(&[vec![-0.5, 2.0], vec![0.5, 0.5]]).unwrap();
        let grid = GridIndex::build(&data, BoundingBox::unit(2), 4);
        let total: usize = (0..grid.num_cells()).map(|c| grid.bucket(c).len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn count_within_matches_brute_force() {
        let data = random_dataset(500, 3, 2);
        let grid = GridIndex::build(&data, BoundingBox::unit(3), 6);
        let mut rng = seeded(3);
        for _ in 0..20 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
            let r = 0.05 + rng.gen::<f64>() * 0.3;
            let got = grid.count_within(&data, &q, r);
            let want = data
                .iter()
                .filter(|p| dbs_core::metric::euclidean(&q, p) <= r)
                .count();
            assert_eq!(got, want, "q={q:?} r={r}");
        }
    }

    #[test]
    fn candidates_superset_of_ball() {
        let data = random_dataset(300, 2, 4);
        let grid = GridIndex::build(&data, BoundingBox::unit(2), 10);
        let q = [0.3, 0.7];
        let r = 0.15;
        let mut candidates = Vec::new();
        grid.for_each_candidate_within(&q, r, |i| candidates.push(i as usize));
        for (i, p) in data.iter().enumerate() {
            if dbs_core::metric::euclidean(&q, p) <= r {
                assert!(
                    candidates.contains(&i),
                    "in-ball point {i} missing from candidates"
                );
            }
        }
    }

    #[test]
    fn candidates_are_yielded_in_ascending_index_order() {
        let data = random_dataset(400, 3, 11);
        let grid = GridIndex::build(&data, BoundingBox::unit(3), 5);
        let mut rng = seeded(12);
        for _ in 0..25 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
            // Radii from sub-cell (single-cell fast path) to half the domain
            // (multi-cell merge path).
            for r in [0.05, 0.2, 0.5] {
                let mut last: Option<u32> = None;
                grid.for_each_candidate_within(&q, r, |i| {
                    if let Some(prev) = last {
                        assert!(prev < i, "candidates out of order: {prev} then {i}");
                    }
                    last = Some(i);
                });
            }
        }
    }

    #[test]
    fn cell_bbox_contains_its_points() {
        let data = random_dataset(100, 2, 5);
        let grid = GridIndex::build(&data, BoundingBox::unit(2), 5);
        for c in 0..grid.num_cells() {
            let bb = grid.cell_bbox(c).inflate(1e-12);
            for &i in grid.bucket(c) {
                assert!(bb.contains(data.point(i as usize)), "cell {c} point {i}");
            }
        }
    }

    #[test]
    fn auto_resolution_is_sane() {
        assert!(GridIndex::auto_resolution(100_000, 2, 10) >= 10);
        assert!(GridIndex::auto_resolution(100_000, 5, 10) <= 32);
        assert_eq!(GridIndex::auto_resolution(1, 2, 10), 1);
    }

    #[test]
    fn degenerate_domain_single_cell() {
        let data = Dataset::from_rows(&[vec![0.5], vec![0.5]]).unwrap();
        let domain = BoundingBox::new(vec![0.5], vec![0.5]);
        let grid = GridIndex::build(&data, domain, 4);
        assert_eq!(grid.count_within(&data, &[0.5], 0.1), 2);
    }
}
