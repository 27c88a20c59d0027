//! Uniform bucket grid over a dataset.

use dbs_core::{BoundingBox, Dataset};

/// The most cells a grid may hold (`2^26`), for [`GridIndex`] and
/// [`crate::RepIndex`] alike.
pub(crate) const MAX_CELLS: usize = 1 << 26;

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
            .filter(|&t| t <= MAX_CELLS)
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
    /// `target_per_cell`, capped to keep total cells manageable and never
    /// above the `2^26` cells [`GridIndex::build`] accepts.
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
        let mut res = per_dim.clamp(1, cap);
        while res > 1 && res.checked_pow(dim as u32).is_none_or(|t| t > MAX_CELLS) {
            res -= 1;
        }
        res
    }

    /// The flattened cell index containing `p` (clamped into the domain).
    pub fn cell_of(&self, p: &[f64]) -> usize {
        debug_assert_eq!(p.len(), self.domain.dim());
        (0..p.len()).fold(0, |cell, j| {
            cell * self.cells_per_dim + self.axis_cell(j, p[j])
        })
    }

    /// The cell coordinate of `x` along dimension `j`, clamped into the
    /// grid. Monotone (non-decreasing) in `x`.
    fn axis_cell(&self, j: usize, x: f64) -> usize {
        let extent = self.domain.extent(j);
        let rel = if extent > 0.0 {
            (x - self.domain.min()[j]) / extent
        } else {
            0.0
        };
        ((rel * self.cells_per_dim as f64) as isize).clamp(0, self.cells_per_dim as isize - 1)
            as usize
    }

    /// The lower edge of cell coordinate `k` along dimension `j`: the least
    /// float `x` with `axis_cell(j, x) >= k`, and the domain's bound for
    /// `k = 0` and `k = cells_per_dim`. The nominal edge `min + k·extent/res`
    /// rounds differently from `axis_cell`, and near 0 it can lie many
    /// floats away, so the edge is found by bisection (`axis_cell` is
    /// monotone).
    fn edge(&self, j: usize, k: usize) -> f64 {
        let (mut lo, mut hi) = (self.domain.min()[j], self.domain.max()[j]);
        if k == 0 || k == self.cells_per_dim {
            return if k == 0 { lo } else { hi };
        }
        // `axis_cell(j, lo) = 0 < k <= axis_cell(j, hi)` holds throughout.
        loop {
            let mid = lo + (hi - lo) / 2.0;
            if !(lo < mid && mid < hi) {
                return hi;
            }
            if self.axis_cell(j, mid) >= k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
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
    /// contains the other two). The box walk of
    /// [`GridIndex::candidates_in_box`] for `[center − radius, center +
    /// radius]`, handed to `visit` one index at a time.
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
        let mut candidates = Vec::new();
        self.walk_box(
            |j| (center[j] - radius, center[j] + radius),
            &mut candidates,
        );
        for i in candidates {
            visit(i);
        }
    }

    /// Appends to `out` the index of every point whose cell intersects the
    /// axis-aligned box `[lo, hi]` (per dimension, `lo[j] <= hi[j]`), in
    /// **ascending point-index order** and without duplicates. Entries
    /// already in `out` are kept, so a caller can reuse one buffer by
    /// clearing it between queries.
    ///
    /// Cell coordinates are monotone in the coordinate, so the cells
    /// returned for a box contain those returned for every box inside it:
    /// in particular, for every `x` with `lo[j] <= x[j] <= hi[j]`, the
    /// candidates of `[lo − r, hi + r]` include those of
    /// `for_each_candidate_within(x, r)`.
    pub fn candidates_in_box(&self, lo: &[f64], hi: &[f64], out: &mut Vec<u32>) {
        debug_assert_eq!(lo.len(), self.domain.dim());
        debug_assert_eq!(hi.len(), self.domain.dim());
        self.walk_box(|j| (lo[j], hi[j]), out);
    }

    /// The one grid walk: appends the points of every cell meeting the box
    /// whose extent along dimension `j` is `bounds(j)` to `out`, ascending.
    fn walk_box(&self, bounds: impl Fn(usize) -> (f64, f64), out: &mut Vec<u32>) {
        let d = self.domain.dim();
        let cell_range = |j: usize| {
            let (lo, hi) = bounds(j);
            (self.axis_cell(j, lo), self.axis_cell(j, hi))
        };
        // Single-cell fast path, found without allocating: the bucket is
        // already ascending (cells are filled by one in-order scan of the
        // data in `build`).
        let (first, last) = (0..d).fold((0usize, 0usize), |(a, b), j| {
            let (lo, hi) = cell_range(j);
            (a * self.cells_per_dim + lo, b * self.cells_per_dim + hi)
        });
        if first == last {
            out.extend_from_slice(&self.buckets[first]);
            return;
        }
        // Iterate the d-dimensional cell range with an odometer, collecting
        // candidates; cells are disjoint, so one sort restores the global
        // ascending-index order.
        let (lo, hi): (Vec<usize>, Vec<usize>) = (0..d).map(cell_range).unzip();
        let start = out.len();
        let mut coords = lo.clone();
        'odometer: loop {
            let cell = coords
                .iter()
                .fold(0usize, |cell, &c| cell * self.cells_per_dim + c);
            out.extend_from_slice(&self.buckets[cell]);
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
                    coords[j + 1..].copy_from_slice(&lo[j + 1..]);
                    break;
                }
            }
        }
        out[start..].sort_unstable();
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

    /// The bounding box of the flattened cell `cell`: it contains every
    /// point of the domain that [`GridIndex::cell_of`] assigns to the cell.
    pub fn cell_bbox(&self, cell: usize) -> BoundingBox {
        let coords = self.unflatten(cell);
        let d = self.domain.dim();
        let mut min = vec![0.0; d];
        let mut max = vec![0.0; d];
        for j in 0..d {
            min[j] = self.edge(j, coords[j]);
            max[j] = self.edge(j, coords[j] + 1);
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
    fn box_walk_is_ascending_exact_and_covers_the_shrunk_box_queries() {
        let data = random_dataset(600, 3, 21);
        let grid = GridIndex::build(&data, BoundingBox::unit(3), 6);
        let mut rng = seeded(22);
        let mut out = Vec::new();
        for trial in 0..60 {
            let r = 0.02 + rng.gen::<f64>() * 0.2;
            // Boxes anywhere in [-1, 2]^3: inside, straddling, and wholly
            // outside the unit domain (all clamp into boundary cells).
            let mut lo = [0.0f64; 3];
            let mut hi = [0.0f64; 3];
            for j in 0..3 {
                lo[j] = rng.gen::<f64>() * 3.0 - 1.0;
                hi[j] = lo[j] + 2.0 * r + rng.gen::<f64>() * 0.5;
            }
            // A stale prefix must be kept, not sorted into the answer.
            out.clear();
            out.push(u32::MAX);
            grid.candidates_in_box(&lo, &hi, &mut out);
            assert_eq!(out[0], u32::MAX, "trial {trial}: prefix clobbered");
            let got = &out[1..];
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "trial {trial}: not strictly ascending"
            );

            // Exactly the points whose (clamped) cell lies in the box's
            // per-dimension cell range.
            let want: Vec<u32> = (0..data.len() as u32)
                .filter(|&i| {
                    let coords = grid.unflatten(grid.cell_of(data.point(i as usize)));
                    (0..3).all(|j| {
                        grid.axis_cell(j, lo[j]) <= coords[j]
                            && coords[j] <= grid.axis_cell(j, hi[j])
                    })
                })
                .collect();
            assert_eq!(got, want.as_slice(), "trial {trial}");

            // Superset of every `x ± r` query with `x` in the box shrunk
            // by `r`: its corners, its midpoint and random interior points.
            let mut xs: Vec<[f64; 3]> = (0..8)
                .map(|corner| {
                    std::array::from_fn(|j| {
                        if corner >> j & 1 == 0 {
                            lo[j] + r
                        } else {
                            hi[j] - r
                        }
                    })
                })
                .collect();
            xs.push(std::array::from_fn(|j| 0.5 * (lo[j] + hi[j])));
            for _ in 0..8 {
                xs.push(std::array::from_fn(|j| {
                    lo[j] + r + rng.gen::<f64>() * (hi[j] - lo[j] - 2.0 * r)
                }));
            }
            for x in &xs {
                grid.for_each_candidate_within(x, r, |i| {
                    assert!(
                        got.binary_search(&i).is_ok(),
                        "trial {trial}: candidate {i} of {x:?} ± {r} missing from the box walk"
                    );
                });
            }
        }
    }

    #[test]
    fn cell_bbox_contains_its_points() {
        // Non-dyadic domains, whose nominal edges `min + k·w` round, a
        // domain far from the origin, and one whose middle edge is 0 while
        // `axis_cell` resolves only ulps of 1e6 there.
        let domains = [
            BoundingBox::unit(2),
            BoundingBox::new(vec![-0.1, -0.1], vec![1.03, 1.03]),
            BoundingBox::new(vec![0.0, -3.7], vec![0.3, 2.9]),
            BoundingBox::new(vec![1e6, 1e6], vec![1e6 + 1e-3, 1e6 + 1e-3]),
            BoundingBox::new(vec![-1e6, -1e6], vec![1e6, 1e6]),
        ];
        for domain in domains {
            for res in [5, 7, 16] {
                // Random points, plus every float within 3 ulps of a nominal
                // edge.
                let inside = |j: usize, u: f64| domain.min()[j] + u * domain.extent(j);
                let mut data = Dataset::new(2);
                for p in random_dataset(200, 2, 5).iter() {
                    data.push(&[inside(0, p[0]), inside(1, p[1])]).unwrap();
                }
                let near_edges = |j: usize| {
                    let side = domain.extent(j) / res as f64;
                    let mut xs = Vec::new();
                    for k in 0..=res {
                        let mut x = domain.min()[j] + k as f64 * side;
                        (0..3).for_each(|_| x = x.next_down());
                        for _ in 0..7 {
                            xs.push(x);
                            x = x.next_up();
                        }
                    }
                    xs
                };
                for x in near_edges(0) {
                    for y in near_edges(1) {
                        data.push(&[x, y]).unwrap();
                    }
                }
                let grid = GridIndex::build(&data, domain.clone(), res);
                for c in 0..grid.num_cells() {
                    let (bb, coords) = (grid.cell_bbox(c), grid.unflatten(c));
                    for &i in grid.bucket(c) {
                        let p = data.point(i as usize);
                        for j in 0..2 {
                            // The grid's outer sides are open: points beyond
                            // them are clamped into the boundary cells.
                            let below = coords[j] > 0 && p[j] < bb.min()[j];
                            let above = coords[j] < res - 1 && p[j] > bb.max()[j];
                            assert!(!below && !above, "{domain:?}, res {res}: cell {c}, {p:?}");
                        }
                    }
                }
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
    fn auto_resolution_fits_the_cell_cap() {
        for dim in 1..=40 {
            for n in [100_000, 1 << 40, usize::MAX] {
                let res = GridIndex::auto_resolution(n, dim, 1);
                assert!(res >= 1);
                let cells = res.checked_pow(dim as u32);
                assert!(
                    cells.is_some_and(|c| c <= MAX_CELLS),
                    "dim {dim}, n {n}: resolution {res}"
                );
            }
        }
    }

    #[test]
    fn degenerate_domain_single_cell() {
        let data = Dataset::from_rows(&[vec![0.5], vec![0.5]]).unwrap();
        let domain = BoundingBox::new(vec![0.5], vec![0.5]);
        let grid = GridIndex::build(&data, domain, 4);
        assert_eq!(grid.count_within(&data, &[0.5], 0.1), 2);
    }
}
