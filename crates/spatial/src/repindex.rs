//! Dynamic grid index over cluster representative points.
//!
//! The hierarchical merge loop (`dbs-cluster::hierarchical`) needs one query
//! answered fast, over and over: *which other cluster has the representative
//! point closest to this one?* [`RepIndex`] answers it with a uniform bucket
//! grid mapping representative point → owning cluster id, updated
//! incrementally as merges replace representative sets and trims drop
//! clusters.
//!
//! The query contract is exact, not approximate: [`RepIndex::nearest_owner_sq`]
//! returns the minimum over all indexed reps of the *squared* Euclidean
//! distance, computed with [`dbs_core::metric::euclidean_sq`] on the stored
//! coordinates — bit-equal to what a linear scan over the same rep pairs
//! would produce — and breaks distance ties toward the **lowest owner id**.
//! That tie-break is what makes the accelerated merge loop reproduce the
//! reference loop's merge sequence exactly (see the determinism contract in
//! DESIGN.md §5).

use dbs_core::metric::euclidean_sq;
use dbs_core::BoundingBox;

/// A dynamic uniform-grid index of points labeled with owner ids.
///
/// Points outside the domain are clamped into the boundary cells (same
/// convention as [`crate::GridIndex`]), so every inserted point is always
/// retrievable. Buckets store owners and coordinates in parallel arrays;
/// removal is by owner over the cells the caller's points hash to.
#[derive(Debug, Clone)]
pub struct RepIndex {
    domain: BoundingBox,
    cells_per_dim: usize,
    dim: usize,
    /// Owner id of each rep, bucketed per cell.
    owners: Vec<Vec<u32>>,
    /// Flattened `dim`-strided coordinates, parallel to `owners`.
    coords: Vec<Vec<f64>>,
    len: usize,
}

impl RepIndex {
    /// Builds an empty index over `domain`, sized for `expected_points`
    /// representative points.
    ///
    /// Panics if the resolved grid would exceed `2^26` cells (same cap as
    /// [`crate::GridIndex`]); `expected_points` only guides the resolution.
    pub fn new(domain: BoundingBox, expected_points: usize) -> Self {
        let dim = domain.dim();
        let cells_per_dim = crate::GridIndex::auto_resolution(expected_points.max(1), dim, 2);
        Self::with_resolution(domain, cells_per_dim)
    }

    fn with_resolution(domain: BoundingBox, cells_per_dim: usize) -> Self {
        let dim = domain.dim();
        let total = cells_per_dim
            .checked_pow(dim as u32)
            .filter(|&t| t <= crate::gridindex::MAX_CELLS)
            .expect("rep grid too large; lower the resolution");
        RepIndex {
            domain,
            cells_per_dim,
            dim,
            owners: vec![Vec::new(); total],
            coords: vec![Vec::new(); total],
            len: 0,
        }
    }

    /// Number of indexed representative points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-dimension cell coordinate of `x` along dimension `j` (clamped).
    #[inline]
    fn cell_coord(&self, j: usize, x: f64) -> usize {
        let extent = self.domain.extent(j);
        let rel = if extent > 0.0 {
            (x - self.domain.min()[j]) / extent
        } else {
            0.0
        };
        ((rel * self.cells_per_dim as f64) as isize).clamp(0, self.cells_per_dim as isize - 1)
            as usize
    }

    /// Flattened cell index containing `p`.
    fn cell_of(&self, p: &[f64]) -> usize {
        debug_assert_eq!(p.len(), self.dim);
        let mut cell = 0usize;
        for j in 0..self.dim {
            cell = cell * self.cells_per_dim + self.cell_coord(j, p[j]);
        }
        cell
    }

    /// Indexes `rep` under `owner`.
    pub fn insert(&mut self, owner: u32, rep: &[f64]) {
        let cell = self.cell_of(rep);
        self.owners[cell].push(owner);
        self.coords[cell].extend_from_slice(rep);
        self.len += 1;
    }

    /// Indexes every rep in `reps` under `owner`.
    pub fn insert_all(&mut self, owner: u32, reps: &[Vec<f64>]) {
        for rep in reps {
            self.insert(owner, rep);
        }
    }

    /// Removes every entry of `owner` from the cells its `reps` hash to.
    ///
    /// `reps` must be the exact point set previously inserted for `owner`
    /// (the caller — the merge loop — always has it at hand); passing a
    /// different set leaves stray entries behind.
    pub fn remove_all(&mut self, owner: u32, reps: &[Vec<f64>]) {
        let dim = self.dim;
        for rep in reps {
            let cell = self.cell_of(rep);
            let owners = &mut self.owners[cell];
            let coords = &mut self.coords[cell];
            // One pass removes every entry of this owner in the cell; later
            // reps hashing to the same cell find nothing left, which is fine.
            let mut slot = 0;
            while slot < owners.len() {
                if owners[slot] == owner {
                    owners.swap_remove(slot);
                    let last = coords.len() - dim;
                    let base = slot * dim;
                    if base < last {
                        let (head, tail) = coords.split_at_mut(last);
                        head[base..base + dim].copy_from_slice(tail);
                    }
                    coords.truncate(last);
                    self.len -= 1;
                } else {
                    slot += 1;
                }
            }
        }
    }

    /// Halves the grid resolution when the index has become sparse, so the
    /// ring search of [`RepIndex::nearest_owner_sq`] never wades through a
    /// sea of empty cells late in a merge run. Query results are unaffected
    /// (the query is exact at any resolution); call freely.
    ///
    /// Coarsening is allowed all the way down to one cell per dimension
    /// (a single-cell grid, i.e. a plain linear scan). That last step
    /// matters in high dimension: at d = 16 even two cells per dimension
    /// is 2^16 buckets, which a few thousand points can never fill, and a
    /// former `>= 4` guard here kept such indexes stuck at a resolution
    /// where every ring expansion crawled tens of thousands of empty
    /// cells — the merge-loop cliff ROADMAP.md recorded between n = 1200
    /// (resolution 1) and n = 1500 (resolution 2).
    pub fn maybe_coarsen(&mut self) {
        while self.cells_per_dim >= 2 && self.len * 8 < self.owners.len() {
            let mut rebuilt = Self::with_resolution(self.domain.clone(), self.cells_per_dim / 2);
            for (cell, owners) in self.owners.iter().enumerate() {
                let coords = &self.coords[cell];
                for (slot, &owner) in owners.iter().enumerate() {
                    rebuilt.insert(owner, &coords[slot * self.dim..(slot + 1) * self.dim]);
                }
            }
            *self = rebuilt;
        }
    }

    /// The nearest indexed rep not owned by `exclude`: returns
    /// `(owner, squared_distance)`, or `None` when no other owner is
    /// indexed.
    ///
    /// Distance ties break toward the lowest owner id: the result is the
    /// lexicographic minimum of `(euclidean_sq(query, rep), owner)` over all
    /// candidate reps — exactly what an ascending-id linear scan with a
    /// strict `<` distance test computes.
    pub fn nearest_owner_sq(&self, query: &[f64], exclude: u32) -> Option<(u32, f64)> {
        let mut evals = 0u64;
        self.nearest_owner_sq_counted(query, exclude, &mut evals)
    }

    /// [`RepIndex::nearest_owner_sq`] that also adds the number of
    /// rep-point distance evaluations performed to `*evals`. The count is a
    /// pure function of (index contents, query, exclude) — callers that sum
    /// it over deterministic work lists get schedule-independent totals.
    pub fn nearest_owner_sq_counted(
        &self,
        query: &[f64],
        exclude: u32,
        evals: &mut u64,
    ) -> Option<(u32, f64)> {
        self.knearest_owners_sq_counted(query, exclude, 1, evals)
            .first()
            .copied()
    }

    /// The `k` nearest *distinct owners* to `query`, excluding `exclude`.
    ///
    /// Each owner appears once, at its minimum squared distance over all its
    /// indexed reps. The result is ascending in the lexicographic
    /// `(squared_distance, owner)` order — the exact top-`k` of that order
    /// over all other owners, so `result[0]` is what
    /// [`RepIndex::nearest_owner_sq`] returns. Returns fewer than `k` pairs
    /// when fewer other owners are indexed.
    pub fn knearest_owners_sq(&self, query: &[f64], exclude: u32, k: usize) -> Vec<(u32, f64)> {
        let mut evals = 0u64;
        self.knearest_owners_sq_counted(query, exclude, k, &mut evals)
    }

    /// [`RepIndex::knearest_owners_sq`] that also adds the number of
    /// rep-point distance evaluations performed to `*evals`.
    pub fn knearest_owners_sq_counted(
        &self,
        query: &[f64],
        exclude: u32,
        k: usize,
        evals: &mut u64,
    ) -> Vec<(u32, f64)> {
        debug_assert_eq!(query.len(), self.dim);
        if k == 0 {
            return Vec::new();
        }
        let dim = self.dim;
        // Ascending by (dist, owner); at most one entry per owner (its
        // minimum distance), at most `k` entries total.
        let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
        let mut spent = 0u64;

        // Expanding ring search in cell space (Chebyshev rings around the
        // query's cell). A ring may only be skipped once no cell in it can
        // contain a rep at distance <= the current k-th best — `<=`, not
        // `<`, because an equal-distance rep with a lower owner id would
        // change the tie-break.
        let center: Vec<usize> = (0..dim).map(|j| self.cell_coord(j, query[j])).collect();
        let max_ring = self.cells_per_dim; // rings beyond this are empty
        for ring in 0..=max_ring {
            if best.len() == k {
                let lb = self.ring_lower_bound_sq(query, &center, ring);
                if lb > best[k - 1].0 {
                    break;
                }
            }
            let mut any_cell = false;
            self.for_each_ring_cell(&center, ring, |cell| {
                any_cell = true;
                let owners = &self.owners[cell];
                let coords = &self.coords[cell];
                for (slot, &owner) in owners.iter().enumerate() {
                    if owner == exclude {
                        continue;
                    }
                    spent += 1;
                    let d = euclidean_sq(query, &coords[slot * dim..(slot + 1) * dim]);
                    if let Some(pos) = best.iter().position(|&(_, o)| o == owner) {
                        // Keep only the owner's minimum distance; owners are
                        // unique, so the pair comparison needs no id term.
                        if d >= best[pos].0 {
                            continue;
                        }
                        best.remove(pos);
                    } else if best.len() == k {
                        let (wd, wo) = best[k - 1];
                        if d > wd || (d == wd && owner > wo) {
                            continue;
                        }
                    }
                    let at = best.partition_point(|&(bd, bo)| bd < d || (bd == d && bo < owner));
                    best.insert(at, (d, owner));
                    if best.len() > k {
                        best.pop();
                    }
                }
            });
            if !any_cell {
                break; // ring entirely outside the grid: nothing further out
            }
        }
        *evals += spent;
        best.into_iter().map(|(d, o)| (o, d)).collect()
    }

    /// Lower bound on the squared distance from `query` to any point in a
    /// cell at Chebyshev ring `ring` around `center` (0 for ring 0).
    fn ring_lower_bound_sq(&self, query: &[f64], center: &[usize], ring: usize) -> f64 {
        if ring == 0 {
            return 0.0;
        }
        // A ring-`ring` cell is offset by exactly `ring` cells in some
        // dimension. The gap to such a cell is at least `ring - 1` full
        // cells plus the query's distance to its own cell edge on that side;
        // minimize over dimensions and sides for a valid bound.
        let mut lb = f64::INFINITY;
        for j in 0..self.dim {
            let w = self.domain.extent(j) / self.cells_per_dim as f64;
            if !(w > 0.0) {
                // Degenerate dimension: every cell coordinate is 0, so no
                // cell is ever `ring` away along it.
                continue;
            }
            let cell_lo = self.domain.min()[j] + center[j] as f64 * w;
            let cell_hi = cell_lo + w;
            // Offset -ring (only reachable if the grid extends that far).
            if center[j] >= ring {
                let gap = (query[j] - cell_lo).max(0.0) + (ring - 1) as f64 * w;
                lb = lb.min(gap);
            }
            // Offset +ring.
            if center[j] + ring < self.cells_per_dim {
                let gap = (cell_hi - query[j]).max(0.0) + (ring - 1) as f64 * w;
                lb = lb.min(gap);
            }
        }
        if lb.is_finite() {
            lb * lb
        } else {
            f64::INFINITY
        }
    }

    /// Visits every in-grid cell at Chebyshev ring `ring` around `center`.
    ///
    /// Enumeration is by shell faces: each shell cell has some lowest
    /// dimension pinned at offset ±`ring`, so for every (pinned dimension,
    /// side) pair we walk an odometer over the remaining dimensions —
    /// earlier dimensions confined strictly inside the shell, later ones
    /// spanning the full `±ring` box — with every per-dimension range
    /// clamped to the grid up front. Each shell cell is visited exactly
    /// once and the walk costs only the in-grid cells it yields. (A
    /// previous version iterated the full `(2r+1)^d` offset box and
    /// filtered; at d = 16 that is 3^16 ≈ 43M offsets for ring 1 alone,
    /// which was the dominant cost of the high-dimension merge-loop cliff.)
    fn for_each_ring_cell(&self, center: &[usize], ring: usize, mut visit: impl FnMut(usize)) {
        let dim = self.dim;
        let cpd = self.cells_per_dim as isize;
        let r = ring as isize;
        if ring == 0 {
            // `center` comes from `cell_coord`, so it is always in-grid.
            let mut cell = 0usize;
            for &c in center {
                cell = cell * self.cells_per_dim + c;
            }
            visit(cell);
            return;
        }
        let mut lo = vec![0isize; dim];
        let mut hi = vec![0isize; dim];
        for pin in 0..dim {
            'side: for side in [-r, r] {
                let pinned = center[pin] as isize + side;
                if pinned < 0 || pinned >= cpd {
                    continue;
                }
                for t in 0..dim {
                    if t == pin {
                        lo[t] = pinned;
                        hi[t] = pinned;
                        continue;
                    }
                    // Dimensions below the pin stay strictly inside the
                    // shell (their ±r faces belong to an earlier pin).
                    let slack = if t < pin { r - 1 } else { r };
                    lo[t] = (center[t] as isize - slack).max(0);
                    hi[t] = (center[t] as isize + slack).min(cpd - 1);
                    if lo[t] > hi[t] {
                        continue 'side;
                    }
                }
                let mut off = lo.clone();
                'odometer: loop {
                    let mut cell = 0usize;
                    for &c in off.iter() {
                        cell = cell * self.cells_per_dim + c as usize;
                    }
                    visit(cell);
                    let mut j = dim;
                    loop {
                        if j == 0 {
                            break 'odometer;
                        }
                        j -= 1;
                        if off[j] < hi[j] {
                            off[j] += 1;
                            off[(j + 1)..dim].copy_from_slice(&lo[(j + 1)..dim]);
                            continue 'odometer;
                        }
                    }
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

    /// Reference linear scan with the documented tie-break.
    fn brute_nearest(
        points: &[(u32, Vec<f64>)],
        query: &[f64],
        exclude: u32,
    ) -> Option<(u32, f64)> {
        let mut best: Option<(u32, f64)> = None;
        for (owner, p) in points {
            if *owner == exclude {
                continue;
            }
            let d = euclidean_sq(query, p);
            best = match best {
                None => Some((*owner, d)),
                Some((bo, bd)) if d < bd || (d == bd && *owner < bo) => Some((*owner, d)),
                keep => keep,
            };
        }
        best
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<(u32, Vec<f64>)> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|i| {
                let p: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
                // Several reps per owner.
                ((i / 3) as u32, p)
            })
            .collect()
    }

    #[test]
    fn nearest_matches_linear_scan_with_tiebreak() {
        for dim in [1usize, 2, 3, 5] {
            let points = random_points(200, dim, 7 + dim as u64);
            let mut index = RepIndex::new(BoundingBox::unit(dim), 200);
            for (owner, p) in &points {
                index.insert(*owner, p);
            }
            let mut rng = seeded(99);
            for _ in 0..50 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
                let exclude = rng.gen_range(0..70u32);
                let got = index.nearest_owner_sq(&q, exclude);
                let want = brute_nearest(&points, &q, exclude);
                assert_eq!(got, want, "dim={dim} q={q:?} exclude={exclude}");
            }
        }
    }

    #[test]
    fn ties_break_toward_lowest_owner() {
        // Two owners with reps at mirror-image positions: equal distance
        // from the midpoint query.
        let mut index = RepIndex::new(BoundingBox::unit(1), 4);
        index.insert(9, &[0.25]);
        index.insert(3, &[0.75]);
        let (owner, d) = index.nearest_owner_sq(&[0.5], u32::MAX).unwrap();
        assert_eq!(owner, 3);
        assert!((d - 0.0625).abs() < 1e-15);
    }

    #[test]
    fn exclude_skips_owner_entirely() {
        let mut index = RepIndex::new(BoundingBox::unit(2), 8);
        index.insert(0, &[0.5, 0.5]);
        index.insert(0, &[0.51, 0.5]);
        index.insert(1, &[0.9, 0.9]);
        let (owner, _) = index.nearest_owner_sq(&[0.5, 0.5], 0).unwrap();
        assert_eq!(owner, 1);
        assert!(index.nearest_owner_sq(&[0.5, 0.5], u32::MAX).is_some());
        index.remove_all(1, &[vec![0.9, 0.9]]);
        assert!(index.nearest_owner_sq(&[0.5, 0.5], 0).is_none());
    }

    #[test]
    fn remove_then_query_is_consistent() {
        let points = random_points(150, 2, 21);
        let mut index = RepIndex::new(BoundingBox::unit(2), 150);
        for (owner, p) in &points {
            index.insert(*owner, p);
        }
        // Remove every even owner.
        let mut survivors: Vec<(u32, Vec<f64>)> = Vec::new();
        for owner in 0..50u32 {
            let reps: Vec<Vec<f64>> = points
                .iter()
                .filter(|(o, _)| *o == owner)
                .map(|(_, p)| p.clone())
                .collect();
            if owner % 2 == 0 {
                index.remove_all(owner, &reps);
            } else {
                survivors.extend(reps.into_iter().map(|p| (owner, p)));
            }
        }
        assert_eq!(index.len(), survivors.len());
        let mut rng = seeded(22);
        for _ in 0..30 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen::<f64>()).collect();
            assert_eq!(
                index.nearest_owner_sq(&q, u32::MAX),
                brute_nearest(&survivors, &q, u32::MAX)
            );
        }
    }

    #[test]
    fn coarsening_preserves_query_results() {
        let points = random_points(400, 2, 31);
        let mut index = RepIndex::new(BoundingBox::unit(2), 40_000);
        for (owner, p) in &points {
            index.insert(*owner, p);
        }
        let before = index.cells_per_dim;
        index.maybe_coarsen();
        assert!(index.cells_per_dim < before, "expected a coarsening step");
        let mut rng = seeded(32);
        for _ in 0..30 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen::<f64>()).collect();
            assert_eq!(
                index.nearest_owner_sq(&q, u32::MAX),
                brute_nearest(&points, &q, u32::MAX)
            );
        }
    }

    #[test]
    fn out_of_domain_points_are_retrievable() {
        let mut index = RepIndex::new(BoundingBox::unit(2), 10);
        index.insert(0, &[-0.5, 2.0]);
        let got = index.nearest_owner_sq(&[1.5, 1.5], u32::MAX);
        let want = euclidean_sq(&[1.5, 1.5], &[-0.5, 2.0]);
        assert_eq!(got, Some((0, want)));
    }

    #[test]
    fn degenerate_domain_single_cell() {
        let domain = BoundingBox::new(vec![0.5, 0.5], vec![0.5, 0.5]);
        let mut index = RepIndex::new(domain, 4);
        index.insert(1, &[0.5, 0.5]);
        index.insert(2, &[0.5, 0.5]);
        let (owner, d) = index.nearest_owner_sq(&[0.5, 0.5], 1).unwrap();
        assert_eq!((owner, d), (2, 0.0));
        // Tie at zero distance: lowest owner wins.
        let (owner, _) = index.nearest_owner_sq(&[0.5, 0.5], u32::MAX).unwrap();
        assert_eq!(owner, 1);
    }

    #[test]
    fn duplicate_heavy_workload() {
        let mut index = RepIndex::new(BoundingBox::unit(2), 100);
        for owner in 0..50u32 {
            index.insert(owner, &[0.2, 0.2]);
        }
        let (owner, d) = index.nearest_owner_sq(&[0.2, 0.2], 7).unwrap();
        assert_eq!((owner, d), (0, 0.0));
    }

    /// Reference k-nearest-owners: per-owner min distance, lexicographic
    /// `(dist, owner)` order, top `k`.
    fn brute_knearest(
        points: &[(u32, Vec<f64>)],
        query: &[f64],
        exclude: u32,
        k: usize,
    ) -> Vec<(u32, f64)> {
        let mut per_owner: std::collections::BTreeMap<u32, f64> = Default::default();
        for (owner, p) in points {
            if *owner == exclude {
                continue;
            }
            let d = euclidean_sq(query, p);
            per_owner
                .entry(*owner)
                .and_modify(|best| *best = best.min(d))
                .or_insert(d);
        }
        let mut pairs: Vec<(f64, u32)> = per_owner.into_iter().map(|(o, d)| (d, o)).collect();
        pairs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pairs.truncate(k);
        pairs.into_iter().map(|(d, o)| (o, d)).collect()
    }

    #[test]
    fn knearest_matches_linear_scan_including_high_dim() {
        for dim in [1usize, 2, 5, 12, 16] {
            let points = random_points(120, dim, 101 + dim as u64);
            let mut index = RepIndex::new(BoundingBox::unit(dim), 120);
            for (owner, p) in &points {
                index.insert(*owner, p);
            }
            let mut rng = seeded(77 + dim as u64);
            for _ in 0..15 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
                let exclude = rng.gen_range(0..45u32);
                for k in [1usize, 3, 9, 64] {
                    assert_eq!(
                        index.knearest_owners_sq(&q, exclude, k),
                        brute_knearest(&points, &q, exclude, k),
                        "dim={dim} k={k} exclude={exclude}"
                    );
                }
            }
        }
    }

    #[test]
    fn knearest_all_duplicates_breaks_ties_by_owner() {
        // Every owner at the same 16-d point: all distances tie at zero, so
        // the top-k must be the k lowest owner ids (minus the exclusion).
        let dim = 16;
        let mut index = RepIndex::new(BoundingBox::unit(dim), 64);
        let p = vec![0.3; dim];
        for owner in 0..20u32 {
            index.insert(owner, &p);
        }
        let got = index.knearest_owners_sq(&p, 2, 5);
        let want: Vec<(u32, f64)> = [0u32, 1, 3, 4, 5].iter().map(|&o| (o, 0.0)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn coarsens_to_single_cell_when_sparse() {
        // High dimension: 2 cells/dim is already 2^12 buckets, far more
        // than 8x the point count, so coarsening must reach resolution 1.
        let dim = 12;
        let mut index = RepIndex::with_resolution(BoundingBox::unit(dim), 2);
        let points = random_points(100, dim, 55);
        for (owner, p) in &points {
            index.insert(*owner, p);
        }
        index.maybe_coarsen();
        assert_eq!(index.cells_per_dim, 1, "sparse index should fully coarsen");
        let mut rng = seeded(56);
        for _ in 0..10 {
            let q: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            assert_eq!(
                index.nearest_owner_sq(&q, u32::MAX),
                brute_nearest(&points, &q, u32::MAX)
            );
        }
    }
}
