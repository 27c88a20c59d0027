//! Cell-based exact DB-outlier detection (Knorr & Ng \[13\]).
//!
//! The space is partitioned into cells of side `k / (2√d)`. For a cell `C`:
//!
//! * any two points in `C` or in `C`'s immediate ring (L1) are within `k`,
//!   so if `|C| + |L1|` exceeds `p`, every point of `C` is a non-outlier;
//! * points outside the ring of width `⌈2√d⌉` (L2) are farther than `k`
//!   from every point of `C`, so if `|C| + |L1| + |L2| ≤ p`, every point of
//!   `C` is an outlier;
//! * otherwise each point of `C` is verified against the points in the L2
//!   ring individually.
//!
//! This gives exact results with far fewer distance computations than the
//! nested loop when cells prune well (low dimensions, which is where the
//! original algorithm is practical — the same caveat as the original
//! paper).

use dbs_core::metric::{euclidean_sq, Metric};
use dbs_core::{BoundingBox, Dataset};

use crate::dbout::DbOutlierParams;

/// Hard cap on the total number of grid cells. The bucket vector is
/// allocated up front, so an uncapped `res^d` is an OOM hazard well before
/// `checked_pow` overflows (16^8 ≈ 4.3e9 cells at the old per-dimension
/// clamp).
const MAX_CELLS: usize = 1 << 22;

/// Largest per-dimension resolution `r <= res` with `r^d <= MAX_CELLS`,
/// or `None` when even a 2-per-dimension grid would exceed the cap (at
/// which point a grid cannot partition anything and the caller should use
/// an exact non-grid detector).
fn capped_resolution(res: usize, d: usize) -> Option<usize> {
    let d32 = u32::try_from(d).ok()?;
    let mut r = res.min((MAX_CELLS as f64).powf(1.0 / d as f64).ceil() as usize);
    while r >= 2 {
        match r.checked_pow(d32) {
            Some(total) if total <= MAX_CELLS => return Some(r),
            _ => r -= 1,
        }
    }
    None
}

/// Exact DB(p,k) outliers via the cell-based algorithm.
///
/// `domain` is the box the grid covers; it is widened to the data's
/// bounding box when points fall outside it. Cells whose ring counts cannot
/// decide the outcome fall back to per-point verification.
///
/// In high dimensions the grid stops being viable: the total cell count is
/// capped at `MAX_CELLS` (2^22), and when even two cells per dimension would
/// blow the cap the function falls back to the exact
/// [`nested_loop_outliers`](crate::nested::nested_loop_outliers) detector —
/// the result is exact either way.
pub fn cell_based_outliers(
    data: &Dataset,
    params: &DbOutlierParams,
    domain: &BoundingBox,
) -> Vec<usize> {
    let n = data.len();
    if n == 0 {
        return Vec::new();
    }
    let d = data.dim();
    // Grid over the union of the requested domain and the data's bounding
    // box: no point is ever clamped into a cell it is not geometrically in,
    // which both pruning rules rely on.
    let domain = match data.bounding_box() {
        Some(bb) => domain.union(&bb),
        None => domain.clone(),
    };
    let side = params.radius / (2.0 * (d as f64).sqrt());
    // Cells per dimension over the domain, capped to keep the grid dense
    // enough to be useful but bounded in memory.
    let max_extent = (0..d).map(|j| domain.extent(j)).fold(0.0f64, f64::max);
    let res = ((max_extent / side).ceil() as usize).clamp(
        1,
        match d {
            1 => 1 << 16,
            2 => 2048,
            3 => 128,
            4 => 40,
            _ => 16,
        },
    );
    // Enforce the total-cell budget; when no usable grid fits (res < 2),
    // fall back to the exact nested-loop detector, which returns the same
    // sorted index list.
    let res = match capped_resolution(res, d) {
        Some(r) => r,
        None => return crate::nested::nested_loop_outliers(data, params, Metric::Euclidean),
    };
    let l1 = 1usize; // immediate ring

    // Bucket points by cell.
    let cells_total = res.pow(d as u32); // <= MAX_CELLS by construction
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells_total];
    let cell_of = |p: &[f64]| -> usize {
        let mut cell = 0usize;
        for j in 0..d {
            let extent = domain.extent(j);
            let rel = if extent > 0.0 {
                (p[j] - domain.min()[j]) / extent
            } else {
                0.0
            };
            let c = ((rel * res as f64) as isize).clamp(0, res as isize - 1) as usize;
            cell = cell * res + c;
        }
        cell
    };
    for (i, p) in data.iter().enumerate() {
        buckets[cell_of(p)].push(i as u32);
    }

    // If the grid is so coarse that cell-side guarantees break (clamped
    // resolution made cells wider than k/(2√d)), ring-based *inclusion*
    // pruning is unsound; only use the conservative path then.
    let actual_side_max = (0..d)
        .map(|j| domain.extent(j) / res as f64)
        .fold(0.0f64, f64::max);
    let inclusion_sound = actual_side_max <= side * (1.0 + 1e-9);
    // The exclusion/candidate ring must cover every cell that could hold a
    // point within k: a point at cell ring distance m is at least
    // (m-1) * side_j away along dimension j, so m <= k/side_j + 1 per
    // dimension. Use the widest requirement across dimensions.
    let l2 = (0..d)
        .map(|j| {
            let side_j = (domain.extent(j) / res as f64).max(f64::MIN_POSITIVE);
            (params.radius / side_j).floor() as usize + 1
        })
        .max()
        .expect("d >= 1");

    let unflatten = |mut cell: usize| -> Vec<usize> {
        let mut coords = vec![0usize; d];
        for j in (0..d).rev() {
            coords[j] = cell % res;
            cell /= res;
        }
        coords
    };

    // Sum of bucket sizes in the L∞ ring [lo, hi] around coords.
    let ring_count = |coords: &[usize], radius: usize| -> usize {
        let mut acc = 0usize;
        let lo: Vec<usize> = coords.iter().map(|&c| c.saturating_sub(radius)).collect();
        let hi: Vec<usize> = coords.iter().map(|&c| (c + radius).min(res - 1)).collect();
        let mut cur = lo.clone();
        loop {
            let mut cell = 0usize;
            for j in 0..d {
                cell = cell * res + cur[j];
            }
            acc += buckets[cell].len();
            let mut j = d;
            loop {
                if j == 0 {
                    return acc;
                }
                j -= 1;
                if cur[j] < hi[j] {
                    cur[j] += 1;
                    for (t, c) in cur.iter_mut().enumerate().skip(j + 1) {
                        *c = lo[t];
                    }
                    break;
                }
            }
        }
    };

    // Collect point indices in the L∞ ring [0, radius] around coords.
    let ring_points = |coords: &[usize], radius: usize| -> Vec<u32> {
        let mut acc = Vec::new();
        let lo: Vec<usize> = coords.iter().map(|&c| c.saturating_sub(radius)).collect();
        let hi: Vec<usize> = coords.iter().map(|&c| (c + radius).min(res - 1)).collect();
        let mut cur = lo.clone();
        loop {
            let mut cell = 0usize;
            for j in 0..d {
                cell = cell * res + cur[j];
            }
            acc.extend_from_slice(&buckets[cell]);
            let mut j = d;
            loop {
                if j == 0 {
                    return acc;
                }
                j -= 1;
                if cur[j] < hi[j] {
                    cur[j] += 1;
                    for (t, c) in cur.iter_mut().enumerate().skip(j + 1) {
                        *c = lo[t];
                    }
                    break;
                }
            }
        }
    };

    let r2 = params.radius * params.radius;
    let p_max = params.max_neighbors;
    let mut outliers = Vec::new();
    for (cell, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let coords = unflatten(cell);
        if inclusion_sound {
            // Rule the whole cell out: everything in C ∪ L1 is within k.
            let near = ring_count(&coords, l1);
            if near > p_max + 1 {
                // near includes each point itself; > p+1 means every point
                // of C has > p genuine neighbors.
                continue;
            }
        }
        // Rule the whole cell in: nothing beyond L2 can be within k.
        let reach = ring_count(&coords, l2);
        if reach <= p_max + 1 {
            // Even counting everything reachable (minus self), at most p
            // neighbors: all outliers.
            outliers.extend(bucket.iter().map(|&i| i as usize));
            continue;
        }
        // Verify individually against the reachable points.
        let candidates = ring_points(&coords, l2);
        for &i in bucket {
            let pi = data.point(i as usize);
            let mut count = 0usize;
            let mut is_outlier = true;
            for &j in &candidates {
                if j == i {
                    continue;
                }
                if euclidean_sq(pi, data.point(j as usize)) <= r2 {
                    count += 1;
                    if count > p_max {
                        is_outlier = false;
                        break;
                    }
                }
            }
            if is_outlier {
                outliers.push(i as usize);
            }
        }
    }
    outliers.sort_unstable();
    outliers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested::nested_loop_outliers;
    use dbs_core::rng::seeded;
    use rand::Rng;

    fn clustered_with_noise(seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, 520);
        for _ in 0..250 {
            ds.push(&[
                0.3 + (rng.gen::<f64>() - 0.5) * 0.1,
                0.3 + (rng.gen::<f64>() - 0.5) * 0.1,
            ])
            .unwrap();
        }
        for _ in 0..250 {
            ds.push(&[
                0.7 + (rng.gen::<f64>() - 0.5) * 0.1,
                0.7 + (rng.gen::<f64>() - 0.5) * 0.1,
            ])
            .unwrap();
        }
        for _ in 0..20 {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        ds
    }

    #[test]
    fn matches_nested_loop_2d() {
        let ds = clustered_with_noise(1);
        let domain = BoundingBox::unit(2);
        for (radius, p) in [(0.05, 3), (0.1, 10), (0.03, 1)] {
            let params = DbOutlierParams::new(radius, p).unwrap();
            let want = nested_loop_outliers(&ds, &params, Metric::Euclidean);
            let got = cell_based_outliers(&ds, &params, &domain);
            assert_eq!(got, want, "radius={radius} p={p}");
        }
    }

    #[test]
    fn matches_nested_loop_3d() {
        let mut rng = seeded(2);
        let mut ds = Dataset::with_capacity(3, 300);
        for _ in 0..300 {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
                .unwrap();
        }
        let domain = BoundingBox::unit(3);
        let params = DbOutlierParams::new(0.1, 2).unwrap();
        let want = nested_loop_outliers(&ds, &params, Metric::Euclidean);
        let got = cell_based_outliers(&ds, &params, &domain);
        assert_eq!(got, want);
    }

    #[test]
    fn points_outside_domain_are_still_classified() {
        let ds = Dataset::from_rows(&[
            vec![0.5, 0.5],
            vec![0.51, 0.5],
            vec![2.5, 2.5], // outside the unit domain
        ])
        .unwrap();
        let params = DbOutlierParams::new(0.1, 0).unwrap();
        let got = cell_based_outliers(&ds, &params, &BoundingBox::unit(2));
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn huge_radius_coarse_grid_stays_exact() {
        // radius comparable to the domain: the grid degenerates to few
        // cells; results must still match the nested loop.
        let ds = clustered_with_noise(3);
        let params = DbOutlierParams::new(0.5, 30).unwrap();
        let want = nested_loop_outliers(&ds, &params, Metric::Euclidean);
        let got = cell_based_outliers(&ds, &params, &BoundingBox::unit(2));
        assert_eq!(got, want);
    }

    #[test]
    fn empty_dataset() {
        let params = DbOutlierParams::new(0.1, 1).unwrap();
        assert!(cell_based_outliers(&Dataset::new(2), &params, &BoundingBox::unit(2)).is_empty());
    }

    fn high_dim_data(d: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(d, n + 2);
        for _ in 0..n {
            // A loose blob in the middle of the cube.
            let p: Vec<f64> = (0..d).map(|_| 0.4 + rng.gen::<f64>() * 0.2).collect();
            ds.push(&p).unwrap();
        }
        // Two isolated corner points.
        ds.push(&vec![0.02; d]).unwrap();
        ds.push(&vec![0.98; d]).unwrap();
        ds
    }

    #[test]
    fn dim8_matches_nested_loop_without_blowing_memory() {
        // Regression: at d = 8 the old per-dimension clamp (16) allowed
        // 16^8 ≈ 4.3e9 buckets — an OOM before any work happened. The cell
        // budget now caps the grid; results must still be exact.
        let d = 8;
        let ds = high_dim_data(d, 400, 4);
        let params = DbOutlierParams::new(0.4, 3).unwrap();
        let want = nested_loop_outliers(&ds, &params, Metric::Euclidean);
        let got = cell_based_outliers(&ds, &params, &BoundingBox::unit(d));
        assert_eq!(got, want);
        assert!(got.contains(&400) && got.contains(&401), "corners found");
    }

    #[test]
    fn dim16_falls_back_or_stays_exact_instead_of_panicking() {
        // Regression: at d = 16 the old code hit `checked_pow` overflow and
        // panicked on the expect. Now either a tiny capped grid or the
        // nested-loop fallback runs — both exact.
        let d = 16;
        let ds = high_dim_data(d, 200, 5);
        let params = DbOutlierParams::new(0.8, 3).unwrap();
        let want = nested_loop_outliers(&ds, &params, Metric::Euclidean);
        let got = cell_based_outliers(&ds, &params, &BoundingBox::unit(d));
        assert_eq!(got, want);
    }

    #[test]
    fn dim32_uses_nested_fallback() {
        // 2^32 cells already exceeds the budget: no grid fits at all.
        assert_eq!(super::capped_resolution(16, 32), None);
        let d = 32;
        let ds = high_dim_data(d, 60, 6);
        let params = DbOutlierParams::new(1.0, 2).unwrap();
        let want = nested_loop_outliers(&ds, &params, Metric::Euclidean);
        let got = cell_based_outliers(&ds, &params, &BoundingBox::unit(d));
        assert_eq!(got, want);
    }

    #[test]
    fn capped_resolution_respects_budget() {
        // d = 8: largest r with r^8 <= 2^22 is 6 (6^8 = 1679616).
        assert_eq!(super::capped_resolution(16, 8), Some(6));
        // Low dimensions pass through unchanged.
        assert_eq!(super::capped_resolution(2048, 2), Some(2048));
        assert_eq!(super::capped_resolution(128, 3), Some(128));
        // d = 16: 2^16 = 65536 cells fits, 3^16 doesn't.
        assert_eq!(super::capped_resolution(16, 16), Some(2));
        for (res, d) in [(16usize, 8usize), (16, 16), (2048, 2)] {
            if let Some(r) = super::capped_resolution(res, d) {
                assert!(r.pow(d as u32) <= super::MAX_CELLS);
                assert!(r <= res);
            }
        }
    }
}
