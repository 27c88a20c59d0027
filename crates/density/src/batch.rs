//! Cache-blocked batch evaluation engine for [`KernelDensityEstimator`].
//!
//! The product-kernel evaluation `f(x) = scale · Σ_c Π_j K((x_j − c_j)/h_j)`
//! dominates every downstream pipeline stage (both biased-sampler passes,
//! the one-pass variant, the outlier pruner's density screen). The scalar
//! path pays, per query point, a full grid walk to find candidate centers
//! plus an enum dispatch per kernel evaluation. This module restructures
//! the work GEMM-style, inside each deterministic `dbs_core::par` chunk:
//!
//! 1. **Tile by cell** — query points are grouped by their center-grid
//!    cell, so one candidate lookup is shared by the whole tile instead of
//!    re-walking the grid per point.
//! 2. **Panel gather** — the tile's candidate centers are gathered from a
//!    transposed (structure-of-arrays) copy of the centers into contiguous
//!    per-dimension panels.
//! 3. **Register-blocked micro-kernel** — micro-blocks of `BLOCK` (4) query
//!    points are evaluated against the panel with the kernel profile
//!    monomorphized ([`KernelProfile`]) and the 2-d/3-d loops specialized,
//!    so the compiler can keep accumulators in registers and
//!    auto-vectorize.
//!
//! # The canonical accumulation order, and why batch ≡ scalar bitwise
//!
//! Both the scalar path and this engine accumulate center contributions in
//! **ascending center index** (`GridIndex::for_each_candidate_within`
//! yields sorted candidates), and both compute each contribution with the
//! same operations in the same order (`Π_j K(·)` left to right, shared
//! [`KernelProfile`] definitions). The candidate sets may differ — a tile
//! uses one superset panel covering all its points — but every center
//! outside a point's scalar candidate set lies beyond the kernel support
//! in some dimension, so its contribution is *exactly* `0.0`, and adding
//! `+0.0` to a non-negative partial sum never changes its bits. Hence
//! inserting or dropping such centers anywhere in the ascending sweep
//! leaves every partial sum bit-identical, and the batch output equals the
//! scalar output down to the bit pattern — extending the PR 1 determinism
//! contract ("byte-identical at every thread count") with "byte-identical
//! scalar vs. batch". `tests/batch_parity.rs` asserts this across kernels,
//! dimensions, and thread counts.

use dbs_core::obs::{Counter, Tally};
use dbs_core::PointBlock;
use dbs_spatial::GridIndex;

use crate::kde::KernelDensityEstimator;
use crate::kernel::{profiles, Kernel, KernelProfile};

/// Query points per micro-block: enough independent accumulators to hide
/// FP-add latency, few enough to stay in registers.
const BLOCK: usize = 4;

/// Batch form of `KernelDensityEstimator::density` over the points of
/// `block`, writing into `out` (`out[k]` = density of point
/// `block.range().start + k`). Bit-identical to the scalar path (module
/// docs). Work counts (tiles, candidate visits, kernel evaluations)
/// accumulate into `tally`, which is purely observational — it never
/// influences the computed densities.
pub(crate) fn kde_densities_into(
    est: &KernelDensityEstimator,
    block: &PointBlock,
    out: &mut [f64],
    tally: &mut Tally,
) {
    debug_assert_eq!(block.dim(), est.centers.dim());
    debug_assert_eq!(out.len(), block.len());
    let ks = est.centers.len();
    match &est.center_grid {
        None => {
            // Every point sees every center: the SoA copy of the centers is
            // the panel, and the whole chunk is one tile.
            let tile: Vec<u32> = block.range().map(|i| i as u32).collect();
            tally.add(Counter::BatchTiles, 1);
            tally.add(Counter::KdeKernelEvals, (tile.len() * ks) as u64);
            eval_tile(
                est,
                block,
                &tile,
                &est.centers_soa,
                ks,
                out,
                block.range().start,
            );
        }
        Some(grid) => tiled_eval(est, grid, block, out, tally),
    }
}

/// The grid-pruned path: group the chunk's points by center-grid cell and
/// share one candidate gather per tile.
fn tiled_eval(
    est: &KernelDensityEstimator,
    grid: &GridIndex,
    points: &PointBlock,
    out: &mut [f64],
    tally: &mut Tally,
) {
    let dim = points.dim();
    let ks = est.centers.len();

    // Sort (cell, index) pairs: runs of equal cells are the tiles, and
    // within a tile points stay in index order. Purely a regrouping — each
    // point's value is independent — so output order is unaffected.
    let mut order: Vec<(u32, u32)> = points
        .range()
        .map(|i| (grid.cell_of(points.point(i)) as u32, i as u32))
        .collect();
    order.sort_unstable();

    // Reused per-tile buffers.
    let mut tile: Vec<u32> = Vec::new();
    let mut candidates: Vec<u32> = Vec::new();
    let mut panel: Vec<f64> = Vec::new();
    let mut mid = vec![0.0f64; dim];

    // Work counts stay in locals inside the loop: writing through the
    // `tally` reference per tile measurably perturbs the codegen of the
    // tile loop, while register-resident accumulators are free.
    let mut tiles = 0u64;
    let mut visits = 0u64;
    let mut evals = 0u64;

    let mut start = 0usize;
    while start < order.len() {
        let cell = order[start].0;
        let mut end = start + 1;
        while end < order.len() && order[end].0 == cell {
            end += 1;
        }
        tile.clear();
        tile.extend(order[start..end].iter().map(|&(_, i)| i));

        // The tile's query bounding box (over the actual points, so points
        // clamped into a boundary cell from outside the domain are still
        // covered), inflated by the pruning radius, gives one candidate
        // superset valid for every point in the tile.
        let first = points.point(tile[0] as usize);
        let mut lo = first.to_vec();
        let mut hi = first.to_vec();
        for &i in &tile[1..] {
            let p = points.point(i as usize);
            for j in 0..dim {
                lo[j] = lo[j].min(p[j]);
                hi[j] = hi[j].max(p[j]);
            }
        }
        let mut half = 0.0f64;
        for j in 0..dim {
            mid[j] = 0.5 * (lo[j] + hi[j]);
            half = half.max(0.5 * (hi[j] - lo[j]));
        }
        candidates.clear();
        grid.for_each_candidate_within(&mid, half + est.prune_radius, |ci| candidates.push(ci));

        // Gather the candidates' coordinates into contiguous per-dimension
        // panels from the transposed centers.
        let m = candidates.len();
        panel.clear();
        panel.resize(dim * m, 0.0);
        for j in 0..dim {
            let col = &est.centers_soa[j * ks..(j + 1) * ks];
            let dst = &mut panel[j * m..(j + 1) * m];
            for (t, &ci) in candidates.iter().enumerate() {
                dst[t] = col[ci as usize];
            }
        }

        tiles += 1;
        visits += m as u64;
        evals += (tile.len() * m) as u64;
        eval_tile(est, points, &tile, &panel, m, out, points.range().start);
        start = end;
    }

    tally.add(Counter::BatchTiles, tiles);
    tally.add(Counter::GridCandidateVisits, visits);
    tally.add(Counter::KdeKernelEvals, evals);
}

/// Dispatches one tile to the micro-kernel monomorphized for the
/// estimator's kernel profile.
fn eval_tile(
    est: &KernelDensityEstimator,
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    out: &mut [f64],
    base: usize,
) {
    let ih = &est.inv_bandwidths;
    let scale = est.scale;
    match est.kernel {
        Kernel::Epanechnikov => {
            eval_tile_k::<profiles::Epanechnikov>(points, tile, panel, m, ih, scale, out, base)
        }
        Kernel::Gaussian => {
            eval_tile_k::<profiles::Gaussian>(points, tile, panel, m, ih, scale, out, base)
        }
        Kernel::Biweight => {
            eval_tile_k::<profiles::Biweight>(points, tile, panel, m, ih, scale, out, base)
        }
        Kernel::Uniform => {
            eval_tile_k::<profiles::Uniform>(points, tile, panel, m, ih, scale, out, base)
        }
    }
}

/// Dimension dispatch: monomorphized fast paths for the common 2-d/3-d
/// workloads, generic panel loop otherwise.
#[allow(clippy::too_many_arguments)]
fn eval_tile_k<K: KernelProfile>(
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    ih: &[f64],
    scale: f64,
    out: &mut [f64],
    base: usize,
) {
    match ih.len() {
        2 => tile_d2::<K>(points, tile, panel, m, ih, scale, out, base),
        3 => tile_d3::<K>(points, tile, panel, m, ih, scale, out, base),
        _ => tile_generic::<K>(points, tile, panel, m, ih, scale, out, base),
    }
}

#[allow(clippy::too_many_arguments)]
fn tile_d2<K: KernelProfile>(
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    ih: &[f64],
    scale: f64,
    out: &mut [f64],
    base: usize,
) {
    let (c0, c1) = panel.split_at(m);
    let (ih0, ih1) = (ih[0], ih[1]);
    let mut b = 0usize;
    while b + BLOCK <= tile.len() {
        let mut q0 = [0.0f64; BLOCK];
        let mut q1 = [0.0f64; BLOCK];
        for (k, &i) in tile[b..b + BLOCK].iter().enumerate() {
            let p = points.point(i as usize);
            q0[k] = p[0];
            q1[k] = p[1];
        }
        let mut acc = [0.0f64; BLOCK];
        for t in 0..m {
            let (cx, cy) = (c0[t], c1[t]);
            for k in 0..BLOCK {
                acc[k] += K::eval((q0[k] - cx) * ih0) * K::eval((q1[k] - cy) * ih1);
            }
        }
        for k in 0..BLOCK {
            out[tile[b + k] as usize - base] = scale * acc[k];
        }
        b += BLOCK;
    }
    for &i in &tile[b..] {
        let p = points.point(i as usize);
        let mut acc = 0.0f64;
        for t in 0..m {
            acc += K::eval((p[0] - c0[t]) * ih0) * K::eval((p[1] - c1[t]) * ih1);
        }
        out[i as usize - base] = scale * acc;
    }
}

#[allow(clippy::too_many_arguments)]
fn tile_d3<K: KernelProfile>(
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    ih: &[f64],
    scale: f64,
    out: &mut [f64],
    base: usize,
) {
    let (c0, rest) = panel.split_at(m);
    let (c1, c2) = rest.split_at(m);
    let (ih0, ih1, ih2) = (ih[0], ih[1], ih[2]);
    let mut b = 0usize;
    while b + BLOCK <= tile.len() {
        let mut q0 = [0.0f64; BLOCK];
        let mut q1 = [0.0f64; BLOCK];
        let mut q2 = [0.0f64; BLOCK];
        for (k, &i) in tile[b..b + BLOCK].iter().enumerate() {
            let p = points.point(i as usize);
            q0[k] = p[0];
            q1[k] = p[1];
            q2[k] = p[2];
        }
        let mut acc = [0.0f64; BLOCK];
        for t in 0..m {
            let (cx, cy, cz) = (c0[t], c1[t], c2[t]);
            for k in 0..BLOCK {
                acc[k] += K::eval((q0[k] - cx) * ih0)
                    * K::eval((q1[k] - cy) * ih1)
                    * K::eval((q2[k] - cz) * ih2);
            }
        }
        for k in 0..BLOCK {
            out[tile[b + k] as usize - base] = scale * acc[k];
        }
        b += BLOCK;
    }
    for &i in &tile[b..] {
        let p = points.point(i as usize);
        let mut acc = 0.0f64;
        for t in 0..m {
            acc += K::eval((p[0] - c0[t]) * ih0)
                * K::eval((p[1] - c1[t]) * ih1)
                * K::eval((p[2] - c2[t]) * ih2);
        }
        out[i as usize - base] = scale * acc;
    }
}

#[allow(clippy::too_many_arguments)]
fn tile_generic<K: KernelProfile>(
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    ih: &[f64],
    scale: f64,
    out: &mut [f64],
    base: usize,
) {
    let dim = ih.len();
    let mut q = vec![0.0f64; dim * BLOCK];
    let mut b = 0usize;
    while b + BLOCK <= tile.len() {
        for (k, &i) in tile[b..b + BLOCK].iter().enumerate() {
            let p = points.point(i as usize);
            for j in 0..dim {
                q[j * BLOCK + k] = p[j];
            }
        }
        let mut acc = [0.0f64; BLOCK];
        for t in 0..m {
            for k in 0..BLOCK {
                // prod starts at the first factor; the scalar path's
                // `1.0 * k_0` is bit-identical to `k_0`.
                let mut prod = K::eval((q[k] - panel[t]) * ih[0]);
                for j in 1..dim {
                    prod *= K::eval((q[j * BLOCK + k] - panel[j * m + t]) * ih[j]);
                }
                acc[k] += prod;
            }
        }
        for k in 0..BLOCK {
            out[tile[b + k] as usize - base] = scale * acc[k];
        }
        b += BLOCK;
    }
    for &i in &tile[b..] {
        let p = points.point(i as usize);
        let mut acc = 0.0f64;
        for t in 0..m {
            let mut prod = K::eval((p[0] - panel[t]) * ih[0]);
            for j in 1..dim {
                prod *= K::eval((p[j] - panel[j * m + t]) * ih[j]);
            }
            acc += prod;
        }
        out[i as usize - base] = scale * acc;
    }
}

#[cfg(test)]
mod tests {
    use crate::kde::{KdeConfig, KernelDensityEstimator};
    use crate::kernel::Kernel;
    use crate::traits::DensityEstimator;
    use dbs_core::rng::seeded;
    use dbs_core::{BoundingBox, Dataset};
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

    fn assert_batch_matches_scalar(est: &KernelDensityEstimator, ds: &Dataset) {
        let n = ds.len();
        // Exercise sub-chunk ranges too (mid-dataset offsets).
        for range in [0..n, n / 3..2 * n / 3] {
            let mut out = vec![0.0f64; range.len()];
            est.densities_into(
                &dbs_core::PointBlock::from_dataset(ds, range.clone()),
                &mut out,
                &mut dbs_core::obs::Tally::default(),
            );
            for (k, i) in range.enumerate() {
                let want = est.density(ds.point(i));
                assert_eq!(
                    out[k].to_bits(),
                    want.to_bits(),
                    "point {i}: batch {} vs scalar {want}",
                    out[k]
                );
            }
        }
    }

    #[test]
    fn grid_path_is_bit_identical_to_scalar() {
        let ds = random_dataset(2000, 2, 1);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(400)).unwrap();
        assert!(est.has_center_grid());
        assert_batch_matches_scalar(&est, &ds);
    }

    #[test]
    fn no_grid_path_is_bit_identical_to_scalar() {
        let ds = random_dataset(1000, 3, 2);
        // 32 centers is below the grid threshold: full-scan panel path.
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(32)).unwrap();
        assert!(!est.has_center_grid());
        assert_batch_matches_scalar(&est, &ds);
    }

    #[test]
    fn gaussian_panel_is_bit_identical_to_scalar() {
        let ds = random_dataset(500, 2, 3);
        let cfg = KdeConfig {
            kernel: Kernel::Gaussian,
            ..KdeConfig::with_centers(100)
        };
        let est = KernelDensityEstimator::fit_dataset(&ds, &cfg).unwrap();
        assert!(!est.has_center_grid());
        assert_batch_matches_scalar(&est, &ds);
    }

    #[test]
    fn out_of_domain_queries_match_scalar() {
        // Clamped cell assignment must not lose candidate coverage: tiles
        // derive their candidate box from actual point coordinates.
        let ds = random_dataset(1500, 2, 4);
        let cfg = KdeConfig {
            domain: Some(BoundingBox::unit(2)),
            ..KdeConfig::with_centers(300)
        };
        let est = KernelDensityEstimator::fit_dataset(&ds, &cfg).unwrap();
        assert!(est.has_center_grid());
        let mut rng = seeded(5);
        let mut queries = Dataset::with_capacity(2, 64);
        for _ in 0..64 {
            // Points scattered well outside [0,1]^2.
            queries
                .push(&[rng.gen::<f64>() * 3.0 - 1.0, rng.gen::<f64>() * 3.0 - 1.0])
                .unwrap();
        }
        assert_batch_matches_scalar(&est, &queries);
    }

    #[test]
    fn five_dim_generic_path_matches_scalar() {
        let ds = random_dataset(800, 5, 6);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(200)).unwrap();
        assert_batch_matches_scalar(&est, &ds);
    }
}
