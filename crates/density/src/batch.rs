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
//! 2. **Box query and exact support test** — the tile's candidates come
//!    from one grid walk over the tile's per-dimension bounding box
//!    `[lo_j − r, hi_j + r]` (`r` = the prune radius,
//!    [`GridIndex::candidates_in_box`]). A candidate is then dropped if,
//!    in some dimension `j`, `(lo_j − c_j)·ih_j > s` or
//!    `(c_j − hi_j)·ih_j > s` (`s` = the kernel's support radius): such a
//!    center cannot reach any point of the tile. The survivors, still in
//!    ascending index order, are gathered from a transposed
//!    (structure-of-arrays) copy of the centers into contiguous
//!    per-dimension panels.
//! 3. **Register-blocked micro-kernel** — micro-blocks of `BLOCK` (4) query
//!    points are evaluated against the panel by one micro-kernel,
//!    monomorphized for the kernel profile ([`KernelProfile`]) and for the
//!    dimension as a const parameter `D` ≤ 8, so the compiler can keep
//!    accumulators and per-dimension operands in registers and
//!    auto-vectorize. Inputs with d > 8 run a runtime-`dim` loop with the
//!    same operations in the same order.
//!
//! # The canonical accumulation order, and why batch ≡ scalar bitwise
//!
//! Both the scalar path and this engine accumulate center contributions in
//! **ascending center index** (the grid walks yield sorted candidates),
//! and both compute each contribution with the same operations in the
//! same order (`Π_j K(·)` left to right, shared [`KernelProfile`]
//! definitions). Adding `+0.0` to a non-negative partial sum never changes
//! its bits, so inserting or dropping centers whose contribution is
//! exactly `+0.0` anywhere in the ascending sweep leaves every partial sum
//! bit-identical. A tile's panel differs from a point `x`'s own scalar
//! candidate set (the cells meeting `x ± r`) only by such centers:
//!
//! * **Box superset.** Float subtraction and addition round monotonically,
//!   so `lo_j ≤ x_j ≤ hi_j` gives `fl(lo_j − r) ≤ fl(x_j − r)` and
//!   `fl(x_j + r) ≤ fl(hi_j + r)`, and cell coordinates are monotone: the
//!   tile's box query returns every center of `x`'s scalar query. The
//!   extra centers lie outside `x ± r`, beyond the kernel support of `x`
//!   in some dimension, exactly as for any superset panel.
//! * **Exact filter.** The test is the kernel's own expression at the
//!   tile's nearest edge, and it is monotone in the query coordinate: for
//!   every tile point, `fl(x_j − c_j) ≥ fl(lo_j − c_j)`, so
//!   `u_j = (x_j − c_j)·ih_j > s` (the mirror case gives `u_j < −s`, since
//!   `fl(x_j − c_j) = −fl(c_j − x_j)` exactly). Every profile is exactly
//!   `0.0` at `|u| > s`, so a dropped center's product is `+0.0` for every
//!   point of the tile. A center exactly on the edge (`|u_j| = s`) is kept:
//!   the uniform kernel is `0.5` there.
//!
//! Hence the batch output equals the scalar output down to the bit
//! pattern — extending the determinism contract ("byte-identical at every
//! thread count") with "byte-identical scalar vs. batch".
//! `tests/batch_parity.rs` asserts this across kernels, dimensions, and
//! thread counts.

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

/// The grid-pruned path: group the chunk's points by center-grid cell,
/// query the grid once per tile and gather only the centers that can
/// reach the tile.
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

    // Reused per-tile buffers: a tile allocates nothing once they have
    // grown to the largest tile's size.
    let mut tile: Vec<u32> = Vec::new();
    let mut candidates: Vec<u32> = Vec::new();
    let mut panel: Vec<f64> = Vec::new();
    let mut lo = vec![0.0f64; dim];
    let mut hi = vec![0.0f64; dim];
    let mut query_lo = vec![0.0f64; dim];
    let mut query_hi = vec![0.0f64; dim];
    let r = est.prune_radius;
    let s = est.kernel.support_radius();
    let ih = &est.inv_bandwidths;

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

        // The tile's query bounding box, over the actual points (so points
        // clamped into a boundary cell from outside the domain are still
        // covered).
        lo.copy_from_slice(points.point(tile[0] as usize));
        hi.copy_from_slice(&lo);
        for &i in &tile[1..] {
            let p = points.point(i as usize);
            for j in 0..dim {
                lo[j] = lo[j].min(p[j]);
                hi[j] = hi[j].max(p[j]);
            }
        }

        // One box query covers every point's own scalar query `x ± r`
        // (module docs, step 2).
        for j in 0..dim {
            query_lo[j] = lo[j] - r;
            query_hi[j] = hi[j] + r;
        }
        candidates.clear();
        grid.candidates_in_box(&query_lo, &query_hi, &mut candidates);
        visits += candidates.len() as u64;

        // Exact support test: drop a center if, in some dimension, every
        // tile point is beyond the kernel support — the same float
        // expression the kernel evaluates, at the tile's nearest edge.
        candidates.retain(|&ci| {
            let c = est.centers.point(ci as usize);
            !(0..dim).any(|j| (lo[j] - c[j]) * ih[j] > s || (c[j] - hi[j]) * ih[j] > s)
        });

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

/// Dimension dispatch: one micro-kernel monomorphized for each d ≤ 8,
/// the runtime-`dim` panel loop beyond.
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
        1 => tile_c::<K, 1>(points, tile, panel, m, ih, scale, out, base),
        2 => tile_c::<K, 2>(points, tile, panel, m, ih, scale, out, base),
        3 => tile_c::<K, 3>(points, tile, panel, m, ih, scale, out, base),
        4 => tile_c::<K, 4>(points, tile, panel, m, ih, scale, out, base),
        5 => tile_c::<K, 5>(points, tile, panel, m, ih, scale, out, base),
        6 => tile_c::<K, 6>(points, tile, panel, m, ih, scale, out, base),
        7 => tile_c::<K, 7>(points, tile, panel, m, ih, scale, out, base),
        8 => tile_c::<K, 8>(points, tile, panel, m, ih, scale, out, base),
        _ => tile_generic::<K>(points, tile, panel, m, ih, scale, out, base),
    }
}

/// The micro-kernel for a dimension `D` known at compile time. Each of the
/// `BLOCK` lanes sums the panel's centers in ascending order, and each
/// product starts at the first factor and multiplies left to right (the
/// scalar path's `1.0 · k_0` is bit-identical to `k_0`); the tail points
/// run one at a time in the same order.
#[allow(clippy::too_many_arguments)]
fn tile_c<K: KernelProfile, const D: usize>(
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    ih: &[f64],
    scale: f64,
    out: &mut [f64],
    base: usize,
) {
    let c: [&[f64]; D] = std::array::from_fn(|j| &panel[j * m..(j + 1) * m]);
    let ih: [f64; D] = std::array::from_fn(|j| ih[j]);
    let mut b = 0usize;
    while b + BLOCK <= tile.len() {
        let mut q = [[0.0f64; BLOCK]; D];
        for (k, &i) in tile[b..b + BLOCK].iter().enumerate() {
            let p = points.point(i as usize);
            for j in 0..D {
                q[j][k] = p[j];
            }
        }
        let mut acc = [0.0f64; BLOCK];
        for t in 0..m {
            for k in 0..BLOCK {
                let mut prod = K::eval((q[0][k] - c[0][t]) * ih[0]);
                for j in 1..D {
                    prod *= K::eval((q[j][k] - c[j][t]) * ih[j]);
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
            let mut prod = K::eval((p[0] - c[0][t]) * ih[0]);
            for j in 1..D {
                prod *= K::eval((p[j] - c[j][t]) * ih[j]);
            }
            acc += prod;
        }
        out[i as usize - base] = scale * acc;
    }
}

/// The runtime-`dim` panel loop, for d > 8: the same operations in the
/// same order as [`tile_c`].
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

    /// Centers and queries on dyadic lattices with a dyadic bandwidth, so
    /// `(x_j − c_j)·ih_j` is exact and equals `±1.0` — the support edge —
    /// for many (query, center) pairs, at tile edges included.
    fn support_edge_case(kernel: Kernel) -> (KernelDensityEstimator, Dataset) {
        let mut centers = Dataset::with_capacity(2, 32 * 32);
        for a in 0..32 {
            for b in 0..32 {
                centers.push(&[a as f64 / 32.0, b as f64 / 32.0]).unwrap();
            }
        }
        let h = 1.0 / 32.0;
        let est = KernelDensityEstimator::from_centers(
            centers,
            vec![h, h],
            1000.0,
            kernel,
            BoundingBox::unit(2),
        );
        assert!(est.has_center_grid());
        // Queries every 1/128 over part of the domain, past its edge too:
        // every tile (one grid cell) has points on the cell's lower edge,
        // a whole bandwidth from the centers one cell below.
        let mut queries = Dataset::with_capacity(2, 48 * 48);
        for a in 0..48 {
            for b in 0..48 {
                let x = [a as f64 / 128.0 - 0.0625, b as f64 / 128.0 + 0.5];
                queries.push(&x).unwrap();
            }
        }
        (est, queries)
    }

    #[test]
    fn uniform_keeps_centers_exactly_on_the_support_edge() {
        // K(±1) = 0.5: a center exactly one bandwidth from a tile's edge
        // contributes to the edge points and must stay in the panel.
        let (est, queries) = support_edge_case(Kernel::Uniform);
        assert_eq!(est.kernel().eval(1.0), 0.5);
        assert_batch_matches_scalar(&est, &queries);
    }

    #[test]
    fn compact_kernels_drop_centers_on_the_support_edge_exactly() {
        // K(±1) = 0.0 for these: the edge centers contribute an exact zero
        // whether or not the panel holds them.
        for kernel in [Kernel::Epanechnikov, Kernel::Biweight] {
            let (est, queries) = support_edge_case(kernel);
            assert_eq!(est.kernel().eval(1.0), 0.0);
            assert_batch_matches_scalar(&est, &queries);
        }
    }

    #[test]
    fn high_dim_fallback_path_matches_scalar() {
        // d = 9 is past the const-dimension kernels: the runtime-`dim` loop.
        let ds = random_dataset(800, 9, 6);
        let est = KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(200)).unwrap();
        assert_batch_matches_scalar(&est, &ds);
    }
}
