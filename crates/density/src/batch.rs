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
//! 2. **Cell reach list and exact support test** — at fit, every grid cell
//!    gets its *reach list* (`CellReach`): the centers, in ascending
//!    index order, that pass the exact support test below against the
//!    cell's box. Boundary cells are open on the outer side (`−∞` below
//!    coordinate 0, `+∞` above the last), so points clamped into them from
//!    outside the domain are inside their box too. A tile whose bounding
//!    box `[lo, hi]` over its actual points lies inside its cell's box (the
//!    containment guard) starts from a copy of the cell's list. The grid
//!    assigns every finite point to a cell whose box contains it, so the
//!    guard holds wherever the lists exist; it stays as a check. A tile
//!    without a list (the lists exceeded their budget) or failing the guard
//!    walks the grid once over `[lo_j − r, hi_j + r]` (`r` = the prune
//!    radius, [`GridIndex::candidates_in_box`]). Either way a
//!    candidate is then dropped if, in some dimension `j`,
//!    `(lo_j − c_j)·ih_j > s` or `(c_j − hi_j)·ih_j > s` (`s` = the
//!    kernel's support radius): such a center cannot reach any point of the
//!    tile. The survivors, still in ascending index order, are gathered
//!    from a transposed (structure-of-arrays) copy of the centers into
//!    contiguous per-dimension panels.
//! 3. **Register-blocked micro-kernel** — micro-blocks of `BLOCK` (4) query
//!    points are evaluated against the panel by one micro-kernel,
//!    monomorphized for the kernel profile ([`KernelProfile`]) and for the
//!    dimension as a const parameter `D` ≤ 8, so the compiler can keep
//!    accumulators and per-dimension operands in registers and
//!    auto-vectorize. Inputs with d > 8 run a runtime-`dim` loop with the
//!    same operations in the same order.
//!
//! On x86-64 the micro-kernels' dimension dispatch is compiled twice from
//! one source: at the target's baseline (SSE2, two f64 lanes) and inside
//! a `#[target_feature(enable = "avx2")]` function, where the four `BLOCK`
//! lanes fit one register. Each `densities_into` call checks once at run
//! time whether the CPU has AVX2 and picks the copy. Both copies perform
//! the same IEEE operations in the same order: `fma` is not enabled, and
//! Rust never contracts `a * b + c` into a fused multiply-add, so the
//! copies agree bit for bit.
//!
//! # The canonical accumulation order, and why batch ≡ scalar bitwise
//!
//! Both the scalar path and this engine accumulate center contributions in
//! **ascending center index** (the grid walks yield sorted candidates, and
//! so do the reach lists), and both compute each contribution with the
//! same operations in the same order (`Π_j K(·)` left to right, shared
//! [`KernelProfile`] definitions). Adding `+0.0` to a non-negative partial
//! sum never changes its bits, so inserting or dropping centers whose
//! contribution is exactly `+0.0` anywhere in the ascending sweep leaves
//! every partial sum bit-identical. A tile's panel differs from a point
//! `x`'s own scalar candidate set (the cells meeting `x ± r`) only by such
//! centers:
//!
//! * **Box superset.** Float subtraction and addition round monotonically,
//!   so `lo_j ≤ x_j ≤ hi_j` gives `fl(lo_j − r) ≤ fl(x_j − r)` and
//!   `fl(x_j + r) ≤ fl(hi_j + r)`, and cell coordinates are monotone: the
//!   fallback walk over the tile's box returns every center of `x`'s
//!   scalar query. The extra centers lie outside `x ± r`, beyond the
//!   kernel support of `x` in some dimension, exactly as for any superset
//!   panel.
//! * **Exact filter.** The test is the kernel's own expression at the
//!   tile's nearest edge, and it is monotone in the query coordinate: for
//!   every tile point, `fl(x_j − c_j) ≥ fl(lo_j − c_j)`, so
//!   `u_j = (x_j − c_j)·ih_j > s` (the mirror case gives `u_j < −s`, since
//!   `fl(x_j − c_j) = −fl(c_j − x_j)` exactly). Every profile is exactly
//!   `0.0` at `|u| > s`, so a dropped center's product is `+0.0` for every
//!   point of the tile. A center exactly on the edge (`|u_j| = s`) is kept:
//!   the uniform kernel is `0.5` there.
//! * **Cell list.** A reach list holds exactly the centers that pass the
//!   exact test against the cell's box. When the tile's box lies inside
//!   the cell's (the containment guard), a center that passes the tile's
//!   test passes the cell's too, by the same monotonicity. So the tile's
//!   exact filter over the list keeps every center the fallback walk
//!   would have kept, plus only centers that contribute `+0.0` to every
//!   tile point. The list is ascending, so each partial sum keeps its
//!   bits.
//!
//! Hence the batch output equals the scalar output down to the bit
//! pattern — extending the determinism contract ("byte-identical at every
//! thread count") with "byte-identical scalar vs. batch".
//! `tests/batch_parity.rs` asserts this across kernels, dimensions, and
//! thread counts.

use dbs_core::obs::{Counter, Tally};
use dbs_core::{Dataset, PointBlock};
use dbs_spatial::GridIndex;

use crate::kde::KernelDensityEstimator;
use crate::kernel::{profiles, Kernel, KernelProfile};

/// Query points per micro-block: enough independent accumulators to hide
/// FP-add latency, few enough to stay in registers.
const BLOCK: usize = 4;

/// Most reach-list entries [`CellReach::build`] keeps per center. A cell
/// is at least the prune radius wide, so a center reaches about three
/// cells per dimension: the lists hold up to ~`3^d` entries per center
/// (~18 on the benchmark's KDE fits, at d = 3 and 5). Past this budget —
/// many centers in a fine grid at high d — the lists are dropped and every
/// tile walks the grid, as it would without them.
const REACH_BUDGET_PER_CENTER: usize = 64;

/// Every center-grid cell's reach list (module docs, step 2), built once
/// at fit and stored flat.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellReach {
    /// Cell `c`'s list is `items[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    items: Vec<u32>,
    /// Cell `c`'s box at `[2·d·c .. 2·d·(c + 1)]`: its `d` lower bounds,
    /// then its `d` upper bounds, open on the outer side of the grid.
    boxes: Vec<f64>,
}

impl CellReach {
    /// The reach lists of every cell of `grid` (built over `centers`), for
    /// support radius `s` and inverse bandwidths `ih`. Empty (no lists) if
    /// they would exceed [`REACH_BUDGET_PER_CENTER`].
    ///
    /// The exact test is a conjunction over dimensions, and along each
    /// axis the cell bounds are non-decreasing, so the cells a center
    /// reaches are a product of one coordinate interval per axis, found by
    /// binary search. Visiting the centers in ascending order fills every
    /// list in ascending order.
    pub(crate) fn build(centers: &Dataset, grid: &GridIndex, s: f64, ih: &[f64]) -> Self {
        let d = centers.dim();
        let res = grid.cells_per_dim();
        let cells = grid.num_cells();
        let budget = REACH_BUDGET_PER_CENTER
            .saturating_mul(centers.len())
            .min(u32::MAX as usize);

        // Axis `j`'s cell bounds at `[j·res .. (j + 1)·res]`: the values
        // `cell_bbox` gives, open on the grid's outer sides.
        let mut axis_lo = vec![0.0f64; d * res];
        let mut axis_hi = vec![0.0f64; d * res];
        let mut stride = cells;
        for j in 0..d {
            stride /= res;
            for k in 0..res {
                let bbox = grid.cell_bbox(k * stride);
                axis_lo[j * res + k] = if k == 0 {
                    f64::NEG_INFINITY
                } else {
                    bbox.min()[j]
                };
                axis_hi[j * res + k] = if k == res - 1 {
                    f64::INFINITY
                } else {
                    bbox.max()[j]
                };
            }
        }

        // (cell, center) pairs, centers ascending.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut first = vec![0usize; d];
        let mut end = vec![0usize; d];
        let mut coords = vec![0usize; d];
        'centers: for (ci, c) in centers.iter().enumerate() {
            for j in 0..d {
                let (lo, hi) = (
                    &axis_lo[j * res..(j + 1) * res],
                    &axis_hi[j * res..(j + 1) * res],
                );
                first[j] = hi.partition_point(|&h| (c[j] - h) * ih[j] > s);
                end[j] = lo.partition_point(|&l| (l - c[j]) * ih[j] <= s);
                if first[j] >= end[j] {
                    continue 'centers;
                }
            }
            coords.copy_from_slice(&first);
            'cells: loop {
                let cell = coords.iter().fold(0, |cell, &k| cell * res + k);
                pairs.push((cell as u32, ci as u32));
                let mut j = d;
                loop {
                    if j == 0 {
                        break 'cells;
                    }
                    j -= 1;
                    coords[j] += 1;
                    if coords[j] < end[j] {
                        break;
                    }
                    coords[j] = first[j];
                }
            }
            if pairs.len() > budget {
                return CellReach::default();
            }
        }
        pairs.sort_unstable();

        let mut offsets = vec![0u32; cells + 1];
        for &(cell, _) in &pairs {
            offsets[cell as usize + 1] += 1;
        }
        for cell in 0..cells {
            offsets[cell + 1] += offsets[cell];
        }
        let mut boxes = vec![0.0f64; 2 * d * cells];
        for (cell, bounds) in boxes.chunks_exact_mut(2 * d).enumerate() {
            let mut rest = cell;
            for j in (0..d).rev() {
                let k = rest % res;
                rest /= res;
                bounds[j] = axis_lo[j * res + k];
                bounds[d + j] = axis_hi[j * res + k];
            }
        }
        CellReach {
            offsets,
            items: pairs.into_iter().map(|(_, ci)| ci).collect(),
            boxes,
        }
    }

    /// Cell `cell`'s box (lower and upper bounds, `dim` each) and reach
    /// list, or `None` if the lists were not built.
    fn get(&self, cell: usize, dim: usize) -> Option<(&[f64], &[f64], &[u32])> {
        let end = *self.offsets.get(cell + 1)? as usize;
        let list = &self.items[self.offsets[cell] as usize..end];
        let (lo, hi) = self.boxes[2 * dim * cell..2 * dim * (cell + 1)].split_at(dim);
        Some((lo, hi, list))
    }
}

/// Whether the running CPU has AVX2, so the micro-kernels' AVX2 copy may
/// run. Always `false` off x86-64, where only the baseline copy exists.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

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
    let avx2 = avx2_available();
    match &est.center_grid {
        None => {
            // Every point sees every center: the SoA copy of the centers is
            // the panel, and the whole chunk is one tile.
            let tile: Vec<u32> = block.range().map(|i| i as u32).collect();
            tally.add(Counter::BatchTiles, 1);
            tally.add(Counter::KdeKernelEvals, (tile.len() * ks) as u64);
            eval_tile(
                est,
                avx2,
                block,
                &tile,
                &est.centers_soa,
                ks,
                out,
                block.range().start,
            );
        }
        Some(grid) => tiled_eval(est, grid, avx2, block, out, tally),
    }
}

/// The grid-pruned path: group the chunk's points by center-grid cell,
/// start each tile from its cell's reach list (or one grid walk) and
/// gather only the centers that can reach the tile.
fn tiled_eval(
    est: &KernelDensityEstimator,
    grid: &GridIndex,
    avx2: bool,
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
    let mut walk: Vec<u32> = Vec::new();
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

        // The tile's bounding box over its actual points.
        lo.copy_from_slice(points.point(tile[0] as usize));
        hi.copy_from_slice(&lo);
        for &i in &tile[1..] {
            let p = points.point(i as usize);
            for j in 0..dim {
                lo[j] = lo[j].min(p[j]);
                hi[j] = hi[j].max(p[j]);
            }
        }

        // The tile's starting entries (module docs, step 2): its cell's
        // reach list when the containment guard holds, else one grid walk
        // over the tile's box widened by `r`.
        let from: &[u32] = match est.cell_reach.get(cell as usize, dim) {
            Some((cell_lo, cell_hi, list))
                if (0..dim).all(|j| cell_lo[j] <= lo[j] && hi[j] <= cell_hi[j]) =>
            {
                list
            }
            _ => {
                for j in 0..dim {
                    query_lo[j] = lo[j] - r;
                    query_hi[j] = hi[j] + r;
                }
                walk.clear();
                grid.candidates_in_box(&query_lo, &query_hi, &mut walk);
                &walk
            }
        };
        visits += from.len() as u64;

        // Exact support test: drop a center if, in some dimension, every
        // tile point is beyond the kernel support — the same float
        // expression the kernel evaluates, at the tile's nearest edge.
        candidates.clear();
        candidates.extend(from.iter().copied().filter(|&ci| {
            let c = est.centers.point(ci as usize);
            !(0..dim).any(|j| (lo[j] - c[j]) * ih[j] > s || (c[j] - hi[j]) * ih[j] > s)
        }));

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
        eval_tile(
            est,
            avx2,
            points,
            &tile,
            &panel,
            m,
            out,
            points.range().start,
        );
        start = end;
    }

    tally.add(Counter::BatchTiles, tiles);
    tally.add(Counter::GridCandidateVisits, visits);
    tally.add(Counter::KdeKernelEvals, evals);
}

/// Dispatches one tile to the micro-kernel monomorphized for the
/// estimator's kernel profile, in the AVX2 copy when `avx2` is set.
#[allow(clippy::too_many_arguments)]
fn eval_tile(
    est: &KernelDensityEstimator,
    avx2: bool,
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
        Kernel::Epanechnikov => eval_tile_k::<profiles::Epanechnikov>(
            avx2, points, tile, panel, m, ih, scale, out, base,
        ),
        Kernel::Gaussian => {
            eval_tile_k::<profiles::Gaussian>(avx2, points, tile, panel, m, ih, scale, out, base)
        }
        Kernel::Biweight => {
            eval_tile_k::<profiles::Biweight>(avx2, points, tile, panel, m, ih, scale, out, base)
        }
        Kernel::Uniform => {
            eval_tile_k::<profiles::Uniform>(avx2, points, tile, panel, m, ih, scale, out, base)
        }
    }
}

/// Runs the dimension dispatch's AVX2 copy when `avx2` is set (which only
/// a positive [`avx2_available`] may do), its baseline copy otherwise.
#[allow(clippy::too_many_arguments)]
fn eval_tile_k<K: KernelProfile>(
    avx2: bool,
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    ih: &[f64],
    scale: f64,
    out: &mut [f64],
    base: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        debug_assert!(avx2_available());
        // SAFETY: `avx2` is set only from `avx2_available()`, which has
        // detected AVX2 on the running CPU, so the AVX2 copy's
        // instructions exist here.
        return unsafe { dims_avx2::<K>(points, tile, panel, m, ih, scale, out, base) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx2;
    dims::<K>(points, tile, panel, m, ih, scale, out, base)
}

/// [`dims`] compiled with AVX2 enabled: the same source, inlined here
/// together with the micro-kernels, so the four `BLOCK` lanes fit one
/// register.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dims_avx2<K: KernelProfile>(
    points: &PointBlock,
    tile: &[u32],
    panel: &[f64],
    m: usize,
    ih: &[f64],
    scale: f64,
    out: &mut [f64],
    base: usize,
) {
    dims::<K>(points, tile, panel, m, ih, scale, out, base)
}

/// Dimension dispatch: one micro-kernel monomorphized for each d ≤ 8,
/// the runtime-`dim` panel loop beyond. Always inlined, so each caller
/// ([`eval_tile_k`], [`dims_avx2`]) compiles its own copy.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dims<K: KernelProfile>(
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
#[inline(always)]
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
#[inline(always)]
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
    use dbs_core::{BoundingBox, Dataset, PointBlock};
    use rand::Rng;

    const KERNELS: [Kernel; 4] = [
        Kernel::Epanechnikov,
        Kernel::Gaussian,
        Kernel::Biweight,
        Kernel::Uniform,
    ];

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

    /// `per_dim^d` centers on the dyadic lattice `a / per_dim` of the unit
    /// cube with bandwidth `1 / per_dim`, so the grid cells are one
    /// bandwidth wide and `(x_j − c_j)·ih_j` is exact and equals `±1.0` —
    /// the support edge — for lattice queries one step from a center.
    fn lattice_estimator(d: usize, per_dim: usize, kernel: Kernel) -> KernelDensityEstimator {
        let total = per_dim.pow(d as u32);
        let mut centers = Dataset::with_capacity(d, total);
        for mut k in 0..total {
            let p: Vec<f64> = (0..d)
                .map(|_| {
                    let a = k % per_dim;
                    k /= per_dim;
                    a as f64 / per_dim as f64
                })
                .collect();
            centers.push(&p).unwrap();
        }
        let h = 1.0 / per_dim as f64;
        let est = KernelDensityEstimator::from_centers(
            centers,
            vec![h; d],
            1000.0,
            kernel,
            BoundingBox::unit(d),
        );
        assert!(est.has_center_grid());
        est
    }

    /// The 2-d lattice at 1/32 with queries on a 1/128 lattice.
    fn support_edge_case(kernel: Kernel) -> (KernelDensityEstimator, Dataset) {
        let est = lattice_estimator(2, 32, kernel);
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

    #[test]
    fn avx2_and_base_copies_agree_bit_for_bit() {
        let avx2 = super::avx2_available();
        if !avx2 {
            println!("AVX2 not available: ran only the base copy of the micro-kernels");
        }
        for d in 1..=9 {
            // 37 centers: below the grid threshold, so the scalar path sums
            // every center in index order, as the full panel does.
            let centers = random_dataset(37, d, 20 + d as u64);
            let queries = random_dataset(23, d, 40 + d as u64);
            for kernel in KERNELS {
                // Wide bandwidths: a mix of zero and non-zero products.
                let est = KernelDensityEstimator::from_centers(
                    centers.clone(),
                    vec![0.6; d],
                    1000.0,
                    kernel,
                    BoundingBox::unit(d),
                );
                assert!(!est.has_center_grid());
                for len in [1, 3, 4, 6, 7, 9, 23] {
                    let block = PointBlock::from_dataset(&queries, 0..len);
                    let tile: Vec<u32> = (0..len as u32).collect();
                    let run = |avx2| {
                        let mut out = vec![0.0f64; len];
                        let panel = &est.centers_soa;
                        super::eval_tile(&est, avx2, &block, &tile, panel, 37, &mut out, 0);
                        out
                    };
                    let base = run(false);
                    for (k, v) in base.iter().enumerate() {
                        let want = est.density(queries.point(k));
                        assert_eq!(v.to_bits(), want.to_bits(), "{kernel:?} d={d} len={len}");
                    }
                    if avx2 {
                        let wide: Vec<u64> = run(true).iter().map(|v| v.to_bits()).collect();
                        let base: Vec<u64> = base.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(wide, base, "{kernel:?} d={d} len={len}");
                    }
                }
            }
        }
    }

    /// Each cell's box as the reach lists must store it: the grid's cell
    /// box, open on the outer side of the grid.
    fn open_cell_box(grid: &dbs_spatial::GridIndex, cell: usize) -> (Vec<f64>, Vec<f64>) {
        let (first, last) = (grid.cell_bbox(0), grid.cell_bbox(grid.num_cells() - 1));
        let bbox = grid.cell_bbox(cell);
        let open = |x: f64, edge: f64, inf: f64| if x == edge { inf } else { x };
        let lo = (0..bbox.dim())
            .map(|j| open(bbox.min()[j], first.min()[j], f64::NEG_INFINITY))
            .collect();
        let hi = (0..bbox.dim())
            .map(|j| open(bbox.max()[j], last.max()[j], f64::INFINITY))
            .collect();
        (lo, hi)
    }

    #[test]
    fn reach_lists_hold_exactly_the_reaching_centers_ascending() {
        let mut cases: Vec<KernelDensityEstimator> = [(2, 400), (3, 600), (5, 1000)]
            .into_iter()
            .map(|(d, ks)| {
                let ds = random_dataset(4000, d, 30 + d as u64);
                KernelDensityEstimator::fit_dataset(&ds, &KdeConfig::with_centers(ks)).unwrap()
            })
            .collect();
        cases.push(lattice_estimator(2, 32, Kernel::Uniform));
        cases.push(lattice_estimator(3, 8, Kernel::Uniform));
        for est in &cases {
            let grid = est.center_grid.as_ref().unwrap();
            let (d, ih, s) = (est.dim(), &est.inv_bandwidths, est.kernel.support_radius());
            let mut entries = 0;
            for cell in 0..grid.num_cells() {
                let (lo, hi, list) = est.cell_reach.get(cell, d).expect("lists built");
                let (want_lo, want_hi) = open_cell_box(grid, cell);
                assert_eq!((lo, hi), (&want_lo[..], &want_hi[..]), "cell {cell} box");
                let want: Vec<u32> = (0..est.centers.len() as u32)
                    .filter(|&ci| {
                        let c = est.centers.point(ci as usize);
                        (0..d).all(|j| (lo[j] - c[j]) * ih[j] <= s && (c[j] - hi[j]) * ih[j] <= s)
                    })
                    .collect();
                assert_eq!(list, &want[..], "d={d} cell {cell}");
                assert!(list.windows(2).all(|w| w[0] < w[1]));
                entries += list.len();
            }
            assert!(entries > 0);
        }
    }

    /// Queries at every (sampled) cell's lower corner and the floats next
    /// to it, and outside the domain on every side.
    fn hard_points(est: &KernelDensityEstimator) -> Dataset {
        let grid = est.center_grid.as_ref().unwrap();
        let d = est.dim();
        let mut rng = seeded(9);
        let mut queries = Dataset::new(d);
        let near = |x: f64, v: usize| [x, x.next_down(), x.next_up()][v];
        for cell in (0..grid.num_cells()).step_by(grid.num_cells().div_ceil(1024)) {
            let lo = grid.cell_bbox(cell).min().to_vec();
            for v in 0..3 {
                let p: Vec<f64> = lo.iter().map(|&x| near(x, v)).collect();
                queries.push(&p).unwrap();
            }
            let p: Vec<f64> = lo.iter().map(|&x| near(x, rng.gen_range(0..3))).collect();
            queries.push(&p).unwrap();
        }
        let (min, max) = (est.domain().min(), est.domain().max());
        for j in 0..d {
            for off in [1e-12, 0.05, 0.3, 10.0] {
                for x in [min[j] - off, max[j] + off] {
                    let mut p: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
                    p[j] = x;
                    queries.push(&p).unwrap();
                }
            }
        }
        for off in [-0.2, 1.2] {
            queries.push(&vec![off; d]).unwrap();
        }
        queries
    }

    #[test]
    fn reach_lists_keep_hard_points_bit_identical() {
        for d in [2, 3, 5] {
            // A domain whose cell edges are not dyadic, so the edge queries
            // sit on rounded edges.
            let ds = random_dataset(4000, d, 50 + d as u64);
            let cfg = KdeConfig {
                domain: Some(BoundingBox::new(vec![-0.1; d], vec![1.03; d])),
                ..KdeConfig::with_centers(if d == 5 { 1000 } else { 400 })
            };
            let fit = KernelDensityEstimator::fit_dataset(&ds, &cfg).unwrap();
            let queries = hard_points(&fit);
            for kernel in KERNELS {
                let est = KernelDensityEstimator::from_centers(
                    fit.centers().clone(),
                    fit.bandwidths().to_vec(),
                    ds.len() as f64,
                    kernel,
                    fit.domain().clone(),
                );
                assert_batch_matches_scalar(&est, &queries);
            }
        }
        // Centers exactly one bandwidth below each cell's lower edge: on
        // the support edge of the edge queries, where the uniform kernel
        // is 0.5. At d = 5 the lattice's lists (~600 entries per center)
        // exceed the budget, so every tile walks the grid.
        for (d, per_dim, built) in [(2, 32, true), (3, 8, true), (5, 8, false)] {
            let est = lattice_estimator(d, per_dim, Kernel::Uniform);
            assert_eq!(est.cell_reach.get(0, d).is_some(), built, "d={d}");
            assert_batch_matches_scalar(&est, &hard_points(&est));
        }
    }
}
