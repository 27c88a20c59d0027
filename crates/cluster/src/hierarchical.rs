//! CURE-style hierarchical agglomerative clustering.
//!
//! "We used a hierarchical clustering algorithm based on CURE \[8\], but not
//! the original implementation by the authors. In this algorithm each
//! cluster is represented by a set of points that have been carefully
//! selected in order to represent the shape of the cluster (well scattered
//! points)." (§4 of the paper.)
//!
//! Implementation notes:
//! * every input point starts as a singleton cluster;
//! * the distance between two clusters is the minimum distance between
//!   their representative points;
//! * a merged cluster's representatives are `c` well-scattered members
//!   (farthest-point selection) shrunk toward the cluster mean by `α`
//!   (§4.2 settings: `c = 10`, `α = 0.3`);
//! * following CURE's outlier handling, once merging leaves the
//!   intra-cluster distance regime (the pending merge distance first
//!   exceeds 3× the lower quartile of the initial nearest-neighbor
//!   distances, a factor rescaled by dimension, and then each time it
//!   doubles), clusters that grew very slowly are set aside as noise rather
//!   than allowed to chain real clusters together. The first trim drops
//!   clusters under `trim_min_size` members; each later one triples that
//!   bar, capped at `max(trim_min_size, n / 200)`.
//!
//! # Merge-loop acceleration
//!
//! The naive agglomeration is quadratic in the sample size with two linear
//! scans per merge: one to find the globally closest pair, one to refresh
//! every cluster's closest pointer against the merged cluster (plus full
//! `O(live · c²)` rescans whenever a pointer goes stale). That cost is
//! exactly the paper's Figure 2 bottleneck. [`crate::partitioned_cluster`]
//! runs an accelerated core instead:
//!
//! * closest-pair selection pops a **lazy-deletion binary min-heap** of
//!   `(closest_dist, cluster_id)` entries, validated on pop against a
//!   per-cluster generation counter;
//! * a consumed or trimmed-away closest pointer is served from a small
//!   per-cluster **candidate list**: the `CAND_K` nearest clusters below a
//!   per-list coverage bound, cached in lexicographic `(dist, id)` order
//!   and lazily revalidated against reshape generation counters. Only when
//!   the cache runs dry does the cluster fall back to a k-nearest query
//!   against a [`dbs_spatial::RepIndex`] — a dynamic grid over all active
//!   clusters' representative points, updated incrementally on merge and
//!   trim — instead of every consumed pointer paying that rescan (the
//!   pre-candidate scheme did, which in tight high-dimensional blobs made
//!   nearly every merge broadcast a full rescan: the 16-d n=1500 cliff);
//! * the post-merge broadcast ("did the merged cluster become anyone's new
//!   closest?") prunes with an exact representative-bounding-box distance
//!   bound — against both the cached closest distance and the candidate
//!   coverage bound — before computing any rep-to-rep distance.
//!
//! The accelerated core is **bit-identical** to the retained reference loop
//! ([`hierarchical_cluster_reference`]): same merge sequence, same trims,
//! same output, at every thread count. Ties on merge distance break toward
//! the lowest cluster id. `tests/hierarchical_parity.rs` property-tests the
//! equality; `crates/bench/benches/cure_scaling.rs` measures the gap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;

use dbs_core::metric::euclidean_sq;
use dbs_core::obs::{Counter, Tally};
use dbs_core::{par, stats, Dataset, Error, Result};
use dbs_spatial::{KdTree, RepIndex};

/// Cluster id assigned to points trimmed as noise.
pub const NOISE: usize = usize::MAX;

/// Relative slack on the bounding-box pruning bound of the post-merge
/// broadcast: a box pair is only skipped when its distance bound exceeds the
/// candidate's current closest distance by this factor, so floating-point
/// rounding in the bound can never skip a pair the exact computation would
/// have accepted.
const BBOX_PRUNE_SLACK: f64 = 1.0 + 1e-9;

/// Representatives per cluster (`c`, §4.2).
const NUM_REPRESENTATIVES: usize = 10;

/// Shrink factor `α` of the representatives toward the mean (§4.2).
const SHRINK_FACTOR: f64 = 0.3;

/// Noise-trim trigger: a trim fires when the pending merge distance first
/// exceeds [`TRIM_DISTANCE_FACTOR`] times this quantile of the initial
/// nearest-neighbor distances, and re-fires each time the merge distance
/// doubles again. Intra-cluster merges happen at NN scale; merges beyond a
/// few times that scale are bridging noise, so trimming there removes
/// slow-growing noise clusters regardless of how unevenly dense the real
/// clusters are (CURE's count-based trigger misfires when cluster densities
/// differ a lot).
const TRIM_NN_QUANTILE: f64 = 0.25;

/// Multiplier on the NN-quantile distance for the trim trigger.
const TRIM_DISTANCE_FACTOR: f64 = 3.0;

/// Divisor for the sample-proportional part of the trim minimum: the
/// survival bar is capped at `max(trim_min_size, n / TRIM_SIZE_DIVISOR)` —
/// in a large noisy sample, noise agglomerates grow beyond any fixed size
/// while real clusters grow proportionally with the sample.
const TRIM_SIZE_DIVISOR: usize = 200;

/// Configuration of the hierarchical algorithm (§4.2 defaults).
#[derive(Debug, Clone)]
pub struct HierarchicalConfig {
    /// Target number of clusters `k`.
    pub num_clusters: usize,
    /// Minimum member count for a cluster to survive the first noise trim
    /// (later trims raise the bar; see the module notes). `0` disables
    /// trimming.
    pub trim_min_size: usize,
    /// Partition count `p` for [`crate::partitioned_cluster`]: partition
    /// `j` holds the input points `j, j + p, j + 2p, …`, each partition is
    /// pre-clustered independently, and the partial clusters are merged in
    /// a final pass. Strided rather than contiguous, so an input stored one
    /// cluster after another still gives every partition a share of every
    /// cluster. `1` (the default, and the paper's setting) runs the
    /// single-phase merge loop over the whole input.
    pub partitions: usize,
    /// Pre-clustering reduction factor `q`: each partition of `n_j` points
    /// is pre-clustered down to `max(k, ceil(n_j / q))` partial clusters
    /// before the final merge pass (CURE §4.3 recommends a small constant;
    /// larger values shrink the final pass at some quality risk). Unused at
    /// `partitions == 1`, though `0` is still rejected.
    pub pre_cluster_factor: usize,
    /// Worker threads for partition pre-clustering (one partition per
    /// task, at `partitions > 1`) and for the map-back pass of
    /// [`crate::sample_fed_cluster`]. Setup and the merge loop run serially.
    /// The clustering result is identical for every value; `1` runs fully
    /// serial.
    pub parallelism: NonZeroUsize,
}

impl HierarchicalConfig {
    /// The paper's §4.2 parameter setting for `k` target clusters.
    pub fn paper_defaults(num_clusters: usize) -> Self {
        HierarchicalConfig {
            num_clusters,
            trim_min_size: 3,
            partitions: 1,
            pre_cluster_factor: 3,
            parallelism: par::available_parallelism(),
        }
    }

    /// Sets the worker thread count for partition pre-clustering and
    /// map-back.
    pub fn with_parallelism(mut self, threads: NonZeroUsize) -> Self {
        self.parallelism = threads;
        self
    }

    /// Sets the partition count for [`crate::partitioned_cluster`].
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Sets the pre-clustering reduction factor for
    /// [`crate::partitioned_cluster`].
    pub fn with_pre_cluster_factor(mut self, q: usize) -> Self {
        self.pre_cluster_factor = q;
        self
    }
}

/// A cluster produced by [`crate::partitioned_cluster`].
#[derive(Debug, Clone)]
pub struct FoundCluster {
    /// Indices of member points in the input dataset.
    pub members: Vec<usize>,
    /// Mean of the member points.
    pub mean: Vec<f64>,
    /// Shrunk well-scattered representative points (the cluster's shape
    /// summary, and what the §4.3 evaluation criterion inspects).
    pub representatives: Vec<Vec<f64>>,
}

/// Result of a hierarchical clustering run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster id per input point; [`NOISE`] for trimmed points.
    pub assignments: Vec<usize>,
    /// The clusters, in arbitrary order; `assignments` indexes this list.
    pub clusters: Vec<FoundCluster>,
}

#[derive(Debug)]
pub(crate) struct Agglo {
    pub(crate) members: Vec<u32>,
    pub(crate) mean: Vec<f64>,
    /// Sum of member coordinates (exact mean maintenance under merges).
    pub(crate) coord_sum: Vec<f64>,
    pub(crate) reps: Vec<Vec<f64>>,
    pub(crate) closest: usize,
    pub(crate) closest_dist: f64,
    pub(crate) active: bool,
}

/// Minimum distance between the representative sets of two clusters.
fn cluster_dist(a: &Agglo, b: &Agglo) -> f64 {
    let mut best = f64::INFINITY;
    for p in &a.reps {
        for q in &b.reps {
            let d = euclidean_sq(p, q);
            if d < best {
                best = d;
            }
        }
    }
    best
}

/// Selects `c` well-scattered members of the cluster (farthest-point
/// heuristic seeded with the member farthest from the mean) and shrinks
/// them toward the mean by `alpha`.
fn scattered_representatives(
    data: &Dataset,
    members: &[u32],
    mean: &[f64],
    c: usize,
    alpha: f64,
) -> Vec<Vec<f64>> {
    let c = c.min(members.len()).max(1);
    let mut chosen: Vec<u32> = Vec::with_capacity(c);
    // min squared distance from each member to the chosen set.
    let mut min_dist: Vec<f64> = members
        .iter()
        .map(|&i| euclidean_sq(data.point(i as usize), mean))
        .collect();
    for _ in 0..c {
        // Pick the member with the largest min-distance (first iteration:
        // farthest from the mean).
        let (arg, _) = min_dist
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).expect("distances are never NaN"))
            .expect("members non-empty");
        let pick = members[arg];
        chosen.push(pick);
        min_dist[arg] = f64::NEG_INFINITY; // never re-picked
        let pick_point = data.point(pick as usize);
        for (slot, &m) in members.iter().enumerate() {
            if min_dist[slot] == f64::NEG_INFINITY {
                continue;
            }
            let d = euclidean_sq(data.point(m as usize), pick_point);
            if d < min_dist[slot] {
                min_dist[slot] = d;
            }
        }
    }
    chosen
        .into_iter()
        .map(|i| {
            let p = data.point(i as usize);
            p.iter()
                .zip(mean)
                .map(|(&x, &m)| x + alpha * (m - x))
                .collect()
        })
        .collect()
}

/// Rejects degenerate inputs (shared by both cores).
pub(crate) fn validate(data: &Dataset, config: &HierarchicalConfig) -> Result<()> {
    if data.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot cluster an empty dataset".into(),
        ));
    }
    if config.num_clusters == 0 {
        return Err(Error::InvalidParameter("num_clusters must be >= 1".into()));
    }
    Ok(())
}

/// Singleton initialization with kd-tree nearest neighbors (shared by both
/// cores), built and queried serially: at sample sizes this setup is a few
/// milliseconds next to the merge loop. Distances stay **squared** end to end —
/// [`KdTree::nearest_excluding_sq`] returns exactly the `euclidean_sq`
/// value the search computed, bit-equal to every later [`cluster_dist`]
/// comparison (the rounded sqrt-then-square round trip is not).
pub(crate) fn init_singletons(data: &Dataset) -> Vec<Agglo> {
    let tree = KdTree::build(data);
    (0..data.len())
        .map(|i| {
            let p = data.point(i).to_vec();
            let (closest, closest_dist) = tree
                .nearest_excluding_sq(data, &p, i)
                .unwrap_or((usize::MAX, f64::INFINITY));
            Agglo {
                members: vec![i as u32],
                mean: p.clone(),
                coord_sum: p.clone(),
                reps: vec![p],
                closest,
                closest_dist,
                active: true,
            }
        })
        .collect()
}

/// Squared distance threshold for the first noise trim, `None` when
/// trimming is disabled or cannot apply: a multiple of a quantile of the
/// initial NN distances (the shared [`dbs_core::stats::quantile`],
/// linear-interpolated). The trim re-fires every time the pending merge
/// distance doubles past the previous trigger, so noise agglomerates that
/// form *between* trims are still removed while they are small — CURE's
/// "two trim phases", generalized.
fn initial_trim_threshold_sq(
    clusters: &[Agglo],
    config: &HierarchicalConfig,
    n: usize,
    dim: usize,
) -> Option<f64> {
    if config.trim_min_size == 0 || n <= config.num_clusters {
        return None;
    }
    let nn: Vec<f64> = clusters.iter().map(|c| c.closest_dist).collect();
    let base = stats::quantile(&nn, TRIM_NN_QUANTILE);
    // Distances concentrate with dimension: a density ratio rho between
    // cluster interiors and noise shows up as a distance ratio of only
    // rho^(1/d). The configured factor is interpreted at d = 2 and
    // rescaled so the trigger separates the same density contrast in
    // any dimension.
    let factor = TRIM_DISTANCE_FACTOR.powf(2.0 / dim as f64);
    Some(base.max(f64::MIN_POSITIVE) * factor * factor)
}

/// The escalating survival bar for trim round `trim_round`: the first trim
/// is gentle (sparse real clusters are still fragments at dense-cluster
/// distance scales), later trims are strict (by then real clusters have
/// consolidated while anything still small is noise agglomerate).
fn trim_min_size(config: &HierarchicalConfig, n: usize, trim_round: u32) -> usize {
    let cap = config.trim_min_size.max(n / TRIM_SIZE_DIVISOR);
    config
        .trim_min_size
        .saturating_mul(3usize.saturating_pow(trim_round))
        .min(cap)
}

/// One trim pass (shared by both cores): deactivates every active cluster
/// smaller than `min_size`, in ascending id order, stopping once `live`
/// reaches `k`. Returns the ids trimmed (empty when nothing qualified).
fn trim_pass(clusters: &mut [Agglo], live: &mut usize, min_size: usize, k: usize) -> Vec<usize> {
    let mut trimmed = Vec::new();
    for (id, c) in clusters.iter_mut().enumerate() {
        if c.active && c.members.len() < min_size && *live > k {
            c.active = false;
            *live -= 1;
            trimmed.push(id);
        }
    }
    trimmed
}

/// Merges cluster `v` into cluster `u` (shared by both cores): members,
/// exact coordinate sums, mean, and freshly selected shrunk
/// representatives.
fn apply_merge(data: &Dataset, clusters: &mut [Agglo], u: usize, v: usize) {
    let dim = data.dim();
    let (members_v, sum_v) = {
        let cv = &mut clusters[v];
        cv.active = false;
        (
            std::mem::take(&mut cv.members),
            std::mem::take(&mut cv.coord_sum),
        )
    };
    {
        let cu = &mut clusters[u];
        cu.members.extend_from_slice(&members_v);
        for j in 0..dim {
            cu.coord_sum[j] += sum_v[j];
        }
        let inv = 1.0 / cu.members.len() as f64;
        for j in 0..dim {
            cu.mean[j] = cu.coord_sum[j] * inv;
        }
    }
    clusters[u].reps = scattered_representatives(
        data,
        &clusters[u].members,
        &clusters[u].mean,
        NUM_REPRESENTATIVES,
        SHRINK_FACTOR,
    );
}

/// Packs the surviving clusters into the output form (shared).
pub(crate) fn assemble(clusters: Vec<Agglo>, n: usize, live: usize) -> Clustering {
    let mut assignments = vec![NOISE; n];
    let mut out_clusters = Vec::with_capacity(live);
    for c in clusters.into_iter().filter(|c| c.active) {
        let id = out_clusters.len();
        let members: Vec<usize> = c.members.iter().map(|&m| m as usize).collect();
        for &m in &members {
            assignments[m] = id;
        }
        out_clusters.push(FoundCluster {
            members,
            mean: c.mean,
            representatives: c.reps,
        });
    }
    Clustering {
        assignments,
        clusters: out_clusters,
    }
}

/// Axis-aligned bounding box of a representative set, as `(lo, hi)`.
fn reps_bbox(reps: &[Vec<f64>], dim: usize) -> (Vec<f64>, Vec<f64>) {
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for r in reps {
        for j in 0..dim {
            lo[j] = lo[j].min(r[j]);
            hi[j] = hi[j].max(r[j]);
        }
    }
    (lo, hi)
}

/// Squared distance between two axis-aligned boxes (0 when they overlap) —
/// a lower bound on [`cluster_dist`] between the rep sets they bound.
fn bbox_gap_sq(a: &(Vec<f64>, Vec<f64>), b: &(Vec<f64>, Vec<f64>)) -> f64 {
    let mut acc = 0.0;
    for j in 0..a.0.len() {
        let g = (a.0[j] - b.1[j]).max(b.0[j] - a.1[j]).max(0.0);
        acc += g * g;
    }
    acc
}

/// A lazy-deletion heap entry: ordered by `(dist, id)` ascending (wrapped in
/// [`Reverse`] for the max-heap), so distance ties pop the lowest cluster id
/// first — the same tie-break an ascending-id linear scan with a strict `<`
/// implements. `gen` is not part of the order; it invalidates stale entries
/// on pop.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    id: u32,
    gen: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .expect("distances are never NaN")
            .then(self.id.cmp(&other.id))
    }
}

/// Candidate-list capacity: nearest-cluster pairs cached per cluster. Each
/// rebuild queries one extra neighbor (`CAND_K + 1`) to establish the
/// coverage bound. Small on purpose — the list only has to absorb the burst
/// of consumed pointers between reshapes of the clusters involved.
const CAND_K: usize = 8;

/// One cached nearest-cluster pair.
#[derive(Debug, Clone, Copy)]
struct CandEntry {
    dist: f64,
    owner: u32,
    /// `rep_gens[owner]` at caching time; a mismatch means `owner` has
    /// reshaped since and `dist` is stale.
    rep_gen: u32,
}

/// A cluster's cached candidate list, with its coverage invariant:
/// every *active* cluster `j` whose current `(cluster_dist, j)` pair is
/// lexicographically below the bound `(rho_dist, rho_owner)` has a valid
/// entry here carrying that exact pair, and every entry is below the bound.
/// (Pairs are unique across owners, so all comparisons are strict.) Under
/// the invariant the first valid entry is the exact lexicographic minimum
/// over all active clusters — the same answer a full rescan computes.
#[derive(Debug, Clone)]
struct CandList {
    /// Ascending in lexicographic `(dist, owner)`; at most [`CAND_K`].
    entries: Vec<CandEntry>,
    rho_dist: f64,
    rho_owner: u32,
}

impl CandList {
    /// Uncovered sentinel: a bound below every real pair, so nothing is
    /// claimed covered and the first fallback rebuilds. Lists start here
    /// (lazily built) and nothing is allocated until first use.
    fn empty() -> CandList {
        CandList {
            entries: Vec::new(),
            rho_dist: -1.0,
            rho_owner: 0,
        }
    }
}

/// Strict lexicographic `(dist, owner)` comparison.
#[inline]
fn pair_lt(d1: f64, o1: u32, d2: f64, o2: u32) -> bool {
    d1 < d2 || (d1 == d2 && o1 < o2)
}

/// Rebuilds `list` from the rep index: the `CAND_K + 1` nearest other
/// clusters of `id` in lexicographic `(dist, owner)` order, keeping
/// `CAND_K` as cached entries and the last as the coverage bound (or an
/// infinite bound when fewer other clusters exist — the list is then
/// complete). Returns the new closest pointer (the list head), or
/// `(usize::MAX, INFINITY)` when no other cluster is indexed.
fn rebuild_candidates(
    index: &RepIndex,
    id: usize,
    reps: &[Vec<f64>],
    rep_gens: &[u32],
    list: &mut CandList,
    tally: &mut Tally,
) -> (usize, f64) {
    tally.add(Counter::RepIndexQueries, reps.len() as u64);
    tally.add(Counter::CandidateRebuilds, 1);
    // Merge the per-rep (CAND_K + 1)-nearest owner lists keeping each
    // owner's minimum distance: the merged top-(CAND_K + 1) is the true
    // top-(CAND_K + 1) by [`cluster_dist`] — the rep attaining an owner's
    // minimum ranks that owner inside its own per-rep top list unless
    // CAND_K + 1 owners beat it there, in which case they beat it globally
    // too and it cannot be in the true top anyway.
    let mut merged: Vec<(f64, u32)> = Vec::with_capacity(CAND_K + 2);
    for p in reps {
        for (owner, d) in index.knearest_owners_sq(p, id as u32, CAND_K + 1) {
            if let Some(pos) = merged.iter().position(|&(_, o)| o == owner) {
                if d >= merged[pos].0 {
                    continue;
                }
                merged.remove(pos);
            } else if merged.len() == CAND_K + 1 {
                let (wd, wo) = merged[CAND_K];
                if !pair_lt(d, owner, wd, wo) {
                    continue;
                }
            }
            let at = merged.partition_point(|&(bd, bo)| pair_lt(bd, bo, d, owner));
            merged.insert(at, (d, owner));
            if merged.len() > CAND_K + 1 {
                merged.pop();
            }
        }
    }
    if merged.len() <= CAND_K {
        list.rho_dist = f64::INFINITY;
        list.rho_owner = u32::MAX;
    } else {
        let (bd, bo) = merged.pop().expect("len > CAND_K");
        list.rho_dist = bd;
        list.rho_owner = bo;
    }
    list.entries.clear();
    list.entries.extend(merged.iter().map(|&(d, o)| CandEntry {
        dist: d,
        owner: o,
        rep_gen: rep_gens[o as usize],
    }));
    match list.entries.first() {
        Some(e) => (e.owner as usize, e.dist),
        None => (usize::MAX, f64::INFINITY),
    }
}

/// Serves a consumed or trimmed-away closest pointer from the candidate
/// cache: drops invalid head entries (owner inactive, or reshaped since
/// its distance was cached) until the first valid one — by the coverage
/// invariant the exact lexicographic `(dist, id)` minimum over all active
/// clusters — and rebuilds from the index only when the cache runs dry.
fn fallback_closest(
    index: &RepIndex,
    id: usize,
    clusters: &[Agglo],
    rep_gens: &[u32],
    list: &mut CandList,
    tally: &mut Tally,
) -> (usize, f64) {
    while let Some(e) = list.entries.first() {
        let owner = e.owner as usize;
        if clusters[owner].active && rep_gens[owner] == e.rep_gen {
            tally.add(Counter::CandidateHits, 1);
            return (owner, e.dist);
        }
        list.entries.remove(0);
    }
    rebuild_candidates(index, id, &clusters[id].reps, rep_gens, list, tally)
}

/// Inserts the pair `(dist, owner)` into `list` if it lies below the
/// coverage bound, replacing any stale entry for the same owner; on
/// overflow past [`CAND_K`] the worst entry is dropped and its pair becomes
/// the new (tighter) bound, which preserves the coverage invariant: an
/// *active* owner whose stale entry is dropped must have a current pair at
/// or above the old bound (the post-merge sweep refreshed it otherwise), so
/// tightening the bound never uncovers it.
fn insert_candidate(list: &mut CandList, dist: f64, owner: u32, rep_gen: u32) {
    if !pair_lt(dist, owner, list.rho_dist, list.rho_owner) {
        return;
    }
    if let Some(pos) = list.entries.iter().position(|e| e.owner == owner) {
        list.entries.remove(pos);
    }
    let at = list
        .entries
        .partition_point(|e| pair_lt(e.dist, e.owner, dist, owner));
    list.entries.insert(
        at,
        CandEntry {
            dist,
            owner,
            rep_gen,
        },
    );
    if list.entries.len() > CAND_K {
        let w = list.entries.pop().expect("overflow");
        list.rho_dist = w.dist;
        list.rho_owner = w.owner;
    }
}

/// Noise-trim trigger state: the next squared-distance threshold (`None`
/// when trimming is disabled or exhausted its preconditions) and how many
/// trim rounds have fired. Phase B of the partitioned path starts from the
/// state its partitions reached in phase A.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrimState {
    pub(crate) next_sq: Option<f64>,
    pub(crate) round: u32,
}

impl TrimState {
    /// The initial state for `clusters` fresh out of [`init_singletons`].
    pub(crate) fn initial(
        clusters: &[Agglo],
        config: &HierarchicalConfig,
        n: usize,
        dim: usize,
    ) -> TrimState {
        TrimState {
            next_sq: initial_trim_threshold_sq(clusters, config, n, dim),
            round: 0,
        }
    }
}

/// The accelerated merge loop: heap-driven closest-pair selection, rep-index
/// recomputation, bbox-pruned broadcast. Mutates `clusters` in place and
/// returns the live cluster count.
///
/// * every cluster in `clusters` must be active on entry;
/// * the loop merges until `live <= stop_live` (`k`, or partition
///   pre-clustering's larger partial-cluster target); the trim *floor*
///   stays `k`;
/// * `trim` is the distance-trigger state, updated in place;
/// * `reseed_pointers` recomputes every closest pointer (lexicographic
///   `(dist, id)` minimum) before merging — required when `clusters` was
///   assembled from partitions, whose pointers are unset. Fresh singletons
///   pass `false` and keep their kd-tree nearest-neighbor pointers.
pub(crate) fn run_merge_loop(
    data: &Dataset,
    config: &HierarchicalConfig,
    clusters: &mut [Agglo],
    stop_live: usize,
    trim: &mut TrimState,
    reseed_pointers: bool,
    tally: &mut Tally,
) -> usize {
    let n = clusters.len();
    let n_points = data.len();
    let dim = data.dim();
    let k = config.num_clusters;
    let stop_live = stop_live.max(k);
    let mut live = n;
    if live <= stop_live {
        return live;
    }

    // Rep index over every active cluster's representative points. The
    // domain is the data's bounding box: reps are members shrunk toward a
    // member mean, so they never leave it.
    let domain = data.bounding_box().expect("non-empty dataset");
    let mut index = RepIndex::new(domain, n);
    for (id, c) in clusters.iter().enumerate() {
        index.insert_all(id as u32, &c.reps);
    }
    // The auto-sized resolution targets ~2 reps/cell, but in high dimension
    // the cell count jumps in huge steps (2^d); coarsen immediately if the
    // initial fill cannot justify the grid, rather than only after trims.
    index.maybe_coarsen();

    // Candidate caches (see [`CandList`]): `rep_gens` counts *reshapes* of
    // each cluster's representative set, bumped only by merges — distinct
    // from the heap `gens`, which bump on every pointer change and would
    // falsely invalidate cached pairs whose geometry is unchanged.
    let mut rep_gens: Vec<u32> = vec![0; n];
    let mut cands: Vec<CandList> = (0..n).map(|_| CandList::empty()).collect();

    if reseed_pointers {
        for id in 0..n {
            let (j, d) = rebuild_candidates(
                &index,
                id,
                &clusters[id].reps,
                &rep_gens,
                &mut cands[id],
                tally,
            );
            clusters[id].closest = j;
            clusters[id].closest_dist = d;
        }
    }

    // Per-cluster rep bounding boxes for the broadcast prune.
    let mut bboxes: Vec<(Vec<f64>, Vec<f64>)> =
        clusters.iter().map(|c| reps_bbox(&c.reps, dim)).collect();

    // Active-id list for O(live) broadcast iteration (order-insensitive).
    let mut active_ids: Vec<u32> = (0..n as u32).collect();
    let mut active_pos: Vec<u32> = (0..n as u32).collect();
    let deactivate = |active_ids: &mut Vec<u32>, active_pos: &mut [u32], id: usize| {
        let p = active_pos[id] as usize;
        active_ids.swap_remove(p);
        if p < active_ids.len() {
            active_pos[active_ids[p] as usize] = p as u32;
        }
    };

    // Lazy-deletion heap: one entry per (cluster, generation); an entry is
    // live iff its cluster is active and its generation is current. Every
    // closest-pointer change bumps the generation and pushes a fresh entry,
    // so the heap always holds each active cluster's current state.
    let mut gens: Vec<u32> = vec![0; n];
    let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::with_capacity(n + n / 2);
    for (id, c) in clusters.iter().enumerate() {
        if c.closest_dist.is_finite() {
            heap.push(Reverse(HeapEntry {
                dist: c.closest_dist,
                id: id as u32,
                gen: 0,
            }));
        }
    }
    let push_current =
        |heap: &mut BinaryHeap<Reverse<HeapEntry>>, gens: &[u32], clusters: &[Agglo], id: usize| {
            if clusters[id].closest_dist.is_finite() {
                heap.push(Reverse(HeapEntry {
                    dist: clusters[id].closest_dist,
                    id: id as u32,
                    gen: gens[id],
                }));
            }
        };

    // Pop counts stay in locals (flushed to `tally` at each exit): writing
    // through the tally reference inside the pop loop perturbs its codegen.
    let mut pops = 0u64;
    let mut stale = 0u64;

    while live > stop_live {
        // Pop the globally closest pair (lowest id on distance ties),
        // discarding stale entries.
        let (best, u) = loop {
            let Some(Reverse(entry)) = heap.pop() else {
                // Nothing mergeable (all remaining are mutually isolated).
                tally.add(Counter::HeapPops, pops);
                tally.add(Counter::HeapStalePops, stale);
                return live;
            };
            pops += 1;
            let id = entry.id as usize;
            if clusters[id].active && entry.gen == gens[id] {
                debug_assert_eq!(entry.dist, clusters[id].closest_dist);
                break (entry.dist, id);
            }
            stale += 1;
        };

        // Noise trim (CURE's outlier handling, distance-triggered): each
        // time the pending merge moves further out of the intra-cluster
        // distance regime, drop the clusters that grew too slowly.
        if trim.next_sq.is_some_and(|t| best > t) {
            // Re-arm at double the distance (4x on squared distances).
            trim.next_sq = Some(trim.next_sq.expect("checked above").max(best) * 4.0);
            let min_size = trim_min_size(config, n_points, trim.round);
            trim.round += 1;
            let u_gen = gens[u];
            let trimmed = trim_pass(clusters, &mut live, min_size, k);
            for &id in &trimmed {
                index.remove_all(id as u32, &clusters[id].reps);
                deactivate(&mut active_ids, &mut active_pos, id);
            }
            if live <= stop_live {
                break;
            }
            if !trimmed.is_empty() {
                index.maybe_coarsen();
                // Refresh stale closest pointers into trimmed clusters. No
                // cluster reshaped since the last broadcast (trims only
                // deactivate), so the candidate cache serves these exactly.
                for p in 0..active_ids.len() {
                    let id = active_ids[p] as usize;
                    if clusters[id].closest != usize::MAX && !clusters[clusters[id].closest].active
                    {
                        let (j, d) = fallback_closest(
                            &index,
                            id,
                            clusters,
                            &rep_gens,
                            &mut cands[id],
                            tally,
                        );
                        clusters[id].closest = j;
                        clusters[id].closest_dist = d;
                        gens[id] += 1;
                        push_current(&mut heap, &gens, clusters, id);
                    }
                }
                // The popped entry for `u` left the heap; restore it unless
                // the refresh already replaced it (or `u` was trimmed).
                if clusters[u].active && gens[u] == u_gen {
                    push_current(&mut heap, &gens, clusters, u);
                }
                continue; // re-select the closest pair among survivors
            }
        }
        let v = clusters[u].closest;
        debug_assert!(clusters[v].active, "closest pointers are kept fresh");

        // Merge v into u.
        index.remove_all(u as u32, &clusters[u].reps);
        index.remove_all(v as u32, &clusters[v].reps);
        deactivate(&mut active_ids, &mut active_pos, v);
        apply_merge(data, clusters, u, v);
        rep_gens[u] += 1;
        cands[v] = CandList::empty();
        tally.add(Counter::ClusterMerges, 1);
        live -= 1;
        index.insert_all(u as u32, &clusters[u].reps);
        bboxes[u] = reps_bbox(&clusters[u].reps, dim);
        index.maybe_coarsen();

        // Refresh closest pointers: u itself (every distance it cached was
        // measured against its old reps — rebuild from scratch), plus
        // anyone pointing at u/v (served from their candidate cache), plus
        // anyone the reshaped u is now closer to than their cached closest
        // or candidate coverage bound (bbox-pruned exact check).
        let (j, d) = rebuild_candidates(
            &index,
            u,
            &clusters[u].reps,
            &rep_gens,
            &mut cands[u],
            tally,
        );
        clusters[u].closest = j;
        clusters[u].closest_dist = d;
        gens[u] += 1;
        push_current(&mut heap, &gens, clusters, u);
        for p in 0..active_ids.len() {
            let id = active_ids[p] as usize;
            if id == u {
                continue;
            }
            let consumed = clusters[id].closest == u || clusters[id].closest == v;
            // The reshaped u must (re-)enter id's candidate list whenever
            // its new pair undercuts the coverage bound, or the list would
            // claim coverage it no longer has. The slack applies only to
            // the bbox lower bound; insertion and pointer updates compare
            // exact distances, so exact-duplicate ties (lb == 0) can never
            // flip which cluster wins.
            let lb = bbox_gap_sq(&bboxes[id], &bboxes[u]);
            let near_list = lb <= cands[id].rho_dist * BBOX_PRUNE_SLACK;
            let near_ptr = !consumed && lb <= clusters[id].closest_dist * BBOX_PRUNE_SLACK;
            if near_list || near_ptr {
                let d = cluster_dist(&clusters[id], &clusters[u]);
                if near_list {
                    insert_candidate(&mut cands[id], d, u as u32, rep_gens[u]);
                }
                // Strict `<` keeps the incumbent on exact ties, matching
                // the reference broadcast.
                if !consumed && d < clusters[id].closest_dist {
                    clusters[id].closest = u;
                    clusters[id].closest_dist = d;
                    gens[id] += 1;
                    push_current(&mut heap, &gens, clusters, id);
                }
            }
            if consumed {
                let (j, d) =
                    fallback_closest(&index, id, clusters, &rep_gens, &mut cands[id], tally);
                clusters[id].closest = j;
                clusters[id].closest_dist = d;
                gens[id] += 1;
                push_current(&mut heap, &gens, clusters, id);
            }
        }
    }
    tally.add(Counter::HeapPops, pops);
    tally.add(Counter::HeapStalePops, stale);
    live
}

/// The retained reference merge loop: linear closest-pair scan and full
/// `recompute_closest` rescans, exactly as the pre-acceleration
/// implementation ran them. Kept for the bit-equality property tests and
/// the `cure_scaling` benchmark.
fn run_merge_loop_reference(
    data: &Dataset,
    config: &HierarchicalConfig,
    clusters: &mut [Agglo],
) -> usize {
    let n = clusters.len();
    let dim = data.dim();
    let k = config.num_clusters;
    let mut live = n;
    if live <= k {
        return live;
    }

    let mut next_trim_sq = initial_trim_threshold_sq(clusters, config, n, dim);
    let mut trim_round: u32 = 0;

    let recompute_closest = |clusters: &[Agglo], id: usize| -> (usize, f64) {
        let mut best = (usize::MAX, f64::INFINITY);
        for (j, other) in clusters.iter().enumerate() {
            if j == id || !other.active {
                continue;
            }
            let d = cluster_dist(&clusters[id], other);
            if d < best.1 {
                best = (j, d);
            }
        }
        best
    };

    while live > k {
        // Find the globally closest pair.
        let mut u = usize::MAX;
        let mut best = f64::INFINITY;
        for (i, c) in clusters.iter().enumerate() {
            if c.active && c.closest_dist < best {
                best = c.closest_dist;
                u = i;
            }
        }
        if u == usize::MAX {
            break; // nothing mergeable (all remaining are mutually isolated)
        }

        if next_trim_sq.is_some_and(|t| best > t) {
            next_trim_sq = Some(next_trim_sq.expect("checked above").max(best) * 4.0);
            let min_size = trim_min_size(config, n, trim_round);
            trim_round += 1;
            let trimmed = trim_pass(clusters, &mut live, min_size, k);
            if live <= k {
                break;
            }
            if !trimmed.is_empty() {
                // Refresh stale closest pointers into trimmed clusters.
                for id in 0..clusters.len() {
                    if clusters[id].active
                        && clusters[id].closest != usize::MAX
                        && !clusters[clusters[id].closest].active
                    {
                        let (j, d) = recompute_closest(clusters, id);
                        clusters[id].closest = j;
                        clusters[id].closest_dist = d;
                    }
                }
                continue; // re-select the closest pair among survivors
            }
        }
        let v = clusters[u].closest;
        debug_assert!(clusters[v].active, "closest pointers are kept fresh");

        // Merge v into u.
        apply_merge(data, clusters, u, v);
        live -= 1;

        // Refresh closest pointers: u itself, plus anyone pointing at u/v.
        let (j, d) = recompute_closest(clusters, u);
        clusters[u].closest = j;
        clusters[u].closest_dist = d;
        for id in 0..clusters.len() {
            if !clusters[id].active || id == u {
                continue;
            }
            if clusters[id].closest == u || clusters[id].closest == v {
                let (j, d) = recompute_closest(clusters, id);
                clusters[id].closest = j;
                clusters[id].closest_dist = d;
            } else {
                // u changed shape; it may now be closer than the cached one.
                let d = cluster_dist(&clusters[id], &clusters[u]);
                if d < clusters[id].closest_dist {
                    clusters[id].closest = u;
                    clusters[id].closest_dist = d;
                }
            }
        }
    }
    live
}

/// Single-phase CURE clustering through the retained pre-acceleration
/// merge loop: per-merge linear scans and full `recompute_closest` rescans.
///
/// This path exists as the executable specification of the merge sequence:
/// the accelerated core ([`crate::partitioned_cluster`] at `p = 1`) must
/// produce bit-identical [`Clustering`] output
/// (`tests/hierarchical_parity.rs` property-tests it) and the
/// `cure_scaling` bench measures the speedup against it. It is quadratic
/// with a large constant — do not use it for real workloads.
pub fn hierarchical_cluster_reference(
    data: &Dataset,
    config: &HierarchicalConfig,
) -> Result<Clustering> {
    validate(data, config)?;
    let mut clusters = init_singletons(data);
    let live = run_merge_loop_reference(data, config, &mut clusters);
    Ok(assemble(clusters, data.len(), live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned_cluster;
    use dbs_core::rng::seeded;
    use rand::Rng;

    /// `k` tight blobs on a diagonal, `per` points each.
    fn blobs(k: usize, per: usize, seed: u64) -> (Dataset, Vec<usize>) {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, k * per);
        let mut labels = Vec::with_capacity(k * per);
        for c in 0..k {
            let center = (c as f64 + 0.5) / k as f64;
            for _ in 0..per {
                ds.push(&[
                    center + (rng.gen::<f64>() - 0.5) * 0.05,
                    center + (rng.gen::<f64>() - 0.5) * 0.05,
                ])
                .unwrap();
                labels.push(c);
            }
        }
        (ds, labels)
    }

    /// Asserts the two cores agree bit for bit on every output field.
    fn assert_cores_agree(ds: &Dataset, cfg: &HierarchicalConfig) {
        let fast = partitioned_cluster(ds, cfg).unwrap();
        let reference = hierarchical_cluster_reference(ds, cfg).unwrap();
        assert_eq!(fast.assignments, reference.assignments);
        assert_eq!(fast.clusters.len(), reference.clusters.len());
        for (a, b) in fast.clusters.iter().zip(reference.clusters.iter()) {
            assert_eq!(a.members, b.members);
            assert_eq!(a.mean, b.mean);
            assert_eq!(a.representatives, b.representatives);
        }
    }

    #[test]
    fn separates_well_separated_blobs() {
        let (ds, labels) = blobs(4, 50, 1);
        let res = partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(4)).unwrap();
        assert_eq!(res.clusters.len(), 4);
        // Every found cluster must be label-pure.
        for cluster in &res.clusters {
            let first = labels[cluster.members[0]];
            assert!(cluster.members.iter().all(|&m| labels[m] == first));
        }
    }

    #[test]
    fn assignments_match_clusters() {
        let (ds, _) = blobs(3, 30, 2);
        let res = partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(3)).unwrap();
        for (id, cluster) in res.clusters.iter().enumerate() {
            for &m in &cluster.members {
                assert_eq!(res.assignments[m], id);
            }
        }
        let assigned: usize = res.clusters.iter().map(|c| c.members.len()).sum();
        let noise = res.assignments.iter().filter(|&&a| a == NOISE).count();
        assert_eq!(assigned + noise, ds.len());
    }

    #[test]
    fn representatives_are_shrunk_into_cluster() {
        let (ds, _) = blobs(2, 100, 3);
        let res = partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(2)).unwrap();
        for cluster in &res.clusters {
            assert!(cluster.representatives.len() <= 10);
            assert!(!cluster.representatives.is_empty());
            // Shrunk reps lie within the member bounding box (strictly
            // inside, since alpha > 0 pulls toward the mean).
            let sub = ds.select(&cluster.members);
            let bb = sub.bounding_box().unwrap().inflate(1e-9);
            for rep in &cluster.representatives {
                assert!(bb.contains(rep), "rep {rep:?} outside cluster box");
            }
        }
    }

    #[test]
    fn elongated_cluster_not_split() {
        // One long thin cluster plus one blob: k-means would split the
        // elongated one; representative-based merging must keep it whole.
        // Trimming is disabled — this exercises pure merge behavior.
        let mut rng = seeded(4);
        let mut ds = Dataset::with_capacity(2, 260);
        for i in 0..200 {
            ds.push(&[
                0.05 + 0.9 * (i as f64 / 200.0),
                0.1 + (rng.gen::<f64>() - 0.5) * 0.02,
            ])
            .unwrap();
        }
        for _ in 0..60 {
            ds.push(&[
                0.5 + (rng.gen::<f64>() - 0.5) * 0.05,
                0.8 + (rng.gen::<f64>() - 0.5) * 0.05,
            ])
            .unwrap();
        }
        let mut cfg = HierarchicalConfig::paper_defaults(2);
        cfg.trim_min_size = 0;
        let res = partitioned_cluster(&ds, &cfg).unwrap();
        assert_eq!(res.clusters.len(), 2);
        let mut sizes: Vec<usize> = res.clusters.iter().map(|c| c.members.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![60, 200], "elongated cluster was split");
    }

    #[test]
    fn trims_sparse_noise_points() {
        let (mut ds, _) = blobs(2, 100, 5);
        // Scatter isolated noise points far from the blobs.
        let mut rng = seeded(6);
        for _ in 0..8 {
            ds.push(&[rng.gen::<f64>(), 0.9 + rng.gen::<f64>() * 0.1])
                .unwrap();
        }
        let res = partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(2)).unwrap();
        assert_eq!(res.clusters.len(), 2);
        let noise = res.assignments.iter().filter(|&&a| a == NOISE).count();
        assert!(noise > 0, "expected some noise points to be trimmed");
        // Both real blobs survive as the two clusters: each cluster is pure
        // (all members from one blob — indices < 200 are blob points) and
        // keeps the bulk of its blob. The trim phase may shed a minority of
        // blob points as noise; what matters is that the blobs are not
        // chained together through the scattered noise points.
        let mut sizes: Vec<usize> = res.clusters.iter().map(|c| c.members.len()).collect();
        sizes.sort_unstable();
        assert!(sizes[0] >= 55, "sizes {sizes:?}");
        for cluster in &res.clusters {
            let blob0 = cluster.members.iter().filter(|&&m| m < 100).count();
            let purity =
                blob0.max(cluster.members.len() - blob0) as f64 / cluster.members.len() as f64;
            assert!(purity > 0.95, "cluster mixes blobs (purity {purity})");
        }
    }

    #[test]
    fn k_equal_n_returns_singletons() {
        let (ds, _) = blobs(1, 5, 7);
        let mut cfg = HierarchicalConfig::paper_defaults(5);
        cfg.trim_min_size = 0;
        let res = partitioned_cluster(&ds, &cfg).unwrap();
        assert_eq!(res.clusters.len(), 5);
        assert!(res.clusters.iter().all(|c| c.members.len() == 1));
    }

    #[test]
    fn k_larger_than_n_keeps_all_points() {
        let (ds, _) = blobs(1, 3, 8);
        let res = partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(10)).unwrap();
        assert_eq!(res.clusters.len(), 3);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (ds, _) = blobs(1, 10, 9);
        assert!(
            partitioned_cluster(&Dataset::new(2), &HierarchicalConfig::paper_defaults(2)).is_err()
        );
        assert!(partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(0)).is_err());
        let cfg = HierarchicalConfig::paper_defaults(2);
        assert!(hierarchical_cluster_reference(&Dataset::new(2), &cfg).is_err());
    }

    #[test]
    fn deterministic() {
        let (ds, _) = blobs(3, 40, 10);
        let a = partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(3)).unwrap();
        let b = partitioned_cluster(&ds, &HierarchicalConfig::paper_defaults(3)).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn result_is_identical_for_every_thread_count() {
        let (ds, _) = blobs(3, 60, 11);
        let serial = partitioned_cluster(
            &ds,
            &HierarchicalConfig::paper_defaults(3).with_parallelism(NonZeroUsize::new(1).unwrap()),
        )
        .unwrap();
        for t in [2usize, 7] {
            let par = partitioned_cluster(
                &ds,
                &HierarchicalConfig::paper_defaults(3)
                    .with_parallelism(NonZeroUsize::new(t).unwrap()),
            )
            .unwrap();
            assert_eq!(par.assignments, serial.assignments, "threads={t}");
        }
    }

    #[test]
    fn duplicate_points_cluster_together() {
        let rows = vec![vec![0.2, 0.2]; 50]
            .into_iter()
            .chain(vec![vec![0.8, 0.8]; 50])
            .collect::<Vec<_>>();
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut cfg = HierarchicalConfig::paper_defaults(2);
        cfg.trim_min_size = 0;
        let res = partitioned_cluster(&ds, &cfg).unwrap();
        assert_eq!(res.clusters.len(), 2);
        for c in &res.clusters {
            assert_eq!(c.members.len(), 50);
        }
    }

    #[test]
    fn cores_agree_on_n_at_most_k() {
        // n == k and n < k: the merge loop never runs; both cores must
        // return every point as its own singleton cluster.
        let (ds, _) = blobs(1, 5, 12);
        for k in [5usize, 9] {
            let mut cfg = HierarchicalConfig::paper_defaults(k);
            cfg.trim_min_size = 0;
            assert_cores_agree(&ds, &cfg);
            let res = partitioned_cluster(&ds, &cfg).unwrap();
            assert_eq!(res.clusters.len(), 5);
        }
    }

    #[test]
    fn cores_agree_on_all_duplicate_points() {
        // Every pairwise distance is exactly 0.0: the merge sequence is
        // pure tie-breaking, which both cores must resolve identically.
        let rows = vec![vec![0.4, 0.6]; 60];
        let ds = Dataset::from_rows(&rows).unwrap();
        for trim in [0usize, 3] {
            let mut cfg = HierarchicalConfig::paper_defaults(3);
            cfg.trim_min_size = trim;
            assert_cores_agree(&ds, &cfg);
        }
    }

    #[test]
    fn cores_agree_with_trim_disabled() {
        let (mut ds, _) = blobs(3, 40, 13);
        let mut rng = seeded(14);
        for _ in 0..10 {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        let mut cfg = HierarchicalConfig::paper_defaults(3);
        cfg.trim_min_size = 0; // trim disabled: pure merge behavior
        assert_cores_agree(&ds, &cfg);
    }

    #[test]
    fn trim_can_drive_live_down_to_exactly_k() {
        // Two tight blobs plus isolated stragglers: when the first trim
        // fires, dropping the stragglers lands live exactly on k, ending
        // the run mid-loop. Both cores must take the same early exit.
        let (mut ds, _) = blobs(2, 30, 15);
        ds.push(&[0.05, 0.95]).unwrap();
        ds.push(&[0.95, 0.05]).unwrap();
        // At 62 points the bar stays at trim_min_size (n / 200 = 0).
        let cfg = HierarchicalConfig::paper_defaults(2);
        let res = partitioned_cluster(&ds, &cfg).unwrap();
        assert_eq!(res.clusters.len(), 2);
        assert_eq!(res.assignments[60], NOISE);
        assert_eq!(res.assignments[61], NOISE);
        assert_cores_agree(&ds, &cfg);
    }

    #[test]
    fn cores_agree_on_noisy_blobs() {
        let (mut ds, _) = blobs(4, 25, 16);
        let mut rng = seeded(17);
        for _ in 0..12 {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
        }
        assert_cores_agree(&ds, &HierarchicalConfig::paper_defaults(4));
    }
}
