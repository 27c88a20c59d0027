//! Partitioned CURE, sample-fed clustering, and full-dataset label
//! map-back — the scalable path around the quadratic merge loop.
//!
//! Three composable pieces:
//!
//! * [`partitioned_cluster`] — CURE's partitioning scheme (§4.3 of the CURE
//!   paper): split the input into `p` equal partitions by stride (partition
//!   `j` holds points `j, j + p, j + 2p, …`, so membership is a pure
//!   function of `(n, p)` — never of the thread schedule — and every
//!   partition holds `⌊n/p⌋` or `⌈n/p⌉` points), pre-cluster each partition
//!   down to `max(k, ceil(n_j / q))` partial clusters with the
//!   heap-accelerated merge loop, then merge the partial clusters'
//!   representative sets in a final pass over the whole id space. Strides
//!   rather than contiguous ranges because inputs are often stored one
//!   cluster after another: a range would cut a cluster in two and leave
//!   each partition with a skewed slice of the data, while a stride gives
//!   every partition a thinned copy of all of it. At `p = 1` (the paper's
//!   setting) there is no pre-clustering: the merge loop runs once over the
//!   whole input and `q` is unused.
//! * [`sample_fed_cluster`] — cluster a (density-biased) sample standing in
//!   for the full dataset, then assign every original point via map-back.
//! * [`map_back_labels`] — assign each point of the full dataset to the
//!   cluster of its nearest representative (a [`dbs_spatial::RepIndex`]
//!   nearest-owner query, lexicographic `(dist, owner)` minimum, so ties
//!   resolve identically at every thread count), marking points farther
//!   than the noise threshold from every representative as [`NOISE`].
//!
//! # Determinism contract
//!
//! The partitioned path is bit-reproducible at every thread count, and its
//! `p = 1` case is **bit-identical** to the reference loop
//! [`hierarchical_cluster_reference`](crate::hierarchical_cluster_reference)
//! (`tests/hierarchical_parity.rs` property-tests this):
//!
//! * partition membership is a pure function of `(n, p)`; partitions are
//!   pre-clustered through the par executor and their partials
//!   concatenated in partition order, ascending local id;
//! * phase B reseeds every closest pointer as the lexicographic
//!   `(dist, id)` minimum via the rep index before merging — deterministic
//!   regardless of insertion or thread order (the reseed doubles as the
//!   candidate-cache warmup: each cluster's list is rebuilt from its
//!   k-nearest query);
//! * phase B's noise trim resumes from the smallest pending trigger
//!   distance and the **lowest** trim round any partition reached, so a
//!   partition that never trimmed keeps its small partials eligible under
//!   the first round's gentle survival bar;
//! * the map-back noise threshold is calibrated on the sample clustering
//!   itself: the largest squared distance from any sample member to the
//!   nearest representative of **its own** cluster, times a fixed slack.
//!   That is the same quantity map-back thresholds on — point-to-shrunk-
//!   representative distance, dominated by the shrink offset — whereas the
//!   merge loop's trim trigger is scaled to nearest-neighbor gaps, an
//!   order of magnitude smaller. Computed in fixed cluster/member order,
//!   so it is schedule-independent; `None` (assign everything) when
//!   trimming is disabled.

use std::num::NonZeroUsize;

use dbs_core::metric::euclidean_sq;
use dbs_core::obs::{Counter, Recorder, Tally};
use dbs_core::{par, BoundingBox, Dataset, Error, PointSource, Result};
use dbs_spatial::RepIndex;

use crate::hierarchical::{
    assemble, init_singletons, run_merge_loop, validate, Agglo, Clustering, FoundCluster,
    HierarchicalConfig, TrimState, NOISE,
};

/// Everything phase B needs from one pre-clustered partition.
struct PartitionOutput {
    /// Surviving clusters in ascending id order: members hold indices into
    /// the *input* dataset; closest pointers are unset (phase B reseeds).
    aggs: Vec<Agglo>,
    /// Trim-trigger state at the end of phase A.
    trim: TrimState,
    /// Phase-A observability (merged into the caller in partition order).
    tally: Tally,
}

/// The input indices of partition `part`: every `partitions`-th point
/// starting at `part`, in ascending order.
fn partition_indices(n: usize, partitions: usize, part: usize) -> Vec<usize> {
    (part..n).step_by(partitions).collect()
}

/// Pre-clusters one partition down to `max(k, ceil(n_j / q))` partial
/// clusters and keeps the survivors in ascending id order. `globals` maps
/// partition-local point indices back to input indices.
fn precluster(data: &Dataset, globals: &[usize], config: &HierarchicalConfig) -> PartitionOutput {
    let mut tally = Tally::default();
    let mut clusters = init_singletons(data);
    let mut trim = TrimState::initial(&clusters, config, data.len(), data.dim());
    let stop = config
        .num_clusters
        .max(data.len().div_ceil(config.pre_cluster_factor));
    run_merge_loop(
        data,
        config,
        &mut clusters,
        stop,
        &mut trim,
        false,
        &mut tally,
    );
    let aggs = clusters
        .into_iter()
        .filter(|c| c.active)
        .map(|mut c| {
            for m in &mut c.members {
                *m = globals[*m as usize] as u32;
            }
            c.closest = usize::MAX;
            c.closest_dist = f64::INFINITY;
            c
        })
        .collect();
    PartitionOutput { aggs, trim, tally }
}

/// Phase A: pre-clusters each partition through the par executor and
/// concatenates the partials (partition order, ascending local id), with
/// the trim state phase B resumes from.
///
/// Every task is a pure function of (data, config, partition id), so the
/// partials are schedule-independent. Trimming resumes at the lowest round
/// any partition reached: a partition that never trimmed still holds small
/// partials that are real-cluster fragments, which a later round's higher
/// survival bar would discard wholesale.
fn precluster_partitions(
    data: &Dataset,
    config: &HierarchicalConfig,
    tally: &mut Tally,
) -> (Vec<Agglo>, TrimState) {
    let n = data.len();
    let p = config.partitions;
    let inner = config.clone().with_parallelism(par::serial());
    let partials: Vec<PartitionOutput> = par::par_tasks(p, config.parallelism, |j| {
        let indices = partition_indices(n, p, j);
        precluster(&data.select(&indices), &indices, &inner)
    });
    let mut clusters: Vec<Agglo> = Vec::new();
    let mut trim = TrimState {
        next_sq: None,
        round: u32::MAX,
    };
    // Pre-merges are the phase-A subset of ClusterMerges.
    let mut pre_merges = 0u64;
    for part in partials {
        pre_merges += part.tally.get(Counter::ClusterMerges);
        tally.merge(&part.tally);
        trim.round = trim.round.min(part.trim.round);
        trim.next_sq = match (trim.next_sq, part.trim.next_sq) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        clusters.extend(part.aggs);
    }
    tally.add(Counter::PartitionPreMerges, pre_merges);
    (clusters, trim)
}

/// Shared core: at `p = 1` the single-phase merge loop over singletons;
/// otherwise phase A over the partitions, then phase B merges the
/// partials down to `k` after reseeding every closest pointer over the
/// whole id space. Returns the final clusters and the live count.
pub(crate) fn partitioned_core(
    data: &Dataset,
    config: &HierarchicalConfig,
    tally: &mut Tally,
) -> Result<(Vec<Agglo>, usize)> {
    validate(data, config)?;
    let n = data.len();
    let p = config.partitions;
    if p == 0 {
        return Err(Error::InvalidParameter("partitions must be >= 1".into()));
    }
    if p > n {
        return Err(Error::InvalidParameter(format!(
            "partitions ({p}) must not exceed the point count ({n})"
        )));
    }
    if config.pre_cluster_factor == 0 {
        return Err(Error::InvalidParameter(
            "pre_cluster_factor must be >= 1".into(),
        ));
    }
    let (mut clusters, mut trim, reseed) = if p == 1 {
        let clusters = init_singletons(data);
        let trim = TrimState::initial(&clusters, config, n, data.dim());
        (clusters, trim, false)
    } else {
        let (clusters, trim) = precluster_partitions(data, config, tally);
        (clusters, trim, true)
    };
    let live = run_merge_loop(
        data,
        config,
        &mut clusters,
        config.num_clusters,
        &mut trim,
        reseed,
        tally,
    );
    Ok((clusters, live))
}

/// CURE's partitioned clustering: pre-cluster `config.partitions`
/// deterministic partitions in parallel, then merge the partial clusters.
///
/// With `config.partitions == 1` (the default) this is the CURE-style
/// algorithm the paper runs on its samples: one merge loop over every
/// point. With more partitions the quadratic merge work drops by roughly a
/// factor of `p`.
///
/// Errors on an empty dataset, `num_clusters == 0`, `partitions == 0`,
/// `partitions > n`, or `pre_cluster_factor == 0`.
///
/// # Examples
///
/// ```
/// use dbs_cluster::{partitioned_cluster, HierarchicalConfig};
/// use dbs_core::Dataset;
///
/// // Two blobs of 30 points each.
/// let mut rows = vec![];
/// for i in 0..30 {
///     rows.push(vec![0.2 + (i % 6) as f64 * 0.01, 0.2 + (i / 6) as f64 * 0.01]);
///     rows.push(vec![0.8 + (i % 6) as f64 * 0.01, 0.8 + (i / 6) as f64 * 0.01]);
/// }
/// let data = Dataset::from_rows(&rows)?;
/// let result = partitioned_cluster(&data, &HierarchicalConfig::paper_defaults(2))?;
///
/// assert_eq!(result.clusters.len(), 2);
/// assert!(result.clusters.iter().all(|c| c.members.len() == 30));
/// # Ok::<(), dbs_core::Error>(())
/// ```
pub fn partitioned_cluster(data: &Dataset, config: &HierarchicalConfig) -> Result<Clustering> {
    partitioned_cluster_obs(data, config, &Recorder::disabled())
}

/// [`partitioned_cluster`] with metrics: heap pops (total and stale),
/// rep-index queries, candidate-cache hits and rebuilds, and merges, plus
/// [`Counter::PartitionPreMerges`] (phase-A merges, a subset of
/// [`Counter::ClusterMerges`]; zero at `p = 1`). Counter totals are
/// identical at every thread count (partition tallies merge in partition
/// order), and the clustering is byte-identical to the plain entry point.
pub fn partitioned_cluster_obs(
    data: &Dataset,
    config: &HierarchicalConfig,
    recorder: &Recorder,
) -> Result<Clustering> {
    let mut tally = Tally::default();
    let (clusters, live) = partitioned_core(data, config, &mut tally)?;
    recorder.merge(&tally);
    Ok(assemble(clusters, data.len(), live))
}

/// Slack applied (on the squared scale) to the calibrated map-back radius:
/// full-dataset points from the same distribution can sit slightly beyond
/// the worst sample member, so give them ~1.4x the distance before calling
/// them noise.
const MAP_BACK_SLACK_SQ: f64 = 2.0;

/// The map-back noise threshold, calibrated on the sample clustering: the
/// largest squared distance from any sample member to the nearest
/// representative of its own cluster, times [`MAP_BACK_SLACK_SQ`]. This is
/// the quantity map-back actually thresholds on (point-to-representative
/// distance, dominated by the rep shrink offset — far above the
/// nearest-neighbor gaps the merge loop's trim trigger is scaled to).
/// `None` when no member sits off a representative (then nothing can be
/// distinguished — assign everything).
fn calibrated_noise_threshold_sq(sample: &Dataset, clustering: &Clustering) -> Option<f64> {
    let mut worst = 0.0f64;
    for c in &clustering.clusters {
        if c.representatives.is_empty() {
            continue;
        }
        for &m in &c.members {
            let p = sample.point(m);
            let mut best = f64::INFINITY;
            for rep in &c.representatives {
                best = best.min(euclidean_sq(p, rep));
            }
            worst = worst.max(best);
        }
    }
    (worst > 0.0).then_some(worst * MAP_BACK_SLACK_SQ)
}

/// Clusters `sample` (standing in for `full`) with the partitioned
/// pipeline, then maps every point of `full` onto the sample clusters via
/// [`map_back_labels`]. The noise threshold for map-back is calibrated on
/// the sample clustering — the worst member-to-own-nearest-representative
/// distance, with slack (`None` — assign everything — when trimming is
/// disabled).
///
/// The returned [`Clustering`] indexes `full`: assignments cover every
/// original point, members/means are recomputed from the full dataset, and
/// representatives are the sample clusters' (they summarize cluster shape,
/// which is what the §4.3 evaluation inspects).
///
/// `full` is any [`PointSource`] — an in-memory [`Dataset`], a binary file,
/// or a shard directory — and is only ever read through the executor's
/// chunked passes, so a 10M-point map-back never materializes the data.
pub fn sample_fed_cluster<S: PointSource + ?Sized>(
    full: &S,
    sample: &Dataset,
    config: &HierarchicalConfig,
) -> Result<Clustering> {
    sample_fed_cluster_obs(full, sample, config, &Recorder::disabled())
}

/// [`sample_fed_cluster`] with metrics (adds [`Counter::MapBackDistEvals`]
/// on top of the partitioned counters).
pub fn sample_fed_cluster_obs<S: PointSource + ?Sized>(
    full: &S,
    sample: &Dataset,
    config: &HierarchicalConfig,
    recorder: &Recorder,
) -> Result<Clustering> {
    if sample.dim() != full.dim() {
        return Err(Error::InvalidParameter(format!(
            "sample dimension ({}) must match the full dataset ({})",
            sample.dim(),
            full.dim()
        )));
    }
    let mut tally = Tally::default();
    let (clusters, live) = partitioned_core(sample, config, &mut tally)?;
    let sample_clustering = assemble(clusters, sample.len(), live);
    let threshold = if config.trim_min_size == 0 {
        None
    } else {
        calibrated_noise_threshold_sq(sample, &sample_clustering)
    };
    let out = map_back(
        full,
        &sample_clustering,
        threshold,
        config.parallelism,
        &mut tally,
    )?;
    recorder.merge(&tally);
    Ok(out)
}

/// Assigns every point of `full` to the cluster of its nearest
/// representative in `source` (exact nearest-owner query over a rep grid
/// index; distance ties break toward the lowest cluster id). Points whose
/// nearest representative is farther than `noise_threshold_sq` (squared)
/// become [`NOISE`]; `None` assigns every point.
///
/// Members and means of the returned clusters are recomputed from `full`;
/// representatives are carried over from `source`. A source cluster that
/// attracts no points keeps its mean and an empty member list, so cluster
/// ids stay aligned with `source`.
///
/// `full` may be any [`PointSource`]; the pass streams it chunk by chunk.
pub fn map_back_labels<S: PointSource + ?Sized>(
    full: &S,
    source: &Clustering,
    noise_threshold_sq: Option<f64>,
    threads: NonZeroUsize,
) -> Result<Clustering> {
    map_back_labels_obs(
        full,
        source,
        noise_threshold_sq,
        threads,
        &Recorder::disabled(),
    )
}

/// [`map_back_labels`] with metrics ([`Counter::MapBackDistEvals`]).
pub fn map_back_labels_obs<S: PointSource + ?Sized>(
    full: &S,
    source: &Clustering,
    noise_threshold_sq: Option<f64>,
    threads: NonZeroUsize,
    recorder: &Recorder,
) -> Result<Clustering> {
    let mut tally = Tally::default();
    let out = map_back(full, source, noise_threshold_sq, threads, &mut tally)?;
    recorder.merge(&tally);
    Ok(out)
}

fn map_back<S: PointSource + ?Sized>(
    full: &S,
    source: &Clustering,
    noise_threshold_sq: Option<f64>,
    threads: NonZeroUsize,
    tally: &mut Tally,
) -> Result<Clustering> {
    let n = full.len();
    let dim = full.dim();
    let Some(mut domain) = par::par_bounding_box(full, threads)? else {
        return Err(Error::InvalidParameter(
            "cannot map back onto an empty dataset".into(),
        ));
    };
    if source.clusters.len() >= u32::MAX as usize {
        return Err(Error::InvalidParameter(
            "too many clusters for map-back".into(),
        ));
    }
    if source.clusters.is_empty() {
        return Ok(Clustering {
            assignments: vec![NOISE; n],
            clusters: Vec::new(),
        });
    }
    let mut total_reps = 0usize;
    for c in &source.clusters {
        for rep in &c.representatives {
            if rep.len() != dim {
                return Err(Error::InvalidParameter(format!(
                    "representative dimension ({}) must match the dataset ({dim})",
                    rep.len()
                )));
            }
            // Keep every rep inside the index domain: the grid's pruning
            // bounds assume cell containment.
            domain = domain.union(&BoundingBox::new(rep.clone(), rep.clone()));
            total_reps += 1;
        }
    }
    let mut index = RepIndex::new(domain, total_reps.max(1));
    for (id, c) in source.clusters.iter().enumerate() {
        index.insert_all(id as u32, &c.representatives);
    }

    // One exact nearest-owner query per point, in a single chunked pass
    // over `full` (the only pass that touches the point data, so sharded
    // sources stream through without materializing). Each chunk assigns
    // its points and folds per-cluster coordinate sums locally; chunk
    // results merge in chunk order on the fixed grid, so assignments,
    // means and eval counts are identical at every thread count and for
    // every storage backing.
    let k = source.clusters.len();
    struct MapBackChunk {
        ids: Vec<u32>,
        evals: u64,
        /// Sparse per-cluster partial sums: `(cluster, coordinate sums)`.
        sums: Vec<(usize, Vec<f64>)>,
    }
    let chunks = par::par_scan(full, threads, |range, block| {
        let mut ids = Vec::with_capacity(range.len());
        let mut evals = 0u64;
        let mut local: Vec<Option<Vec<f64>>> = vec![None; k];
        for i in range {
            let p = block.point(i);
            let hit = index.nearest_owner_sq_counted(p, u32::MAX, &mut evals);
            let id = match hit {
                Some((owner, d)) if noise_threshold_sq.is_none_or(|t| d <= t) => owner,
                _ => u32::MAX,
            };
            ids.push(id);
            if id != u32::MAX {
                let sum = local[id as usize].get_or_insert_with(|| vec![0.0; dim]);
                for j in 0..dim {
                    sum[j] += p[j];
                }
            }
        }
        let sums = local
            .into_iter()
            .enumerate()
            .filter_map(|(ci, s)| s.map(|s| (ci, s)))
            .collect();
        MapBackChunk { ids, evals, sums }
    })?;

    let mut assignments = vec![NOISE; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut sums: Vec<Vec<f64>> = vec![vec![0.0; dim]; k];
    let mut evals = 0u64;
    let mut base = 0usize;
    for chunk in chunks {
        evals += chunk.evals;
        for (off, &id) in chunk.ids.iter().enumerate() {
            if id != u32::MAX {
                let i = base + off;
                assignments[i] = id as usize;
                members[id as usize].push(i);
            }
        }
        for (ci, partial) in chunk.sums {
            for j in 0..dim {
                sums[ci][j] += partial[j];
            }
        }
        base += chunk.ids.len();
    }
    tally.add(Counter::MapBackDistEvals, evals);
    let clusters: Vec<FoundCluster> = source
        .clusters
        .iter()
        .enumerate()
        .map(|(id, c)| {
            let m = std::mem::take(&mut members[id]);
            let mean = if m.is_empty() {
                c.mean.clone()
            } else {
                let len = m.len() as f64;
                sums[id].iter().map(|&s| s / len).collect()
            };
            FoundCluster {
                members: m,
                mean,
                representatives: c.representatives.clone(),
            }
        })
        .collect();
    Ok(Clustering {
        assignments,
        clusters,
    })
}

/// The sample size a `sample_frac` of `(0, 1]` requests for `n` points
/// (ceiling, at least 1). Rejects non-finite fractions and anything
/// outside `(0, 1]` with [`Error::InvalidParameter`].
pub fn sample_target_size(n: usize, frac: f64) -> Result<usize> {
    if !frac.is_finite() || frac <= 0.0 || frac > 1.0 {
        return Err(Error::InvalidParameter(format!(
            "sample_frac must be in (0, 1], got {frac}"
        )));
    }
    Ok(((frac * n as f64).ceil() as usize).clamp(1, n.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::hierarchical_cluster_reference;
    use dbs_core::rng::seeded;
    use rand::Rng;

    /// `k` tight blobs on a diagonal plus `extra` uniform noise points.
    fn blobs(k: usize, per: usize, extra: usize, seed: u64) -> (Dataset, Vec<usize>) {
        let mut rng = seeded(seed);
        let mut ds = Dataset::with_capacity(2, k * per + extra);
        let mut labels = Vec::with_capacity(k * per + extra);
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
        for _ in 0..extra {
            ds.push(&[rng.gen::<f64>(), rng.gen::<f64>()]).unwrap();
            labels.push(usize::MAX);
        }
        (ds, labels)
    }

    fn assert_identical(a: &Clustering, b: &Clustering) {
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.clusters.len(), b.clusters.len());
        for (x, y) in a.clusters.iter().zip(b.clusters.iter()) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.mean, y.mean);
            assert_eq!(x.representatives, y.representatives);
        }
    }

    #[test]
    fn p1_is_bit_identical_to_single_phase() {
        let (ds, _) = blobs(3, 60, 8, 40);
        let base = HierarchicalConfig::paper_defaults(3);
        let single = hierarchical_cluster_reference(&ds, &base).unwrap();
        // p = 1 runs the single-phase loop: q is unused.
        for q in [1usize, 3, 10_000] {
            let cfg = base.clone().with_partitions(1).with_pre_cluster_factor(q);
            let part = partitioned_cluster(&ds, &cfg).unwrap();
            assert_identical(&part, &single);
        }
    }

    #[test]
    fn p1_is_bit_identical_with_trim_disabled() {
        let (ds, _) = blobs(4, 40, 0, 41);
        let mut base = HierarchicalConfig::paper_defaults(4);
        base.trim_min_size = 0;
        let single = hierarchical_cluster_reference(&ds, &base).unwrap();
        let part = partitioned_cluster(
            &ds,
            &base.clone().with_partitions(1).with_pre_cluster_factor(4),
        )
        .unwrap();
        assert_identical(&part, &single);
    }

    /// Runs the partitioned path with every counter recorded.
    fn run_recorded(ds: &Dataset, cfg: &HierarchicalConfig) -> (Clustering, Recorder) {
        let rec = Recorder::enabled();
        let res = partitioned_cluster_obs(ds, cfg, &rec).unwrap();
        (res, rec)
    }

    /// The `blobs` input stores one blob after another, so contiguous
    /// ranges would cut blobs between partitions and trim the pieces (one
    /// blob kept only 60-68 of its 120 points); strided partitions each see
    /// a thinned copy of every blob.
    #[test]
    fn multi_partition_recovers_blobs() {
        let (ds, labels) = blobs(4, 120, 0, 42);
        for p in [2usize, 3, 5] {
            let cfg = HierarchicalConfig::paper_defaults(4)
                .with_partitions(p)
                .with_pre_cluster_factor(4);
            let (res, rec) = run_recorded(&ds, &cfg);
            assert_eq!(res.clusters.len(), 4, "p={p}");
            for cluster in &res.clusters {
                let first = labels[cluster.members[0]];
                assert!(
                    cluster.members.iter().all(|&m| labels[m] == first),
                    "p={p}: cluster mixes blobs"
                );
                assert!(
                    cluster.members.len() * 5 >= 120 * 3,
                    "p={p}: a blob kept only {} of its 120 points",
                    cluster.members.len()
                );
            }
            assert!(rec.counter(Counter::PartitionPreMerges) > 0, "p={p}");
            assert!(
                rec.counter(Counter::ClusterMerges) >= rec.counter(Counter::PartitionPreMerges),
                "p={p}: pre-merges are a subset of all merges"
            );
        }
    }

    /// Three blobs of 2000 points, interleaved so that at `p = 2` partition
    /// 0 (even indices) holds the first two blobs and partition 1 the
    /// third: the two partitions end phase A at different trim rounds.
    /// Phase B must resume at the lower round; resuming at the higher one
    /// made its first trim discard most partials as noise.
    #[test]
    fn multi_partition_trims_like_a_single_partition() {
        let mut rng = seeded(11);
        let mut ds = Dataset::with_capacity(2, 6000);
        for i in 0..6000 {
            let c = if i % 2 == 1 {
                2.0
            } else if i < 3000 {
                0.0
            } else {
                1.0
            };
            ds.push(&[c + rng.gen::<f64>() * 0.2, c + rng.gen::<f64>() * 0.2])
                .unwrap();
        }
        let noise = |res: &Clustering| res.assignments.iter().filter(|&&a| a == NOISE).count();
        let base = HierarchicalConfig::paper_defaults(3);
        let single = partitioned_cluster(&ds, &base).unwrap();
        let res = partitioned_cluster(&ds, &base.with_partitions(2)).unwrap();
        assert_eq!(res.clusters.len(), 3);
        for c in &res.clusters {
            assert!(c.members.len() >= 1000, "cluster of {}", c.members.len());
        }
        assert!(
            noise(&res) <= noise(&single) + ds.len() / 20,
            "p = 2 marked {} noise, p = 1 marked {}",
            noise(&res),
            noise(&single)
        );
    }

    #[test]
    fn multi_partition_is_thread_count_invariant() {
        let (ds, _) = blobs(3, 80, 10, 43);
        let mut outputs = Vec::new();
        for t in [1usize, 2, 7] {
            let cfg = HierarchicalConfig::paper_defaults(3)
                .with_partitions(3)
                .with_pre_cluster_factor(5)
                .with_parallelism(NonZeroUsize::new(t).unwrap());
            outputs.push(run_recorded(&ds, &cfg));
        }
        let (base, base_rec) = &outputs[0];
        assert!(base_rec.counter(Counter::PartitionPreMerges) > 0);
        for (res, rec) in &outputs[1..] {
            assert_identical(res, base);
            for c in Counter::ALL {
                assert_eq!(rec.counter(c), base_rec.counter(c), "counter {}", c.name());
            }
        }
    }

    #[test]
    fn rejects_invalid_partition_parameters() {
        let (ds, _) = blobs(2, 20, 0, 45);
        let base = HierarchicalConfig::paper_defaults(2);
        for bad in [
            base.clone().with_partitions(0),
            base.clone().with_partitions(ds.len() + 1),
            base.clone().with_pre_cluster_factor(0),
        ] {
            match partitioned_cluster(&ds, &bad) {
                Err(Error::InvalidParameter(_)) => {}
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        }
        // n partitions of one point each is legal.
        let cfg = base.with_partitions(ds.len());
        assert!(partitioned_cluster(&ds, &cfg).is_ok());
    }

    #[test]
    fn sample_target_size_validates_and_rounds() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            match sample_target_size(1000, bad) {
                Err(Error::InvalidParameter(_)) => {}
                other => panic!("frac {bad}: expected InvalidParameter, got {other:?}"),
            }
        }
        assert_eq!(sample_target_size(1000, 1.0).unwrap(), 1000);
        assert_eq!(sample_target_size(1000, 0.1).unwrap(), 100);
        assert_eq!(sample_target_size(1000, 0.0001).unwrap(), 1);
        assert_eq!(sample_target_size(999, 0.5).unwrap(), 500);
    }

    #[test]
    fn map_back_assigns_full_dataset() {
        let (full, labels) = blobs(3, 100, 0, 46);
        // Sample: every third point.
        let sample_idx: Vec<usize> = (0..full.len()).step_by(3).collect();
        let sample = full.select(&sample_idx);
        let mut cfg = HierarchicalConfig::paper_defaults(3);
        cfg.trim_min_size = 0;
        let sample_clustering = partitioned_cluster(&sample, &cfg).unwrap();
        let rec = Recorder::enabled();
        let full_clustering =
            map_back_labels_obs(&full, &sample_clustering, None, cfg.parallelism, &rec).unwrap();
        assert_eq!(full_clustering.assignments.len(), full.len());
        assert!(full_clustering.assignments.iter().all(|&a| a != NOISE));
        // Every cluster label-pure, members/means recomputed over full data.
        let total: usize = full_clustering
            .clusters
            .iter()
            .map(|c| c.members.len())
            .sum();
        assert_eq!(total, full.len());
        for c in &full_clustering.clusters {
            let first = labels[c.members[0]];
            assert!(c.members.iter().all(|&m| labels[m] == first));
            let mut want = vec![0.0; 2];
            for &m in &c.members {
                want[0] += full.point(m)[0];
                want[1] += full.point(m)[1];
            }
            want[0] /= c.members.len() as f64;
            want[1] /= c.members.len() as f64;
            assert_eq!(c.mean, want);
        }
        assert!(rec.counter(Counter::MapBackDistEvals) > 0);
    }

    #[test]
    fn map_back_threshold_marks_far_points_noise() {
        let (mut full, _) = blobs(2, 50, 0, 47);
        full.push(&[0.02, 0.98]).unwrap(); // far from both blobs
        let sample_idx: Vec<usize> = (0..100).collect(); // blobs only
        let sample = full.select(&sample_idx);
        let mut cfg = HierarchicalConfig::paper_defaults(2);
        cfg.trim_min_size = 0;
        let sc = partitioned_cluster(&sample, &cfg).unwrap();
        let strict = map_back_labels(&full, &sc, Some(1e-4), cfg.parallelism).unwrap();
        assert_eq!(strict.assignments[100], NOISE);
        let lax = map_back_labels(&full, &sc, None, cfg.parallelism).unwrap();
        assert_ne!(lax.assignments[100], NOISE);
    }

    #[test]
    fn map_back_is_thread_count_invariant() {
        let (full, _) = blobs(3, 90, 12, 48);
        let sample_idx: Vec<usize> = (0..full.len()).step_by(2).collect();
        let sample = full.select(&sample_idx);
        let cfg = HierarchicalConfig::paper_defaults(3);
        let sc = partitioned_cluster(&sample, &cfg).unwrap();
        let mut outputs = Vec::new();
        for t in [1usize, 2, 7] {
            let rec = Recorder::enabled();
            let res =
                map_back_labels_obs(&full, &sc, Some(0.01), NonZeroUsize::new(t).unwrap(), &rec)
                    .unwrap();
            outputs.push((res, rec.counter(Counter::MapBackDistEvals)));
        }
        for (res, evals) in &outputs[1..] {
            assert_identical(res, &outputs[0].0);
            assert_eq!(*evals, outputs[0].1);
        }
    }

    #[test]
    fn map_back_keeps_empty_clusters_aligned() {
        // Two source clusters, but every full point sits on the first one.
        let source = Clustering {
            assignments: vec![0, 1],
            clusters: vec![
                FoundCluster {
                    members: vec![0],
                    mean: vec![0.1, 0.1],
                    representatives: vec![vec![0.1, 0.1]],
                },
                FoundCluster {
                    members: vec![1],
                    mean: vec![0.9, 0.9],
                    representatives: vec![vec![0.9, 0.9]],
                },
            ],
        };
        let full = Dataset::from_rows(&[vec![0.1, 0.1], vec![0.12, 0.1]]).unwrap();
        let res = map_back_labels(&full, &source, None, par::serial()).unwrap();
        assert_eq!(res.assignments, vec![0, 0]);
        assert_eq!(res.clusters.len(), 2);
        assert!(res.clusters[1].members.is_empty());
        assert_eq!(res.clusters[1].mean, vec![0.9, 0.9]);
    }

    #[test]
    fn sample_fed_end_to_end() {
        let (full, labels) = blobs(3, 120, 20, 49);
        let sample_idx: Vec<usize> = (0..full.len()).step_by(4).collect();
        let sample = full.select(&sample_idx);
        let cfg = HierarchicalConfig::paper_defaults(3);
        let rec = Recorder::enabled();
        let res = sample_fed_cluster_obs(&full, &sample, &cfg, &rec).unwrap();
        assert_eq!(res.clusters.len(), 3);
        assert_eq!(res.assignments.len(), full.len());
        // The blobs points land in label-pure clusters.
        for c in &res.clusters {
            let mut counts = [0usize; 4];
            for &m in &c.members {
                let l = labels[m];
                counts[if l == usize::MAX { 3 } else { l }] += 1;
            }
            let top = *counts.iter().max().unwrap();
            assert!(
                top as f64 >= 0.9 * c.members.len() as f64,
                "impure cluster: {counts:?}"
            );
        }
        // The calibrated threshold covers every sample member by
        // construction (slack >= 1): each sample point the sample
        // clustering kept as a member must map back to a cluster.
        let mut sample_tally = Tally::default();
        let (sc, live) = partitioned_core(&sample, &cfg, &mut sample_tally).unwrap();
        let sample_clustering = assemble(sc, sample.len(), live);
        let sample_members: usize = sample_clustering
            .clusters
            .iter()
            .map(|c| c.members.len())
            .sum();
        for c in &sample_clustering.clusters {
            for &m in &c.members {
                assert_ne!(
                    res.assignments[sample_idx[m]], NOISE,
                    "sample member {m} mapped to noise"
                );
            }
        }
        // Map-back may only be *more* inclusive than the sample
        // clustering's own trim decisions, and far strays still shed.
        let mapped = res.assignments.iter().filter(|&&a| a != NOISE).count();
        assert!(
            mapped * sample.len() >= sample_members * full.len(),
            "map-back assigned {mapped}/{} but the sample kept {sample_members}/{}",
            full.len(),
            sample.len()
        );
        assert!(
            res.assignments[360..].contains(&NOISE),
            "no stray marked noise"
        );
        assert!(rec.counter(Counter::MapBackDistEvals) > 0);
    }

    #[test]
    fn calibrated_threshold_is_worst_member_rep_gap_with_slack() {
        let sample = Dataset::from_rows(&[vec![0.0, 0.0], vec![0.3, 0.4], vec![1.0, 1.0]]).unwrap();
        let clustering = Clustering {
            assignments: vec![0, 0, 1],
            clusters: vec![
                FoundCluster {
                    members: vec![0, 1],
                    mean: vec![0.15, 0.2],
                    representatives: vec![vec![0.0, 0.0]],
                },
                FoundCluster {
                    members: vec![2],
                    mean: vec![1.0, 1.0],
                    representatives: vec![vec![1.0, 1.0]],
                },
            ],
        };
        // Worst gap: member (0.3, 0.4) to rep (0, 0) = 0.25 squared; x2 slack.
        assert_eq!(
            calibrated_noise_threshold_sq(&sample, &clustering),
            Some(0.5)
        );
        // Every member exactly on a representative: no usable radius.
        let degenerate = Clustering {
            assignments: vec![0, NOISE, 1],
            clusters: vec![
                FoundCluster {
                    members: vec![0],
                    mean: vec![0.0, 0.0],
                    representatives: vec![vec![0.0, 0.0]],
                },
                FoundCluster {
                    members: vec![2],
                    mean: vec![1.0, 1.0],
                    representatives: vec![vec![1.0, 1.0]],
                },
            ],
        };
        assert_eq!(calibrated_noise_threshold_sq(&sample, &degenerate), None);
    }

    #[test]
    fn sample_fed_rejects_dimension_mismatch() {
        let (full, _) = blobs(2, 20, 0, 50);
        let sample = Dataset::from_rows(&[vec![0.1], vec![0.9]]).unwrap();
        match sample_fed_cluster(&full, &sample, &HierarchicalConfig::paper_defaults(2)) {
            Err(Error::InvalidParameter(_)) => {}
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn partition_indices_cover_input_exactly_once() {
        for (n, p) in [(100usize, 3usize), (1000, 7), (50, 50), (600, 2), (600, 4)] {
            let mut seen = vec![false; n];
            for j in 0..p {
                let indices = partition_indices(n, p, j);
                assert!(
                    indices.len() == n / p || indices.len() == n.div_ceil(p),
                    "n={n} p={p}: partition {j} holds {} points",
                    indices.len()
                );
                for i in indices {
                    assert!(!seen[i], "index {i} in two partitions");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n} p={p}");
        }
    }
}
