//! Determinism contract of the accelerated CURE merge loop
//! (`dbs_cluster::hierarchical`): the heap + rep-index core must reproduce
//! the retained reference loop's `Clustering` — assignments, member lists,
//! means, and representative points — **bit for bit**, for every
//! dimensionality and thread count. The merge sequence is fully determined
//! by the lowest-cluster-id tie-break, so any divergence (a different merge
//! order, a trim firing at a different time, a last-ulp distance
//! disagreement) shows up as a hard output mismatch here.

use std::num::NonZeroUsize;

use dbs_cluster::{
    hierarchical_cluster_reference, partitioned_cluster, partitioned_cluster_obs,
    sample_target_size, HierarchicalConfig,
};
use dbs_core::obs::{Counter, Recorder};
use dbs_core::rng::seeded;
use dbs_core::Dataset;
use proptest::prelude::*;
use rand::Rng;

const DIMS: [usize; 3] = [2, 3, 5];
/// High-dimensional parity dims: tight blobs at these dims are the
/// candidate-cache stress case (the pre-candidate scheme degenerated here —
/// the 16-d merge-loop cliff).
const HIGH_DIMS: [usize; 2] = [12, 16];
const THREADS: [usize; 3] = [1, 2, 7];

fn nz(t: usize) -> NonZeroUsize {
    NonZeroUsize::new(t).expect("positive thread count")
}

/// A few gaussian-ish blobs plus uniform strays, so merge, trim, and
/// stale-pointer refresh paths all run. Blob spreads differ so distance
/// ties and trim triggers land at varied scales.
fn workload(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let blobs = 4usize;
    let strays = n / 12;
    let mut ds = Dataset::with_capacity(dim, n + strays);
    let mut p = vec![0.0f64; dim];
    for i in 0..n {
        let b = i % blobs;
        let center = (b as f64 + 0.5) / blobs as f64;
        let spread = 0.03 + 0.02 * b as f64;
        for x in p.iter_mut() {
            *x = center + (rng.gen::<f64>() - 0.5) * spread;
        }
        ds.push(&p).expect("fixed dim");
    }
    for _ in 0..strays {
        for x in p.iter_mut() {
            *x = rng.gen::<f64>();
        }
        ds.push(&p).expect("fixed dim");
    }
    ds
}

/// Tight high-dimensional blobs on the unit diagonal (the shard bench's
/// mixture shape): intra-blob distances concentrate hard with dimension, so
/// closest pointers are consumed in bursts and the merge loop leans on the
/// candidate cache for nearly every merge.
fn tight_blobs(n: usize, dim: usize, seed: u64) -> Dataset {
    let blobs = 8usize;
    let mut rng = seeded(seed);
    let mut ds = Dataset::with_capacity(dim, n);
    let mut p = vec![0.0f64; dim];
    for i in 0..n {
        let center = (((i % blobs) as f64) + 0.5) / blobs as f64;
        for x in p.iter_mut() {
            *x = center + (rng.gen::<f64>() - 0.5) * 0.03;
        }
        ds.push(&p).expect("fixed dim");
    }
    ds
}

/// Assignments plus per-cluster (members, mean bits, representative bits).
type Fingerprint = (Vec<usize>, Vec<(Vec<usize>, Vec<u64>, Vec<Vec<u64>>)>);

/// Flattens a `Clustering` into comparable bit patterns.
fn fingerprint(c: &dbs_cluster::Clustering) -> Fingerprint {
    let clusters = c
        .clusters
        .iter()
        .map(|fc| {
            (
                fc.members.clone(),
                fc.mean.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                fc.representatives
                    .iter()
                    .map(|r| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    (c.assignments.clone(), clusters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Accelerated core ≡ reference loop, bit for bit, across dims and
    /// thread counts — with trimming active and disabled.
    #[test]
    fn accelerated_core_is_bit_identical_to_reference(seed in 0u64..10_000) {
        for dim in DIMS {
            let n = if dim == 2 { 600 } else { 300 };
            let data = workload(n, dim, seed ^ (dim as u64) << 32);
            for trim_min_size in [3usize, 0] {
                let mut base = HierarchicalConfig::paper_defaults(4);
                base.trim_min_size = trim_min_size;
                let reference = hierarchical_cluster_reference(
                    &data,
                    &base.clone().with_parallelism(nz(1)),
                )
                .expect("reference clustering");
                let want = fingerprint(&reference);
                for t in THREADS {
                    let fast = partitioned_cluster(
                        &data,
                        &base.clone().with_parallelism(nz(t)),
                    )
                    .expect("accelerated clustering");
                    prop_assert_eq!(
                        &fingerprint(&fast),
                        &want,
                        "dim {} trim_min_size {} threads {}",
                        dim,
                        trim_min_size,
                        t
                    );
                }
            }
        }
    }

    /// Degenerate scalable paths ≡ the reference loop, bit for bit:
    /// partitioned CURE with `p = 1` at every thread count, whatever the
    /// (unused) `pre_cluster_factor`, and the sample-fed pipeline at
    /// `sample_frac = 1.0` — a full-size "sample" clustered by the
    /// partitioned path with no map-back, exactly what the CLI runs.
    #[test]
    fn degenerate_scalable_paths_match_single_phase(seed in 0u64..10_000) {
        for dim in DIMS {
            let n = if dim == 2 { 500 } else { 250 };
            let data = workload(n, dim, seed ^ (dim as u64) << 16);
            prop_assert_eq!(sample_target_size(data.len(), 1.0).expect("valid frac"), data.len());
            let base = HierarchicalConfig::paper_defaults(4);
            let single = hierarchical_cluster_reference(
                &data,
                &base.clone().with_parallelism(nz(1)),
            )
            .expect("reference clustering");
            let want = fingerprint(&single);
            for t in THREADS {
                for q in [1usize, 4] {
                    let cfg = base
                        .clone()
                        .with_parallelism(nz(t))
                        .with_partitions(1)
                        .with_pre_cluster_factor(q);
                    let part = partitioned_cluster(&data, &cfg).expect("partitioned clustering");
                    prop_assert_eq!(
                        &fingerprint(&part),
                        &want,
                        "dim {} threads {} pre_cluster_factor {}",
                        dim,
                        t,
                        q
                    );
                }
            }
        }
    }

    /// High-dimensional tight blobs: accelerated core ≡ reference loop, bit
    /// for bit, at dims {12, 16} — the workload where consumed closest
    /// pointers dominate and every answer flows through the candidate cache.
    #[test]
    fn high_dim_tight_blobs_are_bit_identical(seed in 0u64..10_000) {
        for dim in HIGH_DIMS {
            let data = tight_blobs(280, dim, seed ^ (dim as u64) << 24);
            for trim_min_size in [3usize, 0] {
                let mut base = HierarchicalConfig::paper_defaults(8);
                base.trim_min_size = trim_min_size;
                let reference = hierarchical_cluster_reference(
                    &data,
                    &base.clone().with_parallelism(nz(1)),
                )
                .expect("reference clustering");
                let want = fingerprint(&reference);
                for t in THREADS {
                    let fast = partitioned_cluster(
                        &data,
                        &base.clone().with_parallelism(nz(t)),
                    )
                    .expect("accelerated clustering");
                    prop_assert_eq!(
                        &fingerprint(&fast),
                        &want,
                        "dim {} trim_min_size {} threads {}",
                        dim,
                        trim_min_size,
                        t
                    );
                }
            }
        }
    }
}

/// All points exactly equal in 16 dimensions: every pairwise distance is
/// 0.0 and every bbox lower bound is 0, so the merge sequence is pure
/// lexicographic tie-breaking through the candidate path (the prune slack
/// multiplies a zero bound and can never skip a pair; candidate fallback
/// must return the same lowest-id incumbent the reference scan picks).
#[test]
fn all_duplicate_points_16d_bit_identical() {
    let rows = vec![vec![0.375; 16]; 80];
    let data = Dataset::from_rows(&rows).expect("valid rows");
    for trim_min_size in [3usize, 0] {
        let mut base = HierarchicalConfig::paper_defaults(4);
        base.trim_min_size = trim_min_size;
        let reference =
            hierarchical_cluster_reference(&data, &base.clone().with_parallelism(nz(1)))
                .expect("reference clustering");
        let want = fingerprint(&reference);
        for t in THREADS {
            let fast = partitioned_cluster(&data, &base.clone().with_parallelism(nz(t)))
                .expect("accelerated clustering");
            assert_eq!(
                fingerprint(&fast),
                want,
                "trim_min_size {trim_min_size} threads {t}"
            );
        }
    }
}

/// Regression gate for the 16-d merge-loop cliff, in counters rather than
/// wall clock: on a tight 16-d blob the full candidate-list rebuilds (the
/// broadcast rescans that survive candidate fallback) must stay
/// sub-quadratic — doubling n from 800 to 1600 must grow rebuilds by well
/// under 4x, and rebuilds must stay a small multiple of the merge count.
/// The pre-candidate loop recomputed via the index on *every* consumed
/// pointer, which this bound rejects.
#[test]
fn high_dim_candidate_rebuilds_stay_subquadratic() {
    let rebuilds_and_merges = |n: usize| {
        let data = tight_blobs(n, 16, 4242);
        let rec = Recorder::enabled();
        let cfg = HierarchicalConfig::paper_defaults(8).with_parallelism(nz(1));
        partitioned_cluster_obs(&data, &cfg, &rec).expect("accelerated clustering");
        (
            rec.counter(Counter::CandidateRebuilds),
            rec.counter(Counter::ClusterMerges),
            rec.counter(Counter::CandidateHits),
        )
    };
    let (r800, m800, h800) = rebuilds_and_merges(800);
    let (r1600, m1600, h1600) = rebuilds_and_merges(1600);
    assert!(h800 > 0 && h1600 > 0, "candidate cache never hit");
    // Rebuild growth tracks the merge count (linear in n), not its square.
    assert!(
        r1600 < r800 * 3,
        "rebuilds grew {r800} -> {r1600} when doubling n: super-linear"
    );
    // Absolute bound: a handful of rebuilds per merge (u's own rebuild plus
    // occasional cache exhaustion), not one per live cluster per merge.
    assert!(
        r800 < m800 * 6 && r1600 < m1600 * 6,
        "rebuilds per merge too high: {r800}/{m800}, {r1600}/{m1600}"
    );
}
