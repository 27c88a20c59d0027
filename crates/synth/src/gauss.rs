//! Gaussian mixture generator.
//!
//! Used directly by tests and as the building block of the terrain-style
//! simulators in [`crate::geo`]. Points are drawn from per-cluster
//! isotropic normals and clamped to the unit cube; the ground-truth region
//! of a cluster is its `±3σ` box (clipped to the domain), which holds
//! ~99.7 % of its mass per dimension.
//!
//! Generation is expressed as a single point-emission order shared by the
//! in-memory builder ([`generate`]) and the streaming shard writer
//! ([`generate_to_shards`]), so a shard directory holds exactly the points
//! an in-memory run would — parity by construction, at any dataset size.

use std::path::Path;

use dbs_core::rng::{normal, seeded, sub_seed};
use dbs_core::shard::{ShardWriter, DEFAULT_SHARD_POINTS};
use dbs_core::{BoundingBox, Dataset, Error, Result};

use crate::SyntheticDataset;

/// One mixture component.
#[derive(Debug, Clone)]
pub struct GaussCluster {
    /// Component mean (inside the unit cube).
    pub center: Vec<f64>,
    /// Isotropic standard deviation.
    pub sigma: f64,
    /// Number of points to draw.
    pub size: usize,
}

/// Validates the mixture spec, returning the dimension.
fn validate(clusters: &[GaussCluster]) -> Result<usize> {
    if clusters.is_empty() {
        return Err(Error::InvalidParameter(
            "need at least one component".into(),
        ));
    }
    let d = clusters[0].center.len();
    if d == 0 {
        return Err(Error::InvalidParameter("dimension must be >= 1".into()));
    }
    for (i, c) in clusters.iter().enumerate() {
        if c.center.len() != d {
            return Err(Error::DimensionMismatch {
                expected: d,
                got: c.center.len(),
            });
        }
        if !(c.sigma > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "component {i}: sigma must be > 0"
            )));
        }
    }
    Ok(d)
}

/// The canonical emission order: every consumer of the mixture sees the
/// same `(label, point)` sequence, whether it buffers or streams.
fn emit_points(
    clusters: &[GaussCluster],
    dim: usize,
    seed: u64,
    emit: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
) -> Result<()> {
    let mut point = vec![0.0f64; dim];
    for (ci, cluster) in clusters.iter().enumerate() {
        let mut rng = seeded(sub_seed(seed, ci as u64));
        for _ in 0..cluster.size {
            for j in 0..dim {
                point[j] = normal(&mut rng, cluster.center[j], cluster.sigma).clamp(0.0, 1.0);
            }
            emit(ci, &point)?;
        }
    }
    Ok(())
}

/// The `±3σ` ground-truth region of each component, clipped to the cube.
fn regions_of(clusters: &[GaussCluster]) -> Vec<BoundingBox> {
    clusters
        .iter()
        .map(|c| {
            let min = c
                .center
                .iter()
                .map(|&x| (x - 3.0 * c.sigma).max(0.0))
                .collect();
            let max = c
                .center
                .iter()
                .map(|&x| (x + 3.0 * c.sigma).min(1.0))
                .collect();
            BoundingBox::new(min, max)
        })
        .collect()
}

/// Generates a Gaussian mixture in `[0,1]^d`.
pub fn generate(clusters: &[GaussCluster], seed: u64) -> Result<SyntheticDataset> {
    let d = validate(clusters)?;
    let total: usize = clusters.iter().map(|c| c.size).sum();
    let mut data = Dataset::with_capacity(d, total);
    let mut labels = Vec::with_capacity(total);
    emit_points(clusters, d, seed, &mut |ci, p| {
        data.push(p).expect("dimension fixed");
        labels.push(ci);
        Ok(())
    })?;
    Ok(SyntheticDataset {
        data,
        labels,
        regions: regions_of(clusters),
    })
}

/// Streams the same mixture [`generate`] would build straight into a
/// shard directory, never holding more than one shard file's write buffer
/// in memory — how the out-of-core benchmarks materialize datasets far
/// larger than RAM. Returns the number of points written.
pub fn generate_to_shards(clusters: &[GaussCluster], seed: u64, dir: &Path) -> Result<u64> {
    let d = validate(clusters)?;
    let mut writer = ShardWriter::create(dir, d, seed, DEFAULT_SHARD_POINTS)?;
    emit_points(clusters, d, seed, &mut |_, p| writer.push(p))?;
    writer.finish()
}

/// The component list of [`diagonal_mixture`]: `k` equal-sized components
/// on a diagonal with shared sigma.
fn diagonal_clusters(
    dim: usize,
    num_clusters: usize,
    points_per_cluster: usize,
    sigma: f64,
) -> Vec<GaussCluster> {
    (0..num_clusters)
        .map(|c| GaussCluster {
            center: vec![(c as f64 + 0.5) / num_clusters as f64; dim],
            sigma,
            size: points_per_cluster,
        })
        .collect()
}

/// Convenience: `k` equal-sized components on a diagonal with shared sigma.
pub fn diagonal_mixture(
    dim: usize,
    num_clusters: usize,
    points_per_cluster: usize,
    sigma: f64,
    seed: u64,
) -> Result<SyntheticDataset> {
    generate(
        &diagonal_clusters(dim, num_clusters, points_per_cluster, sigma),
        seed,
    )
}

/// [`diagonal_mixture`] streamed straight to shards (see
/// [`generate_to_shards`]).
pub fn diagonal_mixture_to_shards(
    dim: usize,
    num_clusters: usize,
    points_per_cluster: usize,
    sigma: f64,
    seed: u64,
    dir: &Path,
) -> Result<u64> {
    generate_to_shards(
        &diagonal_clusters(dim, num_clusters, points_per_cluster, sigma),
        seed,
        dir,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_labels() {
        let synth = diagonal_mixture(2, 3, 500, 0.02, 1).unwrap();
        assert_eq!(synth.len(), 1500);
        assert_eq!(synth.cluster_sizes(), vec![500, 500, 500]);
    }

    #[test]
    fn most_points_inside_3sigma_region() {
        let synth = diagonal_mixture(2, 2, 2000, 0.03, 2).unwrap();
        for ci in 0..2 {
            let inside = synth
                .data
                .iter()
                .zip(&synth.labels)
                .filter(|(p, &l)| l == ci && synth.regions[ci].contains(p))
                .count();
            let frac = inside as f64 / 2000.0;
            assert!(frac > 0.98, "component {ci}: only {frac} inside 3σ box");
        }
    }

    #[test]
    fn points_clamped_to_unit_cube() {
        // Component right at the corner: clamping must keep points legal.
        let synth = generate(
            &[GaussCluster {
                center: vec![0.01, 0.99],
                sigma: 0.05,
                size: 1000,
            }],
            3,
        )
        .unwrap();
        for p in synth.data.iter() {
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(generate(&[], 0).is_err());
        assert!(generate(
            &[GaussCluster {
                center: vec![0.5],
                sigma: 0.0,
                size: 10
            }],
            0
        )
        .is_err());
        assert!(generate(
            &[
                GaussCluster {
                    center: vec![0.5, 0.5],
                    sigma: 0.1,
                    size: 10
                },
                GaussCluster {
                    center: vec![0.5],
                    sigma: 0.1,
                    size: 10
                }
            ],
            0
        )
        .is_err());
    }

    #[test]
    fn deterministic() {
        let a = diagonal_mixture(3, 2, 100, 0.05, 4).unwrap();
        let b = diagonal_mixture(3, 2, 100, 0.05, 4).unwrap();
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn shard_output_is_bit_identical_to_in_memory() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("dbs_synth_gauss_shards_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Enough points to cross a chunk boundary.
        let written = diagonal_mixture_to_shards(3, 2, 3000, 0.05, 4, &dir).unwrap();
        assert_eq!(written, 6000);
        let mem = diagonal_mixture(3, 2, 3000, 0.05, 4).unwrap();
        let sharded = dbs_core::ShardedSource::open(&dir).unwrap();
        use dbs_core::PointSource;
        let back = dbs_core::scan::materialize(&sharded).unwrap();
        assert_eq!(PointSource::len(&sharded), 6000);
        assert_eq!(mem.data, back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
