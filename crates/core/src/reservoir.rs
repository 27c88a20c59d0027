//! Algorithm R (Vitter, reference \[29\] of the paper): a uniform
//! fixed-size sample of a stream of unknown length, kept in one pass.
//!
//! The KDE's kernel centers, `dbs-sampling`'s reservoir sampler and the
//! fused ingest of `dbs stream` all keep their reservoir in a
//! [`Reservoir`], so all three consume their random stream the same way
//! (`dbs-sampling`'s reservoir tests check size, pairing and uniformity).

use rand::Rng;

use crate::dataset::Dataset;
use crate::rng::{seeded, DbsRng};

/// The state of one Algorithm R pass: the kept points and their source
/// indices, the generator, and how many kept points were replaced.
#[derive(Debug, Clone)]
pub struct Reservoir {
    size: usize,
    points: Dataset,
    indices: Vec<usize>,
    rng: DbsRng,
    replacements: u64,
}

impl Reservoir {
    /// An empty reservoir of `size` slots for `dim`-dimensional points,
    /// drawing from `seeded(seed)`.
    pub fn new(dim: usize, size: usize, seed: u64) -> Self {
        Reservoir {
            size,
            points: Dataset::with_capacity(dim, size),
            indices: Vec::with_capacity(size),
            rng: seeded(seed),
            replacements: 0,
        }
    }

    /// Offers point `i` of the stream; points arrive in index order
    /// `0, 1, 2, …`. The first `size` points fill the reservoir; after that,
    /// point `i` replaces a uniformly chosen slot with probability
    /// `size / (i + 1)`.
    #[inline]
    pub fn offer(&mut self, i: usize, p: &[f64]) {
        if i < self.size {
            self.points.push(p).expect("declared dimension");
            self.indices.push(i);
        } else {
            let slot = self.rng.gen_range(0..=i);
            if slot < self.size {
                self.points.point_mut(slot).copy_from_slice(p);
                self.indices[slot] = i;
                self.replacements += 1;
            }
        }
    }

    /// Source indices of the kept points, in slot order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// How many offers replaced a kept point after the reservoir filled.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// The kept points and their source indices, in slot order.
    pub fn into_parts(self) -> (Dataset, Vec<usize>) {
        (self.points, self.indices)
    }
}
