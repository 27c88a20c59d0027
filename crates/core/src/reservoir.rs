//! Algorithm R (Vitter, reference \[29\] of the paper): a uniform
//! fixed-size sample of a stream of unknown length, kept in one pass.
//!
//! Whether point `i` takes a slot, and which, depends only on `i`, the
//! reservoir size and the generator — never on the point. So the KDE's
//! kernel centers offer their points to a [`Reservoir`], while `dbs stream`,
//! which keeps only the indices and fetches the points later, draws the
//! same reservoir without reading any data ([`Reservoir::draw_indices`]).
//! Both go through one slot decision and consume their random stream the
//! same way.

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
        match slot_of(&mut self.rng, self.size, i) {
            Some(_) if i < self.size => {
                self.points.push(p).expect("declared dimension");
                self.indices.push(i);
            }
            Some(slot) => {
                self.points.point_mut(slot).copy_from_slice(p);
                self.indices[slot] = i;
                self.replacements += 1;
            }
            None => {}
        }
    }

    /// The reservoir of `size` slots over the stream `0..n`, drawn from
    /// `seeded(seed)` without its points: the kept indices in slot order
    /// and the replacement count, exactly what offering every point to
    /// `Reservoir::new(dim, size, seed)` keeps.
    pub fn draw_indices(n: usize, size: usize, seed: u64) -> (Vec<usize>, u64) {
        let mut rng = seeded(seed);
        let mut indices = Vec::with_capacity(size.min(n));
        let mut replacements = 0;
        for i in 0..n {
            match slot_of(&mut rng, size, i) {
                Some(_) if i < size => indices.push(i),
                Some(slot) => {
                    indices[slot] = i;
                    replacements += 1;
                }
                None => {}
            }
        }
        (indices, replacements)
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

/// Algorithm R's decision for point `i`: the slot it takes, if any. The
/// first `size` points take slot `i` and draw nothing; after that one draw
/// from `rng` picks a slot, kept when it is below `size`.
#[inline]
fn slot_of(rng: &mut DbsRng, size: usize, i: usize) -> Option<usize> {
    if i < size {
        return Some(i);
    }
    let slot = rng.gen_range(0..=i);
    (slot < size).then_some(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_binary, FileSource};
    use crate::rng::sub_seed;
    use crate::scan::PointSource;
    use proptest::prelude::*;

    /// Offers the stream `0, 1, …, n − 1` (point `i` is `[i]`).
    fn fill(n: usize, size: usize, seed: u64) -> Reservoir {
        let mut reservoir = Reservoir::new(1, size, seed);
        for i in 0..n {
            reservoir.offer(i, &[i as f64]);
        }
        reservoir
    }

    #[test]
    fn exact_size_and_distinct_indices() {
        let mut idx = fill(5000, 100, 1).indices().to_vec();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn index_draw_matches_offering_every_point() {
        for (n, size) in [(0, 40), (25, 40), (40, 40), (20_000, 40), (20_000, 1)] {
            for seed in [0, sub_seed(3, 1)] {
                let offered = fill(n, size, seed);
                let (indices, replacements) = Reservoir::draw_indices(n, size, seed);
                assert_eq!(indices, offered.indices(), "n = {n}, size = {size}");
                assert_eq!(replacements, offered.replacements(), "n = {n}");
            }
        }
        assert!(Reservoir::draw_indices(20_000, 40, 0).1 > 0);
    }

    #[test]
    fn small_stream_keeps_everything() {
        let reservoir = fill(7, 20, 2);
        assert_eq!(reservoir.indices(), &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(reservoir.replacements(), 0);
    }

    #[test]
    fn indices_match_points() {
        let (points, indices) = fill(1000, 50, 4).into_parts();
        assert_eq!(points.len(), 50);
        for (k, &i) in indices.iter().enumerate() {
            assert_eq!(points.point(k), &[i as f64]);
        }
    }

    #[test]
    fn algorithm_r_is_uniform() {
        // Chi-square-style sanity: each of 50 items picked ~ trials*b/n.
        let trials = 3000;
        let mut counts = vec![0usize; 50];
        for t in 0..trials {
            for &i in fill(50, 10, sub_seed(5, t)).indices() {
                counts[i] += 1;
            }
        }
        let expect = trials as f64 * 10.0 / 50.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.2,
                "item {i} picked {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn reservoir_from_file_equals_memory() {
        // A file source streams the same points in the same order, so the
        // reservoir keeps the same points.
        let mut data = Dataset::with_capacity(2, 5000);
        for i in 0..5000 {
            data.push(&[i as f64, (i % 7) as f64]).unwrap();
        }
        let mut path = std::env::temp_dir();
        path.push(format!("dbs_core_reservoir_{}.dbs1", std::process::id()));
        write_binary(&path, &data).unwrap();
        let file = FileSource::open(&path).unwrap();
        let keep = |source: &dyn PointSource| {
            let mut reservoir = Reservoir::new(2, 200, 7);
            source.scan(&mut |i, x| reservoir.offer(i, x)).unwrap();
            reservoir.into_parts()
        };
        let (mem_points, mem_indices) = keep(&data);
        let (disk_points, disk_indices) = keep(&file);
        std::fs::remove_file(&path).ok();
        assert_eq!(mem_indices, disk_indices);
        assert_eq!(mem_points.as_flat(), disk_points.as_flat());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A reservoir keeps exactly min(b, n) distinct indices that all
        /// reference real points, for any stream length and seed.
        #[test]
        fn reservoir_size_and_validity(n in 1usize..400, b in 1usize..50, seed in 0u64..1000) {
            let mut idx = fill(n, b, seed).indices().to_vec();
            idx.sort_unstable();
            idx.dedup();
            prop_assert_eq!(idx.len(), b.min(n));
            prop_assert!(idx.iter().all(|&i| i < n));
        }
    }
}
