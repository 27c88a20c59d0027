//! Additional property-based suites: CF additivity, the noise-injection
//! math and the hierarchical assignment table.

use dbs_cluster::birch::Cf;
use dbs_core::Dataset;
use dbs_synth::noise::added_points_for_fraction;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CF additivity: merging CFs in any grouping yields the same summary
    /// (count, centroid, radius) as building it from all points at once.
    #[test]
    fn cf_additivity_any_grouping(
        points in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 2),
            2..24,
        ),
        split in 1usize..23,
    ) {
        let split = split.min(points.len() - 1);
        let mut left = Cf::from_point(&points[0]);
        for p in &points[1..split] {
            left.merge(&Cf::from_point(p));
        }
        let mut right = Cf::from_point(&points[split]);
        for p in &points[split + 1..] {
            right.merge(&Cf::from_point(p));
        }
        left.merge(&right);

        let mut all = Cf::from_point(&points[0]);
        for p in &points[1..] {
            all.merge(&Cf::from_point(p));
        }
        prop_assert!((left.count() - all.count()).abs() < 1e-9);
        for (a, b) in left.centroid().iter().zip(all.centroid()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
        prop_assert!((left.radius() - all.radius()).abs() < 1e-5);
    }

    /// Weighted CF of a point scales like `w` copies of the point.
    #[test]
    fn cf_weighted_point_matches_repetition(
        p in prop::collection::vec(-50.0f64..50.0, 3),
        w in 1usize..20,
    ) {
        let weighted = Cf::from_weighted_point(&p, w as f64);
        let mut repeated = Cf::from_point(&p);
        for _ in 1..w {
            repeated.merge(&Cf::from_point(&p));
        }
        prop_assert!((weighted.count() - repeated.count()).abs() < 1e-9);
        for (a, b) in weighted.centroid().iter().zip(repeated.centroid()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Noise-injection arithmetic: adding `added_points_for_fraction`
    /// points really produces (to rounding) the requested final fraction.
    #[test]
    fn noise_fraction_arithmetic(n in 100usize..100_000, fraction in 0.0f64..0.9) {
        let add = added_points_for_fraction(n, fraction);
        let actual = add as f64 / (n + add) as f64;
        prop_assert!((actual - fraction).abs() < 1.0 / n as f64 + 1e-9,
            "requested {}, got {}", fraction, actual);
    }

    /// The hierarchical clustering assignment table is always a partition
    /// of the input (clusters + noise), for arbitrary small datasets.
    #[test]
    fn hierarchical_assignments_partition(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 2), 5..80),
        k in 1usize..6,
    ) {
        let ds = Dataset::from_rows(&rows).unwrap();
        let res = dbs_cluster::partitioned_cluster(
            &ds,
            &dbs_cluster::HierarchicalConfig::paper_defaults(k),
        )
        .unwrap();
        let mut covered = vec![0usize; ds.len()];
        for (ci, c) in res.clusters.iter().enumerate() {
            prop_assert!(!c.representatives.is_empty());
            for &m in &c.members {
                covered[m] += 1;
                prop_assert_eq!(res.assignments[m], ci);
            }
        }
        for (i, &c) in covered.iter().enumerate() {
            if c == 0 {
                prop_assert_eq!(res.assignments[i], dbs_cluster::NOISE);
            } else {
                prop_assert_eq!(c, 1);
            }
        }
    }
}
