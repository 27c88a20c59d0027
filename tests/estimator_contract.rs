//! Contract tests every [`DensityEstimator`] backend must satisfy — the
//! §2.1 requirement that `∫_R f ≈ |D ∩ R|`, plus non-negativity, frequency
//! scaling, batch/scalar bit-parity, and thread-count determinism. Run
//! against all six backends on the same data, fitted through the
//! [`EstimatorSpec`] factory (the same path the CLI's `--estimator` uses).

use std::num::NonZeroUsize;

use dbs_core::{BoundingBox, Dataset};
use dbs_density::{batch_densities, DensityEstimator, EstimatorSpec};
use dbs_integration_tests::{clustered, uniform_cube};

/// Specs for all six backends, parameterized as the CLI would parse them.
/// Generous hash tables: few collisions, so the contract holds. The
/// wavelet keeps 192 of its 256 coefficients: lossy but
/// structure-preserving. At 128 coefficients its clamped negative
/// reconstructions add mass the contract cannot absorb — the true
/// integral over the wide box is 10,700 against n = 10,000, and over a
/// half-domain 10,168 against a count of 8,423.
const SPECS: [&str; 6] = [
    "kde:500",
    "grid:16",
    "hashgrid:16",
    "wavelet:4:192",
    "agrid:8",
    "sketch:4:65536",
];

/// Midpoint-rule integral of `est` over `bbox` with 256 cells per
/// dimension — fine enough to resolve every backend's structure (the
/// finest is `agrid:8`'s 64 cells per dimension), so the bounds below
/// measure the estimator, not the quadrature.
fn integral(est: &dyn DensityEstimator, bbox: &BoundingBox) -> f64 {
    const CELLS: usize = 256;
    let (w, h) = (bbox.extent(0) / CELLS as f64, bbox.extent(1) / CELLS as f64);
    let mut acc = 0.0;
    for i in 0..CELLS {
        for j in 0..CELLS {
            let x = bbox.min()[0] + (i as f64 + 0.5) * w;
            let y = bbox.min()[1] + (j as f64 + 0.5) * h;
            acc += est.density(&[x, y]);
        }
    }
    acc * w * h
}

fn backends(data: &Dataset, dim: usize) -> Vec<(String, Box<dyn DensityEstimator + Sync>)> {
    SPECS
        .iter()
        .map(|spec| {
            let est = EstimatorSpec::parse(spec)
                .unwrap()
                .with_seed(7)
                .with_domain(BoundingBox::unit(dim))
                .fit(data)
                .unwrap();
            (spec.to_string(), est)
        })
        .collect()
}

#[test]
fn density_is_nonnegative_everywhere() {
    let synth = clustered(10_000, 2, 1);
    for (name, est) in backends(&synth.data, 2) {
        let mut x = [0.0f64; 2];
        for i in 0..30 {
            for j in 0..30 {
                x[0] = i as f64 / 29.0;
                x[1] = j as f64 / 29.0;
                assert!(est.density(&x) >= 0.0, "{name} negative at {x:?}");
            }
        }
    }
}

#[test]
fn dataset_size_is_reported() {
    let synth = clustered(10_000, 2, 2);
    for (name, est) in backends(&synth.data, 2) {
        assert_eq!(est.dataset_size(), 10_000.0, "{name}");
        assert_eq!(est.dim(), 2, "{name}");
        assert!((est.average_density() - 10_000.0).abs() < 1e-6, "{name}");
    }
}

#[test]
fn box_integral_approximates_point_count() {
    // §2.1: for a given region R, the integral approximates |D ∩ R|.
    // Probe with half-domain boxes (extended outward past the domain so
    // boundary kernel mass stays in): each has a single interior edge, so
    // kernel smoothing can only leak across one side and the counts are
    // large enough for a tight relative bound.
    let synth = clustered(20_000, 2, 3);
    let halves = [
        BoundingBox::new(vec![-0.5, -0.5], vec![0.5, 1.5]), // left
        BoundingBox::new(vec![0.5, -0.5], vec![1.5, 1.5]),  // right
        BoundingBox::new(vec![-0.5, -0.5], vec![1.5, 0.5]), // bottom
        BoundingBox::new(vec![-0.5, 0.5], vec![1.5, 1.5]),  // top
    ];
    for (name, est) in backends(&synth.data, 2) {
        for probe in &halves {
            let truth = synth.data.iter().filter(|p| probe.contains(p)).count() as f64;
            let got = integral(est.as_ref(), probe);
            let rel = (got - truth).abs() / truth.max(1.0);
            assert!(
                rel < 0.2,
                "{name}: half-domain integral {got} vs count {truth}"
            );
        }
    }
}

#[test]
fn whole_domain_integral_is_n() {
    let data = uniform_cube(10_000, 2, 4);
    // Integrate over a widened box so boundary kernel mass is captured;
    // backends supported on the domain read the same as the unit box.
    let wide = BoundingBox::new(vec![-0.5, -0.5], vec![1.5, 1.5]);
    for (name, est) in backends(&data, 2) {
        let got = integral(est.as_ref(), &wide);
        let rel = (got - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.05, "{name}: total mass {got}");
    }
}

#[test]
fn average_density_is_consistent_with_size_and_volume() {
    let synth = clustered(10_000, 2, 9);
    for (name, est) in backends(&synth.data, 2) {
        // Unit domain: average density must equal n / volume = n.
        let avg = est.average_density();
        let expected = est.dataset_size() / BoundingBox::unit(2).volume();
        assert!(
            (avg - expected).abs() < 1e-6 * expected,
            "{name}: average {avg} vs n/vol {expected}"
        );
    }
}

#[test]
fn batch_is_bit_identical_to_per_point() {
    let synth = clustered(10_000, 2, 10);
    // Queries both inside and outside the domain.
    let mut queries = Dataset::new(2);
    for i in 0..500 {
        let t = i as f64 / 499.0;
        queries.push(&[t * 1.4 - 0.2, 1.2 - t * 1.4]).unwrap();
    }
    for (name, est) in backends(&synth.data, 2) {
        let mut out = vec![0.0f64; queries.len()];
        let block = dbs_core::PointBlock::from_dataset(&queries, 0..queries.len());
        est.densities_into(&block, &mut out, &mut dbs_core::obs::Tally::default());
        for (i, &got) in out.iter().enumerate() {
            let want = est.density(queries.point(i));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name}: batch density {got} != per-point {want} at query {i}"
            );
        }
    }
}

#[test]
fn box_integral_is_nonnegative_and_bounded_by_n() {
    let synth = clustered(10_000, 2, 11);
    let probes = [
        BoundingBox::new(vec![0.1, 0.1], vec![0.4, 0.7]),
        BoundingBox::new(vec![0.33, 0.21], vec![0.34, 0.9]),
        BoundingBox::new(vec![-0.5, -0.5], vec![1.5, 1.5]),
        BoundingBox::new(vec![0.7, 0.7], vec![0.70001, 0.70001]),
    ];
    for (name, est) in backends(&synth.data, 2) {
        for probe in &probes {
            let got = integral(est.as_ref(), probe);
            assert!(got >= 0.0, "{name}: negative integral {got} over {probe:?}");
            // Allow a small smoothing margin above n.
            assert!(
                got <= 10_000.0 * 1.05,
                "{name}: integral {got} exceeds dataset size over {probe:?}"
            );
        }
    }
}

#[test]
fn batch_densities_are_thread_count_invariant() {
    let synth = clustered(20_000, 2, 12);
    for (name, est) in backends(&synth.data, 2) {
        let baseline =
            batch_densities(est.as_ref(), &synth.data, NonZeroUsize::new(1).unwrap()).unwrap();
        for threads in [2usize, 7] {
            let got = batch_densities(
                est.as_ref(),
                &synth.data,
                NonZeroUsize::new(threads).unwrap(),
            )
            .unwrap();
            let same = baseline
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{name}: densities differ between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn uniform_data_has_flat_density() {
    let data = uniform_cube(50_000, 2, 6);
    for (name, est) in backends(&data, 2) {
        // Sample interior points; density should hover near n within a
        // modest band (away from boundary bias).
        let mut min_d = f64::INFINITY;
        let mut max_d: f64 = 0.0;
        for i in 0..20 {
            for j in 0..20 {
                let x = [0.2 + 0.6 * i as f64 / 19.0, 0.2 + 0.6 * j as f64 / 19.0];
                let d = est.density(&x);
                min_d = min_d.min(d);
                max_d = max_d.max(d);
            }
        }
        // A 500-kernel mixture has ~16 kernels overlapping any point, so
        // ~25% relative noise is expected; the band is a smoke check, not
        // a precision bound.
        assert!(
            min_d > 0.3 * 50_000.0 && max_d < 3.0 * 50_000.0,
            "{name}: density band [{min_d}, {max_d}] too far from n"
        );
    }
}

#[test]
fn clustered_data_has_contrast() {
    let synth = clustered(20_000, 2, 8);
    for (name, est) in backends(&synth.data, 2) {
        let inside = synth.regions[0].center();
        let in_density = est.density(&inside);
        // A point far from every region.
        let mut out = vec![0.0, 0.0];
        'search: for i in 0..40 {
            for j in 0..40 {
                let cand = vec![i as f64 / 39.0, j as f64 / 39.0];
                if synth
                    .regions
                    .iter()
                    .all(|r| r.inflate(0.08).dist_sq_to_point(&cand) > 0.0)
                {
                    out = cand;
                    break 'search;
                }
            }
        }
        let out_density = est.density(&out);
        assert!(
            in_density > 10.0 * (out_density + 1.0),
            "{name}: inside {in_density} vs outside {out_density}"
        );
    }
}
