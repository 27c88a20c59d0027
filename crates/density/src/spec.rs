//! Backend-agnostic estimator selection.
//!
//! [`EstimatorSpec`] is the single front door to every density backend in
//! this crate: a parseable description (`kde:1000`, `grid:32`, `hashgrid`,
//! `wavelet:5:256`, `agrid:8`) plus the cross-backend knobs (seed, domain),
//! whose [`EstimatorSpec::fit`] builds the chosen estimator behind
//! `Box<dyn DensityEstimator + Sync>`. The samplers, outlier detectors and
//! experiment harness are already generic over the trait, so everything
//! above this crate selects a backend by string and never names a concrete
//! estimator type.

use dbs_core::{par, BoundingBox, Error, PointSource, Result};

use crate::bandwidth::Bandwidth;
use crate::kde::{KdeConfig, KernelDensityEstimator};
use crate::kernel::Kernel;
use crate::shifted::ShiftedGrids;
use crate::sketch::{DensitySketch, SketchConfig};
use crate::traits::DensityEstimator;
use crate::wavelet::WaveletEstimator;

/// Which backend to build, with its per-backend parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorKind {
    /// The paper's product-kernel estimator (§2.1).
    Kde {
        /// Kernel centers `ks` (paper default 1000).
        centers: usize,
        /// Kernel profile.
        kernel: Kernel,
        /// Bandwidth rule.
        bandwidth: Bandwidth,
    },
    /// Exact uniform-grid histogram.
    Grid {
        /// Cells per dimension.
        resolution: usize,
    },
    /// Memory-capped hashed grid (Palmer–Faloutsos storage model).
    HashGrid {
        /// Virtual cells per dimension.
        resolution: usize,
        /// Hash-table counters actually allocated.
        table_slots: usize,
    },
    /// Haar-wavelet-compressed histogram.
    Wavelet {
        /// Grid of `2^levels` cells per dimension.
        levels: u32,
        /// Coefficients kept by the compression.
        coefficients: usize,
    },
    /// Wells–Ting averaged-grid ensemble.
    Agrid {
        /// Ensemble size `m`.
        grids: usize,
        /// Cells per dimension; `None` = dimension-dependent default.
        resolution: Option<usize>,
    },
    /// Streaming Count-Min shifted-grid sketch.
    Sketch {
        /// Count-Min depth `m` (hashed shifted grids).
        grids: usize,
        /// Counters per grid row.
        slots: usize,
    },
}

/// A complete, fit-ready estimator selection.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorSpec {
    /// Backend and its parameters.
    pub kind: EstimatorKind,
    /// Seed for any randomized construction (KDE center reservoir, agrid
    /// shift offsets).
    pub seed: u64,
    /// Data domain; `None` defaults to the unit cube of the source's
    /// dimension at fit time.
    pub domain: Option<BoundingBox>,
}

fn invalid(spec: &str, why: &str) -> Error {
    Error::InvalidParameter(format!("estimator spec '{spec}': {why}"))
}

fn parse_field<T: std::str::FromStr>(spec: &str, field: &str, value: &str) -> Result<T> {
    value
        .parse()
        .map_err(|_| invalid(spec, &format!("bad {field} '{value}'")))
}

impl EstimatorSpec {
    /// A KDE spec with `centers` kernels and the paper's other defaults —
    /// the drop-in equivalent of the old hardwired KDE path.
    pub fn kde(centers: usize) -> Self {
        EstimatorSpec {
            kind: EstimatorKind::Kde {
                centers,
                kernel: Kernel::Epanechnikov,
                bandwidth: Bandwidth::Scott,
            },
            seed: 0,
            domain: None,
        }
    }

    /// Parses a backend selection string.
    ///
    /// Accepted forms (parameters optional, defaults in parentheses):
    /// `kde[:centers]` (1000), `grid[:res]` (32), `hashgrid[:res[:slots]]`
    /// (32, 65536), `wavelet[:levels[:coeffs]]` (5, 256),
    /// `agrid[:m[:res]]` (8 grids, auto resolution), and
    /// `sketch[:m[:slots]]` (4 rows, 65536 slots). Seed and domain start
    /// at their defaults; adjust with [`Self::with_seed`] /
    /// [`Self::with_domain`].
    pub fn parse(spec: &str) -> Result<Self> {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("");
        let params: Vec<&str> = parts.collect();
        let too_many = |max: usize| -> Result<()> {
            if params.len() > max {
                Err(invalid(spec, "too many parameters"))
            } else {
                Ok(())
            }
        };
        let kind = match name {
            "kde" => {
                too_many(1)?;
                let centers = match params.first() {
                    Some(v) => parse_field(spec, "centers", v)?,
                    None => 1000,
                };
                EstimatorKind::Kde {
                    centers,
                    kernel: Kernel::Epanechnikov,
                    bandwidth: Bandwidth::Scott,
                }
            }
            "grid" => {
                too_many(1)?;
                let resolution = match params.first() {
                    Some(v) => parse_field(spec, "resolution", v)?,
                    None => 32,
                };
                EstimatorKind::Grid { resolution }
            }
            "hashgrid" => {
                too_many(2)?;
                let resolution = match params.first() {
                    Some(v) => parse_field(spec, "resolution", v)?,
                    None => 32,
                };
                let table_slots = match params.get(1) {
                    Some(v) => parse_field(spec, "table_slots", v)?,
                    None => 1 << 16,
                };
                EstimatorKind::HashGrid {
                    resolution,
                    table_slots,
                }
            }
            "wavelet" => {
                too_many(2)?;
                let levels = match params.first() {
                    Some(v) => parse_field(spec, "levels", v)?,
                    None => 5,
                };
                let coefficients = match params.get(1) {
                    Some(v) => parse_field(spec, "coefficients", v)?,
                    None => 256,
                };
                EstimatorKind::Wavelet {
                    levels,
                    coefficients,
                }
            }
            "agrid" => {
                too_many(2)?;
                let grids = match params.first() {
                    Some(v) => parse_field(spec, "grids", v)?,
                    None => 8,
                };
                let resolution = match params.get(1) {
                    Some(v) => Some(parse_field(spec, "resolution", v)?),
                    None => None,
                };
                EstimatorKind::Agrid { grids, resolution }
            }
            "sketch" => {
                too_many(2)?;
                let grids = match params.first() {
                    Some(v) => parse_field(spec, "grids", v)?,
                    None => 4,
                };
                let slots = match params.get(1) {
                    Some(v) => parse_field(spec, "slots", v)?,
                    None => 1 << 16,
                };
                EstimatorKind::Sketch { grids, slots }
            }
            _ => {
                return Err(invalid(
                    spec,
                    "unknown backend (expected kde, grid, hashgrid, wavelet, agrid, or sketch)",
                ))
            }
        };
        Ok(EstimatorSpec {
            kind,
            seed: 0,
            domain: None,
        })
    }

    /// Returns the spec with `seed` substituted.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the spec with the data domain substituted.
    pub fn with_domain(mut self, domain: BoundingBox) -> Self {
        self.domain = Some(domain);
        self
    }

    /// A short human-readable backend label (`kde:1000`, `agrid:8`, …).
    pub fn label(&self) -> String {
        match &self.kind {
            EstimatorKind::Kde { centers, .. } => format!("kde:{centers}"),
            EstimatorKind::Grid { resolution } => format!("grid:{resolution}"),
            EstimatorKind::HashGrid {
                resolution,
                table_slots,
            } => format!("hashgrid:{resolution}:{table_slots}"),
            EstimatorKind::Wavelet {
                levels,
                coefficients,
            } => format!("wavelet:{levels}:{coefficients}"),
            EstimatorKind::Agrid { grids, resolution } => match resolution {
                Some(r) => format!("agrid:{grids}:{r}"),
                None => format!("agrid:{grids}"),
            },
            EstimatorKind::Sketch { grids, slots } => format!("sketch:{grids}:{slots}"),
        }
    }

    /// Fits the selected backend on `source`.
    ///
    /// The domain defaults to the unit cube of the source's dimension —
    /// the normalization contract every caller of this crate already
    /// follows (§2.1). All backends validate their inputs: an empty source
    /// or degenerate parameters give [`Error::InvalidParameter`], and the
    /// histogram backends report a non-finite coordinate as
    /// [`Error::NonFinite`].
    pub fn fit<S: PointSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<Box<dyn DensityEstimator + Sync>> {
        let domain = self
            .domain
            .clone()
            .unwrap_or_else(|| BoundingBox::unit(source.dim()));
        Ok(match &self.kind {
            EstimatorKind::Kde {
                centers,
                kernel,
                bandwidth,
            } => {
                let cfg = KdeConfig {
                    num_centers: *centers,
                    kernel: *kernel,
                    bandwidth: bandwidth.clone(),
                    domain: Some(domain),
                    seed: self.seed,
                };
                Box::new(KernelDensityEstimator::fit(source, &cfg)?)
            }
            EstimatorKind::Grid { resolution } => {
                Box::new(ShiftedGrids::grid(domain, *resolution)?.fit(source, par::serial())?)
            }
            EstimatorKind::HashGrid {
                resolution,
                table_slots,
            } => Box::new(
                ShiftedGrids::hashgrid(domain, *resolution, *table_slots)?
                    .fit(source, par::serial())?,
            ),
            EstimatorKind::Wavelet {
                levels,
                coefficients,
            } => Box::new(WaveletEstimator::fit(
                source,
                domain,
                *levels,
                *coefficients,
            )?),
            EstimatorKind::Agrid { grids, resolution } => Box::new(
                ShiftedGrids::agrid(domain, *grids, *resolution, self.seed)?
                    .fit(source, par::serial())?,
            ),
            EstimatorKind::Sketch { grids, slots } => {
                let cfg = SketchConfig {
                    grids: *grids,
                    slots: *slots,
                    resolution: None,
                    domain: Some(domain),
                    seed: self.seed,
                };
                Box::new(DensitySketch::new(source.dim(), &cfg)?.fit(source, par::serial())?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::uniform_dataset;

    #[test]
    fn parses_defaults_and_parameters() {
        assert_eq!(
            EstimatorSpec::parse("kde").unwrap().kind,
            EstimatorKind::Kde {
                centers: 1000,
                kernel: Kernel::Epanechnikov,
                bandwidth: Bandwidth::Scott,
            }
        );
        assert_eq!(EstimatorSpec::parse("kde:250").unwrap().label(), "kde:250");
        assert_eq!(
            EstimatorSpec::parse("grid:64").unwrap().kind,
            EstimatorKind::Grid { resolution: 64 }
        );
        assert_eq!(
            EstimatorSpec::parse("hashgrid").unwrap().kind,
            EstimatorKind::HashGrid {
                resolution: 32,
                table_slots: 1 << 16,
            }
        );
        assert_eq!(
            EstimatorSpec::parse("hashgrid:20:512").unwrap().kind,
            EstimatorKind::HashGrid {
                resolution: 20,
                table_slots: 512,
            }
        );
        assert_eq!(
            EstimatorSpec::parse("wavelet:4:128").unwrap().kind,
            EstimatorKind::Wavelet {
                levels: 4,
                coefficients: 128,
            }
        );
        assert_eq!(
            EstimatorSpec::parse("agrid").unwrap().kind,
            EstimatorKind::Agrid {
                grids: 8,
                resolution: None,
            }
        );
        assert_eq!(
            EstimatorSpec::parse("agrid:4:20").unwrap().kind,
            EstimatorKind::Agrid {
                grids: 4,
                resolution: Some(20),
            }
        );
        assert_eq!(
            EstimatorSpec::parse("sketch").unwrap().kind,
            EstimatorKind::Sketch {
                grids: 4,
                slots: 1 << 16,
            }
        );
        assert_eq!(
            EstimatorSpec::parse("sketch:8:1024").unwrap().kind,
            EstimatorKind::Sketch {
                grids: 8,
                slots: 1024,
            }
        );
        assert_eq!(
            EstimatorSpec::parse("sketch:8:1024").unwrap().label(),
            "sketch:8:1024"
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "ballpark",
            "kde:abc",
            "kde:1:2",
            "grid:-1",
            "hashgrid:8:8:8",
            "agrid:x",
            "sketch:4:16:2",
            "sketch:y",
        ] {
            let err = EstimatorSpec::parse(bad).unwrap_err();
            assert!(err.to_string().contains("estimator spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn fits_every_backend() {
        let ds = uniform_dataset(3000, 2, 1);
        for spec in [
            "kde:200",
            "grid:16",
            "hashgrid:16",
            "wavelet:4:64",
            "agrid:4",
            "sketch:4:4096",
        ] {
            let est = EstimatorSpec::parse(spec).unwrap().fit(&ds).unwrap();
            assert_eq!(est.dim(), 2, "{spec}");
            assert_eq!(est.dataset_size(), 3000.0, "{spec}");
            assert!(est.density(&[0.5, 0.5]) > 0.0, "{spec}");
        }
    }

    #[test]
    fn factory_kde_matches_direct_fit() {
        let ds = uniform_dataset(2000, 2, 2);
        let via_spec = EstimatorSpec::kde(300).with_seed(9).fit(&ds).unwrap();
        let direct = KernelDensityEstimator::fit(
            &ds,
            &KdeConfig {
                num_centers: 300,
                domain: Some(BoundingBox::unit(2)),
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let x = [0.3, 0.8];
        assert_eq!(via_spec.density(&x).to_bits(), direct.density(&x).to_bits());
    }

    #[test]
    fn seed_and_domain_flow_through() {
        let ds = uniform_dataset(2000, 2, 3);
        let a = EstimatorSpec::parse("agrid:4")
            .unwrap()
            .with_seed(1)
            .fit(&ds)
            .unwrap();
        let b = EstimatorSpec::parse("agrid:4")
            .unwrap()
            .with_seed(2)
            .fit(&ds)
            .unwrap();
        // Different seeds shift the grids differently; some probe must see
        // a different ensemble count.
        let differs = (0..100).any(|i| {
            let x = [0.31 + 0.004 * i as f64, 0.64 - 0.003 * i as f64];
            a.density(&x).to_bits() != b.density(&x).to_bits()
        });
        assert!(differs, "seed had no effect on agrid");
        let wide = EstimatorSpec::parse("grid:8")
            .unwrap()
            .with_domain(BoundingBox::new(vec![-1.0, -1.0], vec![2.0, 2.0]))
            .fit(&ds)
            .unwrap();
        assert!(wide.density(&[-0.5, -0.5]) >= 0.0);
        assert!(wide.density(&[1.5, 1.5]) >= 0.0);
    }
}
