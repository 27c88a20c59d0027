//! One-dimensional kernel profiles.
//!
//! The multi-dimensional estimators use *product kernels*: the density
//! contribution of a center is the product of one-dimensional profiles, one
//! per dimension. Each profile integrates to 1 over its support, so the
//! product integrates to 1 over `R^d` and the frequency scaling is carried
//! entirely by the estimator.

/// `sqrt(2π)`, the Gaussian normalization constant, precomputed once
/// instead of on every evaluation. Bit-identical to
/// `(2.0 * std::f64::consts::PI).sqrt()` (asserted in tests), so hoisting
/// it does not perturb any density value.
pub const SQRT_2PI: f64 = 2.5066282746310002;

/// A one-dimensional smoothing kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// `K(u) = 3/4 (1 - u^2)` on `[-1, 1]` — the paper's kernel (§4.2),
    /// optimal in the asymptotic-MISE sense.
    #[default]
    Epanechnikov,
    /// The standard normal density. Infinite support; evaluations are
    /// truncated at `|u| > 8` where the mass is negligible.
    Gaussian,
    /// `K(u) = 15/16 (1 - u^2)^2` on `[-1, 1]` — a smoother finite-support
    /// alternative used in the kernel ablation.
    Biweight,
    /// `K(u) = 1/2` on `[-1, 1]` — the histogram-like box kernel.
    Uniform,
}

/// A kernel profile as a zero-sized type, so hot loops can monomorphize on
/// the kernel instead of matching on the [`Kernel`] enum per evaluation.
///
/// Every implementation is the *single definition* of that kernel's math:
/// [`Kernel::eval`] dispatches here, and the batch engine
/// (`dbs_density::batch`) calls the same functions — which is what makes
/// batch and scalar densities bit-identical by construction.
pub trait KernelProfile {
    /// Evaluates the profile at `u` (already scaled by the bandwidth).
    fn eval(u: f64) -> f64;
}

/// Monomorphizable zero-sized stand-ins for each [`Kernel`] arm.
pub mod profiles {
    use super::{KernelProfile, SQRT_2PI};

    /// `K(u) = 3/4 (1 - u^2)` on `[-1, 1]`.
    pub struct Epanechnikov;
    /// Truncated standard normal density.
    pub struct Gaussian;
    /// `K(u) = 15/16 (1 - u^2)^2` on `[-1, 1]`.
    pub struct Biweight;
    /// `K(u) = 1/2` on `[-1, 1]`.
    pub struct Uniform;

    impl KernelProfile for Epanechnikov {
        #[inline(always)]
        fn eval(u: f64) -> f64 {
            if u.abs() >= 1.0 {
                0.0
            } else {
                0.75 * (1.0 - u * u)
            }
        }
    }

    impl KernelProfile for Gaussian {
        #[inline(always)]
        fn eval(u: f64) -> f64 {
            if u.abs() > 8.0 {
                0.0
            } else {
                (-0.5 * u * u).exp() / SQRT_2PI
            }
        }
    }

    impl KernelProfile for Biweight {
        #[inline(always)]
        fn eval(u: f64) -> f64 {
            if u.abs() >= 1.0 {
                0.0
            } else {
                let t = 1.0 - u * u;
                0.9375 * t * t
            }
        }
    }

    impl KernelProfile for Uniform {
        #[inline(always)]
        fn eval(u: f64) -> f64 {
            if u.abs() > 1.0 {
                0.0
            } else {
                0.5
            }
        }
    }
}

impl Kernel {
    /// Evaluates the kernel at `u` (already scaled by the bandwidth).
    #[inline]
    pub fn eval(&self, u: f64) -> f64 {
        match self {
            Kernel::Epanechnikov => profiles::Epanechnikov::eval(u),
            Kernel::Gaussian => profiles::Gaussian::eval(u),
            Kernel::Biweight => profiles::Biweight::eval(u),
            Kernel::Uniform => profiles::Uniform::eval(u),
        }
    }

    /// The radius beyond which the kernel is (treated as) zero, in
    /// bandwidth units. Finite-support kernels return 1; the Gaussian
    /// returns its truncation radius.
    pub fn support_radius(&self) -> f64 {
        match self {
            Kernel::Gaussian => 8.0,
            _ => 1.0,
        }
    }

    /// A short lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Epanechnikov => "epanechnikov",
            Kernel::Gaussian => "gaussian",
            Kernel::Biweight => "biweight",
            Kernel::Uniform => "uniform",
        }
    }
}

/// Error function, Abramowitz & Stegun formula 7.1.26 (|error| <= 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: [Kernel; 4] = [
        Kernel::Epanechnikov,
        Kernel::Gaussian,
        Kernel::Biweight,
        Kernel::Uniform,
    ];

    #[test]
    fn kernels_are_nonnegative_and_symmetric() {
        for k in KERNELS {
            for i in 0..200 {
                let u = -2.0 + i as f64 * 0.02;
                assert!(k.eval(u) >= 0.0, "{k:?} negative at {u}");
                assert!(
                    (k.eval(u) - k.eval(-u)).abs() < 1e-12,
                    "{k:?} asymmetric at {u}"
                );
            }
        }
    }

    #[test]
    fn kernels_integrate_to_one() {
        // Trapezoid rule over the support.
        for k in KERNELS {
            let lo = -k.support_radius();
            let hi = k.support_radius();
            let n = 100_000;
            let h = (hi - lo) / n as f64;
            let mut acc = 0.5 * (k.eval(lo) + k.eval(hi));
            for i in 1..n {
                acc += k.eval(lo + i as f64 * h);
            }
            let integral = acc * h;
            assert!(
                (integral - 1.0).abs() < 1e-4,
                "{k:?} integrates to {integral}"
            );
        }
    }

    #[test]
    fn sqrt_2pi_constant_is_exact() {
        assert_eq!(
            SQRT_2PI.to_bits(),
            (2.0 * std::f64::consts::PI).sqrt().to_bits()
        );
    }

    #[test]
    fn erf_known_values() {
        // The A&S 7.1.26 approximation carries ~1.5e-7 absolute error.
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn epanechnikov_peak() {
        assert!((Kernel::Epanechnikov.eval(0.0) - 0.75).abs() < 1e-12);
        assert_eq!(Kernel::Epanechnikov.eval(1.0), 0.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Kernel::default().name(), "epanechnikov");
        assert_eq!(Kernel::Gaussian.name(), "gaussian");
    }
}
