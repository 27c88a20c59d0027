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

    /// The kernel's CDF `F(u) = ∫_{−∞}^u K`, so a center's mass in `[a, b]`
    /// is `F(b) − F(a)` (in bandwidth units). Closed-form polynomials on
    /// `[−1, 1]` for the compact kernels; `(1 + erf(u/√2)) / 2` for the
    /// Gaussian, cut to 0 and 1 at the truncation radius as
    /// [`Kernel::eval`] is.
    pub fn cdf(&self, u: f64) -> f64 {
        let r = self.support_radius();
        if u <= -r {
            return 0.0;
        }
        if u >= r {
            return 1.0;
        }
        match self {
            Kernel::Epanechnikov => 0.5 + 0.75 * (u - u * u * u / 3.0),
            Kernel::Gaussian => 0.5 * (1.0 + erf(u * std::f64::consts::FRAC_1_SQRT_2)),
            Kernel::Biweight => {
                let u2 = u * u;
                0.5 + 0.9375 * u * (1.0 - u2 * (2.0 / 3.0 - u2 / 5.0))
            }
            Kernel::Uniform => 0.5 * (1.0 + u),
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

/// The error function, from its everywhere-convergent series
/// `erf(x) = 2/√π · e^{−x²} · Σ_{n≥0} 2ⁿ x^{2n+1} / (1·3·…·(2n+1))`, whose
/// terms are all positive, so no digits cancel. Summed until a term falls
/// below `1e-17` of the total; `±1` from `|x| ≥ 6`, where `1 − erf(x) <
/// 3e-17`. A plain loop over `exp` and arithmetic, so it gives the same
/// bits wherever `exp` does.
pub fn erf(x: f64) -> f64 {
    let a = x.abs();
    if a >= 6.0 {
        return 1.0f64.copysign(x);
    }
    let (mut term, mut sum, mut n) = (a, a, 0.0);
    while term > 1e-17 * sum {
        n += 1.0;
        term *= 2.0 * a * a / (2.0 * n + 1.0);
        sum += term;
    }
    (std::f64::consts::FRAC_2_SQRT_PI * (-a * a).exp() * sum).copysign(x)
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
        // Reference values to 10 digits.
        let known = [
            (0.0, 0.0),
            (0.1, 0.1124629160),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (1.5, 0.9661051465),
            (2.0, 0.9953222650),
            (3.0, 0.9999779095),
            (4.0, 0.9999999846),
            (6.5, 1.0),
        ];
        for (x, want) in known {
            assert!((erf(x) - want).abs() < 1e-7, "erf({x}) = {}", erf(x));
            assert!((erf(-x) + want).abs() < 1e-7, "erf({})", -x);
        }
    }

    #[test]
    fn cdf_integrates_the_kernel() {
        // F rises from 0 to 1 across the support, and its increments match
        // the trapezoid integral of the profile.
        for k in KERNELS {
            let r = k.support_radius();
            assert_eq!(k.cdf(-r - 1.0), 0.0, "{k:?}");
            assert_eq!(k.cdf(r + 1.0), 1.0, "{k:?}");
            assert!((k.cdf(0.0) - 0.5).abs() < 1e-12, "{k:?}");
            for (a, b) in [(-0.9, -0.2), (-0.3, 0.45), (0.1, 0.99)] {
                let steps = 20_000;
                let h = (b - a) / steps as f64;
                let mut acc = 0.5 * (k.eval(a) + k.eval(b));
                for i in 1..steps {
                    acc += k.eval(a + i as f64 * h);
                }
                let want = acc * h;
                let got = k.cdf(b) - k.cdf(a);
                assert!(
                    (got - want).abs() < 1e-7,
                    "{k:?} on [{a}, {b}]: {got} vs {want}"
                );
            }
        }
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
