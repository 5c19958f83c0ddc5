//! Special functions backing the distribution CDFs: error function and the
//! regularized incomplete gamma function.

use crate::dist::ln_gamma;

/// Error function via the Abramowitz & Stegun 7.1.26 rational
/// approximation refined with one series/continued-fraction evaluation —
/// here implemented with the incomplete-gamma identity
/// `erf(x) = P(1/2, x²)` for |err| < 1e-12.
pub(crate) fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = x.signum();
    sign * regularized_gamma_p(0.5, x * x)
}

/// Standard normal CDF.
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`,
/// computed by series expansion for `x < a + 1` and by the continued
/// fraction of `Q(a, x)` otherwise (Numerical Recipes §6.2).
pub(crate) fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape must be positive");
    assert!(x >= 0.0, "argument must be non-negative");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    // Modified Lentz's method.
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-15);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-10);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_symmetry_and_known_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((normal_cdf(1.96) - 0.975_002_104_85).abs() < 1e-8);
        for z in [0.3, 1.1, 2.7] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 − e^{−x}.
        for x in [0.1, 1.0, 3.0, 10.0] {
            assert!((regularized_gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
        // P(a, 0) = 0, P(a, ∞) → 1.
        assert_eq!(regularized_gamma_p(2.5, 0.0), 0.0);
        assert!((regularized_gamma_p(2.5, 100.0) - 1.0).abs() < 1e-12);
        // χ²₂ median: P(1, ln 2) = 0.5.
        assert!((regularized_gamma_p(1.0, std::f64::consts::LN_2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gamma_p_is_monotone_in_x() {
        let mut last = 0.0;
        for i in 1..50 {
            let p = regularized_gamma_p(3.3, i as f64 * 0.3);
            assert!(p >= last);
            last = p;
        }
    }
}
