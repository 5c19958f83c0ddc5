//! Probability distributions for timing models: sampling, log-density, and
//! moments.
//!
//! The paper measures `T_A`, `T_C`, `T_F` on the target system, fits the
//! samples to candidate distributions in R, and selects the best by
//! log-likelihood (§IV-B). This module provides the distribution zoo
//! (implemented in-tree — see DESIGN.md §6), [`crate::distfit`] the fitting
//! machinery.

use rand::Rng;
use rand::RngCore;

/// Natural log of the gamma function (Lanczos approximation, |err| < 1e-13).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma needs positive argument, got {x}");
    // Lanczos g = 7, n = 9 coefficients.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Digamma function ψ(x) = d/dx ln Γ(x) (recurrence + asymptotic series).
pub(crate) fn digamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "digamma needs positive argument");
    let mut result = 0.0;
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

/// Trigamma function ψ'(x) (recurrence + asymptotic series).
pub(crate) fn trigamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "trigamma needs positive argument");
    let mut result = 0.0;
    while x < 10.0 {
        result += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + inv * (1.0 + inv * (0.5 + inv * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 / 42.0))))
}

/// Samples a standard normal deviate (Marsaglia polar method).
pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples Gamma(shape, 1) via Marsaglia & Tsang (2000).
fn standard_gamma<R: RngCore + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    debug_assert!(shape > 0.0);
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) · U^{1/a}.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return standard_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// A univariate distribution over (a subset of) the reals.
///
/// All timing quantities are non-negative; the `Normal` variant therefore
/// samples with rejection of negative values (irrelevant for the paper's
/// CV = 0.1 regime, ~10σ from zero, but it keeps simulated times legal for
/// any parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Point mass at a constant (the analytical model's assumption).
    Constant(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
    /// Exponential with rate λ.
    Exponential {
        /// Rate parameter λ (mean 1/λ).
        rate: f64,
    },
    /// Normal(μ, σ), truncated to non-negative values when sampling.
    Normal {
        /// Mean μ.
        mean: f64,
        /// Standard deviation σ.
        sd: f64,
    },
    /// Log-normal: `exp(N(μ, σ))`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Gamma with shape k and scale θ.
    Gamma {
        /// Shape k.
        shape: f64,
        /// Scale θ (mean kθ).
        scale: f64,
    },
    /// Weibull with shape k and scale λ.
    Weibull {
        /// Shape k.
        shape: f64,
        /// Scale λ.
        scale: f64,
    },
}

impl Dist {
    /// A Normal with the given mean and coefficient of variation — the
    /// paper's controlled-delay specification (`T_F` with CV 0.1).
    pub fn normal_cv(mean: f64, cv: f64) -> Self {
        assert!(mean >= 0.0 && cv >= 0.0);
        if cv == 0.0 {
            Dist::Constant(mean)
        } else {
            Dist::Normal {
                mean,
                sd: cv * mean,
            }
        }
    }

    /// Draws one sample (generic, so no draw goes through a vtable).
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Constant(c) => c,
            Dist::Uniform { lo, hi } => {
                if hi > lo {
                    rng.gen_range(lo..hi)
                } else {
                    lo
                }
            }
            Dist::Exponential { rate } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -u.ln() / rate
            }
            Dist::Normal { mean, sd } => {
                if sd == 0.0 {
                    return mean.max(0.0);
                }
                loop {
                    let x = mean + sd * standard_normal(rng);
                    if x >= 0.0 {
                        return x;
                    }
                }
            }
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Gamma { shape, scale } => standard_gamma(shape, rng) * scale,
            Dist::Weibull { shape, scale } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                scale * (-u.ln()).powf(1.0 / shape)
            }
        }
    }

    /// Theoretical mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(c) => c,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Exponential { rate } => 1.0 / rate,
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
            Dist::Gamma { shape, scale } => shape * scale,
            Dist::Weibull { shape, scale } => scale * (ln_gamma(1.0 + 1.0 / shape)).exp(),
        }
    }

    /// Log-density at `x` (−∞ outside the support; `Constant` has no
    /// density and returns −∞ except exactly at its atom, where it returns
    /// +∞ — constants are excluded from likelihood-based model selection).
    #[expect(
        clippy::float_cmp,
        reason = "a point mass has density only at its exact atom"
    )]
    pub(crate) fn ln_pdf(&self, x: f64) -> f64 {
        match *self {
            Dist::Constant(c) => {
                if x == c {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            Dist::Uniform { lo, hi } => {
                if x >= lo && x <= hi && hi > lo {
                    -(hi - lo).ln()
                } else {
                    f64::NEG_INFINITY
                }
            }
            Dist::Exponential { rate } => {
                if x >= 0.0 {
                    rate.ln() - rate * x
                } else {
                    f64::NEG_INFINITY
                }
            }
            Dist::Normal { mean, sd } => {
                if sd <= 0.0 {
                    return f64::NEG_INFINITY;
                }
                let z = (x - mean) / sd;
                -0.5 * z * z - sd.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
            }
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 || sigma <= 0.0 {
                    return f64::NEG_INFINITY;
                }
                let z = (x.ln() - mu) / sigma;
                -0.5 * z * z - x.ln() - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
            }
            Dist::Gamma { shape, scale } => {
                if x <= 0.0 {
                    return f64::NEG_INFINITY;
                }
                (shape - 1.0) * x.ln() - x / scale - ln_gamma(shape) - shape * scale.ln()
            }
            Dist::Weibull { shape, scale } => {
                if x < 0.0 {
                    return f64::NEG_INFINITY;
                }
                let z = x / scale;
                shape.ln() - scale.ln() + (shape - 1.0) * z.ln() - z.powf(shape)
            }
        }
    }

    /// Sum of log-densities over a sample (the fit criterion of §IV-B).
    pub(crate) fn log_likelihood(&self, samples: &[f64]) -> f64 {
        samples.iter().map(|&x| self.ln_pdf(x)).sum()
    }

    /// Cumulative distribution function `F(x)`: the reference
    /// `cdf_matches_empirical_distribution` checks every sampler against.
    pub fn cdf(&self, x: f64) -> f64 {
        use crate::special::{normal_cdf, regularized_gamma_p};
        match *self {
            Dist::Constant(c) => {
                if x >= c {
                    1.0
                } else {
                    0.0
                }
            }
            Dist::Uniform { lo, hi } => {
                if hi <= lo {
                    if x >= lo {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
                }
            }
            Dist::Exponential { rate } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-rate * x).exp()
                }
            }
            Dist::Normal { mean, sd } => {
                if sd <= 0.0 {
                    return if x >= mean { 1.0 } else { 0.0 };
                }
                normal_cdf((x - mean) / sd)
            }
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else {
                    normal_cdf((x.ln() - mu) / sigma)
                }
            }
            Dist::Gamma { shape, scale } => {
                if x <= 0.0 {
                    0.0
                } else {
                    regularized_gamma_p(shape, x / scale)
                }
            }
            Dist::Weibull { shape, scale } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-(x / scale).powf(shape)).exp()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_core::rng::SplitMix64;

    fn rng() -> rand::rngs::StdRng {
        SplitMix64::new(7).derive("dist-tests")
    }

    /// The theoretical variance: the reference `sample_moments_match_theory` checks
    /// each sampler's sample variance against.
    fn variance(d: Dist) -> f64 {
        match d {
            Dist::Constant(_) => 0.0,
            Dist::Uniform { lo, hi } => (hi - lo) * (hi - lo) / 12.0,
            Dist::Exponential { rate } => 1.0 / (rate * rate),
            Dist::Normal { sd, .. } => sd * sd,
            Dist::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                (s2.exp() - 1.0) * (2.0 * mu + s2).exp()
            }
            Dist::Gamma { shape, scale } => shape * scale * scale,
            Dist::Weibull { shape, scale } => {
                let g1 = (ln_gamma(1.0 + 1.0 / shape)).exp();
                let g2 = (ln_gamma(1.0 + 2.0 / shape)).exp();
                scale * scale * (g2 - g1 * g1)
            }
        }
    }

    fn moments(d: Dist, n: usize) -> (f64, f64) {
        let mut r = rng();
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ (Euler–Mascheroni).
        assert!((digamma(1.0) + 0.577_215_664_901_532_9).abs() < 1e-10);
        // ψ(2) = 1 − γ.
        assert!((digamma(2.0) - (1.0 - 0.577_215_664_901_532_9)).abs() < 1e-10);
        // Recurrence ψ(x+1) = ψ(x) + 1/x.
        for x in [0.3, 1.7, 4.2] {
            assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10);
        }
    }

    #[test]
    fn trigamma_known_values() {
        // ψ'(1) = π²/6.
        let pi2_6 = std::f64::consts::PI.powi(2) / 6.0;
        assert!((trigamma(1.0) - pi2_6).abs() < 1e-9);
        // Recurrence ψ'(x+1) = ψ'(x) − 1/x².
        for x in [0.4, 2.3] {
            assert!((trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_moments_match_theory() {
        let cases = [
            Dist::Uniform { lo: 1.0, hi: 3.0 },
            Dist::Exponential { rate: 2.0 },
            Dist::Normal { mean: 5.0, sd: 0.5 },
            Dist::LogNormal {
                mu: -1.0,
                sigma: 0.4,
            },
            Dist::Gamma {
                shape: 3.0,
                scale: 0.5,
            },
            Dist::Gamma {
                shape: 0.5,
                scale: 2.0,
            },
            Dist::Weibull {
                shape: 1.5,
                scale: 2.0,
            },
        ];
        for d in cases {
            let (m, v) = moments(d, 100_000);
            let (tm, tv) = (d.mean(), variance(d));
            assert!(
                (m - tm).abs() < 0.03 * tm.abs().max(0.3),
                "{d:?}: mean {m} vs {tm}"
            );
            assert!(
                (v - tv).abs() < 0.1 * tv.max(0.05),
                "{d:?}: var {v} vs {tv}"
            );
        }
    }

    #[test]
    fn constant_and_cv_zero() {
        let d = Dist::normal_cv(0.01, 0.0);
        assert_eq!(d, Dist::Constant(0.01));
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 0.01);
        assert_eq!(variance(d), 0.0);
    }

    #[test]
    fn normal_cv_matches_paper_spec() {
        let d = Dist::normal_cv(0.01, 0.1);
        let (m, v) = moments(d, 100_000);
        assert!((m - 0.01).abs() < 1e-4);
        assert!((v.sqrt() - 0.001).abs() < 1e-4);
    }

    #[test]
    fn normal_sampling_is_nonnegative() {
        let d = Dist::Normal { mean: 0.1, sd: 1.0 };
        let mut r = rng();
        for _ in 0..5000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn ln_pdf_integrates_to_one() {
        // Crude trapezoid check that each density integrates to ~1.
        let cases = [
            (Dist::Exponential { rate: 1.5 }, 0.0, 15.0),
            (Dist::Normal { mean: 2.0, sd: 0.7 }, -4.0, 8.0),
            (
                Dist::LogNormal {
                    mu: 0.0,
                    sigma: 0.5,
                },
                1e-9,
                12.0,
            ),
            (
                Dist::Gamma {
                    shape: 2.5,
                    scale: 0.8,
                },
                1e-9,
                25.0,
            ),
            (
                Dist::Weibull {
                    shape: 2.0,
                    scale: 1.0,
                },
                1e-9,
                8.0,
            ),
        ];
        for (d, lo, hi) in cases {
            let n = 40_000;
            let h = (hi - lo) / n as f64;
            let integral: f64 = (0..=n)
                .map(|i| {
                    let x = lo + i as f64 * h;
                    let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                    w * d.ln_pdf(x).exp()
                })
                .sum::<f64>()
                * h;
            assert!(
                (integral - 1.0).abs() < 1e-3,
                "{d:?} integrates to {integral}"
            );
        }
    }

    #[test]
    fn cdf_matches_empirical_distribution() {
        let mut r = rng();
        let cases = [
            Dist::Uniform { lo: 0.5, hi: 2.0 },
            Dist::Exponential { rate: 3.0 },
            Dist::Normal { mean: 4.0, sd: 0.8 },
            Dist::LogNormal {
                mu: 0.2,
                sigma: 0.4,
            },
            Dist::Gamma {
                shape: 2.2,
                scale: 0.7,
            },
            Dist::Weibull {
                shape: 1.4,
                scale: 1.5,
            },
        ];
        for d in cases {
            let n = 40_000;
            let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Compare the model CDF against the empirical CDF at quartiles.
            for q in [0.25, 0.5, 0.75] {
                let x = xs[(q * n as f64) as usize];
                let f = d.cdf(x);
                assert!((f - q).abs() < 0.02, "{d:?}: CDF({x}) = {f}, expected ~{q}");
            }
        }
    }

    #[test]
    fn cdf_boundaries() {
        assert_eq!(Dist::Constant(2.0).cdf(1.9), 0.0);
        assert_eq!(Dist::Constant(2.0).cdf(2.0), 1.0);
        assert_eq!(Dist::Exponential { rate: 1.0 }.cdf(-1.0), 0.0);
        assert_eq!(
            Dist::Gamma {
                shape: 2.0,
                scale: 1.0
            }
            .cdf(0.0),
            0.0
        );
        assert_eq!(Dist::Uniform { lo: 0.0, hi: 1.0 }.cdf(2.0), 1.0);
    }

    #[test]
    fn log_likelihood_prefers_generating_distribution() {
        let truth = Dist::Gamma {
            shape: 4.0,
            scale: 0.25,
        };
        let mut r = rng();
        let xs: Vec<f64> = (0..5000).map(|_| truth.sample(&mut r)).collect();
        let ll_truth = truth.log_likelihood(&xs);
        let ll_exp = Dist::Exponential { rate: 1.0 }.log_likelihood(&xs);
        assert!(ll_truth > ll_exp);
    }
}
