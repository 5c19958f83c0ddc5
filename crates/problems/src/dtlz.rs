//! The DTLZ test suite (Deb, Thiele, Laumanns & Zitzler, CEC 2002).
//!
//! Scalable-objective test problems. The paper's primary workload is the
//! 5-objective DTLZ2, a separable problem considered easy for MOEAs; its
//! Pareto front is the positive orthant of the unit hypersphere.
//!
//! Conventions: `m` objectives, `k` distance variables, `L = m − 1 + k`
//! decision variables in `[0, 1]`. Standard `k`: 5 for DTLZ1, 10 for
//! DTLZ2–6, 20 for DTLZ7.

use borg_core::matrix::ObjectiveMatrix;
use borg_core::problem::{batch_eval_loop, Bounds, Problem};
use std::f64::consts::{FRAC_PI_2, PI};

/// Which DTLZ instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtlzVariant {
    /// Linear front, multimodal `g` (11^k local fronts).
    Dtlz1,
    /// Spherical front, unimodal; the paper's "simple" problem.
    Dtlz2,
    /// Spherical front with DTLZ1's multimodal `g`.
    Dtlz3,
    /// DTLZ2 with biased density (α = 100).
    Dtlz4,
    /// Degenerate curve front.
    Dtlz5,
    /// DTLZ5 with a harder `g`.
    Dtlz6,
    /// Disconnected front.
    Dtlz7,
}

impl DtlzVariant {
    /// Standard number of distance variables for this variant.
    pub fn standard_k(self) -> usize {
        match self {
            DtlzVariant::Dtlz1 => 5,
            DtlzVariant::Dtlz7 => 20,
            _ => 10,
        }
    }
}

/// A DTLZ problem instance.
#[derive(Debug, Clone)]
pub struct Dtlz {
    variant: DtlzVariant,
    m: usize,
    k: usize,
    name: String,
}

impl Dtlz {
    /// Creates a DTLZ instance with `m` objectives and the standard number
    /// of distance variables.
    pub fn new(variant: DtlzVariant, m: usize) -> Self {
        Self::with_k(variant, m, variant.standard_k())
    }

    /// Creates a DTLZ instance with an explicit distance-variable count.
    pub fn with_k(variant: DtlzVariant, m: usize, k: usize) -> Self {
        assert!(m >= 2, "DTLZ needs at least two objectives");
        assert!(k >= 1, "DTLZ needs at least one distance variable");
        let idx = match variant {
            DtlzVariant::Dtlz1 => 1,
            DtlzVariant::Dtlz2 => 2,
            DtlzVariant::Dtlz3 => 3,
            DtlzVariant::Dtlz4 => 4,
            DtlzVariant::Dtlz5 => 5,
            DtlzVariant::Dtlz6 => 6,
            DtlzVariant::Dtlz7 => 7,
        };
        Self {
            variant,
            m,
            k,
            name: format!("DTLZ{idx}_{m}"),
        }
    }

    /// The 5-objective DTLZ2 used throughout the paper.
    pub fn dtlz2_5() -> Self {
        Self::new(DtlzVariant::Dtlz2, 5)
    }

    /// The variant of this instance.
    pub fn variant(&self) -> DtlzVariant {
        self.variant
    }

    /// Number of distance variables `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    fn g1(&self, xm: &[f64]) -> f64 {
        // Multimodal Rastrigin-like distance function (DTLZ1/DTLZ3).
        100.0
            * (xm.len() as f64
                + xm.iter()
                    .map(|&x| (x - 0.5) * (x - 0.5) - (20.0 * PI * (x - 0.5)).cos())
                    .sum::<f64>())
    }

    fn g2(&self, xm: &[f64]) -> f64 {
        // Unimodal spherical distance function (DTLZ2/4/5).
        xm.iter().map(|&x| (x - 0.5) * (x - 0.5)).sum()
    }
}

impl Problem for Dtlz {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_variables(&self) -> usize {
        self.m - 1 + self.k
    }

    fn num_objectives(&self) -> usize {
        self.m
    }

    fn bounds(&self, _i: usize) -> Bounds {
        Bounds::unit()
    }

    fn evaluate_batch(
        &self,
        vars: &ObjectiveMatrix,
        objs: &mut ObjectiveMatrix,
        cons: &mut ObjectiveMatrix,
    ) {
        // One virtual call per batch instead of per row: the concrete
        // kernel monomorphizes and inlines into the row loop.
        batch_eval_loop(self, vars, objs, cons, Self::evaluate);
    }

    fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
        let m = self.m;
        let (pos, xm) = vars.split_at(m - 1);
        match self.variant {
            DtlzVariant::Dtlz1 => {
                let g = self.g1(xm);
                for i in 0..m {
                    let mut f = 0.5 * (1.0 + g);
                    for &x in pos.iter().take(m - 1 - i) {
                        f *= x;
                    }
                    if i > 0 {
                        f *= 1.0 - pos[m - 1 - i];
                    }
                    objs[i] = f;
                }
            }
            DtlzVariant::Dtlz2 | DtlzVariant::Dtlz3 | DtlzVariant::Dtlz4 => {
                let g = if self.variant == DtlzVariant::Dtlz3 {
                    self.g1(xm)
                } else {
                    self.g2(xm)
                };
                // DTLZ4 biases the density with x^100; the others use x as it
                // is (`powf(1.0)` would return its argument).
                let alpha = (self.variant == DtlzVariant::Dtlz4).then_some(100.0);
                // f_i = (1 + g) · cos θ_0 ⋯ cos θ_{m−2−i} · sin θ_{m−1−i}: one
                // running product of cosines, left to right, serves every
                // objective, so each angle's cos and sin are taken once and
                // each f_i is the same chain of multiplications as if it
                // had been built alone.
                let mut product = 1.0 + g;
                for (j, &x) in pos.iter().enumerate() {
                    let theta = alpha.map_or(x, |a| x.powf(a)) * FRAC_PI_2;
                    objs[m - 1 - j] = product * theta.sin();
                    product *= theta.cos();
                }
                objs[0] = product;
            }
            DtlzVariant::Dtlz5 | DtlzVariant::Dtlz6 => {
                let g = if self.variant == DtlzVariant::Dtlz6 {
                    xm.iter().map(|&x| x.powf(0.1)).sum::<f64>()
                } else {
                    self.g2(xm)
                };
                // Map positions to meta-angles θ: θ_0 = x_0 π/2, the rest
                // collapse toward π/4 as g → 0.
                let theta: Vec<f64> = pos
                    .iter()
                    .enumerate()
                    .map(|(j, &x)| {
                        if j == 0 {
                            x * FRAC_PI_2
                        } else {
                            PI / (4.0 * (1.0 + g)) * (1.0 + 2.0 * g * x)
                        }
                    })
                    .collect();
                for i in 0..m {
                    let mut f = 1.0 + g;
                    for &t in theta.iter().take(m - 1 - i) {
                        f *= t.cos();
                    }
                    if i > 0 {
                        f *= theta[m - 1 - i].sin();
                    }
                    objs[i] = f;
                }
            }
            DtlzVariant::Dtlz7 => {
                let g = 1.0 + 9.0 * xm.iter().sum::<f64>() / self.k as f64;
                objs[..m - 1].copy_from_slice(pos);
                let h = m as f64
                    - pos
                        .iter()
                        .map(|&f| f / (1.0 + g) * (1.0 + (3.0 * PI * f).sin()))
                        .sum::<f64>();
                objs[m - 1] = (1.0 + g) * h;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(p: &Dtlz, vars: &[f64]) -> Vec<f64> {
        let mut objs = vec![0.0; p.num_objectives()];
        p.evaluate(vars, &mut objs, &mut []);
        objs
    }

    #[test]
    fn dimensions_follow_convention() {
        let p = Dtlz::dtlz2_5();
        assert_eq!(p.num_variables(), 14); // M − 1 + k = 4 + 10
        assert_eq!(p.num_objectives(), 5);
        assert_eq!(p.name(), "DTLZ2_5");
        let p1 = Dtlz::new(DtlzVariant::Dtlz1, 3);
        assert_eq!(p1.num_variables(), 7); // 2 + 5
        let p7 = Dtlz::new(DtlzVariant::Dtlz7, 3);
        assert_eq!(p7.num_variables(), 22); // 2 + 20
    }

    #[test]
    fn dtlz2_optimal_points_lie_on_unit_sphere() {
        // With all distance variables at 0.5, g = 0 and Σ f_i² = 1.
        let p = Dtlz::dtlz2_5();
        for pos in [
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.3, 0.7, 0.2, 0.9],
        ] {
            let mut vars = pos.clone();
            vars.extend(std::iter::repeat_n(0.5, 10));
            let objs = eval(&p, &vars);
            let r2: f64 = objs.iter().map(|f| f * f).sum();
            assert!((r2 - 1.0).abs() < 1e-10, "|f|² = {r2}");
            assert!(objs.iter().all(|&f| f >= -1e-12));
        }
    }

    #[test]
    fn dtlz2_corner_points() {
        let p = Dtlz::new(DtlzVariant::Dtlz2, 3);
        // pos = (0,0): f = (1, 0, 0).
        let mut vars = vec![0.0, 0.0];
        vars.extend(std::iter::repeat_n(0.5, 10));
        let objs = eval(&p, &vars);
        assert!((objs[0] - 1.0).abs() < 1e-12);
        assert!(objs[1].abs() < 1e-12 && objs[2].abs() < 1e-12);
        // pos = (1, anything): f_2 = ... f with x0 = 1: cos(π/2) = 0 ⇒ f0 = 0.
        let mut vars = vec![1.0, 0.0];
        vars.extend(std::iter::repeat_n(0.5, 10));
        let objs = eval(&p, &vars);
        assert!(objs[0].abs() < 1e-12);
    }

    #[test]
    fn dtlz2_distance_variables_inflate_objectives() {
        let p = Dtlz::dtlz2_5();
        let mut near = vec![0.3; 4];
        near.extend(std::iter::repeat_n(0.5, 10));
        let mut far = vec![0.3; 4];
        far.extend(std::iter::repeat_n(0.9, 10));
        let n: f64 = eval(&p, &near).iter().map(|f| f * f).sum::<f64>();
        let f: f64 = eval(&p, &far).iter().map(|f| f * f).sum::<f64>();
        assert!(f > n, "distance vars must worsen objectives");
    }

    #[test]
    fn dtlz1_optimal_front_is_linear() {
        // With g = 0 (x_M = 0.5), Σ f_i = 0.5.
        let p = Dtlz::new(DtlzVariant::Dtlz1, 3);
        for pos in [[0.2, 0.8], [0.5, 0.5], [0.0, 1.0]] {
            let mut vars = pos.to_vec();
            vars.extend(std::iter::repeat_n(0.5, 5));
            let objs = eval(&p, &vars);
            let sum: f64 = objs.iter().sum();
            assert!((sum - 0.5).abs() < 1e-10, "Σf = {sum}");
        }
    }

    #[test]
    fn dtlz3_reduces_to_sphere_at_optimum() {
        let p = Dtlz::new(DtlzVariant::Dtlz3, 3);
        let mut vars = vec![0.4, 0.6];
        vars.extend(std::iter::repeat_n(0.5, 10));
        let objs = eval(&p, &vars);
        let r2: f64 = objs.iter().map(|f| f * f).sum();
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dtlz3_is_multimodal_away_from_optimum() {
        let p = Dtlz::new(DtlzVariant::Dtlz3, 3);
        let mut vars = vec![0.4, 0.6];
        vars.extend(std::iter::repeat_n(0.0, 10));
        let objs = eval(&p, &vars);
        let r2: f64 = objs.iter().map(|f| f * f).sum::<f64>();
        assert!(r2 > 100.0, "g should be huge at x_M = 0: {r2}");
    }

    #[test]
    fn dtlz4_matches_dtlz2_at_unbiased_points() {
        // x^100 differs from x except at 0/1; at pos ∈ {0,1} they coincide.
        let p2 = Dtlz::new(DtlzVariant::Dtlz2, 3);
        let p4 = Dtlz::new(DtlzVariant::Dtlz4, 3);
        let mut vars = vec![1.0, 0.0];
        vars.extend(std::iter::repeat_n(0.5, 10));
        assert_eq!(eval(&p2, &vars), eval(&p4, &vars));
    }

    #[test]
    fn dtlz5_front_is_degenerate_curve() {
        // At the optimum all θ_j (j ≥ 1) equal π/4, so the front is a curve
        // parameterized by x_0 alone: objectives for two points with equal
        // x_0 but different other pos vars must coincide.
        let p = Dtlz::new(DtlzVariant::Dtlz5, 4);
        let mut v1 = vec![0.3, 0.1, 0.9];
        v1.extend(std::iter::repeat_n(0.5, 10));
        let mut v2 = vec![0.3, 0.7, 0.2];
        v2.extend(std::iter::repeat_n(0.5, 10));
        let o1 = eval(&p, &v1);
        let o2 = eval(&p, &v2);
        for (a, b) in o1.iter().zip(&o2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dtlz6_optimum_is_at_zero_distance_vars() {
        // g6 = Σ x^0.1 is minimized at x = 0.
        let p = Dtlz::new(DtlzVariant::Dtlz6, 3);
        let mut vars = vec![0.5, 0.5];
        vars.extend(std::iter::repeat_n(0.0, 10));
        let objs = eval(&p, &vars);
        let r2: f64 = objs.iter().map(|f| f * f).sum();
        assert!((r2 - 1.0).abs() < 1e-9, "r² = {r2}");
    }

    #[test]
    fn dtlz7_last_objective_combines_first_ones() {
        let p = Dtlz::new(DtlzVariant::Dtlz7, 3);
        let mut vars = vec![0.2, 0.8];
        vars.extend(std::iter::repeat_n(0.0, 20));
        let objs = eval(&p, &vars);
        assert_eq!(objs[0], 0.2);
        assert_eq!(objs[1], 0.8);
        // g = 1 at x_M = 0; h = M − Σ f/(2) (1 + sin 3πf).
        let h = 3.0
            - (0.2 / 2.0 * (1.0 + (3.0 * PI * 0.2).sin())
                + 0.8 / 2.0 * (1.0 + (3.0 * PI * 0.8).sin()));
        assert!((objs[2] - 2.0 * h).abs() < 1e-10);
    }

    /// DTLZ2/3/4 as they were written before the running product: every
    /// objective built alone, `powf` and a trigonometric call per term.
    struct TermByTerm(Dtlz);

    impl Problem for TermByTerm {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn num_variables(&self) -> usize {
            self.0.num_variables()
        }
        fn num_objectives(&self) -> usize {
            self.0.num_objectives()
        }
        fn bounds(&self, i: usize) -> Bounds {
            self.0.bounds(i)
        }
        fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
            let Dtlz { variant, m, .. } = self.0;
            let (pos, xm) = vars.split_at(m - 1);
            let g = if variant == DtlzVariant::Dtlz3 {
                self.0.g1(xm)
            } else {
                self.0.g2(xm)
            };
            let alpha = if variant == DtlzVariant::Dtlz4 {
                100.0
            } else {
                1.0
            };
            for i in 0..m {
                let mut f = 1.0 + g;
                for &x in pos.iter().take(m - 1 - i) {
                    f *= (x.powf(alpha) * FRAC_PI_2).cos();
                }
                if i > 0 {
                    f *= (pos[m - 1 - i].powf(alpha) * FRAC_PI_2).sin();
                }
                objs[i] = f;
            }
        }
    }

    /// `points` random points of `fast`'s domain, one coordinate in eight
    /// on a bound (where an angle is exactly 0 or π/2): both problems must
    /// return the same bits.
    fn assert_same_bits(fast: &dyn Problem, oracle: &dyn Problem, points: usize, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = fast.num_objectives();
        let (mut got, mut want) = (vec![0.0; m], vec![0.0; m]);
        for _ in 0..points {
            let vars: Vec<f64> = (0..fast.num_variables())
                .map(|i| {
                    let b = fast.bounds(i);
                    match rng.gen_range(0..16) {
                        0 => b.lower,
                        1 => b.upper,
                        _ => b.lower + rng.gen::<f64>() * b.range(),
                    }
                })
                .collect();
            fast.evaluate(&vars, &mut got, &mut []);
            oracle.evaluate(&vars, &mut want, &mut []);
            let bits = |objs: &[f64]| objs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{} at {vars:?}", fast.name());
        }
    }

    #[test]
    fn spherical_objectives_are_bit_identical_to_the_term_by_term_form() {
        for variant in [DtlzVariant::Dtlz2, DtlzVariant::Dtlz3, DtlzVariant::Dtlz4] {
            for m in [2, 3, 5] {
                let p = Dtlz::new(variant, m);
                assert_same_bits(&p, &TermByTerm(p.clone()), 10_000, 2013 + m as u64);
            }
        }
        // UF11: the same kernel behind a rotation and objective scales.
        let uf11 = crate::uf::uf11();
        let oracle = crate::rotation::RotatedProblem::new(
            TermByTerm(uf11.inner().clone()),
            crate::uf::UF_ROTATION_SEED,
        )
        .with_objective_scales(uf11.objective_scales().to_vec());
        assert_same_bits(&uf11, &oracle, 10_000, 11);
    }

    #[test]
    fn objectives_are_finite_on_random_inputs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for variant in [
            DtlzVariant::Dtlz1,
            DtlzVariant::Dtlz2,
            DtlzVariant::Dtlz3,
            DtlzVariant::Dtlz4,
            DtlzVariant::Dtlz5,
            DtlzVariant::Dtlz6,
            DtlzVariant::Dtlz7,
        ] {
            let p = Dtlz::new(variant, 5);
            for _ in 0..100 {
                let vars: Vec<f64> = (0..p.num_variables()).map(|_| rng.gen()).collect();
                let objs = eval(&p, &vars);
                assert!(
                    objs.iter().all(|f| f.is_finite()),
                    "{variant:?} produced NaN"
                );
            }
        }
    }
}
