//! DTLZ2 (Deb, Thiele, Laumanns & Zitzler, CEC 2002).
//!
//! The paper's primary workload is the 5-objective DTLZ2, a separable
//! problem considered easy for MOEAs; its Pareto front is the positive
//! orthant of the unit hypersphere.
//!
//! Conventions: `m` objectives, `k` distance variables (10 by default),
//! `L = m − 1 + k` decision variables in `[0, 1]`.

use borg_core::matrix::ObjectiveMatrix;
use borg_core::problem::{batch_eval_loop, Bounds, Problem};
use std::f64::consts::FRAC_PI_2;

/// Which DTLZ instance. DTLZ2 is the one the paper runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtlzVariant {
    /// Spherical front, unimodal; the paper's "simple" problem.
    Dtlz2,
}

/// A DTLZ2 instance.
#[derive(Debug, Clone)]
pub struct Dtlz {
    m: usize,
    k: usize,
    name: String,
}

impl Dtlz {
    /// Creates a DTLZ instance with `m` objectives and the standard ten
    /// distance variables.
    pub fn new(variant: DtlzVariant, m: usize) -> Self {
        match variant {
            DtlzVariant::Dtlz2 => Self::with_k(m, 10),
        }
    }

    /// Creates a DTLZ2 instance with an explicit distance-variable count.
    pub fn with_k(m: usize, k: usize) -> Self {
        assert!(m >= 2, "DTLZ needs at least two objectives");
        assert!(k >= 1, "DTLZ needs at least one distance variable");
        Self {
            m,
            k,
            name: format!("DTLZ2_{m}"),
        }
    }

    /// The 5-objective DTLZ2 used throughout the paper.
    pub fn dtlz2_5() -> Self {
        Self::new(DtlzVariant::Dtlz2, 5)
    }

    fn g(xm: &[f64]) -> f64 {
        // Unimodal spherical distance function.
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
        // f_i = (1 + g) · cos θ_0 ⋯ cos θ_{m−2−i} · sin θ_{m−1−i}: one
        // running product of cosines, left to right, serves every
        // objective, so each angle's cos and sin are taken once and each
        // f_i is the same chain of multiplications as if it had been built
        // alone.
        let mut product = 1.0 + Self::g(xm);
        for (j, &x) in pos.iter().enumerate() {
            let theta = x * FRAC_PI_2;
            objs[m - 1 - j] = product * theta.sin();
            product *= theta.cos();
        }
        objs[0] = product;
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
        let p = Dtlz::with_k(3, 4);
        assert_eq!(p.num_variables(), 6); // 2 + 4
        assert_eq!(p.name(), "DTLZ2_3");
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

    /// DTLZ2 as it was written before the running product: every
    /// objective built alone, a trigonometric call per term.
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
            let m = self.0.m;
            let (pos, xm) = vars.split_at(m - 1);
            let g = Dtlz::g(xm);
            for i in 0..m {
                let mut f = 1.0 + g;
                for &x in pos.iter().take(m - 1 - i) {
                    f *= (x * FRAC_PI_2).cos();
                }
                if i > 0 {
                    f *= (pos[m - 1 - i] * FRAC_PI_2).sin();
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
        for m in [2, 3, 5] {
            let p = Dtlz::new(DtlzVariant::Dtlz2, m);
            assert_same_bits(&p, &TermByTerm(p.clone()), 10_000, 2013 + m as u64);
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
        let p = Dtlz::dtlz2_5();
        for _ in 0..100 {
            let vars: Vec<f64> = (0..p.num_variables()).map(|_| rng.gen()).collect();
            assert!(eval(&p, &vars).iter().all(|f| f.is_finite()));
        }
    }
}
