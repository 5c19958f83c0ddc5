//! Small classic bi-objective problems used by examples and smoke tests.

use borg_core::problem::{Bounds, Problem};

/// Schaffer's problem: minimize `(x², (x − 2)²)` over `x ∈ [−10, 10]`.
/// Pareto set: `x ∈ [0, 2]`.
#[derive(Debug, Clone, Default)]
pub struct Schaffer;

impl Problem for Schaffer {
    fn name(&self) -> &str {
        "Schaffer"
    }
    fn num_variables(&self) -> usize {
        1
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn bounds(&self, _i: usize) -> Bounds {
        Bounds::new(-10.0, 10.0)
    }
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
        objs[0] = vars[0] * vars[0];
        objs[1] = (vars[0] - 2.0) * (vars[0] - 2.0);
    }
}

/// Fonseca–Fleming: two Gaussian-bump objectives, concave front.
#[derive(Debug, Clone)]
pub struct Fonseca {
    n: usize,
}

impl Fonseca {
    /// Standard 3-variable instance.
    pub fn new() -> Self {
        Self { n: 3 }
    }
}

impl Default for Fonseca {
    fn default() -> Self {
        Self::new()
    }
}

impl Problem for Fonseca {
    fn name(&self) -> &str {
        "Fonseca"
    }
    fn num_variables(&self) -> usize {
        self.n
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn bounds(&self, _i: usize) -> Bounds {
        Bounds::new(-4.0, 4.0)
    }
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
        let inv = 1.0 / (self.n as f64).sqrt();
        let s1: f64 = vars.iter().map(|x| (x - inv) * (x - inv)).sum();
        let s2: f64 = vars.iter().map(|x| (x + inv) * (x + inv)).sum();
        objs[0] = 1.0 - (-s1).exp();
        objs[1] = 1.0 - (-s2).exp();
    }
}

/// A constrained bi-objective problem (Binh & Korn 1997) exercising the
/// constraint-handling paths: two quadratic objectives with two inequality
/// constraints.
#[derive(Debug, Clone, Default)]
pub struct BinhKorn;

impl Problem for BinhKorn {
    fn name(&self) -> &str {
        "BinhKorn"
    }
    fn num_variables(&self) -> usize {
        2
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn num_constraints(&self) -> usize {
        2
    }
    fn bounds(&self, i: usize) -> Bounds {
        if i == 0 {
            Bounds::new(0.0, 5.0)
        } else {
            Bounds::new(0.0, 3.0)
        }
    }
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]) {
        let (x, y) = (vars[0], vars[1]);
        objs[0] = 4.0 * x * x + 4.0 * y * y;
        objs[1] = (x - 5.0) * (x - 5.0) + (y - 5.0) * (y - 5.0);
        // g1: (x−5)² + y² ≤ 25  → violation when positive.
        cons[0] = (x - 5.0) * (x - 5.0) + y * y - 25.0;
        // g2: (x−8)² + (y+3)² ≥ 7.7.
        cons[1] = 7.7 - ((x - 8.0) * (x - 8.0) + (y + 3.0) * (y + 3.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_core::prelude::*;

    #[test]
    fn schaffer_pareto_points() {
        let p = Schaffer;
        let mut o = [0.0; 2];
        p.evaluate(&[0.0], &mut o, &mut []);
        assert_eq!(o, [0.0, 4.0]);
        p.evaluate(&[2.0], &mut o, &mut []);
        assert_eq!(o, [4.0, 0.0]);
        p.evaluate(&[1.0], &mut o, &mut []);
        assert_eq!(o, [1.0, 1.0]);
    }

    #[test]
    fn fonseca_objectives_bounded_in_unit_interval() {
        use rand::{Rng, SeedableRng};
        let p = Fonseca::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let vars: Vec<f64> = (0..3).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let mut o = [0.0; 2];
            p.evaluate(&vars, &mut o, &mut []);
            assert!(o.iter().all(|&f| (0.0..=1.0).contains(&f)));
        }
    }

    #[test]
    fn binh_korn_constraint_signs() {
        let p = BinhKorn;
        let mut o = [0.0; 2];
        let mut c = [0.0; 2];
        // (0,0): g1 = 25 − 25 = 0 OK; g2: 7.7 − (64 + 9) < 0 OK.
        p.evaluate(&[0.0, 0.0], &mut o, &mut c);
        assert!(c[0] <= 0.0 && c[1] <= 0.0);
        // (5,3): g1 = 0 + 9 − 25 < 0 OK; g2 = 7.7 − (9 + 36) < 0 OK.
        p.evaluate(&[5.0, 3.0], &mut o, &mut c);
        assert!(c[0] <= 0.0 && c[1] <= 0.0);
    }

    #[test]
    fn borg_solves_schaffer() {
        let engine = run_serial(&Schaffer, BorgConfig::new(2, 0.05), 1, 3000, |_| {});
        // Archive solutions should have x in [0, 2] (the Pareto set).
        for s in engine.archive().members() {
            let x = s.variables()[0];
            assert!((-0.15..=2.15).contains(&x), "x = {x} off the Pareto set");
        }
        assert!(engine.archive().len() > 10);
    }

    #[test]
    fn borg_finds_feasible_solutions_on_binh_korn() {
        let engine = run_serial(&BinhKorn, BorgConfig::new(2, 1.0), 2, 3000, |_| {});
        assert!(!engine.archive().is_empty());
        for s in engine.archive().members() {
            assert!(s.is_feasible(), "archive kept infeasible solution");
        }
    }
}
