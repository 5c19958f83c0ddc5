//! A small constrained problem: the one end-to-end run of Borg's
//! constraint handling.

use borg_core::problem::{Bounds, Problem};

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
    fn borg_finds_feasible_solutions_on_binh_korn() {
        let engine = run_serial(&BinhKorn, BorgConfig::new(2, 1.0), 2, 3000, |_| {});
        assert!(!engine.archive().is_empty());
        for s in engine.archive().members() {
            assert!(s.is_feasible(), "archive kept infeasible solution");
        }
    }
}
