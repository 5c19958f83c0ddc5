//! UF11 of the CEC 2009 test suite (Zhang et al., tech. report CES-487):
//! the paper's "hard" problem, a rotated, scaled 5-objective DTLZ2 (the
//! official name is `R2_DTLZ2_M5`). We build it from `RotatedProblem`
//! with a fixed seed; see DESIGN.md §2 for why this substitution
//! preserves the relevant behaviour.

use crate::dtlz::{Dtlz, DtlzVariant};
use crate::rotation::RotatedProblem;

/// The seed fixing the UF11 rotation matrix (stands in for the CEC'09
/// data files; any fixed dense rotation works — see DESIGN.md §2).
pub(crate) const UF_ROTATION_SEED: u64 = 0x2009_CEC0;

/// UF11: the rotated, scaled 5-objective DTLZ2 (`R2_DTLZ2_M5`) used as the
/// paper's non-separable hard problem.
///
/// Objective scales follow the CEC'09 convention of non-uniform objective
/// magnitudes; dominance structure (and thus algorithm behaviour) is
/// unaffected, and the normalized hypervolume pipeline in `borg-metrics`
/// removes the scaling again.
pub fn uf11() -> RotatedProblem<Dtlz> {
    RotatedProblem::new(Dtlz::new(DtlzVariant::Dtlz2, 5), UF_ROTATION_SEED)
        .with_objective_scales(vec![1.0, 2.0, 3.0, 4.0, 5.0])
        .named("UF11")
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_core::problem::Problem;

    #[test]
    fn uf11_is_five_objective_nonseparable() {
        let p = uf11();
        assert_eq!(p.name(), "UF11");
        assert_eq!(p.num_objectives(), 5);
        assert_eq!(p.num_variables(), 14);
        assert_eq!(p.objective_scales(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn uf11_is_deterministic() {
        let a = uf11();
        let b = uf11();
        let vars: Vec<f64> = (0..14).map(|i| 0.1 * i as f64 - 0.3).collect();
        let mut oa = vec![0.0; 5];
        let mut ob = vec![0.0; 5];
        a.evaluate(&vars, &mut oa, &mut []);
        b.evaluate(&vars, &mut ob, &mut []);
        assert_eq!(oa, ob);
    }
}
