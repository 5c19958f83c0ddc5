//! The paper's two workloads (5-objective DTLZ2 and UF11) packaged with
//! their archive ε values and reference fronts.

use borg_core::algorithm::BorgConfig;
use borg_core::problem::Problem;
use borg_problems::dtlz::Dtlz;
use borg_problems::refsets::{dtlz2_front, uf11_front};
use borg_problems::uf::uf11;

/// Which paper workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperProblem {
    /// 5-objective DTLZ2 — separable, "easy".
    Dtlz2,
    /// UF11 (rotated, scaled 5-objective DTLZ2) — non-separable, "hard".
    Uf11,
}

impl PaperProblem {
    /// Both workloads, in the paper's order.
    pub fn all() -> [PaperProblem; 2] {
        [PaperProblem::Dtlz2, PaperProblem::Uf11]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PaperProblem::Dtlz2 => "DTLZ2",
            PaperProblem::Uf11 => "UF11",
        }
    }

    /// Builds the problem instance.
    pub fn build(self) -> Box<dyn Problem> {
        match self {
            PaperProblem::Dtlz2 => Box::new(Dtlz::dtlz2_5()),
            PaperProblem::Uf11 => Box::new(uf11()),
        }
    }

    /// Archive ε values. Both problems use a *uniform* ε (Borg's default):
    /// because UF11's objectives are scaled up by factors 1–5, a uniform ε
    /// resolves its front more finely, giving UF11 a larger archive and a
    /// larger `T_A` than DTLZ2 — reproducing the paper's Table II ordering
    /// (UF11 `T_A` ≈ 2× DTLZ2's).
    pub fn epsilons(self, base: f64) -> Vec<f64> {
        let _ = self;
        vec![base; 5]
    }

    /// Borg configuration for this workload.
    pub fn borg_config(self, base_epsilon: f64) -> BorgConfig {
        let mut cfg = BorgConfig::new(5, base_epsilon);
        cfg.epsilons = self.epsilons(base_epsilon);
        cfg
    }

    /// Analytic reference front sampled from a Das–Dennis lattice
    /// (`REF_DIVISIONS` for every hypervolume the experiments report).
    pub fn reference_front(self, divisions: usize) -> Vec<Vec<f64>> {
        match self {
            PaperProblem::Dtlz2 => dtlz2_front(5, divisions),
            PaperProblem::Uf11 => uf11_front(divisions),
        }
    }
}

/// Das–Dennis lattice divisions of the reference front behind every
/// hypervolume ratio the experiments report.
pub(crate) const REF_DIVISIONS: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_problems_build_with_five_objectives() {
        for p in PaperProblem::all() {
            let problem = p.build();
            assert_eq!(problem.num_objectives(), 5);
            assert_eq!(problem.num_variables(), 14);
        }
    }

    #[test]
    fn epsilons_are_uniform_borg_default() {
        let e = PaperProblem::Uf11.epsilons(0.1);
        assert_eq!(e, vec![0.1; 5]);
        let cfg = PaperProblem::Uf11.borg_config(0.1);
        assert_eq!(cfg.epsilons, e);
        assert_eq!(PaperProblem::Dtlz2.epsilons(0.1), vec![0.1; 5]);
    }

    #[test]
    fn reference_fronts_are_consistent_with_problems() {
        for p in PaperProblem::all() {
            let front = p.reference_front(4);
            assert!(!front.is_empty());
            assert!(front.iter().all(|pt| pt.len() == 5));
        }
    }
}
