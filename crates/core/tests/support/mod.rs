//! The oracle of `archive_differential.rs`.

use borg_core::archive::ArchiveInsert;
use borg_core::dominance::{constrained_dominance, epsilon_box, Dominance};
use borg_core::solution::Solution;

/// The linear-scan ε-archive: every candidate compares against every
/// resident's integer box key, one member at a time, in member order.
///
/// Byte-for-byte the decision procedure `EpsilonArchive` started from. The
/// differential tests drive both with the same insertion streams and
/// require identical decisions, counters, and final member ordering.
#[derive(Debug, Clone)]
pub struct LinearScanArchive {
    epsilons: Vec<f64>,
    solutions: Vec<Solution>,
    boxes: Vec<Vec<i64>>,
    improvements: u64,
    accepts: u64,
    rejects: u64,
}

impl LinearScanArchive {
    /// Creates an empty linear-scan archive with per-objective ε values.
    pub fn new(epsilons: Vec<f64>) -> Self {
        assert!(!epsilons.is_empty(), "need at least one epsilon");
        assert!(
            epsilons.iter().all(|&e| e > 0.0 && e.is_finite()),
            "epsilons must be positive and finite"
        );
        Self {
            epsilons,
            solutions: Vec::new(),
            boxes: Vec::new(),
            improvements: 0,
            accepts: 0,
            rejects: 0,
        }
    }

    /// Current archive members.
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Number of archive members.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// ε-progress counter.
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// Total accepted insertions.
    pub fn accepts(&self) -> u64 {
        self.accepts
    }

    /// Total rejected insertions.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Empties the archive content but keeps the counters.
    pub fn clear_solutions(&mut self) {
        self.solutions.clear();
        self.boxes.clear();
    }

    /// Attempts to insert a solution (the original O(n)-scan procedure).
    pub fn add(&mut self, solution: Solution) -> ArchiveInsert {
        debug_assert_eq!(solution.num_objectives(), self.epsilons.len());

        if !self.solutions.is_empty() {
            let archive_feasible = self.solutions[0].is_feasible();
            let sol_feasible = solution.is_feasible();
            match (archive_feasible, sol_feasible) {
                (true, false) => {
                    self.rejects += 1;
                    return ArchiveInsert::Rejected;
                }
                (false, true) => {
                    self.solutions.clear();
                    self.boxes.clear();
                    self.boxes
                        .push(epsilon_box(solution.objectives(), &self.epsilons));
                    self.solutions.push(solution);
                    self.improvements += 1;
                    self.accepts += 1;
                    return ArchiveInsert::AddedNewBox;
                }
                (false, false) => {
                    let cur = self.solutions[0].constraint_violation();
                    let new = solution.constraint_violation();
                    if new < cur {
                        self.boxes[0] = epsilon_box(solution.objectives(), &self.epsilons);
                        self.solutions[0] = solution;
                        self.accepts += 1;
                        return ArchiveInsert::ReplacedInBox;
                    }
                    self.rejects += 1;
                    return ArchiveInsert::Rejected;
                }
                (true, true) => {}
            }
        } else if !solution.is_feasible() {
            self.boxes
                .push(epsilon_box(solution.objectives(), &self.epsilons));
            self.solutions.push(solution);
            self.accepts += 1;
            return ArchiveInsert::AddedNewBox;
        }

        let sbox = epsilon_box(solution.objectives(), &self.epsilons);

        // Pass 1: determine the solution's fate against every member.
        let mut same_box: Option<usize> = None;
        let mut dominated_members: Vec<usize> = Vec::new();
        for (i, mbox) in self.boxes.iter().enumerate() {
            let mut s_better = false;
            let mut m_better = false;
            for (&sb, &mb) in sbox.iter().zip(mbox) {
                if sb < mb {
                    s_better = true;
                } else if mb < sb {
                    m_better = true;
                }
            }
            match (s_better, m_better) {
                (false, false) => {
                    same_box = Some(i);
                    break;
                }
                (true, false) => dominated_members.push(i),
                (false, true) => {
                    self.rejects += 1;
                    return ArchiveInsert::Rejected;
                }
                (true, true) => {}
            }
        }

        if let Some(i) = same_box {
            let incumbent = &self.solutions[i];
            let better = match constrained_dominance(&solution, incumbent) {
                Dominance::Dominates => true,
                Dominance::DominatedBy => false,
                Dominance::NonDominated => {
                    let corner: Vec<f64> = sbox
                        .iter()
                        .zip(&self.epsilons)
                        .map(|(&b, &e)| b as f64 * e)
                        .collect();
                    let d = |s: &Solution| {
                        s.objectives()
                            .iter()
                            .zip(&corner)
                            .map(|(o, c)| (o - c) * (o - c))
                            .sum::<f64>()
                    };
                    d(&solution) < d(incumbent)
                }
            };
            if better {
                self.solutions[i] = solution;
                self.accepts += 1;
                ArchiveInsert::ReplacedInBox
            } else {
                self.rejects += 1;
                ArchiveInsert::Rejected
            }
        } else {
            for &i in dominated_members.iter().rev() {
                self.solutions.swap_remove(i);
                self.boxes.swap_remove(i);
            }
            self.solutions.push(solution);
            self.boxes.push(sbox);
            self.improvements += 1;
            self.accepts += 1;
            ArchiveInsert::AddedNewBox
        }
    }
}
