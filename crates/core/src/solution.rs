//! Candidate solutions: decision variables plus evaluation results.

/// A fully- or not-yet-evaluated candidate solution.
///
/// Variables are always present; objectives/constraints are filled in by an
/// evaluator. The `operator` tag records which variation operator produced
/// the solution so the Borg MOEA can credit archive contributions back to
/// operators (the core of its auto-adaptive ensemble). The archive and the
/// population copy a candidate's rows into their own matrices ([`Member`]
/// reads them back); they keep neither the `Solution` nor its tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    variables: Vec<f64>,
    objectives: Vec<f64>,
    constraints: Vec<f64>,
    /// Index of the variation operator that produced this solution, if any.
    pub operator: Option<usize>,
}

impl Solution {
    /// Creates an unevaluated solution with zeroed objectives/constraints.
    pub fn new(variables: Vec<f64>, num_objectives: usize, num_constraints: usize) -> Self {
        Self {
            variables,
            objectives: vec![0.0; num_objectives],
            constraints: vec![0.0; num_constraints],
            operator: None,
        }
    }

    /// Assembles a solution from already-evaluated parts.
    pub fn from_parts(variables: Vec<f64>, objectives: Vec<f64>, constraints: Vec<f64>) -> Self {
        Self {
            variables,
            objectives,
            constraints,
            operator: None,
        }
    }

    /// Decision-variable vector.
    pub fn variables(&self) -> &[f64] {
        &self.variables
    }

    /// Objective vector (minimization).
    pub fn objectives(&self) -> &[f64] {
        &self.objectives
    }

    /// Constraint vector (`<= 0` is feasible).
    pub fn constraints(&self) -> &[f64] {
        &self.constraints
    }

    /// Sum of positive constraint values: 0.0 iff feasible.
    ///
    /// This is the aggregate used by Borg's constrained-dominance comparator:
    /// any solution with smaller total violation is preferred, and objectives
    /// are only compared between two feasible solutions.
    pub fn constraint_violation(&self) -> f64 {
        self.as_member().constraint_violation()
    }

    /// Whether all constraints are satisfied.
    pub fn is_feasible(&self) -> bool {
        self.as_member().is_feasible()
    }

    /// The solution's three rows, as the stores take them.
    pub(crate) fn as_member(&self) -> Member<'_> {
        Member::new(&self.variables, &self.objectives, &self.constraints)
    }

    /// Number of decision variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of objectives.
    pub fn num_objectives(&self) -> usize {
        self.objectives.len()
    }

    /// Decomposes the solution into its three owned buffers
    /// `(variables, objectives, constraints)` so a retired solution's
    /// allocations can be recycled through an arena instead of freed.
    pub(crate) fn into_parts(self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (self.variables, self.objectives, self.constraints)
    }
}

/// A borrowed member: its variables, objectives and constraints as slices.
///
/// The archive and the population keep their members as rows of matrices,
/// not as [`Solution`]s; this is how a member is read out of the archive
/// (`EpsilonArchive::member`) and
/// how a candidate is handed to either store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Member<'a> {
    variables: &'a [f64],
    objectives: &'a [f64],
    constraints: &'a [f64],
}

impl<'a> Member<'a> {
    /// A member made of three rows.
    pub fn new(variables: &'a [f64], objectives: &'a [f64], constraints: &'a [f64]) -> Self {
        Self {
            variables,
            objectives,
            constraints,
        }
    }

    /// Decision variables.
    pub fn variables(&self) -> &'a [f64] {
        self.variables
    }

    /// Objective values (minimization).
    pub fn objectives(&self) -> &'a [f64] {
        self.objectives
    }

    /// Constraint values (`<= 0` is feasible).
    pub fn constraints(&self) -> &'a [f64] {
        self.constraints
    }

    /// Sum of positive constraint values, as
    /// [`Solution::constraint_violation`].
    pub fn constraint_violation(&self) -> f64 {
        violation(self.constraints)
    }

    /// Whether all constraints are satisfied.
    pub fn is_feasible(&self) -> bool {
        self.constraints.iter().all(|&c| c <= 0.0)
    }
}

/// The aggregate constraint violation of a constraint row: the sum of its
/// positive values (a NaN is not one).
pub(crate) fn violation(constraints: &[f64]) -> f64 {
    constraints.iter().filter(|&&c| c > 0.0).sum()
}

/// Which of a [`Solution`]'s three buffers a pooled buffer was and will
/// again be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Decision variables.
    Variables,
    /// Objective values.
    Objectives,
    /// Constraint values.
    Constraints,
}

/// Recycling pool for the per-candidate heap buffers that circulate through
/// the engine.
///
/// A [`Solution`] lives only between `produce` and `consume`: once the
/// archive and the population have copied its rows into their matrices, its
/// three buffers return here, and every new candidate and evaluated result
/// draws its buffers from here, so a settled run allocates nothing per
/// candidate. Buffers are pooled per [`Role`]: a retired constraints buffer
/// (capacity zero for an unconstrained problem) is never handed out as the
/// next variables buffer, which would have to grow.
#[derive(Debug, Default, Clone)]
pub(crate) struct SolutionArena {
    pools: [Vec<Vec<f64>>; 3],
    hits: u64,
    misses: u64,
}

impl SolutionArena {
    /// Buffers pooled per role; beyond it returned buffers are simply freed.
    /// Every candidate takes its buffers before it returns them, so the
    /// pool holds about as many as the caller has candidates in flight;
    /// the cap keeps a full pool to a few dozen KiB.
    const MAX_POOLED: usize = 256;

    /// Takes an empty buffer of `role` from the pool, or a fresh one.
    pub(crate) fn take(&mut self, role: Role) -> Vec<f64> {
        match self.pools[role as usize].pop() {
            Some(buf) => {
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to `role`'s pool (cleared, allocation kept).
    pub(crate) fn give(&mut self, role: Role, mut buf: Vec<f64>) {
        let pool = &mut self.pools[role as usize];
        if pool.len() < Self::MAX_POOLED {
            buf.clear();
            pool.push(buf);
        }
    }

    /// Recycles all three buffers of a retired solution.
    pub(crate) fn recycle(&mut self, solution: Solution) {
        let (vars, objs, cons) = solution.into_parts();
        self.give(Role::Variables, vars);
        self.give(Role::Objectives, objs);
        self.give(Role::Constraints, cons);
    }

    /// A buffer of `role` holding a copy of `values`.
    pub(crate) fn filled(&mut self, role: Role, values: &[f64]) -> Vec<f64> {
        let mut buf = self.take(role);
        buf.extend_from_slice(values);
        buf
    }

    /// `(pool hits, pool misses)` across all [`take`](Self::take) calls.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_keeps_roles_apart_and_copies_bit_for_bit() {
        let mut arena = SolutionArena::default();
        let original = Solution::from_parts(vec![1.0, 2.0, 3.0], vec![f64::NAN, -0.0], vec![]);
        arena.recycle(original.clone());
        // The retired constraints buffer has no capacity; the next
        // variables buffer must not be it.
        assert_eq!(arena.take(Role::Variables).capacity(), 3);
        assert_eq!(arena.take(Role::Constraints).capacity(), 0);
        arena.recycle(original.clone());
        let copy = Solution::from_parts(
            arena.filled(Role::Variables, original.variables()),
            arena.filled(Role::Objectives, original.objectives()),
            arena.filled(Role::Constraints, original.constraints()),
        );
        let bits = |s: Member<'_>| -> Vec<u64> {
            let values = s.variables().iter().chain(s.objectives());
            values.chain(s.constraints()).map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(copy.as_member()), bits(original.as_member()));
        // Two takes before, three for the copy; only the objectives buffer
        // of the first recycle was never asked for again.
        assert_eq!(arena.stats(), (5, 0));
    }

    #[test]
    fn violation_sums_only_positive_constraints() {
        let s = Solution::from_parts(vec![0.0], vec![0.0], vec![-1.0, 0.5, 0.0, 2.0]);
        assert!((s.constraint_violation() - 2.5).abs() < 1e-12);
        assert!(!s.is_feasible());
    }

    #[test]
    fn feasible_when_all_nonpositive() {
        let s = Solution::from_parts(vec![0.0], vec![0.0], vec![-1.0, 0.0]);
        assert_eq!(s.constraint_violation(), 0.0);
        assert!(s.is_feasible());
    }

    #[test]
    fn no_constraints_is_feasible() {
        let s = Solution::new(vec![1.0, 2.0], 2, 0);
        assert!(s.is_feasible());
        assert_eq!(s.num_variables(), 2);
        assert_eq!(s.num_objectives(), 2);
    }

    #[test]
    fn operator_tag_roundtrip() {
        let mut s = Solution::new(vec![0.0], 1, 0);
        assert_eq!(s.operator, None);
        s.operator = Some(3);
        let t = s.clone();
        assert_eq!(t.operator, Some(3));
    }
}
