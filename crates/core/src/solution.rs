//! Candidate solutions: decision variables plus evaluation results.

/// A fully- or not-yet-evaluated candidate solution.
///
/// Variables are always present; objectives/constraints are filled in by an
/// evaluator. The `operator` tag records which variation operator produced
/// the solution so the Borg MOEA can credit archive contributions back to
/// operators (the core of its auto-adaptive ensemble).
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

    /// Mutable decision-variable vector.
    pub fn variables_mut(&mut self) -> &mut [f64] {
        &mut self.variables
    }

    /// Objective vector (minimization).
    pub fn objectives(&self) -> &[f64] {
        &self.objectives
    }

    /// Mutable objective vector.
    pub fn objectives_mut(&mut self) -> &mut [f64] {
        &mut self.objectives
    }

    /// Constraint vector (`<= 0` is feasible).
    pub fn constraints(&self) -> &[f64] {
        &self.constraints
    }

    /// Mutable constraint vector.
    pub fn constraints_mut(&mut self) -> &mut [f64] {
        &mut self.constraints
    }

    /// Simultaneous mutable access to objectives and constraints.
    pub fn objectives_constraints_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.objectives, &mut self.constraints)
    }

    /// Sum of positive constraint values: 0.0 iff feasible.
    ///
    /// This is the aggregate used by Borg's constrained-dominance comparator:
    /// any solution with smaller total violation is preferred, and objectives
    /// are only compared between two feasible solutions.
    pub fn constraint_violation(&self) -> f64 {
        self.constraints.iter().filter(|&&c| c > 0.0).sum()
    }

    /// Whether all constraints are satisfied.
    pub fn is_feasible(&self) -> bool {
        self.constraints.iter().all(|&c| c <= 0.0)
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
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (self.variables, self.objectives, self.constraints)
    }

    /// Euclidean distance between the objective vectors of two solutions.
    pub fn objective_distance(&self, other: &Self) -> f64 {
        debug_assert_eq!(self.objectives.len(), other.objectives.len());
        self.objectives
            .iter()
            .zip(&other.objectives)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Which of a [`Solution`]'s three buffers a pooled buffer was and will
/// again be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
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
/// Every retired [`Solution`] — a displaced or rejected offspring, an
/// evicted archive member, the whole population at a restart — returns its
/// three buffers here, and every new candidate, evaluated result and
/// archive copy draws its buffers from here, so a settled run allocates
/// nothing per candidate. Buffers are pooled per [`Role`]: a retired
/// constraints buffer (capacity zero for an unconstrained problem) is never
/// handed out as the next variables buffer, which would have to grow.
#[derive(Debug, Default, Clone)]
pub struct SolutionArena {
    pools: [Vec<Vec<f64>>; 3],
    hits: u64,
    misses: u64,
}

impl SolutionArena {
    /// Buffers pooled per role; beyond it returned buffers are simply freed.
    /// Enough for a minimum-size population retired at once (a restart
    /// under a small archive, every stagnation window of such a run) and
    /// small enough that a full pool is a few dozen KiB.
    const MAX_POOLED: usize = 256;

    /// Takes an empty buffer of `role` from the pool, or a fresh one.
    pub fn take(&mut self, role: Role) -> Vec<f64> {
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
    pub fn give(&mut self, role: Role, mut buf: Vec<f64>) {
        let pool = &mut self.pools[role as usize];
        if pool.len() < Self::MAX_POOLED {
            buf.clear();
            pool.push(buf);
        }
    }

    /// Recycles all three buffers of a retired solution.
    pub fn recycle(&mut self, solution: Solution) {
        let (vars, objs, cons) = solution.into_parts();
        self.give(Role::Variables, vars);
        self.give(Role::Objectives, objs);
        self.give(Role::Constraints, cons);
    }

    /// A buffer of `role` holding a copy of `values`.
    pub fn filled(&mut self, role: Role, values: &[f64]) -> Vec<f64> {
        let mut buf = self.take(role);
        buf.extend_from_slice(values);
        buf
    }

    /// A copy of `source` in recycled buffers: what `source.clone()`
    /// returns, without its three allocations while the pool has buffers.
    pub fn copy_of(&mut self, source: &Solution) -> Solution {
        let mut solution = Solution::from_parts(
            self.filled(Role::Variables, source.variables()),
            self.filled(Role::Objectives, source.objectives()),
            self.filled(Role::Constraints, source.constraints()),
        );
        solution.operator = source.operator;
        solution
    }

    /// `(pool hits, pool misses)` across all [`take`](Self::take) calls.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_keeps_roles_apart_and_copies_bit_for_bit() {
        let mut arena = SolutionArena::default();
        let mut original = Solution::from_parts(vec![1.0, 2.0, 3.0], vec![f64::NAN, -0.0], vec![]);
        original.operator = Some(4);
        arena.recycle(original.clone());
        // The retired constraints buffer has no capacity; the next
        // variables buffer must not be it.
        assert_eq!(arena.take(Role::Variables).capacity(), 3);
        assert_eq!(arena.take(Role::Constraints).capacity(), 0);
        arena.recycle(original.clone());
        let copy = arena.copy_of(&original);
        let bits = |s: &Solution| -> Vec<u64> {
            let values = s.variables().iter().chain(s.objectives());
            values.chain(s.constraints()).map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&copy), bits(&original));
        assert_eq!(copy.operator, Some(4));
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
    fn objective_distance_is_euclidean() {
        let a = Solution::from_parts(vec![], vec![0.0, 0.0], vec![]);
        let b = Solution::from_parts(vec![], vec![3.0, 4.0], vec![]);
        assert!((a.objective_distance(&b) - 5.0).abs() < 1e-12);
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
