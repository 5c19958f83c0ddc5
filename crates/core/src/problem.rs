//! The optimization problem abstraction.
//!
//! A [`Problem`] is a real-valued, box-constrained, multiobjective
//! minimization problem, optionally with inequality constraints. All
//! objectives are minimized; constraints are satisfied when their value is
//! `<= 0` (the MOEA framework convention used by Borg).

use crate::matrix::ObjectiveMatrix;

/// Inclusive lower/upper bounds of one decision variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Inclusive lower bound.
    pub lower: f64,
    /// Inclusive upper bound.
    pub upper: f64,
}

impl Bounds {
    /// Creates a bounds pair, panicking on an inverted or non-finite range.
    pub fn new(lower: f64, upper: f64) -> Self {
        assert!(
            lower.is_finite() && upper.is_finite() && lower <= upper,
            "invalid variable bounds [{lower}, {upper}]"
        );
        Self { lower, upper }
    }

    /// The unit interval `[0, 1]`, the most common bound in test suites.
    pub fn unit() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Width of the interval.
    pub fn range(&self) -> f64 {
        self.upper - self.lower
    }

    /// Clamps `x` into the interval.
    pub fn clamp(&self, x: f64) -> f64 {
        x.clamp(self.lower, self.upper)
    }

    /// Whether `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower && x <= self.upper
    }
}

/// A real-valued multiobjective minimization problem.
///
/// Implementations must be `Send + Sync`: the parallel executors ship
/// references to worker threads. Evaluation writes objectives (and
/// constraints, if any) into the provided output slices so that hot loops
/// never allocate.
///
/// # Example
///
/// ```
/// use borg_core::problem::{Bounds, Problem};
///
/// /// Minimize (x^2, (x-2)^2): the classic Schaffer problem.
/// struct Schaffer;
///
/// impl Problem for Schaffer {
///     fn name(&self) -> &str { "Schaffer" }
///     fn num_variables(&self) -> usize { 1 }
///     fn num_objectives(&self) -> usize { 2 }
///     fn bounds(&self, _i: usize) -> Bounds { Bounds::new(-10.0, 10.0) }
///     fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
///         objs[0] = vars[0] * vars[0];
///         objs[1] = (vars[0] - 2.0) * (vars[0] - 2.0);
///     }
/// }
///
/// let p = Schaffer;
/// let mut objs = [0.0; 2];
/// p.evaluate(&[1.0], &mut objs, &mut []);
/// assert_eq!(objs, [1.0, 1.0]);
/// ```
pub trait Problem: Send + Sync {
    /// Human-readable problem name (used in reports).
    fn name(&self) -> &str;

    /// Number of decision variables `L`.
    fn num_variables(&self) -> usize;

    /// Number of objectives `M` (all minimized).
    fn num_objectives(&self) -> usize;

    /// Number of inequality constraints (feasible when `<= 0`). Defaults to 0.
    fn num_constraints(&self) -> usize {
        0
    }

    /// Bounds of decision variable `i`.
    fn bounds(&self, i: usize) -> Bounds;

    /// Evaluates a candidate. `vars.len() == num_variables()`,
    /// `objs.len() == num_objectives()`, `cons.len() == num_constraints()`.
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]);

    /// Collects all bounds into a vector (convenience; not on the hot path).
    fn all_bounds(&self) -> Vec<Bounds> {
        (0..self.num_variables()).map(|i| self.bounds(i)).collect()
    }

    /// Evaluates a whole batch of candidates stored as rows of `vars`,
    /// appending one output row per candidate to `objs` and `cons` (which
    /// are cleared first and must carry strides `num_objectives()` /
    /// `num_constraints()`, or stride 0 to adopt them).
    ///
    /// The default loops over [`evaluate`](Problem::evaluate); test suites
    /// override it to run the whole batch behind a single virtual call so
    /// the per-row kernel can be inlined and stream over the contiguous
    /// row storage.
    fn evaluate_batch(
        &self,
        vars: &ObjectiveMatrix,
        objs: &mut ObjectiveMatrix,
        cons: &mut ObjectiveMatrix,
    ) {
        batch_eval_loop(self, vars, objs, cons, Self::evaluate);
    }
}

/// Shared skeleton for [`Problem::evaluate_batch`] implementations: stages
/// the output rows, then streams every input row through `kernel`.
///
/// Overriding implementations call this with their concrete `evaluate` so
/// the compiler monomorphizes and inlines the kernel into one loop — the
/// default trait method pays one dynamic dispatch per row instead.
pub fn batch_eval_loop<P: Problem + ?Sized>(
    problem: &P,
    vars: &ObjectiveMatrix,
    objs: &mut ObjectiveMatrix,
    cons: &mut ObjectiveMatrix,
    kernel: impl Fn(&P, &[f64], &mut [f64], &mut [f64]),
) {
    assert_eq!(
        vars.stride(),
        problem.num_variables(),
        "variable stride mismatch for problem {}",
        problem.name()
    );
    objs.clear();
    cons.clear();
    let n = vars.rows();
    if n == 0 {
        return;
    }
    // Adopt the output strides if the matrices are still unsized (push_row
    // panics on a genuine mismatch).
    if objs.stride() != problem.num_objectives() {
        objs.push_row(&vec![0.0; problem.num_objectives()]);
        objs.clear();
    }
    if cons.stride() != problem.num_constraints() {
        cons.push_row(&vec![0.0; problem.num_constraints()]);
        cons.clear();
    }
    objs.push_rows_filled(n, 0.0);
    cons.push_rows_filled(n, 0.0);
    for i in 0..n {
        kernel(problem, vars.row(i), objs.row_mut(i), cons.row_mut(i));
    }
}

/// Blanket impl so `&P`, `Box<P>`, `Arc<P>` are problems too.
impl<P: Problem + ?Sized> Problem for &P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_variables(&self) -> usize {
        (**self).num_variables()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn num_constraints(&self) -> usize {
        (**self).num_constraints()
    }
    fn bounds(&self, i: usize) -> Bounds {
        (**self).bounds(i)
    }
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]) {
        (**self).evaluate(vars, objs, cons)
    }
}

impl<P: Problem + ?Sized> Problem for std::sync::Arc<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_variables(&self) -> usize {
        (**self).num_variables()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn num_constraints(&self) -> usize {
        (**self).num_constraints()
    }
    fn bounds(&self, i: usize) -> Bounds {
        (**self).bounds(i)
    }
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]) {
        (**self).evaluate(vars, objs, cons)
    }
}

impl<P: Problem + ?Sized> Problem for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn num_variables(&self) -> usize {
        (**self).num_variables()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn num_constraints(&self) -> usize {
        (**self).num_constraints()
    }
    fn bounds(&self, i: usize) -> Bounds {
        (**self).bounds(i)
    }
    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]) {
        (**self).evaluate(vars, objs, cons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sphere {
        n: usize,
    }

    impl Problem for Sphere {
        fn name(&self) -> &str {
            "Sphere"
        }
        fn num_variables(&self) -> usize {
            self.n
        }
        fn num_objectives(&self) -> usize {
            1
        }
        fn bounds(&self, _i: usize) -> Bounds {
            Bounds::new(-5.0, 5.0)
        }
        fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
            objs[0] = vars.iter().map(|x| x * x).sum();
        }
    }

    #[test]
    fn bounds_clamp_and_contains() {
        let b = Bounds::new(-1.0, 2.0);
        assert_eq!(b.range(), 3.0);
        assert_eq!(b.clamp(5.0), 2.0);
        assert_eq!(b.clamp(-5.0), -1.0);
        assert!(b.contains(0.0));
        assert!(!b.contains(2.1));
    }

    #[test]
    #[should_panic(expected = "invalid variable bounds")]
    fn inverted_bounds_panic() {
        Bounds::new(1.0, 0.0);
    }

    #[test]
    fn blanket_impls_delegate() {
        let p = Sphere { n: 2 };
        let by_ref: &dyn Problem = &p;
        assert_eq!(by_ref.num_variables(), 2);
        let boxed: Box<dyn Problem> = Box::new(Sphere { n: 4 });
        assert_eq!(boxed.num_variables(), 4);
        assert_eq!(boxed.all_bounds().len(), 4);
        let arc = std::sync::Arc::new(Sphere { n: 5 });
        assert_eq!(arc.num_variables(), 5);
    }
}
