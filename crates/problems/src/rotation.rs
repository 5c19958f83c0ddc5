//! Decision-space rotation: turns separable problems into non-separable
//! ones.
//!
//! The CEC 2009 competition built UF11 by rotating (and scaling) the
//! decision space of DTLZ2. The official rotation matrices were
//! distributed as data files; we generate a deterministic random orthogonal
//! matrix instead (QR-style Gram-Schmidt of a seeded Gaussian matrix),
//! which produces the same qualitative effect — every variable interacts
//! with every other, defeating coordinate-wise search (see DESIGN.md §2).

use borg_core::problem::{Bounds, Problem};
use borg_core::rng::SplitMix64;
use rand::Rng;

/// A dense orthogonal matrix with `R Rᵀ = I`.
#[derive(Debug, Clone)]
pub(crate) struct OrthogonalMatrix {
    n: usize,
    /// Row-major entries.
    rows: Vec<Vec<f64>>,
}

impl OrthogonalMatrix {
    /// Deterministic random orthogonal matrix via Gram-Schmidt on a seeded
    /// Gaussian matrix (Haar-like; exact Haar would require sign fixing from
    /// the R diagonal, which is irrelevant here).
    pub(crate) fn random(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let mut rng = SplitMix64::new(seed).derive("rotation");
        loop {
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
            let mut ok = true;
            'gen: for _ in 0..n {
                // Gaussian row via Box-Muller pairs.
                let mut v: Vec<f64> = (0..n)
                    .map(|_| {
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen();
                        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                    })
                    .collect();
                // Orthogonalize against previous rows.
                for r in &rows {
                    let c: f64 = v.iter().zip(r).map(|(a, b)| a * b).sum();
                    for (x, y) in v.iter_mut().zip(r) {
                        *x -= c * y;
                    }
                }
                let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm < 1e-8 {
                    ok = false;
                    break 'gen;
                }
                for x in &mut v {
                    *x /= norm;
                }
                rows.push(v);
            }
            if ok {
                return Self { n, rows };
            }
            // Astronomically unlikely degenerate draw: retry with the same
            // rng stream (state already advanced).
        }
    }

    /// Computes `y = R x`.
    pub(crate) fn apply(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        for (yi, row) in y.iter_mut().zip(&self.rows) {
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

/// Variables up to which [`RotatedProblem::evaluate`] stages its rows on the
/// stack.
const STACK_VARIABLES: usize = 32;

/// A problem whose decision space is rotated about the center of the inner
/// problem's (assumed uniform) bounds.
///
/// The outer bounds are extended by one full range on each side so that
/// every point of the inner domain remains reachable after the inverse
/// rotation; rotated coordinates falling outside the inner bounds are
/// clamped (the CEC'09 convention).
pub struct RotatedProblem<P> {
    inner: P,
    rotation: OrthogonalMatrix,
    name: String,
    inner_bounds: Vec<Bounds>,
    outer_bounds: Vec<Bounds>,
    /// Per-objective multiplicative scale applied after evaluation.
    objective_scales: Vec<f64>,
}

impl<P: Problem> RotatedProblem<P> {
    /// Wraps `inner` with a random rotation derived from `seed`.
    pub fn new(inner: P, seed: u64) -> Self {
        let n = inner.num_variables();
        let rotation = OrthogonalMatrix::random(n, seed);
        let inner_bounds = inner.all_bounds();
        let outer_bounds = inner_bounds
            .iter()
            .map(|b| Bounds::new(b.lower - b.range(), b.upper + b.range()))
            .collect();
        let name = format!("R({})", inner.name());
        let m = inner.num_objectives();
        Self {
            inner,
            rotation,
            name,
            inner_bounds,
            outer_bounds,
            objective_scales: vec![1.0; m],
        }
    }

    /// Applies per-objective multiplicative scaling (UF11 scales its five
    /// objectives; scaling changes hypervolume bookkeeping but not the
    /// dominance structure).
    pub(crate) fn with_objective_scales(mut self, scales: Vec<f64>) -> Self {
        assert_eq!(scales.len(), self.inner.num_objectives());
        assert!(scales.iter().all(|&s| s > 0.0));
        self.objective_scales = scales;
        self
    }

    /// Overrides the display name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Objective scales in use.
    pub(crate) fn objective_scales(&self) -> &[f64] {
        &self.objective_scales
    }

    /// Access to the wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Problem> Problem for RotatedProblem<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn bounds(&self, i: usize) -> Bounds {
        self.outer_bounds[i]
    }

    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]) {
        let n = vars.len();
        // The two staging rows live on the stack for every problem the
        // experiments rotate (UF11: 14 variables), so an evaluation
        // allocates nothing.
        let mut stack = [0.0; 2 * STACK_VARIABLES];
        let mut heap = Vec::new();
        let staging: &mut [f64] = if n <= STACK_VARIABLES {
            &mut stack[..2 * n]
        } else {
            heap.resize(2 * n, 0.0);
            &mut heap
        };
        let (centered, rotated) = staging.split_at_mut(n);
        // Center on the inner domain midpoint, rotate, restore, clamp.
        for (c, (&x, b)) in centered.iter_mut().zip(vars.iter().zip(&self.inner_bounds)) {
            *c = x - 0.5 * (b.lower + b.upper);
        }
        self.rotation.apply(centered, rotated);
        for (r, b) in rotated.iter_mut().zip(&self.inner_bounds) {
            *r = b.clamp(*r + 0.5 * (b.lower + b.upper));
        }
        self.inner.evaluate(rotated, objs, cons);
        for (o, &s) in objs.iter_mut().zip(&self.objective_scales) {
            *o *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtlz::Dtlz;

    /// The checks the rotation tests hold a matrix to.
    impl OrthogonalMatrix {
        /// Identity matrix.
        fn identity(n: usize) -> Self {
            let rows = (0..n)
                .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
                .collect();
            Self { n, rows }
        }

        /// Computes `y = Rᵀ x` (the inverse transform, since R is orthogonal).
        fn apply_transpose(&self, x: &[f64], y: &mut [f64]) {
            debug_assert_eq!(x.len(), self.n);
            debug_assert_eq!(y.len(), self.n);
            y.iter_mut().for_each(|v| *v = 0.0);
            for (xi, row) in x.iter().zip(&self.rows) {
                for (yj, rij) in y.iter_mut().zip(row) {
                    *yj += xi * rij;
                }
            }
        }

        /// Maximum absolute deviation of `R Rᵀ` from the identity.
        fn orthogonality_error(&self) -> f64 {
            let mut err: f64 = 0.0;
            for i in 0..self.n {
                for j in 0..self.n {
                    let dot: f64 = self.rows[i]
                        .iter()
                        .zip(&self.rows[j])
                        .map(|(a, b)| a * b)
                        .sum();
                    let expect = if i == j { 1.0 } else { 0.0 };
                    err = err.max((dot - expect).abs());
                }
            }
            err
        }
    }

    #[test]
    fn random_matrix_is_orthogonal() {
        for n in [1, 2, 5, 14, 30] {
            let r = OrthogonalMatrix::random(n, 99);
            assert!(r.orthogonality_error() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn rotation_is_deterministic_in_seed() {
        let a = OrthogonalMatrix::random(6, 1);
        let b = OrthogonalMatrix::random(6, 1);
        let c = OrthogonalMatrix::random(6, 2);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.rows, c.rows);
    }

    #[test]
    fn apply_transpose_inverts_apply() {
        let r = OrthogonalMatrix::random(8, 3);
        let x: Vec<f64> = (0..8).map(|i| i as f64 * 0.3 - 1.0).collect();
        let mut y = vec![0.0; 8];
        let mut back = vec![0.0; 8];
        r.apply(&x, &mut y);
        r.apply_transpose(&y, &mut back);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn identity_rotation_preserves_evaluation() {
        let inner = Dtlz::dtlz2_5();
        let mut rotated = RotatedProblem::new(Dtlz::dtlz2_5(), 7);
        rotated.rotation = OrthogonalMatrix::identity(inner.num_variables());
        let vars: Vec<f64> = (0..inner.num_variables())
            .map(|i| 0.1 + 0.05 * i as f64)
            .collect();
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        inner.evaluate(&vars, &mut a, &mut []);
        rotated.evaluate(&vars, &mut b, &mut []);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// Below and above the stack staging width, an evaluation is the inner
    /// problem at the clamped rotated point, bit for bit.
    #[test]
    fn evaluation_is_the_inner_problem_at_the_rotated_point() {
        for n in [STACK_VARIABLES - 1, STACK_VARIABLES, STACK_VARIABLES + 9] {
            let inner = Dtlz::with_k(3, n - 2);
            let p = RotatedProblem::new(inner.clone(), 5);
            let vars: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.4 - 0.9).collect();
            let centered: Vec<f64> = vars.iter().map(|x| x - 0.5).collect();
            let mut rotated = vec![0.0; n];
            p.rotation.apply(&centered, &mut rotated);
            let clamped: Vec<f64> = rotated.iter().map(|r| (r + 0.5).clamp(0.0, 1.0)).collect();
            let (mut want, mut got) = (vec![0.0; 3], vec![0.0; 3]);
            inner.evaluate(&clamped, &mut want, &mut []);
            p.evaluate(&vars, &mut got, &mut []);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn bounds_are_extended() {
        let p = RotatedProblem::new(Dtlz::dtlz2_5(), 7);
        let b = p.bounds(0);
        assert_eq!(b.lower, -1.0);
        assert_eq!(b.upper, 2.0);
    }

    #[test]
    fn optimum_is_reachable_after_rotation() {
        // The pre-image of the inner optimum (distance vars = 0.5) under the
        // rotation lies inside the extended bounds and evaluates to g = 0.
        let inner = Dtlz::dtlz2_5();
        let n = inner.num_variables();
        let p = RotatedProblem::new(Dtlz::dtlz2_5(), 11);
        // Inner optimum with mid positions.
        let target = vec![0.5; n];
        let centered: Vec<f64> = target.iter().map(|&x| x - 0.5).collect();
        let mut pre = vec![0.0; n];
        p.rotation.apply_transpose(&centered, &mut pre);
        let vars: Vec<f64> = pre.iter().map(|&x| x + 0.5).collect();
        for (i, &v) in vars.iter().enumerate() {
            assert!(p.bounds(i).contains(v));
        }
        let mut objs = vec![0.0; 5];
        p.evaluate(&vars, &mut objs, &mut []);
        let r2: f64 = objs.iter().map(|f| f * f).sum();
        assert!((r2 - 1.0).abs() < 1e-9, "rotated optimum off sphere: {r2}");
    }

    #[test]
    fn objective_scaling_applies() {
        let p = RotatedProblem::new(Dtlz::dtlz2_5(), 7)
            .with_objective_scales(vec![2.0, 1.0, 1.0, 1.0, 3.0]);
        let q = RotatedProblem::new(Dtlz::dtlz2_5(), 7);
        let vars = vec![0.5; 14];
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        p.evaluate(&vars, &mut a, &mut []);
        q.evaluate(&vars, &mut b, &mut []);
        assert!((a[0] - 2.0 * b[0]).abs() < 1e-12);
        assert!((a[4] - 3.0 * b[4]).abs() < 1e-12);
        assert!((a[1] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn rotation_makes_variables_interact() {
        // Perturbing one outer variable must change the value of g (i.e.
        // several inner coordinates), unlike in separable DTLZ2.
        let p = RotatedProblem::new(Dtlz::dtlz2_5(), 13);
        let base = vec![0.5; 14];
        let mut objs_a = vec![0.0; 5];
        p.evaluate(&base, &mut objs_a, &mut []);
        let mut perturbed = base.clone();
        perturbed[13] += 0.3; // a "distance" variable in the unrotated space
        let mut objs_b = vec![0.0; 5];
        p.evaluate(&perturbed, &mut objs_b, &mut []);
        // All five objectives change because the rotated perturbation leaks
        // into position variables too.
        let changed = objs_a
            .iter()
            .zip(&objs_b)
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        assert!(changed >= 4, "only {changed} objectives changed");
    }
}
