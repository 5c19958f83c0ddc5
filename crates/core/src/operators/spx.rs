//! Simplex crossover (Tsutsui, Yamamura & Higuchi 1999).
//!
//! SPX samples offspring uniformly from a simplex formed by expanding the
//! parent simplex about its centroid by a factor `ε` (the *expansion rate*;
//! Tsutsui's recommendation is `√(n+1)` for `n+1` parents, Borg uses 3 with
//! 10 parents). It is a mean-centric multiparent operator: offspring are
//! distributed around the parent centroid.

use super::{clamp_to_bounds, Variation, VariationScratch};
use crate::problem::Bounds;
use rand::{Rng, RngCore};

/// SPX operator.
#[derive(Debug, Clone)]
pub struct SimplexCrossover {
    parents: usize,
    expansion: f64,
}

impl SimplexCrossover {
    /// Creates SPX with `parents` parents and expansion rate `ε` (Borg
    /// default: 10, 3.0).
    pub fn new(parents: usize, expansion: f64) -> Self {
        assert!(parents >= 2, "SPX needs at least two parents");
        assert!(expansion > 0.0, "expansion rate must be positive");
        Self { parents, expansion }
    }
}

impl Variation for SimplexCrossover {
    fn name(&self) -> &str {
        "SPX"
    }

    fn arity(&self) -> usize {
        self.parents
    }

    // borg-lint: hot-path
    fn evolve_into(
        &self,
        parents: &[&[f64]],
        bounds: &[Bounds],
        rng: &mut dyn RngCore,
        scratch: &mut VariationScratch,
        out: &mut Vec<f64>,
    ) {
        let n = parents.len();
        let l = parents[0].len();
        let VariationScratch {
            centroid, offset, ..
        } = scratch;

        // Centroid of the parent simplex.
        centroid.clear();
        centroid.resize(l, 0.0);
        for p in parents {
            for (g, &x) in centroid.iter_mut().zip(*p) {
                *g += x;
            }
        }
        for g in centroid.iter_mut() {
            *g /= n as f64;
        }

        // Expanded vertices: z_k = O + ε (x_k − O).
        // The offspring is built with Tsutsui's recursive construction, which
        // samples uniformly from the expanded simplex.
        let z = |k: usize, j: usize| centroid[j] + self.expansion * (parents[k][j] - centroid[j]);

        // C_k, overwritten in place: its component `j` reads only C_{k−1}'s.
        let c = offset;
        c.clear();
        c.resize(l, 0.0); // C_0 = 0
        for k in 1..n {
            // r_k = u^(1/k) makes the barycentric weights Dirichlet(1,…,1),
            // i.e. uniform over the expanded simplex (stick-breaking: the sum
            // of the first k weights of a uniform (k+1)-simplex point is
            // Beta(k, 1)-distributed, whose inverse CDF is u^(1/k)).
            let u: f64 = rng.gen();
            let r = u.powf(1.0 / k as f64);
            for (j, c_j) in c.iter_mut().enumerate() {
                *c_j = r * (z(k - 1, j) - z(k, j) + *c_j);
            }
        }

        out.clear();
        out.extend((0..l).map(|j| z(n - 1, j) + c[j]));
        clamp_to_bounds(out, bounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::check_operator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn respects_bounds() {
        check_operator(&SimplexCrossover::new(10, 3.0), 6, 300, 1);
        check_operator(&SimplexCrossover::new(3, 1.5), 4, 300, 2);
        check_operator(&SimplexCrossover::new(2, 1.0), 1, 300, 3);
    }

    #[test]
    fn coincident_parents_yield_that_point() {
        let spx = SimplexCrossover::new(4, 3.0);
        let bounds = [Bounds::unit(); 3];
        let p = [0.4, 0.5, 0.6];
        let parents = [&p[..], &p[..], &p[..], &p[..]];
        let mut rng = StdRng::seed_from_u64(4);
        let child = spx.evolve(&parents, &bounds, &mut rng);
        for (c, e) in child.iter().zip(&p) {
            assert!((c - e).abs() < 1e-12);
        }
    }

    #[test]
    fn offspring_mean_is_parent_centroid() {
        // SPX is mean-centric: E[child] = centroid of parents.
        let spx = SimplexCrossover::new(3, 1.0);
        let bounds = [Bounds::new(-10.0, 10.0); 2];
        let p1 = [0.0, 0.0];
        let p2 = [3.0, 0.0];
        let p3 = [0.0, 3.0];
        let parents = [&p1[..], &p2[..], &p3[..]];
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mut mean = [0.0; 2];
        for _ in 0..n {
            let c = spx.evolve(&parents, &bounds, &mut rng);
            mean[0] += c[0];
            mean[1] += c[1];
        }
        mean[0] /= n as f64;
        mean[1] /= n as f64;
        assert!((mean[0] - 1.0).abs() < 0.05, "mean = {mean:?}");
        assert!((mean[1] - 1.0).abs() < 0.05, "mean = {mean:?}");
    }

    #[test]
    fn expansion_one_stays_inside_parent_simplex() {
        // With ε = 1 the sampling simplex is the parent simplex itself, so
        // every barycentric coordinate of the child is in [0, 1].
        let spx = SimplexCrossover::new(3, 1.0);
        let bounds = [Bounds::new(-10.0, 10.0); 2];
        let p1 = [0.0, 0.0];
        let p2 = [1.0, 0.0];
        let p3 = [0.0, 1.0];
        let parents = [&p1[..], &p2[..], &p3[..]];
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..2000 {
            let c = spx.evolve(&parents, &bounds, &mut rng);
            // For this triangle, membership is x >= 0, y >= 0, x + y <= 1.
            assert!(c[0] >= -1e-9 && c[1] >= -1e-9 && c[0] + c[1] <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn larger_expansion_spreads_offspring_wider() {
        let spread = |eps: f64| {
            let spx = SimplexCrossover::new(3, eps);
            let bounds = [Bounds::new(-100.0, 100.0); 2];
            let p1 = [0.0, 0.0];
            let p2 = [1.0, 0.0];
            let p3 = [0.0, 1.0];
            let parents = [&p1[..], &p2[..], &p3[..]];
            let mut rng = StdRng::seed_from_u64(7);
            let mut acc = 0.0;
            for _ in 0..3000 {
                let c = spx.evolve(&parents, &bounds, &mut rng);
                let dx = c[0] - 1.0 / 3.0;
                let dy = c[1] - 1.0 / 3.0;
                acc += (dx * dx + dy * dy).sqrt();
            }
            acc / 3000.0
        };
        assert!(spread(3.0) > 2.0 * spread(1.0));
    }
}
