//! Multiparent unimodal normal distribution crossover (Kita, Ono &
//! Kobayashi 1999).
//!
//! UNDX is mean-centric: the offspring is distributed normally around the
//! centroid of the first `k−1` parents, with *primary* components along the
//! parent difference vectors (scaled by `ζ`) and *secondary* components
//! along random orthogonal directions scaled by the distance `D` of the
//! final parent to the centroid (scaled by `η/√L`). Borg uses 10 parents
//! with `ζ = 0.5`, `η = 0.35`.

use super::vecmath::{basis_rows, centroid_into, norm, sub_into, try_extend_basis, EPS};
use super::{clamp_to_bounds, standard_normal, Variation, VariationScratch};
use crate::problem::Bounds;
use rand::RngCore;

/// UNDX operator.
#[derive(Debug, Clone)]
pub(crate) struct UnimodalNormalDistributionCrossover {
    parents: usize,
    zeta: f64,
    eta: f64,
}

impl UnimodalNormalDistributionCrossover {
    /// Creates UNDX with `parents` parents and spread parameters `ζ`
    /// (primary) and `η` (secondary). Borg default: 10 parents, 0.5, 0.35.
    pub(crate) fn new(parents: usize, zeta: f64, eta: f64) -> Self {
        assert!(parents >= 3, "UNDX needs at least three parents");
        assert!(zeta >= 0.0 && eta >= 0.0, "spreads must be non-negative");
        Self { parents, zeta, eta }
    }
}

impl Variation for UnimodalNormalDistributionCrossover {
    fn name(&self) -> &str {
        "UNDX"
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
        let k = parents.len();
        let l = parents[0].len();
        let VariationScratch {
            centroid: g,
            direction: d_vec,
            offset: v,
            basis,
            magnitudes,
        } = scratch;

        // Centroid of the first k−1 parents defines the offspring center.
        centroid_into(&parents[..k - 1], g);

        // Primary directions: orthogonalized parent differences, each
        // remembered with its original magnitude so steps scale with the
        // parent spread.
        basis.clear();
        magnitudes.clear();
        for p in &parents[..k - 1] {
            sub_into(p, g, v);
            let m = norm(v);
            if m > EPS {
                basis.extend_from_slice(v);
                if try_extend_basis(basis, l) {
                    magnitudes.push(m);
                }
            }
        }

        // Secondary scale: distance of the final parent to the centroid.
        sub_into(parents[k - 1], g, d_vec);
        let dd = norm(d_vec);

        out.clear();
        out.extend_from_slice(g);
        let child = out;

        // Primary steps along parent-spanned directions.
        for (e, &m) in basis_rows(basis, l).zip(magnitudes.iter()) {
            let w = self.zeta * m * standard_normal(rng);
            for (c, &ex) in child.iter_mut().zip(e) {
                *c += w * ex;
            }
        }

        // Secondary steps along random directions orthogonal to the parent
        // span, filling the remaining L − |basis| dimensions.
        if dd > EPS {
            let primary = magnitudes.len();
            let sigma = self.eta * dd / (l as f64).sqrt();
            let mut remaining = l.saturating_sub(primary);
            let mut attempts = 0;
            while remaining > 0 && attempts < 2 * l + 10 {
                attempts += 1;
                basis.extend((0..l).map(|_| standard_normal(rng)));
                if try_extend_basis(basis, l) {
                    let w = sigma * standard_normal(rng);
                    let e = &basis[basis.len() - l..];
                    for (c, &ex) in child.iter_mut().zip(e) {
                        *c += w * ex;
                    }
                    remaining -= 1;
                }
            }
        }

        clamp_to_bounds(child, bounds);
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
        check_operator(
            &UnimodalNormalDistributionCrossover::new(10, 0.5, 0.35),
            6,
            300,
            1,
        );
        check_operator(
            &UnimodalNormalDistributionCrossover::new(3, 0.5, 0.35),
            4,
            300,
            2,
        );
        check_operator(
            &UnimodalNormalDistributionCrossover::new(4, 0.5, 0.35),
            1,
            300,
            3,
        );
    }

    #[test]
    fn coincident_parents_yield_that_point() {
        let undx = UnimodalNormalDistributionCrossover::new(4, 0.5, 0.35);
        let bounds = [Bounds::unit(); 3];
        let p = [0.4, 0.5, 0.6];
        let parents = [&p[..], &p[..], &p[..], &p[..]];
        let mut rng = StdRng::seed_from_u64(4);
        let child = undx.evolve(&parents, &bounds, &mut rng);
        for (c, e) in child.iter().zip(&p) {
            assert!((c - e).abs() < 1e-9);
        }
    }

    #[test]
    fn offspring_center_on_centroid_of_primary_parents() {
        let undx = UnimodalNormalDistributionCrossover::new(3, 0.5, 0.35);
        let bounds = [Bounds::new(-10.0, 10.0); 2];
        let p1 = [0.0, 0.0];
        let p2 = [2.0, 0.0];
        let p3 = [1.0, 2.0]; // scaling parent
        let parents = [&p1[..], &p2[..], &p3[..]];
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mut mean = [0.0; 2];
        for _ in 0..n {
            let c = undx.evolve(&parents, &bounds, &mut rng);
            mean[0] += c[0];
            mean[1] += c[1];
        }
        mean[0] /= n as f64;
        mean[1] /= n as f64;
        // Centroid of the first two parents is (1, 0).
        assert!((mean[0] - 1.0).abs() < 0.05, "mean = {mean:?}");
        assert!((mean[1]).abs() < 0.05, "mean = {mean:?}");
    }

    #[test]
    fn secondary_spread_scales_with_last_parent_distance() {
        // With parents spanning only the x-axis, the y component of the
        // offspring comes purely from secondary directions whose scale is
        // set by the last parent's distance to the centroid.
        let spread_y = |d: f64, seed: u64| {
            let undx = UnimodalNormalDistributionCrossover::new(3, 0.5, 0.35);
            let bounds = [Bounds::new(-100.0, 100.0); 2];
            let p1 = [-1.0, 0.0];
            let p2 = [1.0, 0.0];
            let p3 = [0.0, d];
            let parents = [&p1[..], &p2[..], &p3[..]];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut acc = 0.0;
            for _ in 0..4000 {
                let c = undx.evolve(&parents, &bounds, &mut rng);
                acc += c[1].abs();
            }
            acc / 4000.0
        };
        assert!(spread_y(4.0, 6) > 2.0 * spread_y(0.5, 6));
    }
}
