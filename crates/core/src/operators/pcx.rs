//! Parent-centric crossover (Deb, Joshi & Anand 2002).
//!
//! PCX centers the offspring distribution on one *index parent* rather than
//! on the parent centroid (contrast with SPX/UNDX): the offspring is the
//! index parent plus a zero-mean normal step along the parent-to-centroid
//! direction (`ζ`) and normal steps along an orthonormal complement scaled
//! by the mean perpendicular spread of the other parents (`η`). Borg uses
//! 10 parents with `η = ζ = 0.1`.

use super::vecmath::{basis_rows, centroid_into, dot, norm, sub_into, try_extend_basis, EPS};
use super::{clamp_to_bounds, standard_normal, Variation, VariationScratch};
use crate::problem::Bounds;
use rand::RngCore;

/// PCX operator.
#[derive(Debug, Clone)]
pub struct ParentCentricCrossover {
    parents: usize,
    eta: f64,
    zeta: f64,
}

impl ParentCentricCrossover {
    /// Creates PCX with `parents` parents and spread parameters `η`
    /// (orthogonal) and `ζ` (along the principal direction). Borg default:
    /// 10 parents, η = ζ = 0.1.
    pub fn new(parents: usize, eta: f64, zeta: f64) -> Self {
        assert!(parents >= 2, "PCX needs at least two parents");
        assert!(eta >= 0.0 && zeta >= 0.0, "spreads must be non-negative");
        Self { parents, eta, zeta }
    }
}

impl Variation for ParentCentricCrossover {
    fn name(&self) -> &str {
        "PCX"
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
        // The last parent is the index parent the offspring centers on (the
        // caller places the tournament-selected parent last).
        let index_parent = parents[k - 1];
        let l = index_parent.len();
        let VariationScratch {
            centroid: g,
            direction: d,
            offset: v,
            basis,
            ..
        } = scratch;
        centroid_into(parents, g);
        sub_into(index_parent, g, d);
        let d_norm = norm(d);

        out.clear();
        out.extend_from_slice(index_parent);
        let child = out;

        if d_norm > EPS {
            // Unit principal direction, the basis's first row.
            basis.clear();
            basis.extend(d.iter().map(|x| x / d_norm));

            // Mean perpendicular distance of the other parents to the
            // principal axis, and an orthonormal basis of their span minus
            // the principal direction.
            let mut perp_sum = 0.0;
            let mut perp_count = 0usize;
            for p in &parents[..k - 1] {
                sub_into(p, g, v);
                let along = dot(v, &basis[..l]);
                let perp_sq = dot(v, v) - along * along;
                if perp_sq > 0.0 {
                    perp_sum += perp_sq.sqrt();
                    perp_count += 1;
                }
                basis.extend_from_slice(v);
                try_extend_basis(basis, l);
            }
            let d_bar = if perp_count > 0 {
                perp_sum / perp_count as f64
            } else {
                0.0
            };

            // Step along the principal direction: w_ζ d (d unnormalized, as
            // in Deb's formulation: the step scales with |x_p − g|).
            let w_zeta = self.zeta * standard_normal(rng);
            for (c, &dx) in child.iter_mut().zip(d.iter()) {
                *c += w_zeta * dx;
            }

            // Steps along the orthonormal complement directions (basis
            // rows after the principal one), scaled by the mean spread.
            for e in basis_rows(&basis[l..], l) {
                let w_eta = self.eta * d_bar * standard_normal(rng);
                for (c, &ex) in child.iter_mut().zip(e) {
                    *c += w_eta * ex;
                }
            }
        } else {
            // Index parent coincides with the centroid (e.g. all parents
            // equal): perturb isotropically using the parent spread.
            let mut spread = 0.0;
            for p in &parents[..k - 1] {
                sub_into(p, g, v);
                spread += norm(v);
            }
            spread /= (k - 1).max(1) as f64;
            for c in child.iter_mut() {
                *c += self.eta * spread * standard_normal(rng);
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
        check_operator(&ParentCentricCrossover::new(10, 0.1, 0.1), 6, 300, 1);
        check_operator(&ParentCentricCrossover::new(3, 0.5, 0.5), 4, 300, 2);
        check_operator(&ParentCentricCrossover::new(2, 0.1, 0.1), 1, 300, 3);
    }

    #[test]
    fn coincident_parents_yield_that_point() {
        let pcx = ParentCentricCrossover::new(4, 0.1, 0.1);
        let bounds = [Bounds::unit(); 3];
        let p = [0.4, 0.5, 0.6];
        let parents = [&p[..], &p[..], &p[..], &p[..]];
        let mut rng = StdRng::seed_from_u64(4);
        let child = pcx.evolve(&parents, &bounds, &mut rng);
        for (c, e) in child.iter().zip(&p) {
            assert!((c - e).abs() < 1e-9);
        }
    }

    #[test]
    fn offspring_center_on_index_parent() {
        // PCX is parent-centric: E[child] = index parent (the last one).
        let pcx = ParentCentricCrossover::new(3, 0.1, 0.1);
        let bounds = [Bounds::new(-10.0, 10.0); 2];
        let p1 = [0.0, 0.0];
        let p2 = [1.0, 0.0];
        let px = [0.0, 1.0]; // index parent
        let parents = [&p1[..], &p2[..], &px[..]];
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mut mean = [0.0; 2];
        for _ in 0..n {
            let c = pcx.evolve(&parents, &bounds, &mut rng);
            mean[0] += c[0];
            mean[1] += c[1];
        }
        mean[0] /= n as f64;
        mean[1] /= n as f64;
        assert!((mean[0] - px[0]).abs() < 0.05, "mean = {mean:?}");
        assert!((mean[1] - px[1]).abs() < 0.05, "mean = {mean:?}");
    }

    #[test]
    fn larger_zeta_spreads_along_principal_direction() {
        let spread = |zeta: f64| {
            let pcx = ParentCentricCrossover::new(3, 0.0, zeta);
            let bounds = [Bounds::new(-100.0, 100.0); 2];
            let p1 = [-1.0, 0.0];
            let p2 = [1.0, 0.0];
            let px = [0.0, 3.0];
            let parents = [&p1[..], &p2[..], &px[..]];
            let mut rng = StdRng::seed_from_u64(6);
            let mut acc = 0.0;
            for _ in 0..3000 {
                let c = pcx.evolve(&parents, &bounds, &mut rng);
                acc += (c[1] - 3.0).abs();
            }
            acc / 3000.0
        };
        assert!(spread(0.5) > 2.0 * spread(0.05));
    }
}
