//! Polynomial mutation (Deb & Goyal 1996).
//!
//! Borg applies PM after SBX and DE (forming the compound SBX+PM and DE+PM
//! operators). PM perturbs each variable with a given probability by a
//! polynomially-distributed offset whose spread is controlled by the
//! distribution index `η_m` (larger = more local).

use super::{clamp_to_bounds, Variation, VariationScratch};
use crate::problem::Bounds;
use rand::{Rng, RngCore};

/// Polynomial mutation operator.
#[derive(Debug, Clone)]
pub struct PolynomialMutation {
    rate: f64,
    distribution_index: f64,
}

impl PolynomialMutation {
    /// Creates PM with per-variable mutation probability `rate` and
    /// distribution index `η_m` (Borg default: `1/L`, 20).
    pub fn new(rate: f64, distribution_index: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "mutation rate must be in [0,1]"
        );
        assert!(distribution_index >= 0.0, "distribution index must be >= 0");
        Self {
            rate,
            distribution_index,
        }
    }

    /// Mutates a variable vector in place.
    pub fn mutate(&self, vars: &mut [f64], bounds: &[Bounds], rng: &mut dyn RngCore) {
        for (x, b) in vars.iter_mut().zip(bounds) {
            if rng.gen::<f64>() >= self.rate {
                continue;
            }
            let range = b.range();
            if range <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen();
            let mexp = 1.0 / (self.distribution_index + 1.0);
            // The bounded PM formulation from Deb's NSGA-II code: the
            // perturbation shrinks near the active bound so offspring remain
            // in range without clipping bias.
            let delta = if u < 0.5 {
                let d = (*x - b.lower) / range;
                let val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d).powf(self.distribution_index + 1.0);
                val.powf(mexp) - 1.0
            } else {
                let d = (b.upper - *x) / range;
                let val = 2.0 * (1.0 - u)
                    + (2.0 * u - 1.0) * (1.0 - d).powf(self.distribution_index + 1.0);
                1.0 - val.powf(mexp)
            };
            *x += delta * range;
        }
        clamp_to_bounds(vars, bounds);
    }
}

impl Variation for PolynomialMutation {
    fn name(&self) -> &str {
        "PM"
    }

    fn arity(&self) -> usize {
        1
    }

    fn evolve_into(
        &self,
        parents: &[&[f64]],
        bounds: &[Bounds],
        rng: &mut dyn RngCore,
        _scratch: &mut VariationScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend_from_slice(parents[0]);
        self.mutate(out, bounds, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{change_rate, check_operator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn respects_bounds() {
        let pm = PolynomialMutation::new(1.0, 20.0);
        check_operator(&pm, 6, 500, 1);
    }

    #[test]
    fn zero_rate_is_identity() {
        let pm = PolynomialMutation::new(0.0, 20.0);
        assert_eq!(change_rate(&pm, 10, 200, 2), 0.0);
    }

    #[test]
    fn full_rate_changes_most_offspring() {
        let pm = PolynomialMutation::new(1.0, 20.0);
        assert!(change_rate(&pm, 10, 200, 3) > 0.99);
    }

    #[test]
    fn rate_one_over_l_changes_roughly_that_fraction_of_variables() {
        let l = 20;
        let pm = PolynomialMutation::new(1.0 / l as f64, 20.0);
        let bounds: Vec<Bounds> = (0..l).map(|_| Bounds::unit()).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut total_changed = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            let parent = vec![0.5; l];
            let mut child = parent.clone();
            pm.mutate(&mut child, &bounds, &mut rng);
            total_changed += child.iter().zip(&parent).filter(|(a, b)| a != b).count();
        }
        let per_offspring = total_changed as f64 / trials as f64;
        // Expected: 1 variable mutated per offspring on average.
        assert!((per_offspring - 1.0).abs() < 0.2, "got {per_offspring}");
    }

    #[test]
    fn higher_index_means_more_local_perturbation() {
        let bounds = [Bounds::unit()];
        let spread = |eta: f64, seed: u64| {
            let pm = PolynomialMutation::new(1.0, eta);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut acc = 0.0;
            for _ in 0..5000 {
                let mut v = [0.5];
                pm.mutate(&mut v, &bounds, &mut rng);
                acc += (v[0] - 0.5).abs();
            }
            acc / 5000.0
        };
        assert!(spread(5.0, 9) > spread(100.0, 9));
    }

    #[test]
    fn degenerate_bounds_are_untouched() {
        let pm = PolynomialMutation::new(1.0, 20.0);
        let bounds = [Bounds::new(0.3, 0.3)];
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = [0.3];
        pm.mutate(&mut v, &bounds, &mut rng);
        assert_eq!(v, [0.3]);
    }

    #[test]
    #[should_panic(expected = "mutation rate")]
    fn invalid_rate_panics() {
        PolynomialMutation::new(1.5, 20.0);
    }
}
