//! Simulated binary crossover (Deb & Agrawal 1994).
//!
//! SBX mimics single-point binary crossover on real variables: offspring are
//! distributed around the parents with a spread controlled by the
//! distribution index `η_c`. Borg uses SBX with rate 1.0 and `η_c = 15`,
//! followed by polynomial mutation (the compound operator "SBX+PM").

use super::{clamp_to_bounds, PolynomialMutation, Variation, VariationScratch};
use crate::problem::Bounds;
use rand::{Rng, RngCore};

/// SBX operator, optionally chained with polynomial mutation.
#[derive(Debug, Clone)]
pub struct SimulatedBinaryCrossover {
    rate: f64,
    distribution_index: f64,
    mutation: Option<PolynomialMutation>,
}

impl SimulatedBinaryCrossover {
    /// Creates SBX with per-variable crossover probability `rate` and
    /// distribution index `η_c` (Borg default: 1.0, 15).
    pub fn new(rate: f64, distribution_index: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "crossover rate must be in [0,1]"
        );
        assert!(distribution_index >= 0.0, "distribution index must be >= 0");
        Self {
            rate,
            distribution_index,
            mutation: None,
        }
    }

    /// Chains polynomial mutation after crossover (forming SBX+PM).
    pub fn with_mutation(mut self, pm: PolynomialMutation) -> Self {
        self.mutation = Some(pm);
        self
    }

    /// The bounded SBX spread factor for one variable pair.
    fn crossover_pair(&self, x1: f64, x2: f64, b: Bounds, rng: &mut dyn RngCore) -> f64 {
        // Identical parents produce identical offspring.
        if (x2 - x1).abs() < 1e-14 {
            return x1;
        }
        let (lo, hi) = if x1 < x2 { (x1, x2) } else { (x2, x1) };
        let u: f64 = rng.gen();
        let exp = 1.0 / (self.distribution_index + 1.0);
        let beta = if u <= 0.5 {
            (2.0 * u).powf(exp)
        } else {
            (1.0 / (2.0 * (1.0 - u))).powf(exp)
        };
        // Pick one of the two symmetric offspring at random.
        let child = if rng.gen::<bool>() {
            0.5 * ((1.0 + beta) * lo + (1.0 - beta) * hi)
        } else {
            0.5 * ((1.0 - beta) * lo + (1.0 + beta) * hi)
        };
        b.clamp(child)
    }
}

impl Variation for SimulatedBinaryCrossover {
    fn name(&self) -> &str {
        if self.mutation.is_some() {
            "SBX+PM"
        } else {
            "SBX"
        }
    }

    fn arity(&self) -> usize {
        2
    }

    // borg-lint: hot-path
    fn evolve_into(
        &self,
        parents: &[&[f64]],
        bounds: &[Bounds],
        rng: &mut dyn RngCore,
        _scratch: &mut VariationScratch,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(parents.len(), 2);
        let p1 = parents[0];
        let p2 = parents[1];
        out.clear();
        out.extend(p1.iter().zip(p2).zip(bounds).map(|((&x1, &x2), &b)| {
            if rng.gen::<f64>() <= self.rate {
                self.crossover_pair(x1, x2, b, rng)
            } else {
                x1
            }
        }));
        if let Some(pm) = &self.mutation {
            pm.mutate(out, bounds, rng);
        }
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
        check_operator(&SimulatedBinaryCrossover::new(1.0, 15.0), 6, 500, 1);
        check_operator(
            &SimulatedBinaryCrossover::new(1.0, 15.0)
                .with_mutation(PolynomialMutation::new(0.2, 20.0)),
            6,
            500,
            2,
        );
    }

    #[test]
    fn identical_parents_yield_identical_offspring() {
        let sbx = SimulatedBinaryCrossover::new(1.0, 15.0);
        let bounds = [Bounds::unit(); 4];
        let mut rng = StdRng::seed_from_u64(3);
        let p = [0.25, 0.5, 0.75, 0.1];
        let child = sbx.evolve(&[&p, &p], &bounds, &mut rng);
        assert_eq!(child, p);
    }

    #[test]
    fn offspring_mean_matches_parent_mean() {
        // SBX is mean-preserving in expectation (pick of c1/c2 is symmetric).
        let sbx = SimulatedBinaryCrossover::new(1.0, 15.0);
        let bounds = [Bounds::new(-10.0, 10.0)];
        let mut rng = StdRng::seed_from_u64(4);
        let p1 = [1.0];
        let p2 = [3.0];
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sbx.evolve(&[&p1[..], &p2[..]], &bounds, &mut rng)[0])
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn higher_index_concentrates_offspring_near_parents() {
        let near_parent_fraction = |eta: f64| {
            let sbx = SimulatedBinaryCrossover::new(1.0, eta);
            let bounds = [Bounds::new(-10.0, 10.0)];
            let mut rng = StdRng::seed_from_u64(5);
            let p1 = [1.0];
            let p2 = [3.0];
            let n = 5000;
            (0..n)
                .filter(|_| {
                    let c = sbx.evolve(&[&p1[..], &p2[..]], &bounds, &mut rng)[0];
                    (c - 1.0).abs() < 0.2 || (c - 3.0).abs() < 0.2
                })
                .count() as f64
                / n as f64
        };
        assert!(near_parent_fraction(50.0) > near_parent_fraction(2.0));
    }

    #[test]
    fn zero_rate_copies_first_parent() {
        let sbx = SimulatedBinaryCrossover::new(0.0, 15.0);
        let bounds = [Bounds::unit(); 3];
        let mut rng = StdRng::seed_from_u64(6);
        let p1 = [0.1, 0.2, 0.3];
        let p2 = [0.9, 0.8, 0.7];
        assert_eq!(sbx.evolve(&[&p1[..], &p2[..]], &bounds, &mut rng), p1);
    }
}
