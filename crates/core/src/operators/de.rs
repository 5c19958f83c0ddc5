//! Differential evolution variation (Storn & Price 1997), `rand/1/bin`.
//!
//! Borg uses DE as a variation operator: the offspring starts from the first
//! parent and, per variable with probability `CR` (plus one forced index),
//! takes `a + F (b - c)` from three further distinct parents. Borg's
//! defaults are `CR = 0.1`, `F = 0.5`, with polynomial mutation applied
//! afterwards (the compound "DE+PM").

use super::{clamp_to_bounds, PolynomialMutation, Variation, VariationScratch};
use crate::problem::Bounds;
use rand::{Rng, RngCore};

/// DE `rand/1/bin` variation, optionally chained with polynomial mutation.
#[derive(Debug, Clone)]
pub(crate) struct DifferentialEvolution {
    crossover_rate: f64,
    step_size: f64,
    mutation: Option<PolynomialMutation>,
}

impl DifferentialEvolution {
    /// Creates DE with binomial crossover rate `CR` and differential weight
    /// `F` (Borg default: 0.1, 0.5).
    pub(crate) fn new(crossover_rate: f64, step_size: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&crossover_rate),
            "crossover rate must be in [0,1]"
        );
        assert!(step_size > 0.0, "step size must be positive");
        Self {
            crossover_rate,
            step_size,
            mutation: None,
        }
    }

    /// Chains polynomial mutation after variation (forming DE+PM).
    pub(crate) fn with_mutation(mut self, pm: PolynomialMutation) -> Self {
        self.mutation = Some(pm);
        self
    }
}

impl Variation for DifferentialEvolution {
    fn name(&self) -> &str {
        if self.mutation.is_some() {
            "DE+PM"
        } else {
            "DE"
        }
    }

    fn arity(&self) -> usize {
        4
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
        debug_assert_eq!(parents.len(), 4);
        let base = parents[0];
        let a = parents[1];
        let b = parents[2];
        let c = parents[3];
        let l = base.len();
        let forced = rng.gen_range(0..l);
        out.clear();
        out.extend((0..l).map(|j| {
            if j == forced || rng.gen::<f64>() <= self.crossover_rate {
                a[j] + self.step_size * (b[j] - c[j])
            } else {
                base[j]
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
        check_operator(&DifferentialEvolution::new(0.1, 0.5), 6, 500, 1);
        check_operator(
            &DifferentialEvolution::new(0.9, 0.5).with_mutation(PolynomialMutation::new(0.1, 20.0)),
            6,
            500,
            2,
        );
    }

    #[test]
    fn always_changes_at_least_one_variable() {
        // The forced index guarantees >= 1 differential component whenever
        // b != c there.
        let de = DifferentialEvolution::new(0.0, 0.5);
        let bounds = [Bounds::new(-10.0, 10.0); 5];
        let mut rng = StdRng::seed_from_u64(3);
        let base = [0.0; 5];
        let a = [0.0; 5];
        let b = [2.0; 5];
        let c = [1.0; 5];
        for _ in 0..100 {
            let child = de.evolve(&[&base[..], &a[..], &b[..], &c[..]], &bounds, &mut rng);
            let changed = child.iter().filter(|&&x| x != 0.0).count();
            assert_eq!(changed, 1, "CR=0 must change exactly the forced index");
            assert!(child.iter().any(|&x| (x - 0.5).abs() < 1e-12));
        }
    }

    #[test]
    fn full_crossover_rate_applies_differential_everywhere() {
        let de = DifferentialEvolution::new(1.0, 0.5);
        let bounds = [Bounds::new(-10.0, 10.0); 3];
        let mut rng = StdRng::seed_from_u64(4);
        let base = [9.0; 3];
        let a = [1.0; 3];
        let b = [4.0; 3];
        let c = [2.0; 3];
        let child = de.evolve(&[&base[..], &a[..], &b[..], &c[..]], &bounds, &mut rng);
        // a + F (b - c) = 1 + 0.5 * 2 = 2 in every coordinate.
        assert_eq!(child, vec![2.0; 3]);
    }

    #[test]
    fn identical_donors_reduce_to_first_donor() {
        let de = DifferentialEvolution::new(1.0, 0.5);
        let bounds = [Bounds::new(-10.0, 10.0); 2];
        let mut rng = StdRng::seed_from_u64(5);
        let base = [5.0, 5.0];
        let a = [1.0, -1.0];
        let same = [3.0, 3.0];
        let child = de.evolve(
            &[&base[..], &a[..], &same[..], &same[..]],
            &bounds,
            &mut rng,
        );
        assert_eq!(child, a);
    }
}
