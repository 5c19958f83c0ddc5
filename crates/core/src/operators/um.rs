//! Uniform mutation.
//!
//! Each variable is, with probability `rate` (Borg default `1/L`), resampled
//! uniformly from its bounds. Borg uses UM both as a member of the operator
//! ensemble and to inject diversity during restarts.

use super::{Variation, VariationScratch};
use crate::problem::Bounds;
use rand::{Rng, RngCore};

/// Uniform mutation operator.
#[derive(Debug, Clone)]
pub(crate) struct UniformMutation {
    rate: f64,
}

impl UniformMutation {
    /// Creates UM with per-variable resampling probability `rate`.
    pub(crate) fn new(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "mutation rate must be in [0,1]"
        );
        Self { rate }
    }

    /// Mutates a variable vector in place.
    pub(crate) fn mutate(&self, vars: &mut [f64], bounds: &[Bounds], rng: &mut dyn RngCore) {
        for (x, b) in vars.iter_mut().zip(bounds) {
            if rng.gen::<f64>() <= self.rate {
                *x = if b.range() > 0.0 {
                    rng.gen_range(b.lower..=b.upper)
                } else {
                    b.lower
                };
            }
        }
    }
}

impl Variation for UniformMutation {
    fn name(&self) -> &str {
        "UM"
    }

    fn arity(&self) -> usize {
        1
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
        check_operator(&UniformMutation::new(0.5), 6, 500, 1);
    }

    #[test]
    fn zero_rate_is_identity() {
        assert_eq!(change_rate(&UniformMutation::new(0.0), 10, 200, 2), 0.0);
    }

    #[test]
    fn resampled_values_cover_the_range() {
        let um = UniformMutation::new(1.0);
        let bounds = [Bounds::new(10.0, 20.0)];
        let mut rng = StdRng::seed_from_u64(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let mut v = [15.0];
            um.mutate(&mut v, &bounds, &mut rng);
            assert!((10.0..=20.0).contains(&v[0]));
            if v[0] < 11.0 {
                lo_seen = true;
            }
            if v[0] > 19.0 {
                hi_seen = true;
            }
        }
        assert!(lo_seen && hi_seen, "samples did not cover the range");
    }

    #[test]
    fn mutation_count_matches_rate() {
        let l = 100;
        let um = UniformMutation::new(0.25);
        let bounds: Vec<Bounds> = (0..l).map(|_| Bounds::unit()).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut changed = 0usize;
        let trials = 500;
        for _ in 0..trials {
            let mut v = vec![0.5; l];
            um.mutate(&mut v, &bounds, &mut rng);
            changed += v.iter().filter(|&&x| x != 0.5).count();
        }
        let frac = changed as f64 / (trials * l) as f64;
        assert!((frac - 0.25).abs() < 0.02, "observed rate {frac}");
    }

    #[test]
    fn point_bounds_stay_fixed() {
        let um = UniformMutation::new(1.0);
        let bounds = [Bounds::new(0.7, 0.7)];
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = [0.7];
        um.mutate(&mut v, &bounds, &mut rng);
        assert_eq!(v, [0.7]);
    }
}
