//! Variation operators.
//!
//! Borg evolves its population with an auto-adapted ensemble of six
//! real-valued operators (Hadka & Reed 2012, §3.3; this paper §II):
//!
//! | Operator | Source | Default configuration |
//! |---|---|---|
//! | SBX + PM | Deb & Agrawal 1994 | rate 1.0, η_c = 15; PM rate 1/L, η_m = 20 |
//! | DE + PM  | Storn & Price 1997 | CR = 0.1, F = 0.5 |
//! | PCX      | Deb, Joshi & Anand 2002 | 10 parents, η = ζ = 0.1 |
//! | SPX      | Tsutsui, Yamamura & Higuchi 1999 | 10 parents, expansion 3 |
//! | UNDX     | Kita, Ono & Kobayashi 1999 | 10 parents, ζ = 0.5, η = 0.35 |
//! | UM       | uniform mutation | rate 1/L |
//!
//! Each operator consumes `arity()` parent variable vectors and produces one
//! offspring variable vector, clamped to the problem bounds.

mod adaptive;
mod de;
mod pcx;
mod pm;
mod sbx;
mod spx;
mod um;
mod undx;
mod vecmath;

pub use adaptive::{AdaptiveEnsemble, EnsembleConfig};
pub use de::DifferentialEvolution;
pub use pcx::ParentCentricCrossover;
pub use pm::PolynomialMutation;
pub use sbx::SimulatedBinaryCrossover;
pub use spx::SimplexCrossover;
pub use um::UniformMutation;
pub use undx::UnimodalNormalDistributionCrossover;

use crate::problem::Bounds;
use rand::RngCore;

/// A variation operator: maps `arity()` parents to one offspring.
pub trait Variation: Send + Sync {
    /// Short name used in reports (e.g. `"SBX"`).
    fn name(&self) -> &str;

    /// Number of parents required.
    fn arity(&self) -> usize;

    /// Produces one offspring variable vector into `out` (cleared first),
    /// taking its temporaries from `scratch`, so the steady-state loop
    /// reuses one buffer per candidate and one scratch per engine.
    /// Implementations must return a vector of the same length as each
    /// parent, with every component inside its [`Bounds`], and must draw
    /// the same RNG stream and produce the same child whatever an earlier
    /// call left in `scratch`.
    fn evolve_into(
        &self,
        parents: &[&[f64]],
        bounds: &[Bounds],
        rng: &mut dyn RngCore,
        scratch: &mut VariationScratch,
        out: &mut Vec<f64>,
    );

    /// [`evolve_into`](Variation::evolve_into) with a fresh scratch, into a
    /// new vector.
    fn evolve(&self, parents: &[&[f64]], bounds: &[Bounds], rng: &mut dyn RngCore) -> Vec<f64> {
        let mut child = Vec::with_capacity(parents[0].len());
        let scratch = &mut VariationScratch::default();
        self.evolve_into(parents, bounds, rng, scratch, &mut child);
        child
    }
}

/// Work buffers of the multiparent operators (SPX, PCX, UNDX), owned by the
/// caller: a centroid, two difference vectors, and an orthonormal basis
/// kept flat, one row of the child's width per direction. They grow to the
/// widest call and are overwritten by every later one, so a
/// [`BorgEngine`](crate::algorithm::BorgEngine), which keeps one, pays no
/// allocation per offspring; [`Variation::evolve`] builds a fresh one per
/// call.
#[derive(Debug, Default, Clone)]
pub struct VariationScratch {
    centroid: Vec<f64>,
    direction: Vec<f64>,
    offset: Vec<f64>,
    basis: Vec<f64>,
    /// UNDX: the length of each primary difference the basis holds.
    magnitudes: Vec<f64>,
}

/// Clamps every component of `vars` into its bounds (shared helper).
pub(crate) fn clamp_to_bounds(vars: &mut [f64], bounds: &[Bounds]) {
    for (v, b) in vars.iter_mut().zip(bounds) {
        if !v.is_finite() {
            // Degenerate numerics (e.g. Gram-Schmidt breakdown) fall back to
            // the interval midpoint rather than propagating NaN.
            *v = 0.5 * (b.lower + b.upper);
        } else {
            *v = b.clamp(*v);
        }
    }
}

/// Samples a standard normal deviate via the Marsaglia polar method.
///
/// Implemented in-tree (rather than pulling in `rand_distr`) because the
/// models crate also needs pdf/CDF machinery we hand-roll; see DESIGN.md §6.
pub(crate) fn standard_normal(rng: &mut dyn RngCore) -> f64 {
    use rand::Rng;
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Builds the standard Borg operator ensemble for a problem with `l`
/// decision variables.
///
/// Returns the six operators in the canonical order used throughout the
/// reports: SBX+PM, DE+PM, PCX, SPX, UNDX, UM.
pub fn standard_borg_operators(l: usize) -> Vec<Box<dyn Variation>> {
    let pm = PolynomialMutation::new(1.0 / l.max(1) as f64, 20.0);
    vec![
        Box::new(SimulatedBinaryCrossover::new(1.0, 15.0).with_mutation(pm.clone())),
        Box::new(DifferentialEvolution::new(0.1, 0.5).with_mutation(pm)),
        Box::new(ParentCentricCrossover::new(10, 0.1, 0.1)),
        Box::new(SimplexCrossover::new(10, 3.0)),
        Box::new(UnimodalNormalDistributionCrossover::new(10, 0.5, 0.35)),
        Box::new(UniformMutation::new(1.0 / l.max(1) as f64)),
    ]
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Exercises an operator on random parents and checks offspring sanity.
    ///
    /// Every trial also runs `evolve_into` twice through one scratch that
    /// first served children three variables wider, and holds both to
    /// `evolve`, which uses a fresh scratch: the engine's single scratch
    /// must never change a child or an RNG draw.
    pub fn check_operator(op: &dyn Variation, l: usize, trials: usize, seed: u64) {
        let mut shared = VariationScratch::default();
        for width in [l + 3, l] {
            check_width(op, width, trials, seed, &mut shared);
        }
    }

    fn check_width(
        op: &dyn Variation,
        l: usize,
        trials: usize,
        seed: u64,
        shared: &mut VariationScratch,
    ) {
        let bounds: Vec<Bounds> = (0..l).map(|_| Bounds::new(-2.0, 3.0)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..trials {
            let parents: Vec<Vec<f64>> = (0..op.arity())
                .map(|_| {
                    (0..l)
                        .map(|i| rng.gen_range(bounds[i].lower..bounds[i].upper))
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = parents.iter().map(|p| p.as_slice()).collect();
            // Through the shared scratch `evolve_into` must draw the same
            // stream and produce the same child as through a fresh one (the
            // engine relies on this for bit-identical determinism), so run
            // each from a cloned RNG and compare.
            let rng_into = rng.clone();
            let child = op.evolve(&refs, &bounds, &mut rng);
            let next = rng.gen::<u64>();
            for pass in 0..2 {
                let mut rng_into = rng_into.clone();
                let mut reused = vec![42.0; 3]; // stale content must be discarded
                op.evolve_into(&refs, &bounds, &mut rng_into, shared, &mut reused);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&child),
                    bits(&reused),
                    "{} evolve_into diverged from evolve (pass {pass}, width {l})",
                    op.name()
                );
                assert_eq!(next, rng_into.gen::<u64>());
            }
            assert_eq!(child.len(), l, "{} produced wrong arity", op.name());
            for (j, (&c, b)) in child.iter().zip(&bounds).enumerate() {
                assert!(
                    c.is_finite() && b.contains(c),
                    "{} produced out-of-bounds component {} = {}",
                    op.name(),
                    j,
                    c
                );
            }
        }
    }

    /// Measures how often the offspring differs from the first parent.
    pub fn change_rate(op: &dyn Variation, l: usize, trials: usize, seed: u64) -> f64 {
        let bounds: Vec<Bounds> = (0..l).map(|_| Bounds::unit()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut changed = 0usize;
        for _ in 0..trials {
            let parents: Vec<Vec<f64>> = (0..op.arity())
                .map(|_| (0..l).map(|_| rng.gen::<f64>()).collect())
                .collect();
            let refs: Vec<&[f64]> = parents.iter().map(|p| p.as_slice()).collect();
            let child = op.evolve(&refs, &bounds, &mut rng);
            if child != parents[0] {
                changed += 1;
            }
        }
        changed as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clamp_fixes_nan_and_out_of_range() {
        let bounds = [Bounds::new(0.0, 1.0), Bounds::new(-1.0, 1.0)];
        let mut v = [f64::NAN, 5.0];
        clamp_to_bounds(&mut v, &bounds);
        assert_eq!(v, [0.5, 1.0]);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn standard_ensemble_has_six_operators() {
        let ops = standard_borg_operators(10);
        let names: Vec<&str> = ops.iter().map(|o| o.name()).collect();
        assert_eq!(names, ["SBX+PM", "DE+PM", "PCX", "SPX", "UNDX", "UM"]);
    }

    #[test]
    fn all_standard_operators_respect_bounds() {
        for op in standard_borg_operators(8) {
            test_support::check_operator(op.as_ref(), 8, 200, 42);
        }
    }

    #[test]
    fn all_standard_operators_work_on_one_variable() {
        for op in standard_borg_operators(1) {
            test_support::check_operator(op.as_ref(), 1, 100, 7);
        }
    }
}
