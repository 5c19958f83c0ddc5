//! The auto-adaptive operator ensemble.
//!
//! Borg selects among its variation operators with probabilities
//! proportional to each operator's recent contribution to the ε-dominance
//! archive (Hadka & Reed 2012, §3.3):
//!
//! ```text
//! p_i = (c_i + ζ) / (Σ_j c_j + K ζ)
//! ```
//!
//! where `c_i` counts archive members produced by operator `i` and `ζ = 1`
//! guarantees every operator keeps a nonzero chance of selection (so a
//! currently-unproductive operator can recover when the search landscape
//! changes). Probabilities are recomputed every [`UPDATE_FREQUENCY`]
//! evaluations.

use super::Variation;
use rand::{Rng, RngCore};

/// Smoothing constant ζ in the probability update (Borg's 1.0).
const ZETA: f64 = 1.0;

/// Probabilities are recomputed every this many evaluations (Borg's 100).
const UPDATE_FREQUENCY: u64 = 100;

/// The operator ensemble with adaptive selection probabilities.
pub(crate) struct AdaptiveEnsemble {
    operators: Vec<Box<dyn Variation>>,
    probabilities: Vec<f64>,
    evaluations_since_update: u64,
}

impl AdaptiveEnsemble {
    /// Creates an ensemble with uniform initial probabilities.
    ///
    /// # Panics
    /// If `operators` is empty.
    pub(crate) fn new(operators: Vec<Box<dyn Variation>>) -> Self {
        assert!(
            !operators.is_empty(),
            "ensemble needs at least one operator"
        );
        let k = operators.len();
        Self {
            operators,
            probabilities: vec![1.0 / k as f64; k],
            evaluations_since_update: 0,
        }
    }

    /// Current selection probabilities (sums to 1).
    pub(crate) fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Operator accessor.
    pub(crate) fn operator(&self, i: usize) -> &dyn Variation {
        self.operators[i].as_ref()
    }

    /// Operator names in ensemble order.
    pub(crate) fn names(&self) -> Vec<&str> {
        self.operators.iter().map(|o| o.name()).collect()
    }

    /// Roulette-wheel selects an operator index.
    pub(crate) fn select(&mut self, rng: &mut dyn RngCore) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.probabilities.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        // Floating-point slack: fall back to the last operator.
        self.probabilities.len() - 1
    }

    /// Notifies the ensemble that one evaluation completed; recomputes
    /// probabilities from `credits` (archive contributions per operator)
    /// every [`UPDATE_FREQUENCY`] calls. Returns `true` when an update ran.
    pub(crate) fn on_evaluation(&mut self, credits: &[u64]) -> bool {
        self.evaluations_since_update += 1;
        if self.evaluations_since_update >= UPDATE_FREQUENCY {
            self.evaluations_since_update = 0;
            self.update_probabilities(credits);
            true
        } else {
            false
        }
    }

    /// Recomputes `p_i = (c_i + ζ) / (Σ c_j + K ζ)` immediately.
    pub(crate) fn update_probabilities(&mut self, credits: &[u64]) {
        let k = self.operators.len();
        let total: f64 = (0..k)
            .map(|i| credits.get(i).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            + k as f64 * ZETA;
        for (i, p) in self.probabilities.iter_mut().enumerate() {
            let c = credits.get(i).copied().unwrap_or(0) as f64;
            *p = (c + ZETA) / total;
        }
    }
}

impl std::fmt::Debug for AdaptiveEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveEnsemble")
            .field("operators", &self.names())
            .field("probabilities", &self.probabilities)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::standard_borg_operators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ensemble() -> AdaptiveEnsemble {
        AdaptiveEnsemble::new(standard_borg_operators(10))
    }

    #[test]
    fn initial_probabilities_are_uniform() {
        let e = ensemble();
        for &p in e.probabilities() {
            assert!((p - 1.0 / 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_always_sum_to_one() {
        let mut e = ensemble();
        e.update_probabilities(&[10, 0, 0, 5, 0, 1]);
        let sum: f64 = e.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn credited_operator_gains_probability() {
        let mut e = ensemble();
        e.update_probabilities(&[100, 0, 0, 0, 0, 0]);
        let p = e.probabilities();
        assert!(p[0] > 0.9, "p = {p:?}");
        for &q in &p[1..] {
            assert!(q > 0.0, "zeta must keep all operators alive");
            assert!(q < 0.02);
        }
    }

    #[test]
    fn update_fires_at_configured_frequency() {
        let mut e = ensemble();
        for _ in 1..UPDATE_FREQUENCY {
            assert!(!e.on_evaluation(&[5, 0, 0, 0, 0, 0]));
        }
        assert!(e.on_evaluation(&[5, 0, 0, 0, 0, 0]));
        assert!(e.probabilities()[0] > e.probabilities()[1]);
    }

    #[test]
    fn selection_tracks_probabilities() {
        let mut e = ensemble();
        e.update_probabilities(&[1000, 0, 0, 0, 0, 0]);
        let mut rng = StdRng::seed_from_u64(8);
        let mut count0 = 0;
        for _ in 0..1000 {
            if e.select(&mut rng) == 0 {
                count0 += 1;
            }
        }
        assert!(count0 > 900, "operator 0 selected {count0}/1000");
    }

    #[test]
    fn short_credit_slice_is_padded_with_zeros() {
        let mut e = ensemble();
        // Credits vector shorter than the operator count must not panic.
        e.update_probabilities(&[3]);
        let sum: f64 = e.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(e.probabilities()[0] > e.probabilities()[1]);
    }
}
