//! The paper's hypervolume metric: normalized against a known reference
//! set, so that 1.0 means "matches the true Pareto front".
//!
//! Construction: normalize objectives by the reference set's ideal/nadir
//! points, compute hypervolume w.r.t. the normalized nadir `(1,…,1)`, and
//! divide by the reference set's own hypervolume. Both an exact (WFG) and a
//! seeded Monte-Carlo backend are provided; trajectory analyses use the MC
//! backend so estimator error is common-mode across compared runs.

use crate::hypervolume::hypervolume;
use crate::mc_hypervolume::{HvTracker, McHypervolume};
use crate::normalize::ObjectiveBounds;

enum Backend {
    Exact,
    MonteCarlo(McHypervolume),
}

/// Reference-set-normalized hypervolume (the paper's metric).
pub struct RelativeHypervolume {
    bounds: ObjectiveBounds,
    backend: Backend,
    reference_hv: f64,
}

impl RelativeHypervolume {
    /// Exact-backend metric.
    pub fn exact(reference_set: &[Vec<f64>]) -> Self {
        let bounds = ObjectiveBounds::from_set(reference_set);
        let normalized = bounds.normalize_set(reference_set);
        let m = bounds.dim();
        let reference_hv = hypervolume(&normalized, &vec![1.0; m]);
        assert!(
            reference_hv > 0.0,
            "reference set has zero hypervolume: degenerate front?"
        );
        Self {
            bounds,
            backend: Backend::Exact,
            reference_hv,
        }
    }

    /// Monte-Carlo-backend metric with `samples` common random points.
    pub fn monte_carlo(reference_set: &[Vec<f64>], samples: usize, seed: u64) -> Self {
        let bounds = ObjectiveBounds::from_set(reference_set);
        let normalized = bounds.normalize_set(reference_set);
        let m = bounds.dim();
        let est = McHypervolume::unit(m, samples, seed);
        let reference_hv = est.estimate(&normalized);
        assert!(
            reference_hv > 0.0,
            "reference set has zero estimated hypervolume; increase samples"
        );
        Self {
            bounds,
            backend: Backend::MonteCarlo(est),
            reference_hv,
        }
    }

    /// The normalization bounds in use.
    pub fn bounds(&self) -> &ObjectiveBounds {
        &self.bounds
    }

    /// Hypervolume ratio of an approximation set: ~0 for far-away sets,
    /// ~1 for sets matching the reference front. Slightly above 1 is
    /// possible for ε-archives whose representatives sit inside the lattice
    /// gaps of a finitely-sampled reference set.
    pub fn ratio(&self, approximation: &[Vec<f64>]) -> f64 {
        self.ratio_rows(approximation.iter().map(|p| p.as_slice()))
    }

    /// As [`ratio`](Self::ratio), reading the approximation set from
    /// borrowed row slices (e.g. an archive's flat objective matrix) so
    /// callers need not materialize a `Vec<Vec<f64>>` first. Performs the
    /// identical arithmetic in the identical order, so results are
    /// bit-identical to `ratio`.
    pub fn ratio_rows<'a, I>(&self, rows: I) -> f64
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut normalized = Vec::new();
        for p in rows {
            self.bounds.normalize_into(p, &mut normalized);
        }
        if normalized.is_empty() {
            return 0.0;
        }
        let m = self.bounds.dim();
        let rows = normalized.chunks_exact(m);
        let hv = match &self.backend {
            Backend::Exact => hypervolume(
                &rows.map(<[f64]>::to_vec).collect::<Vec<_>>(),
                &vec![1.0; m],
            ),
            Backend::MonteCarlo(est) => est.volume(est.covered(rows)),
        };
        hv / self.reference_hv
    }

    /// A tracker of raw objective rows under this metric: its
    /// [`sync`](HvTracker::sync) returns, bit for bit, what
    /// [`ratio_rows`](Self::ratio_rows) returns for the same rows, at the
    /// cost of the rows that changed since the last sync.
    ///
    /// # Panics
    /// If the backend is exact: it has no samples to count.
    pub fn tracker(&self) -> HvTracker<'_> {
        match &self.backend {
            Backend::MonteCarlo(est) => HvTracker::new(est, Some(&self.bounds), self.reference_hv),
            Backend::Exact => panic!("an exact-backend metric has no samples to track"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_core::matrix::ObjectiveMatrix;
    use borg_problems::refsets::dtlz2_front;

    #[test]
    fn reference_set_scores_one() {
        let front = dtlz2_front(3, 12);
        let metric = RelativeHypervolume::exact(&front);
        let r = metric.ratio(&front);
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set_scores_zero() {
        let metric = RelativeHypervolume::exact(&dtlz2_front(3, 8));
        assert_eq!(metric.ratio(&[]), 0.0);
    }

    #[test]
    fn inflated_set_scores_less_than_one() {
        let front = dtlz2_front(3, 12);
        let inflated: Vec<Vec<f64>> = front
            .iter()
            .map(|p| p.iter().map(|x| x * 1.2).collect())
            .collect();
        let metric = RelativeHypervolume::exact(&front);
        let r = metric.ratio(&inflated);
        assert!(r < 0.8, "inflated front scored {r}");
        assert!(r > 0.0);
    }

    #[test]
    fn partial_coverage_scores_partially() {
        let front = dtlz2_front(3, 12);
        let metric = RelativeHypervolume::exact(&front);
        let half: Vec<Vec<f64>> = front.iter().take(front.len() / 4).cloned().collect();
        let r = metric.ratio(&half);
        assert!(r > 0.05 && r < 0.95, "quarter front scored {r}");
    }

    #[test]
    fn mc_backend_tracks_exact_backend() {
        let front = dtlz2_front(3, 10);
        let exact = RelativeHypervolume::exact(&front);
        let mc = RelativeHypervolume::monte_carlo(&front, 100_000, 9);
        let test_set: Vec<Vec<f64>> = front
            .iter()
            .map(|p| p.iter().map(|x| x * 1.05).collect())
            .collect();
        let a = exact.ratio(&test_set);
        let b = mc.ratio(&test_set);
        assert!((a - b).abs() < 0.03, "exact {a} vs mc {b}");
    }

    #[test]
    fn scaling_objectives_does_not_change_ratio() {
        // UF11's objective scaling must be normalized away.
        let front = dtlz2_front(3, 10);
        let scales = [1.0, 2.0, 5.0];
        let scaled_front: Vec<Vec<f64>> = front
            .iter()
            .map(|p| p.iter().zip(scales).map(|(x, s)| x * s).collect())
            .collect();
        let metric = RelativeHypervolume::exact(&front);
        let scaled_metric = RelativeHypervolume::exact(&scaled_front);
        let approx: Vec<Vec<f64>> = front
            .iter()
            .map(|p| p.iter().map(|x| x * 1.1).collect())
            .collect();
        let scaled_approx: Vec<Vec<f64>> = approx
            .iter()
            .map(|p| p.iter().zip(scales).map(|(x, s)| x * s).collect())
            .collect();
        let a = metric.ratio(&approx);
        let b = scaled_metric.ratio(&scaled_approx);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn tracker_follows_archive_changes_bit_for_bit() {
        // Scaled objectives, so the tracker must normalize as `ratio_rows` does.
        let front: Vec<Vec<f64>> = dtlz2_front(3, 10)
            .iter()
            .map(|p| p.iter().zip([1.0, 2.0, 5.0]).map(|(x, s)| x * s).collect())
            .collect();
        let metric = RelativeHypervolume::monte_carlo(&front, 5_000, 3);
        let mut hv = metric.tracker();
        let mut synced = |rows: &ObjectiveMatrix| {
            let v = hv.sync(rows);
            assert_eq!(v.to_bits(), metric.ratio_rows(rows.iter_rows()).to_bits());
            v
        };
        let mut rows = ObjectiveMatrix::new(3);
        assert_eq!(synced(&rows), 0.0);
        for p in front.iter().step_by(7) {
            rows.push_row(&p.iter().map(|x| x * 1.3).collect::<Vec<_>>());
            synced(&rows);
        }
        let before = synced(&rows);
        assert_eq!(synced(&rows).to_bits(), before.to_bits());
        // A member moves to (0.3, 0.3, 0.3) in normalized space, a region
        // no inflated front point dominates: the value must rise, and fall
        // again when that member is evicted.
        rows.set_row(0, &[0.3, 0.6, 1.5]);
        let after = synced(&rows);
        assert!(after > before, "{before} → {after}");
        rows.swap_remove_row(0);
        assert!(synced(&rows) < after);
        rows.clear();
        assert_eq!(synced(&rows), 0.0);
    }
}
