//! Objective-space normalization against a reference set.
//!
//! All quality indicators in this crate operate on minimization objectives
//! normalized into `[0, 1]^m` by the ideal and nadir points of the *true*
//! Pareto front (the reference set), following the assessment methodology of
//! Zitzler et al. (2002) that the paper cites for its hypervolume metric.

/// Ideal/nadir bounds of a reference set.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveBounds {
    /// Component-wise minimum of the reference set.
    pub ideal: Vec<f64>,
    /// Component-wise maximum of the reference set.
    pub nadir: Vec<f64>,
}

impl ObjectiveBounds {
    /// Computes bounds from a non-empty reference set.
    ///
    /// # Panics
    /// If `reference` is empty or rows have inconsistent lengths.
    pub fn from_set(reference: &[Vec<f64>]) -> Self {
        assert!(!reference.is_empty(), "empty reference set");
        let m = reference[0].len();
        let mut ideal = vec![f64::INFINITY; m];
        let mut nadir = vec![f64::NEG_INFINITY; m];
        for p in reference {
            assert_eq!(p.len(), m, "inconsistent objective counts");
            for i in 0..m {
                ideal[i] = ideal[i].min(p[i]);
                nadir[i] = nadir[i].max(p[i]);
            }
        }
        Self { ideal, nadir }
    }

    /// Number of objectives.
    pub fn dim(&self) -> usize {
        self.ideal.len()
    }

    /// Normalizes one objective vector into reference coordinates
    /// (`0` = ideal, `1` = nadir). Values outside the reference range map
    /// outside `[0, 1]`; callers decide whether to clip or discard.
    pub fn normalize_point(&self, p: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.normalize_into(p, &mut out);
        out
    }

    /// Appends the coordinates [`normalize_point`](Self::normalize_point)
    /// returns for `p` to `out`.
    // borg-lint: hot-path
    pub fn normalize_into(&self, p: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(p.len(), self.dim());
        out.extend(
            p.iter()
                .zip(self.ideal.iter().zip(&self.nadir))
                .map(|(&x, (&lo, &hi))| {
                    let range = hi - lo;
                    if range > 0.0 {
                        (x - lo) / range
                    } else {
                        // Degenerate objective (constant across the front):
                        // deviation from it is pure excess.
                        x - lo
                    }
                }),
        );
    }

    /// Normalizes a whole set.
    pub fn normalize_set(&self, set: &[Vec<f64>]) -> Vec<Vec<f64>> {
        set.iter().map(|p| self.normalize_point(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_from_simple_set() {
        let set = vec![vec![0.0, 2.0], vec![1.0, 1.0], vec![0.5, 3.0]];
        let b = ObjectiveBounds::from_set(&set);
        assert_eq!(b.ideal, vec![0.0, 1.0]);
        assert_eq!(b.nadir, vec![1.0, 3.0]);
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn normalization_maps_ideal_to_zero_and_nadir_to_one() {
        let set = vec![vec![2.0, 10.0], vec![4.0, 20.0]];
        let b = ObjectiveBounds::from_set(&set);
        assert_eq!(b.normalize_point(&[2.0, 10.0]), vec![0.0, 0.0]);
        assert_eq!(b.normalize_point(&[4.0, 20.0]), vec![1.0, 1.0]);
        assert_eq!(b.normalize_point(&[3.0, 15.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn out_of_range_points_exceed_unit_box() {
        let b = ObjectiveBounds::from_set(&[vec![0.0], vec![1.0]]);
        assert_eq!(b.normalize_point(&[2.0]), vec![2.0]);
        assert_eq!(b.normalize_point(&[-1.0]), vec![-1.0]);
    }

    #[test]
    fn degenerate_dimension_uses_raw_offset() {
        let b = ObjectiveBounds::from_set(&[vec![1.0, 5.0], vec![2.0, 5.0]]);
        let p = b.normalize_point(&[1.5, 5.25]);
        assert_eq!(p, vec![0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "empty reference set")]
    fn empty_reference_panics() {
        ObjectiveBounds::from_set(&[]);
    }
}
