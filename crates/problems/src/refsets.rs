//! Analytic reference (true Pareto front) sets.
//!
//! The paper's hypervolume metric is measured "relative to an ideal
//! mathematical baseline": both DTLZ2 and UF11 have known Pareto fronts, so
//! hypervolume 1.0 means matching the true front. This module generates
//! uniformly-spread samples of those fronts.

/// Generates the Das–Dennis simplex-lattice weight vectors: all `m`-vectors
/// of non-negative multiples of `1/h` summing to 1. Produces
/// `C(h + m − 1, m − 1)` points.
pub fn das_dennis_weights(m: usize, h: usize) -> Vec<Vec<f64>> {
    assert!(m >= 1);
    let mut out = Vec::new();
    let mut current = vec![0usize; m];
    fn recurse(
        m: usize,
        left: usize,
        idx: usize,
        current: &mut [usize],
        out: &mut Vec<Vec<f64>>,
        h: usize,
    ) {
        if idx == m - 1 {
            current[idx] = left;
            out.push(current.iter().map(|&c| c as f64 / h as f64).collect());
            return;
        }
        for c in 0..=left {
            current[idx] = c;
            recurse(m, left - c, idx + 1, current, out, h);
        }
    }
    recurse(m, h, 0, &mut current, &mut out, h);
    out
}

/// True front of DTLZ2 with `m` objectives: the positive orthant of the
/// unit sphere, sampled by radially projecting Das–Dennis lattice points.
pub fn dtlz2_front(m: usize, divisions: usize) -> Vec<Vec<f64>> {
    das_dennis_weights(m, divisions)
        .into_iter()
        .map(|w| {
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm == 0.0 {
                w
            } else {
                w.into_iter().map(|x| x / norm).collect()
            }
        })
        .collect()
}

/// True front of UF11: the DTLZ2 sphere with UF11's per-objective scales
/// applied (the rotation acts on decision space only).
pub fn uf11_front(divisions: usize) -> Vec<Vec<f64>> {
    let scales = crate::uf::uf11().objective_scales().to_vec();
    dtlz2_front(5, divisions)
        .into_iter()
        .map(|p| p.into_iter().zip(&scales).map(|(f, s)| f * s).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binomial coefficient: the size of a Das–Dennis lattice.
    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        let k = k.min(n - k);
        let mut acc: u128 = 1;
        for i in 0..k {
            acc = acc * (n - i) as u128 / (i + 1) as u128;
        }
        acc as usize
    }

    #[test]
    fn das_dennis_counts_match_binomial() {
        for (m, h) in [(2, 10), (3, 6), (5, 4)] {
            let w = das_dennis_weights(m, h);
            assert_eq!(w.len(), binomial(h + m - 1, m - 1), "m={m} h={h}");
        }
    }

    #[test]
    fn das_dennis_weights_sum_to_one() {
        for w in das_dennis_weights(4, 5) {
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn dtlz2_front_lies_on_unit_sphere() {
        for p in dtlz2_front(5, 4) {
            let r2: f64 = p.iter().map(|x| x * x).sum();
            assert!((r2 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn uf11_front_is_scaled_sphere() {
        for p in uf11_front(4) {
            let r2: f64 = p
                .iter()
                .zip([1.0, 2.0, 3.0, 4.0, 5.0])
                .map(|(f, s)| (f / s) * (f / s))
                .sum();
            assert!((r2 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(8, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }
}
