//! Exact hypervolume via the WFG algorithm (While, Bradstreet & Barone,
//! IEEE TEC 2012).
//!
//! Hypervolume of a point set `S` (minimization) w.r.t. a reference point
//! `r` is the Lebesgue measure of `⋃_{p∈S} [p, r]`. The WFG algorithm
//! computes it as a sum of exclusive contributions, each obtained by
//! "limiting" the remaining points against the current one and recursing on
//! the non-dominated subset. Dedicated `m = 1` and `m = 2` base cases keep
//! the recursion shallow.

use crate::nds::nondominated_filter;

/// Exact hypervolume of `points` with respect to `reference` (minimization).
///
/// Points not strictly dominating the reference point contribute nothing
/// and are dropped. Returns 0 for an empty (effective) set.
///
/// # Panics
/// If dimensions are inconsistent.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let m = reference.len();
    let mut set: Vec<Vec<f64>> = points
        .iter()
        .filter(|p| {
            assert_eq!(p.len(), m, "dimension mismatch");
            p.iter().zip(reference).all(|(a, r)| a < r)
        })
        .cloned()
        .collect();
    if set.is_empty() {
        return 0.0;
    }
    set = nondominated_filter(set);
    // Sorting by the first objective descending improves limit-set pruning.
    set.sort_by(|a, b| b[0].total_cmp(&a[0]));
    wfg(&set, reference)
}

fn wfg(set: &[Vec<f64>], reference: &[f64]) -> f64 {
    match reference.len() {
        1 => {
            // 1-D: the best point determines the measure.
            let best = set.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            (reference[0] - best).max(0.0)
        }
        2 => hv2d(set, reference),
        _ => set
            .iter()
            .enumerate()
            .map(|(i, p)| exclusive_hv(p, &set[i + 1..], reference))
            .sum(),
    }
}

/// Inclusive hypervolume of a single point.
fn inclusive_hv(p: &[f64], reference: &[f64]) -> f64 {
    p.iter().zip(reference).map(|(a, r)| r - a).product()
}

/// Exclusive contribution of `p` against the later points `rest`.
fn exclusive_hv(p: &[f64], rest: &[Vec<f64>], reference: &[f64]) -> f64 {
    let incl = inclusive_hv(p, reference);
    if rest.is_empty() {
        return incl;
    }
    // Limit set: each later point clipped into p's dominated box.
    let limited: Vec<Vec<f64>> = rest
        .iter()
        .map(|q| q.iter().zip(p).map(|(&a, &b)| a.max(b)).collect())
        .collect();
    let limited = nondominated_filter(limited);
    incl - wfg(&limited, reference)
}

/// O(n log n) sweep for the 2-D base case.
fn hv2d(set: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut pts: Vec<(f64, f64)> = set.iter().map(|p| (p[0], p[1])).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut hv = 0.0;
    let mut best_f2 = reference[1];
    for (f1, f2) in pts {
        if f2 < best_f2 {
            hv += (reference[0] - f1) * (best_f2 - f2);
            best_f2 = f2;
        }
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_box() {
        let hv = hypervolume(&[vec![0.25, 0.25]], &[1.0, 1.0]);
        assert!((hv - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn point_on_reference_contributes_nothing() {
        assert_eq!(hypervolume(&[vec![1.0, 0.0]], &[1.0, 1.0]), 0.0);
        assert_eq!(hypervolume(&[vec![2.0, 0.0]], &[1.0, 1.0]), 0.0);
        assert_eq!(hypervolume(&[], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn two_nondominated_points_union() {
        // Boxes [0.2,1]x[0.6,1] and [0.6,1]x[0.2,1]: union area
        // = 0.8*0.4 + 0.4*0.8 − 0.4*0.4 = 0.48.
        let hv = hypervolume(&[vec![0.2, 0.6], vec![0.6, 0.2]], &[1.0, 1.0]);
        assert!((hv - 0.48).abs() < 1e-12);
    }

    #[test]
    fn dominated_points_are_ignored() {
        let a = hypervolume(&[vec![0.2, 0.2]], &[1.0, 1.0]);
        let b = hypervolume(
            &[vec![0.2, 0.2], vec![0.5, 0.5], vec![0.9, 0.3]],
            &[1.0, 1.0],
        );
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_counted_once() {
        let a = hypervolume(&[vec![0.3, 0.4]], &[1.0, 1.0]);
        let b = hypervolume(&[vec![0.3, 0.4], vec![0.3, 0.4]], &[1.0, 1.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn three_d_staircase() {
        // Three mutually nondominated unit-corner boxes in 3-D.
        let pts = vec![
            vec![0.0, 0.5, 0.5],
            vec![0.5, 0.0, 0.5],
            vec![0.5, 0.5, 0.0],
        ];
        // Inclusion-exclusion: 3·(1·0.5·0.5) − 3·(0.5·0.5·0.5) + 0.125 = 0.5.
        let hv = hypervolume(&pts, &[1.0, 1.0, 1.0]);
        assert!((hv - 0.5).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn five_d_single_point() {
        let hv = hypervolume(&[vec![0.5; 5]], &[1.0; 5]);
        assert!((hv - 0.5f64.powi(5)).abs() < 1e-12);
    }

    #[test]
    fn matches_inclusion_exclusion_on_random_sets() {
        // Brute-force union volume by inclusion-exclusion over all subsets
        // (valid for small sets), compared against WFG in 3-D and 4-D.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for m in [3usize, 4] {
            for _ in 0..20 {
                let pts: Vec<Vec<f64>> = (0..5)
                    .map(|_| (0..m).map(|_| rng.gen::<f64>() * 0.9).collect())
                    .collect();
                let reference = vec![1.0; m];
                let expect = brute_force_union(&pts, &reference);
                let got = hypervolume(&pts, &reference);
                assert!(
                    (expect - got).abs() < 1e-9,
                    "m={m}: WFG {got} vs inclusion-exclusion {expect}"
                );
            }
        }
    }

    fn brute_force_union(pts: &[Vec<f64>], reference: &[f64]) -> f64 {
        let n = pts.len();
        let m = reference.len();
        let mut total = 0.0;
        for mask in 1u32..(1 << n) {
            let mut corner = vec![f64::NEG_INFINITY; m];
            for (i, p) in pts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    for j in 0..m {
                        corner[j] = corner[j].max(p[j]);
                    }
                }
            }
            let vol: f64 = corner
                .iter()
                .zip(reference)
                .map(|(&c, &r)| (r - c).max(0.0))
                .product();
            if mask.count_ones() % 2 == 1 {
                total += vol;
            } else {
                total -= vol;
            }
        }
        total
    }

    #[test]
    fn dtlz2_front_hypervolume_is_stable() {
        // The exact HV of the continuous 3-D unit-sphere front w.r.t.
        // (1,1,1) is 1 − π/6 ≈ 0.4764; finite lattice samples approach it
        // from below as the lattice densifies.
        let limit = 1.0 - std::f64::consts::PI / 6.0;
        let coarse = borg_problems::refsets::dtlz2_front(3, 12);
        let fine = borg_problems::refsets::dtlz2_front(3, 20);
        let r = vec![1.0; 3];
        let hc = hypervolume(&coarse, &r);
        let hf = hypervolume(&fine, &r);
        assert!(hf > hc, "denser front sample must dominate more volume");
        assert!(hf < limit, "lattice HV exceeded the continuum limit: {hf}");
        assert!(limit - hf < limit - hc, "not converging toward 1 − π/6");
        assert!(hf > 0.4, "implausibly small sphere-front HV {hf}");
    }
}
