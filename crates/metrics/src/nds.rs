//! Non-dominated filtering of raw objective-vector sets.

/// Returns the Pareto-nondominated subset of `points` (minimization),
/// removing exact duplicates. O(n²); metrics-path only.
pub fn nondominated_filter(points: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let idx = borg_core::dominance::nondominated_indices(&points);
    let mut keep = vec![false; points.len()];
    for i in idx {
        keep[i] = true;
    }
    points
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_dominated_and_duplicates() {
        let pts = vec![
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![2.0, 2.0],
            vec![0.0, 1.0],
        ];
        let out = nondominated_filter(pts);
        assert_eq!(out, vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
    }

    #[test]
    fn keeps_everything_when_mutually_nondominated() {
        let pts = vec![vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]];
        assert_eq!(nondominated_filter(pts.clone()), pts);
    }

    #[test]
    fn empty_in_empty_out() {
        assert!(nondominated_filter(vec![]).is_empty());
    }
}
