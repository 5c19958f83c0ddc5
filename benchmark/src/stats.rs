//! The statistics the benchmark reports: best-of-k, median, inter-quartile
//! range, and percentiles that are only quoted when enough samples lie
//! beyond them.

/// Sorted copy (total order; the benchmark never produces NaN timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Largest value (`0.0` for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0)
}

/// Smallest value (`0.0` for an empty slice).
pub fn min(values: &[f64]) -> f64 {
    let m = values.iter().copied().fold(f64::INFINITY, f64::min);
    if m.is_finite() {
        m
    } else {
        0.0
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method) — the same rule the driver applies
/// to the spread of a metric. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Cut point i of 4 at position i·(n+1)/4, interpolated, clamped.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile range (third quartile − first quartile).
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Nearest-rank percentile `q ∈ [0, 1]` of an already sorted slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the customary percentiles (p50, p90, p99, p99.9) that
/// still has at least ten samples beyond it in a sample of `n`; `None`
/// when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille integers: `100 · (1 − 0.9)` is 9.99… in floating point.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_median_iqr_of_a_known_sample() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(max(&v), 5.0);
        assert_eq!(min(&v), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&v), (1.5, 4.5));
        assert_eq!(iqr(&v), 3.0);
    }

    #[test]
    fn quartiles_match_python_on_ten_values() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // Two values: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn degenerate_samples_do_not_panic() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(20_000), Some(0.999));
    }
}
