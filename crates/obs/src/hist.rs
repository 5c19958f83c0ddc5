//! Log-bucketed histograms for timing distributions.
//!
//! The paper characterises `T_F`, `T_C` and `T_A` by their *distributions*
//! (Table I fits, Eq. 2/3 expectations), so point summaries are not
//! enough. [`Histogram`] buckets positive values logarithmically — four
//! sub-buckets per power of two, derived from the IEEE-754 exponent and
//! top mantissa bits with pure integer arithmetic — giving ~9% relative
//! bucket width over the full f64 range with no float `log` calls, exact
//! determinism, and lossless `Histogram::merge`.

use std::collections::BTreeMap;

/// Sub-buckets per octave (power of two), from the top 2 mantissa bits.
const SUBBUCKETS: u16 = 4;

/// A log-bucketed histogram of (mostly positive) f64 samples.
///
/// Non-positive and non-finite samples are counted in a dedicated
/// `nonpositive` bucket rather than dropped, so `count()` is always the
/// number of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<u16, u64>,
    nonpositive: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: BTreeMap::new(),
            nonpositive: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket key of a positive finite value: biased exponent plus the top
    /// two mantissa bits. Monotone in the value, so bucket order is value
    /// order. Subnormals share the bottom octave (fine for durations).
    fn key(value: f64) -> u16 {
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as u16;
        let sub = ((bits >> 50) & 0x3) as u16;
        exp * SUBBUCKETS + sub
    }

    /// Inclusive lower bound of the bucket with the given key.
    pub(crate) fn bucket_lower(key: u16) -> f64 {
        let exp = i32::from(key / SUBBUCKETS) - 1023;
        let sub = f64::from(key % SUBBUCKETS);
        (1.0 + sub / f64::from(SUBBUCKETS)) * (2.0f64).powi(exp)
    }

    /// Exclusive upper bound of the bucket with the given key.
    pub(crate) fn bucket_upper(key: u16) -> f64 {
        Self::bucket_lower(key + 1)
    }

    /// Records one observation.
    pub(crate) fn record(&mut self, value: f64) {
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        if value > 0.0 && value.is_finite() {
            *self.buckets.entry(Self::key(value)).or_insert(0) += 1;
        } else {
            self.nonpositive += 1;
        }
    }

    /// Folds another histogram into this one. Lossless: bucket counts add,
    /// so merging per-shard histograms equals one histogram of the
    /// concatenated samples.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
        self.nonpositive += other.nonpositive;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations (including non-positive ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (`NaN` when empty).
    pub(crate) fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Smallest finite observation (`+inf` when none).
    pub(crate) fn min(&self) -> f64 {
        self.min
    }

    /// Largest finite observation (`-inf` when none).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Observations that were zero, negative or non-finite.
    pub(crate) fn nonpositive(&self) -> u64 {
        self.nonpositive
    }

    /// Occupied buckets as `(lower, upper, count)`, ascending.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|(&k, &n)| (Self::bucket_lower(k), Self::bucket_upper(k), n))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) computed exactly from the bucket
    /// counts: the bucket containing the target rank is located by an
    /// exact integer walk, and the returned bound is clamped into the
    /// observed `[min, max]` range, so single-valued histograms and the
    /// extreme quantiles are exact rather than bucket-rounded. Returns
    /// `0.0` if the quantile falls among non-positive samples and `NaN`
    /// when empty. Interior error stays bounded by the ~9% relative
    /// bucket width.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.nonpositive;
        if seen >= target {
            return 0.0;
        }
        for (&k, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                // The rank is in this bucket. The bucket's upper bound can
                // overshoot the largest sample actually recorded (and its
                // lower bound can undershoot the smallest), so clamp into
                // the exact observed range; when the target rank is the
                // last observation overall, the answer is exactly `max`.
                if seen == self.count {
                    return self.max;
                }
                return Self::bucket_upper(k).min(self.max).max(self.min.max(0.0));
            }
        }
        self.max
    }

    /// The histogram of observations recorded since `prev` was a snapshot
    /// of this histogram (counts and sums subtract; `prev` must be an
    /// earlier state of `self`, as enforced by saturating arithmetic).
    ///
    /// `min`/`max` stay *cumulative* — a log-bucketed histogram cannot
    /// recover the extrema of just the new samples — which the live
    /// metrics tap documents on its wire format.
    pub(crate) fn diff(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (&k, &n) in &self.buckets {
            let before = prev.buckets.get(&k).copied().unwrap_or(0);
            let delta = n.saturating_sub(before);
            if delta > 0 {
                out.buckets.insert(k, delta);
            }
        }
        out.nonpositive = self.nonpositive.saturating_sub(prev.nonpositive);
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum - prev.sum;
        out.min = self.min;
        out.max = self.max;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Exactly 1.0 starts the sub-bucket [1.0, 1.25).
        let k = Histogram::key(1.0);
        assert_eq!(Histogram::bucket_lower(k), 1.0);
        assert_eq!(Histogram::bucket_upper(k), 1.25);
        // A value epsilon below a sub-bucket boundary stays below it.
        let below = f64::from_bits(1.25f64.to_bits() - 1);
        assert_eq!(Histogram::key(below), k);
        assert_eq!(Histogram::key(1.25), k + 1);
        // Octave boundary: 2.0 rolls into the next exponent's first bucket.
        let k2 = Histogram::key(2.0);
        assert_eq!(k2, k + SUBBUCKETS);
        assert_eq!(Histogram::bucket_lower(k2), 2.0);
        // The last sub-bucket of an octave ends exactly at the next octave.
        assert_eq!(Histogram::bucket_upper(k2 - 1), 2.0);
        // Tiny durations (microseconds) bucket consistently too.
        let k_us = Histogram::key(6e-6);
        assert!(Histogram::bucket_lower(k_us) <= 6e-6);
        assert!(6e-6 < Histogram::bucket_upper(k_us));
    }

    #[test]
    fn bucket_keys_are_monotone_in_value() {
        let values = [1e-9, 3e-6, 0.001, 0.0011, 0.5, 1.0, 1.2, 7.0, 1e9];
        for pair in values.windows(2) {
            assert!(Histogram::key(pair[0]) <= Histogram::key(pair[1]));
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [0.5, 2.0, 0.0, -1.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.nonpositive(), 2);
        assert_eq!(h.sum(), 1.5);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 2.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs = [0.001, 0.004, 0.002, 7.5, 0.0];
        let ys = [0.003, 120.0, 1e-7, 0.001];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for &v in &xs {
            a.record(v);
            all.record(v);
        }
        for &v in &ys {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn quantile_walks_buckets() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(0.001);
        }
        for _ in 0..10 {
            h.record(1.0);
        }
        // p50 lands in the 0.001 bucket, p99 in the 1.0 bucket.
        assert!(h.quantile(0.5) < 0.0015);
        assert!(h.quantile(0.99) >= 1.0);
        assert!(Histogram::new().quantile(0.5).is_nan());
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        // A single-valued histogram reports that value exactly at every
        // quantile, not its bucket's upper bound.
        let mut h = Histogram::new();
        h.record(3.7);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.7);
        }
        // Two values: the top quantile is exactly the max, the bottom is
        // never below the min.
        let mut h = Histogram::new();
        h.record(0.001);
        h.record(7.25);
        assert_eq!(h.quantile(1.0), 7.25);
        assert_eq!(h.quantile(0.99), 7.25);
        assert!(h.quantile(0.25) >= 0.001);
        assert!(h.quantile(0.25) < 0.0015);
    }

    #[test]
    fn diff_subtracts_counts_and_keeps_cumulative_extrema() {
        let mut h = Histogram::new();
        h.record(0.001);
        h.record(2.0);
        let before = h.clone();
        h.record(4.0);
        h.record(0.001);
        h.record(-1.0);
        let d = h.diff(&before);
        assert_eq!(d.count(), 3);
        assert_eq!(d.nonpositive(), 1);
        assert!((d.sum() - (4.0 + 0.001 + -1.0)).abs() < 1e-12);
        // Extrema are cumulative (documented tap semantics).
        assert_eq!(d.min(), -1.0);
        assert_eq!(d.max(), 4.0);
        let occupied: Vec<(f64, f64, u64)> = d.buckets().collect();
        assert_eq!(occupied.iter().map(|&(_, _, n)| n).sum::<u64>(), 2);
        // Diff against itself is empty.
        let z = h.diff(&h.clone());
        assert_eq!(z.count(), 0);
        assert_eq!(z.sum(), 0.0);
    }
}
