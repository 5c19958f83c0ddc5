//! Monte-Carlo hypervolume estimation.
//!
//! Exact hypervolume is exponential in the objective count; the paper's
//! workloads are 5-objective and its figures need hypervolume along whole
//! search trajectories. A seeded quasi-uniform sampler gives a fast,
//! *consistent* estimator: using the same seed for every set in a
//! comparison makes the estimator's error common-mode, which is exactly
//! what threshold-crossing analyses (Figures 3–4) need.
//!
//! The samples live in one column-major buffer, and every dominance test
//! runs through one branch-free kernel over a block of samples.
//! [`HvTracker`] keeps a dominator count per sample for a changing row set,
//! so a trajectory pays per row that changed rather than per checkpoint
//! times the archive's size.

use crate::normalize::ObjectiveBounds;
use borg_core::matrix::ObjectiveMatrix;
use borg_core::rng::SplitMix64;
use rand::Rng;

/// Samples per block of the dominance kernel; its masks live on the stack.
const BLOCK: usize = 256;

/// Points an [`McHypervolume::estimate`] block tests between two drops of
/// the samples already covered.
const COMPACT_EVERY: usize = 16;

/// Monte-Carlo hypervolume estimator over the box `[lower, reference]`.
#[derive(Debug, Clone)]
pub struct McHypervolume {
    /// Sample coordinates, column-major: objective `j` of sample `i` is
    /// `columns[j * n + i]`.
    columns: Vec<f64>,
    n: usize,
    box_volume: f64,
    reference: Vec<f64>,
}

impl McHypervolume {
    /// Creates an estimator with `n` samples drawn uniformly from the box
    /// spanned by `lower` and `reference`.
    ///
    /// # Panics
    /// If the box is degenerate or `n == 0`.
    pub fn new(lower: &[f64], reference: &[f64], n: usize, seed: u64) -> Self {
        assert_eq!(lower.len(), reference.len());
        assert!(n > 0, "need at least one sample");
        assert!(
            lower.iter().zip(reference).all(|(a, b)| a < b),
            "degenerate sampling box"
        );
        let mut rng = SplitMix64::new(seed).derive("mc-hv");
        let m = lower.len();
        // Drawn sample by sample, objective by objective: the stream order
        // every estimate is pinned to.
        let mut columns = vec![0.0; n * m];
        for i in 0..n {
            for j in 0..m {
                columns[j * n + i] = rng.gen_range(lower[j]..reference[j]);
            }
        }
        let box_volume = lower.iter().zip(reference).map(|(a, b)| b - a).product();
        Self {
            columns,
            n,
            box_volume,
            reference: reference.to_vec(),
        }
    }

    /// Unit-box estimator (`[0,1]^m`), the common case after normalization.
    pub(crate) fn unit(m: usize, n: usize, seed: u64) -> Self {
        Self::new(&vec![0.0; m], &vec![1.0; m], n, seed)
    }

    /// Estimates the hypervolume of `points` w.r.t. the configured
    /// reference point: `box_volume × (fraction of samples dominated)`.
    pub fn estimate(&self, points: &[Vec<f64>]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        self.volume(self.covered(points.iter().map(Vec::as_slice)))
    }

    /// A tracker of rows taken as they are (no normalization): its value
    /// is [`estimate`](Self::estimate) of the rows last synced.
    pub fn tracker(&self) -> HvTracker<'_> {
        HvTracker::new(self, None, 1.0)
    }

    /// `box_volume × covered / n`: the one formula every value takes.
    pub(crate) fn volume(&self, covered: usize) -> f64 {
        self.box_volume * covered as f64 / self.n as f64
    }

    /// Samples weakly dominated by at least one of `points`. A block of
    /// samples is copied out and tested against every point; every
    /// [`COMPACT_EVERY`] points the samples already covered are dropped,
    /// so later points test only the ones still open.
    pub(crate) fn covered<'a, I>(&self, points: I) -> usize
    where
        I: Iterator<Item = &'a [f64]> + Clone,
    {
        let m = self.reference.len();
        let mut open = vec![0.0; m * BLOCK];
        let mut any = [0u32; BLOCK];
        let mut mask = [0u32; BLOCK];
        let mut covered = 0;
        for start in (0..self.n).step_by(BLOCK) {
            let len = BLOCK.min(self.n - start);
            for j in 0..m {
                open[j * BLOCK..][..len]
                    .copy_from_slice(&self.columns[j * self.n + start..][..len]);
            }
            let mut live = len;
            any[..live].fill(0);
            for (i, p) in points.clone().enumerate() {
                dominated(p, &open, BLOCK, &mut mask[..live]);
                any[..live].iter_mut().zip(&mask).for_each(|(a, d)| *a |= d);
                if (i + 1) % COMPACT_EVERY == 0 {
                    live = compact(&mut open, &mut any, live, m);
                    if live == 0 {
                        break;
                    }
                }
            }
            covered += len - compact(&mut open, &mut any, live, m);
        }
        covered
    }
}

/// Sets `mask[k]` to 1 if `point` weakly dominates sample `k` of
/// `columns` (column-major, column `j` from `j * stride`) and to 0
/// otherwise. Branch-free: one compare and one `and` per coordinate, a
/// column at a time, so the inner loop vectorises.
// borg-lint: hot-path
fn dominated(point: &[f64], columns: &[f64], stride: usize, mask: &mut [u32]) {
    mask.fill(1);
    for (j, &p) in point.iter().enumerate() {
        let column = &columns[j * stride..][..mask.len()];
        for (d, &s) in mask.iter_mut().zip(column) {
            *d &= u32::from(p <= s);
        }
    }
}

/// Moves the first `live` samples of `open` (stride [`BLOCK`]) that `any`
/// leaves at 0 to its front in order, zeroes `any` for them, and returns
/// how many there are.
fn compact(open: &mut [f64], any: &mut [u32; BLOCK], live: usize, m: usize) -> usize {
    let mut kept = 0;
    for k in 0..live {
        for j in 0..m {
            open[j * BLOCK + kept] = open[j * BLOCK + k];
        }
        kept += usize::from(any[k] == 0);
    }
    any[..kept].fill(0);
    kept
}

/// A row set's hypervolume kept up to date between syncs: a dominator
/// count per sample, and a flat mirror of the rows those counts describe.
///
/// [`sync`](Self::sync) compares the mirror with the current rows position
/// by position, by bits. A row that left subtracts one from the count of
/// every sample it dominates, a row that arrived adds one, and a sample is
/// covered while its count is non-zero. That is the count a recompute takes
/// over the same samples, put through the same `volume / scale`
/// arithmetic, so the value is bit-equal to [`McHypervolume::estimate`] (to
/// [`ratio_rows`](crate::relative::RelativeHypervolume::ratio_rows) for a
/// tracker from [`RelativeHypervolume::tracker`](crate::relative::RelativeHypervolume::tracker)).
/// An ε-archive evicts with `swap_remove`, so an eviction changes at most
/// two positions, and each changed row costs O(samples × m) whatever the
/// archive's size.
#[derive(Debug, Clone)]
pub struct HvTracker<'a> {
    est: &'a McHypervolume,
    /// Maps a row into the samples' space before it is counted.
    bounds: Option<&'a ObjectiveBounds>,
    /// Divisor of the volume: the reference set's hypervolume, or 1.
    scale: f64,
    /// Dominator count per sample.
    counts: Vec<u32>,
    /// The rows the counts describe, row-major.
    mirror: Vec<f64>,
    /// Reusable normalized row.
    row: Vec<f64>,
}

impl<'a> HvTracker<'a> {
    pub(crate) fn new(
        est: &'a McHypervolume,
        bounds: Option<&'a ObjectiveBounds>,
        scale: f64,
    ) -> Self {
        Self {
            est,
            bounds,
            scale,
            counts: vec![0; est.n],
            mirror: Vec::new(),
            row: Vec::with_capacity(est.reference.len()),
        }
    }

    /// Brings the counts in step with `rows` and returns the value.
    ///
    /// # Panics
    /// If a non-empty `rows` is not as wide as the samples.
    // borg-lint: hot-path
    pub fn sync(&mut self, rows: &ObjectiveMatrix) -> f64 {
        let m = self.est.reference.len();
        assert!(rows.is_empty() || rows.stride() == m, "row width mismatch");
        // Taken out for the loop so `count` may borrow `self`; put back after.
        let mut mirror = std::mem::take(&mut self.mirror);
        let (old, new) = (mirror.len() / m, rows.rows());
        for i in 0..old.max(new) {
            let now = (i < new).then(|| rows.row(i));
            if i < old {
                let was = &mirror[i * m..(i + 1) * m];
                if now.is_some_and(|now| same_bits(now, was)) {
                    continue;
                }
                self.count(was, u32::MAX);
            }
            if let Some(now) = now {
                self.count(now, 1);
            }
        }
        mirror.clear();
        mirror.extend_from_slice(rows.as_slice());
        self.mirror = mirror;
        let covered = self.counts.iter().filter(|&&c| c != 0).count();
        self.est.volume(covered) / self.scale
    }

    /// Adds `delta` (1, or `u32::MAX` for −1) to the count of every sample
    /// `row` dominates.
    // borg-lint: hot-path
    fn count(&mut self, row: &[f64], delta: u32) {
        let point = match self.bounds {
            Some(bounds) => {
                self.row.clear();
                bounds.normalize_into(row, &mut self.row);
                &self.row[..]
            }
            None => row,
        };
        let mut mask = [0u32; BLOCK];
        for (b, counts) in self.counts.chunks_mut(BLOCK).enumerate() {
            let mask = &mut mask[..counts.len()];
            dominated(point, &self.est.columns[b * BLOCK..], self.est.n, mask);
            for (c, &d) in counts.iter_mut().zip(mask.iter()) {
                *c = c.wrapping_add(d * delta);
            }
        }
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervolume::hypervolume;

    #[test]
    fn matches_exact_on_simple_boxes() {
        let est = McHypervolume::unit(2, 200_000, 1);
        let pts = vec![vec![0.2, 0.6], vec![0.6, 0.2]];
        let exact = hypervolume(&pts, &[1.0, 1.0]);
        let mc = est.estimate(&pts);
        assert!((mc - exact).abs() < 0.01, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn matches_exact_in_five_dimensions() {
        let est = McHypervolume::unit(5, 200_000, 2);
        let pts = vec![vec![0.5; 5], vec![0.2, 0.8, 0.5, 0.5, 0.5]];
        let exact = hypervolume(&pts, &[1.0; 5]);
        let mc = est.estimate(&pts);
        assert!((mc - exact).abs() < 0.01, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn estimator_is_deterministic_per_seed() {
        let a = McHypervolume::unit(3, 10_000, 7);
        let b = McHypervolume::unit(3, 10_000, 7);
        let pts = vec![vec![0.3, 0.3, 0.3]];
        assert_eq!(a.estimate(&pts), b.estimate(&pts));
    }

    #[test]
    fn estimate_is_monotone_in_set_growth() {
        let est = McHypervolume::unit(3, 50_000, 3);
        let small = vec![vec![0.5, 0.5, 0.5]];
        let mut bigger = small.clone();
        bigger.push(vec![0.1, 0.9, 0.4]);
        assert!(est.estimate(&bigger) >= est.estimate(&small));
    }

    #[test]
    fn empty_set_has_zero_volume() {
        let est = McHypervolume::unit(4, 1000, 4);
        assert_eq!(est.estimate(&[]), 0.0);
    }

    #[test]
    fn non_unit_box_scales_volume() {
        let est = McHypervolume::new(&[0.0, 0.0], &[2.0, 2.0], 100_000, 5);
        // Point at origin dominates the whole 2×2 box.
        let v = est.estimate(&[vec![0.0, 0.0]]);
        assert!((v - 4.0).abs() < 1e-9);
    }

    #[test]
    fn samples_keep_the_sample_major_draw_order() {
        // Sample `i`'s coordinates are the `m` draws after sample `i - 1`'s.
        let (m, n) = (3, 5);
        let est = McHypervolume::unit(m, n, 11);
        let mut rng = SplitMix64::new(11).derive("mc-hv");
        for i in 0..n {
            for j in 0..m {
                let x: f64 = rng.gen_range(0.0..1.0);
                assert_eq!(est.columns[j * n + i].to_bits(), x.to_bits());
            }
        }
    }

    #[test]
    fn tracker_follows_replacements_and_shrinking_sets() {
        let est = McHypervolume::unit(2, 1_000, 6);
        let recompute = |rows: &ObjectiveMatrix| {
            est.estimate(&rows.iter_rows().map(<[f64]>::to_vec).collect::<Vec<_>>())
        };
        let mut tracker = est.tracker();
        let mut rows = ObjectiveMatrix::new(2);
        assert_eq!(tracker.sync(&rows), 0.0);
        for p in [[0.2, 0.6], [0.6, 0.2], [0.5, 0.5]] {
            rows.push_row(&p);
            assert_eq!(tracker.sync(&rows).to_bits(), recompute(&rows).to_bits());
        }
        rows.set_row(1, &[0.9, 0.9]);
        rows.swap_remove_row(0);
        assert_eq!(tracker.sync(&rows).to_bits(), recompute(&rows).to_bits());
        rows.clear();
        assert_eq!(tracker.sync(&rows), 0.0);
    }
}
