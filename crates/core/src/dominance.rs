//! Dominance relations: Pareto, constrained, and ε-box dominance.
//!
//! The Borg MOEA uses three comparators:
//!
//! * **Pareto dominance** for population replacement and tournament
//!   selection.
//! * **Constrained dominance**: aggregate constraint violation is compared
//!   first; objectives matter only between two feasible solutions.
//! * **ε-box dominance** (Laumanns et al. 2002) for the archive: objective
//!   space is partitioned into boxes of side `ε_i`; a solution dominates
//!   everything in dominated boxes, and within a box the solution closest to
//!   the ideal box corner wins. This bounds archive size and guarantees
//!   convergence + diversity.
//!
//! The population's two hot loops — the replacement scan and the tournament
//! — compare mutually nondominated rows almost all of the time, where a
//! comparator that branches on every objective mispredicts most of its
//! branches. They use the branch-free forms here instead:
//! `constrained_dominance_rows` for one pair of rows and
//! [`constrained_dominance_block`] for one row against eight members at
//! once. Both gather the same four comparison bits and hand them to one
//! private rule, so constrained dominance is written down once.
//!
//! # Order keys: a filter in front of the exact kernels
//!
//! "Almost all of the time" is 99.8 % of the blocks and 99.9 % of the pairs
//! on a converged 5-objective front, and that answer — every lane strictly
//! better than the row in one column and strictly worse in another, so
//! nothing is decided — rarely needs 64-bit precision to reach. Every value
//! a [`BlockedRows`](crate::matrix::BlockedRows) mirror holds therefore has
//! a 16-bit `order_key` beside it, a non-decreasing function of the value:
//! `order_key(x) < order_key(y)` *proves* `x < y`. `keys_apart_block`
//! compares eight members' keys with one packed compare per column and
//! direction and answers only "the keys prove that the exact kernel would
//! decide nothing here"; `keys_apart_pair` does the same for two members
//! of a tournament. Whatever the keys cannot prove goes to the exact kernels
//! unchanged, which remain the only code that produces a [`Dominance`], a
//! comparison mask or a tournament win.
//!
//! The block filter is the hot loop of both scans, so it is compiled for
//! the objective counts the benchmark and the paper's problems have
//! ([`COMPILED_COLUMNS`]): the two scans implement [`KeyedScan`], and
//! [`filter_by_order_keys`] picks the instantiation from the candidate's
//! row length once a scan and hands it the candidate's keys on the stack.
//! Rows of any other width keep the loop [`keys_apart_block_dyn`].

use crate::solution::Solution;
use std::hint::black_box;

/// Result of a dominance comparison between `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// `a` dominates `b`.
    Dominates,
    /// `b` dominates `a`.
    DominatedBy,
    /// Neither dominates (includes exact objective ties).
    NonDominated,
}

/// Standard Pareto dominance on raw objective vectors (minimization).
pub fn pareto_dominance_objectives(a: &[f64], b: &[f64]) -> Dominance {
    debug_assert_eq!(a.len(), b.len());
    let mut a_better = false;
    let mut b_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x < y {
            a_better = true;
        } else if y < x {
            b_better = true;
        }
        if a_better && b_better {
            return Dominance::NonDominated;
        }
    }
    match (a_better, b_better) {
        (true, false) => Dominance::Dominates,
        (false, true) => Dominance::DominatedBy,
        _ => Dominance::NonDominated,
    }
}

/// Constrained Pareto dominance.
///
/// A solution with a smaller aggregate constraint violation dominates one
/// with a larger violation; two equally-violating solutions fall back to
/// Pareto dominance on objectives. This matches the comparator used by Borg
/// (and NSGA-II's constrained tournament).
pub fn constrained_dominance(a: &Solution, b: &Solution) -> Dominance {
    constrained_dominance_rows(
        a.objectives(),
        a.constraint_violation(),
        b.objectives(),
        b.constraint_violation(),
    )
}

/// Constrained dominance of `a` over `b` from four comparison bits: `lt` /
/// `gt` — `a` is strictly better / worse in at least one objective — and
/// `vlt` / `vgt` — `a`'s aggregate violation is strictly smaller / larger.
/// A NaN compares false both ways, so a NaN violation falls through to the
/// objectives and a NaN objective decides nothing, exactly as in the
/// branching comparators above.
#[inline]
fn verdict(lt: bool, gt: bool, vlt: bool, vgt: bool) -> Dominance {
    if vlt | (!vgt & lt & !gt) {
        Dominance::Dominates
    } else if vgt | (!vlt & gt & !lt) {
        Dominance::DominatedBy
    } else {
        Dominance::NonDominated
    }
}

/// [`constrained_dominance`] on borrowed rows and precomputed violations,
/// with no data-dependent branch in the objective loop: the comparison bits
/// are OR-ed together and resolved once at the end. Testing the result
/// against one variant compiles to the corresponding bit expression.
// borg-lint: hot-path
#[inline]
pub(crate) fn constrained_dominance_rows(
    a: &[f64],
    a_violation: f64,
    b: &[f64],
    b_violation: f64,
) -> Dominance {
    debug_assert_eq!(a.len(), b.len());
    let columns = a.iter().copied().zip(b.iter().copied());
    constrained_dominance_columns(columns, a_violation, b_violation)
}

/// [`constrained_dominance_rows`] for rows that are not slices: `columns`
/// yields the two rows' objectives pair by pair (the population reads two
/// members out of its blocked mirror this way).
// borg-lint: hot-path
#[inline]
pub(crate) fn constrained_dominance_columns(
    columns: impl Iterator<Item = (f64, f64)>,
    a_violation: f64,
    b_violation: f64,
) -> Dominance {
    let mut lt = false;
    let mut gt = false;
    for (x, y) in columns {
        lt |= x < y;
        gt |= y < x;
    }
    verdict(lt, gt, a_violation < b_violation, b_violation < a_violation)
}

/// Members per block of a [`BlockedRows`](crate::matrix::BlockedRows)
/// mirror: the width of one block-kernel call.
pub const BLOCK_LANES: usize = 8;

/// The order keys of one column of a block, or of one member's first
/// [`BLOCK_LANES`] columns: eight `i16`, one 128-bit register.
pub type KeyLanes = [i16; BLOCK_LANES];

/// The key that carries no order: the key of NaN, of every column of a row
/// that holds a NaN, and of unoccupied lanes. No non-NaN value maps to it
/// (only a negative NaN's bit pattern would), and since nothing is below
/// it, a lane keyed with it can never be proven strictly *better* than
/// anything — so never proven apart.
pub(crate) const NO_ORDER: i16 = i16::MIN;

/// A 16-bit monotone image of a double: `order_key(x) < order_key(y)`
/// implies `x < y` for all non-NaN `x`, `y`; NaN maps to [`NO_ORDER`].
///
/// The value is rounded to `f32` (monotone, ±∞ beyond its range) and the
/// top half of its bit pattern kept — sign, exponent, seven mantissa bits:
/// bfloat16, 128 steps a binade. Read as `i16`, non-negative floats already
/// sort by that half; negative ones sort backwards, so their low 15 bits are
/// flipped (−0.0 → −1, −∞ → `0x807F`). Both steps are non-decreasing, hence
/// so is the key, and a *strict* key inequality can only come from a strict
/// inequality of the values. `x + 0.0` first turns −0.0 into +0.0: the two
/// compare equal as doubles, so they must not get different keys. Integers
/// up to 256 — ε-box coordinates, usually — have distinct keys.
#[inline]
pub(crate) fn order_key(x: f64) -> i16 {
    if x.is_nan() {
        return NO_ORDER;
    }
    let top = (((x + 0.0) as f32).to_bits() >> 16) as i16;
    top ^ ((top >> 15) & i16::MAX)
}

/// Fewest padding-free blocks a mirror must hold before a scan consults the
/// keys. Keying the candidate itself ([`splat_order_keys`]) costs about what
/// one exact block compare costs, and a block the keys settle saves one; so
/// with fewer than two blocks to ask about they cannot pay even if they
/// settle every one — the 11-member archives and half-filled populations of
/// a two-objective run (`virtual-p1024`) stay on the exact kernels alone.
pub(crate) const MIN_KEYED_BLOCKS: usize = 2;

/// The column counts the order-key filter is compiled for, the arms of
/// [`filter_by_order_keys`]: the objective counts of the benchmark's
/// workloads and of the paper's two problems. A row of any other width
/// keeps the loop [`keys_apart_block_dyn`] (DESIGN.md §16).
pub const COMPILED_COLUMNS: [usize; 2] = [2, 5];

/// Writes each value's `order_key`, broadcast to all lanes, into the
/// same position of `out` — the form the block filters want their row in.
/// Returns `false` when a value is NaN: such a row has no order and must go
/// to the exact kernels.
// borg-lint: hot-path
#[inline]
pub fn splat_order_keys(row: &[f64], out: &mut [KeyLanes]) -> bool {
    debug_assert_eq!(row.len(), out.len());
    for (keys, &value) in out.iter_mut().zip(row) {
        *keys = [order_key(value); BLOCK_LANES];
    }
    !row.iter().any(|value| value.is_nan())
}

/// Whether the keys alone prove that every member of a block is mutually
/// nondominated with a row: each lane strictly above the row's key in one
/// column and strictly below it in another. That is exactly the case in
/// which [`constrained_dominance_block`] (between solutions whose
/// violations cannot decide) and [`box_key_block`] return `None`, so a
/// caller may skip the exact kernel for the block; `false` proves nothing.
///
/// `row` holds one broadcast key per column ([`splat_order_keys`]), `block`
/// the key lanes of at least those columns (a population block's violation
/// lanes follow them and are not read). A [`NO_ORDER`] lane — padding, a
/// NaN row — is never apart, so its block always reaches the exact kernel.
///
/// The column count is a constant, so the column loop is unrolled and the
/// row's keys stay in registers across a scan: per column, one load, two
/// packed 16-bit compares and two ORs. Scans reach it through
/// [`filter_by_order_keys`].
// borg-lint: hot-path
#[inline(always)]
pub(crate) fn keys_apart_block<const M: usize>(row: &[KeyLanes; M], block: &[KeyLanes]) -> bool {
    let Some(block) = block.first_chunk::<M>() else {
        return false;
    };
    let mut lt = [false; BLOCK_LANES];
    let mut gt = [false; BLOCK_LANES];
    for (xs, ys) in row.iter().zip(block) {
        for l in 0..BLOCK_LANES {
            lt[l] |= xs[l] < ys[l];
            gt[l] |= ys[l] < xs[l];
        }
    }
    let mut apart = true;
    for l in 0..BLOCK_LANES {
        apart &= lt[l] & gt[l];
    }
    apart
}

/// `keys_apart_block` for a column count known only at run time: the
/// filter of rows whose width is not in [`COMPILED_COLUMNS`], and the
/// reference the compiled filter is tested and timed against.
// borg-lint: hot-path
#[inline]
pub fn keys_apart_block_dyn(row: &[KeyLanes], block: &[KeyLanes]) -> bool {
    debug_assert!(row.len() <= block.len());
    let mut lt = [false; BLOCK_LANES];
    let mut gt = [false; BLOCK_LANES];
    for (xs, ys) in row.iter().zip(block) {
        // Optimisation barrier, not semantics, as in `compare_lanes`: the
        // row's keys arrive already broadcast, behind a reference made
        // opaque once per column, and each column is two loads, two packed
        // 16-bit compares, a pack and an OR. Broadcasting a scalar key here
        // instead, LLVM weaves the two directions through shuffles and the
        // filter gains nothing over the exact kernel; with the barrier
        // outside this loop, or none, it vectorises the loop *across
        // columns* with one gather per lane, which at eight or more columns
        // is slower than the exact kernel (DESIGN.md §16).
        let xs = black_box(xs);
        for l in 0..BLOCK_LANES {
            lt[l] |= xs[l] < ys[l];
            gt[l] |= ys[l] < xs[l];
        }
    }
    let mut apart = true;
    for l in 0..BLOCK_LANES {
        apart &= lt[l] & gt[l];
    }
    apart
}

/// A scan over a [`BlockedRows`](crate::matrix::BlockedRows) mirror that
/// may skip the blocks an order-key filter settles. The population's
/// replacement scan and the archive's insertion scan implement it, so that
/// [`filter_by_order_keys`] can hand each the filter for its candidate's
/// column count, chosen once a scan.
pub trait KeyedScan {
    /// What the scan returns.
    type Output;

    /// Runs the scan. `apart(keys)` is the candidate's filter applied to a
    /// block's key lanes: `true` proves the exact kernel would decide
    /// nothing in that block.
    fn run(self, apart: impl Fn(&[KeyLanes]) -> bool) -> Self::Output;
}

/// Runs `scan` with the order-key filter for `row`, the candidate's values
/// in the mirror's column order: for a width in [`COMPILED_COLUMNS`],
/// `keys_apart_block::<m>` with the row's broadcast keys on the stack; for
/// any other width, the loop [`keys_apart_block_dyn`] with them in `spill`,
/// a buffer the caller reuses. A row holding a NaN gets a filter that
/// settles nothing, and so does a one-column row, which can never be apart
/// (it would have to be above and below the row in the same column).
// borg-lint: hot-path
pub fn filter_by_order_keys<S: KeyedScan>(
    row: &[f64],
    spill: &mut Vec<KeyLanes>,
    scan: S,
) -> S::Output {
    match row.len() {
        0 | 1 => unfiltered(scan),
        2 => compiled_filter::<2, S>(row, scan),
        5 => compiled_filter::<5, S>(row, scan),
        m => {
            spill.resize(m, [NO_ORDER; BLOCK_LANES]);
            if !splat_order_keys(row, spill) {
                return unfiltered(scan);
            }
            let keys = spill.as_slice();
            scan.run(|block| keys_apart_block_dyn(keys, block))
        }
    }
}

/// Runs `scan` with a filter that settles nothing: every block goes to the
/// exact kernels.
pub(crate) fn unfiltered<S: KeyedScan>(scan: S) -> S::Output {
    scan.run(|_: &[KeyLanes]| false)
}

/// [`filter_by_order_keys`] for a row of exactly `M` values.
// borg-lint: hot-path
fn compiled_filter<const M: usize, S: KeyedScan>(row: &[f64], scan: S) -> S::Output {
    debug_assert_eq!(row.len(), M);
    let mut keys = [[NO_ORDER; BLOCK_LANES]; M];
    if !splat_order_keys(row, &mut keys) {
        return unfiltered(scan);
    }
    scan.run(move |block| keys_apart_block(&keys, block))
}

/// [`keys_apart_block`] for one pair of members, each given by the keys of
/// its first [`BLOCK_LANES`] columns in one register: `true` proves the two
/// rows mutually nondominated in those columns, hence in all of them.
// borg-lint: hot-path
#[inline]
pub(crate) fn keys_apart_pair(a: &KeyLanes, b: &KeyLanes) -> bool {
    let mut lt = false;
    let mut gt = false;
    for l in 0..BLOCK_LANES {
        lt |= a[l] < b[l];
        gt |= b[l] < a[l];
    }
    lt & gt
}

/// The compare loop of both block kernels: `lt[l]` / `gt[l]` — `row` is
/// strictly smaller / larger than the member in lane `l` in at least one
/// of the columns `lanes` holds. Inlined into each kernel, so the loop and
/// the reduction that follows it are optimised as one function.
// borg-lint: hot-path
#[inline(always)]
fn compare_lanes(
    row: &[f64],
    lanes: &[[f64; BLOCK_LANES]],
    lt: &mut [bool; BLOCK_LANES],
    gt: &mut [bool; BLOCK_LANES],
) {
    for (&x, ys) in row.iter().zip(lanes) {
        // Optimisation barrier, not semantics. Without it LLVM vectorises
        // *this* loop — across columns, gathering one lane from each of
        // two lane arrays — and the scan runs at half speed; with it the
        // loop stays scalar and the eight lanes below become packed
        // compares (41 → 21 µs per 12 288-member scan, DESIGN.md §16).
        let x = black_box(x);
        for l in 0..BLOCK_LANES {
            lt[l] |= x < ys[l];
            gt[l] |= ys[l] < x;
        }
    }
}

/// Constrained dominance of one row over the [`BLOCK_LANES`] members of a
/// block, or `None` when it is mutually nondominated with all of them (the
/// common case, resolved with one test).
///
/// `block` holds one lane array per objective — lane `l` of array `j` is
/// member `l`'s objective `j` — followed by one lane array of aggregate
/// violations. Unoccupied lanes must be NaN throughout: they compare false
/// both ways and so are never decided.
// borg-lint: hot-path
#[inline]
pub fn constrained_dominance_block(
    objectives: &[f64],
    violation: f64,
    block: &[[f64; BLOCK_LANES]],
) -> Option<[Dominance; BLOCK_LANES]> {
    debug_assert_eq!(block.len(), objectives.len() + 1);
    let (violations, lanes) = block.split_last()?;
    let mut lt = [false; BLOCK_LANES];
    let mut gt = [false; BLOCK_LANES];
    compare_lanes(objectives, lanes, &mut lt, &mut gt);
    // A lane is decided when the violations differ or exactly one of its
    // two objective bits is set.
    let mut decided = false;
    for l in 0..BLOCK_LANES {
        decided |= (violation < violations[l]) | (violations[l] < violation) | (lt[l] ^ gt[l]);
    }
    if !decided {
        return None;
    }
    Some(std::array::from_fn(|l| {
        verdict(
            lt[l],
            gt[l],
            violation < violations[l],
            violations[l] < violation,
        )
    }))
}

/// One ε-box key against the [`BLOCK_LANES`] member keys of a block: `None`
/// when the candidate's box and every lane's are mutually nondominated (the
/// common case on a large front, resolved with one test), otherwise the
/// comparison bits `(lt, gt)`, bit `l` for lane `l` — the candidate's key is
/// strictly smaller / larger than the member's in at least one coordinate.
/// `lt & !gt` are the members the candidate's box dominates, `!lt & gt` the
/// members whose boxes dominate the candidate's, `!lt & !gt` the same box.
///
/// `block` holds one lane array per objective, keys as exact `f64` values
/// (see [`crate::archive`]). Unoccupied lanes are NaN, compare false both
/// ways and therefore read as `!lt & !gt`: the caller masks them off.
// borg-lint: hot-path
#[inline]
pub(crate) fn box_key_block(key: &[f64], block: &[[f64; BLOCK_LANES]]) -> Option<(u8, u8)> {
    debug_assert_eq!(block.len(), key.len());
    let mut lt = [false; BLOCK_LANES];
    let mut gt = [false; BLOCK_LANES];
    compare_lanes(key, block, &mut lt, &mut gt);
    let mut apart = true;
    for l in 0..BLOCK_LANES {
        apart &= lt[l] & gt[l];
    }
    if apart {
        return None;
    }
    let bits = |lanes: [bool; BLOCK_LANES]| {
        let mut bits = 0u8;
        for (l, &lane) in lanes.iter().enumerate() {
            bits |= u8::from(lane) << l;
        }
        bits
    };
    Some((bits(lt), bits(gt)))
}

/// Computes the ε-box index vector of an objective vector, in place.
///
/// Box `i` of objective `j` covers `[i ε_j, (i+1) ε_j)`. Borg assumes
/// objectives are bounded below (translation to non-negative is not
/// required; `floor` handles negatives correctly). This is the hot-path
/// form: callers reuse `out` across insertions so no `Vec<i64>` is born
/// per dominance comparison.
// borg-lint: hot-path
pub(crate) fn epsilon_box_into(objectives: &[f64], epsilons: &[f64], out: &mut [i64]) {
    debug_assert_eq!(objectives.len(), epsilons.len());
    debug_assert_eq!(objectives.len(), out.len());
    for ((&o, &e), b) in objectives.iter().zip(epsilons).zip(out) {
        debug_assert!(e > 0.0, "epsilon must be positive");
        *b = (o / e).floor() as i64;
    }
}

/// The single-coordinate ε-box index: `floor(o / ε)`.
///
/// The allocation-free comparators below fold over this so their arithmetic
/// is bit-identical to `epsilon_box_into`.
#[inline]
pub fn epsilon_box_coord(objective: f64, epsilon: f64) -> i64 {
    debug_assert!(epsilon > 0.0, "epsilon must be positive");
    (objective / epsilon).floor() as i64
}

/// An objective vector's ε-box key as the `f64` values the archive's
/// blocked mirror holds: each [`epsilon_box_coord`] cast back to `f64`,
/// which is exact and order-preserving on the keys that cast can produce
/// (the argument is in [`crate::archive`]'s module header).
#[inline]
pub(crate) fn epsilon_box_lanes<'a>(
    objectives: &'a [f64],
    epsilons: &'a [f64],
) -> impl Iterator<Item = f64> + 'a {
    debug_assert_eq!(objectives.len(), epsilons.len());
    let coords = objectives.iter().zip(epsilons);
    coords.map(|(&o, &e)| epsilon_box_coord(o, e) as f64)
}

/// Allocating convenience form of `epsilon_box_into`, kept for tests and
/// one-off diagnostics; library hot paths go through the in-place variant.
pub fn epsilon_box(objectives: &[f64], epsilons: &[f64]) -> Vec<i64> {
    let mut out = vec![0i64; objectives.len()];
    epsilon_box_into(objectives, epsilons, &mut out);
    out
}

/// Returns the non-dominated subset (indices) of a set of objective vectors.
///
/// O(n²) pairwise filter; used by metrics and reference-set construction, not
/// by the archive hot path.
pub fn nondominated_indices(points: &[Vec<f64>]) -> Vec<usize> {
    let mut keep = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            match pareto_dominance_objectives(q, p) {
                Dominance::Dominates => continue 'outer,
                // Exact duplicate objective vectors: keep only the first.
                Dominance::NonDominated if q == p && j < i => continue 'outer,
                _ => {}
            }
        }
        keep.push(i);
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sol(objs: &[f64]) -> Solution {
        Solution::from_parts(vec![], objs.to_vec(), vec![])
    }

    fn csol(objs: &[f64], cons: &[f64]) -> Solution {
        Solution::from_parts(vec![], objs.to_vec(), cons.to_vec())
    }

    #[test]
    fn pareto_basic_cases() {
        assert_eq!(
            pareto_dominance_objectives(&[0.0, 0.0], &[1.0, 1.0]),
            Dominance::Dominates
        );
        assert_eq!(
            pareto_dominance_objectives(&[1.0, 1.0], &[0.0, 0.0]),
            Dominance::DominatedBy
        );
        assert_eq!(
            pareto_dominance_objectives(&[0.0, 1.0], &[1.0, 0.0]),
            Dominance::NonDominated
        );
        assert_eq!(
            pareto_dominance_objectives(&[0.5, 0.5], &[0.5, 0.5]),
            Dominance::NonDominated
        );
    }

    #[test]
    fn pareto_weak_dominance_counts() {
        // Equal in one objective, better in the other => dominates.
        assert_eq!(
            pareto_dominance_objectives(&[0.0, 1.0], &[0.5, 1.0]),
            Dominance::Dominates
        );
    }

    #[test]
    fn constrained_violation_trumps_objectives() {
        let feasible = csol(&[10.0, 10.0], &[0.0]);
        let infeasible = csol(&[0.0, 0.0], &[1.0]);
        assert_eq!(
            constrained_dominance(&feasible, &infeasible),
            Dominance::Dominates
        );
        assert_eq!(
            constrained_dominance(&infeasible, &feasible),
            Dominance::DominatedBy
        );
    }

    #[test]
    fn constrained_equal_violation_falls_back_to_pareto() {
        let a = csol(&[0.0, 0.0], &[0.5]);
        let b = csol(&[1.0, 1.0], &[0.5]);
        assert_eq!(constrained_dominance(&a, &b), Dominance::Dominates);
        let c = sol(&[0.0, 0.0]);
        let d = sol(&[1.0, 1.0]);
        assert_eq!(constrained_dominance(&c, &d), Dominance::Dominates);
    }

    /// Every pairing of a small palette of rows and violations, NaN and
    /// infinities included: the branch-free row comparator agrees with the
    /// branching one it sits beside.
    #[test]
    fn branch_free_rows_match_the_branching_comparator() {
        let values = [0.0, 0.5, 1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let violations = [0.0, 0.5, f64::NAN, f64::INFINITY];
        for &a0 in &values {
            for &a1 in &values {
                for &b0 in &values {
                    for &b1 in &values {
                        for &va in &violations {
                            for &vb in &violations {
                                let expected = if va < vb {
                                    Dominance::Dominates
                                } else if vb < va {
                                    Dominance::DominatedBy
                                } else {
                                    pareto_dominance_objectives(&[a0, a1], &[b0, b1])
                                };
                                assert_eq!(
                                    constrained_dominance_rows(&[a0, a1], va, &[b0, b1], vb),
                                    expected,
                                    "[{a0}, {a1}] / {va} against [{b0}, {b1}] / {vb}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_comparator_matches_the_row_comparator_lane_by_lane() {
        // Five members in an eight-lane block: three lanes of NaN padding.
        let members: [([f64; 2], f64); 5] = [
            ([0.0, 1.0], 0.0), // nondominated with the row
            ([0.6, 0.6], 0.0), // dominated by the row
            ([0.1, 0.1], 0.0), // dominates the row
            ([9.0, 9.0], 2.0), // more violating: dominated whatever its objectives
            ([0.5, 0.5], 0.0), // equal: nondominated
        ];
        let mut block = [[f64::NAN; BLOCK_LANES]; 3];
        for (l, (objectives, violation)) in members.iter().enumerate() {
            block[0][l] = objectives[0];
            block[1][l] = objectives[1];
            block[2][l] = *violation;
        }
        let row = [0.5, 0.5];
        let lanes = constrained_dominance_block(&row, 0.0, &block).expect("lanes 1-3 are decided");
        for (l, (objectives, violation)) in members.iter().enumerate() {
            assert_eq!(
                lanes[l],
                constrained_dominance_rows(&row, 0.0, objectives, *violation),
                "lane {l}"
            );
        }
        assert!(lanes[members.len()..]
            .iter()
            .all(|&lane| lane == Dominance::NonDominated));
        // A row nondominated with every occupied lane decides nothing, and
        // neither does a block of padding alone.
        let mut front = [[f64::NAN; BLOCK_LANES]; 3];
        for l in 0..2 {
            front[l][l] = 1.0;
            front[1 - l][l] = 0.0;
            front[2][l] = 0.0;
        }
        assert_eq!(constrained_dominance_block(&row, 0.0, &front), None);
        let padding = [[f64::NAN; BLOCK_LANES]; 3];
        assert_eq!(
            constrained_dominance_block(&[0.0, 0.0], 0.0, &padding),
            None
        );
    }

    #[test]
    fn box_key_block_reports_one_bit_pair_per_lane() {
        // Four member keys in an eight-lane block: four lanes of padding.
        let members = [[3.0, 1.0], [2.0, 3.0], [1.0, 1.0], [2.0, 2.0]];
        let mut block = [[f64::NAN; BLOCK_LANES]; 2];
        for (l, key) in members.iter().enumerate() {
            block[0][l] = key[0];
            block[1][l] = key[1];
        }
        // Against (2, 2): lane 0 apart, lane 1 dominated by the candidate,
        // lane 2 dominating it, lane 3 the same box; padding reads as
        // neither smaller nor larger.
        let (lt, gt) = box_key_block(&[2.0, 2.0], &block).expect("lanes 1-3 are decided");
        assert_eq!((lt, gt), (0b0011, 0b0101));
        assert_eq!(lt & !gt, 0b0010, "dominated members");
        assert_eq!(!lt & gt, 0b0100, "dominating members");
        assert_eq!(!(lt | gt) & 0b1111, 0b1000, "same box, occupied lanes only");
        // Eight boxes along a front, the candidate in a gap between them.
        let front = [
            std::array::from_fn(|l| 2.0 * l as f64),
            std::array::from_fn(|l| 2.0 * (BLOCK_LANES - l) as f64),
        ];
        assert_eq!(box_key_block(&[5.0, 11.0], &front), None);
        // One step up, the box in lane 2, (4, 12), dominates it.
        assert_eq!(
            box_key_block(&[5.0, 13.0], &front),
            Some((0b1111_1011, 0b1111_1111))
        );
    }

    /// Doubles the key has to get right by construction rather than by
    /// luck: zeros, infinities, the edges of `f32`'s normal, subnormal and
    /// finite ranges, one key step around 1, and NaNs of either sign.
    fn key_edge_cases() -> Vec<f64> {
        let f32_subnormal = f64::from(f32::from_bits(1));
        let mut values = vec![f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001)];
        for magnitude in [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e-300,
            f32_subnormal / 2.0,
            f32_subnormal,
            1e-42,
            f64::from(f32::MIN_POSITIVE),
            1.0 - f64::EPSILON,
            1.0,
            1.0 + f64::EPSILON,
            1.0 + 2f64.powi(-10),
            1.0 + 2f64.powi(-7),
            256.0,
            257.0,
            f64::from(f32::MAX),
            f64::from(f32::MAX) * 1.000_000_1,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ] {
            values.extend([magnitude, -magnitude]);
        }
        values
    }

    /// The one property the filter rests on, `key(x) < key(y) ⇒ x < y`, and
    /// the NaN rule, on one pair.
    fn assert_key_order_is_sound(x: f64, y: f64) {
        let (kx, ky) = (order_key(x), order_key(y));
        assert_eq!(
            kx == NO_ORDER,
            x.is_nan(),
            "NO_ORDER is NaN's key alone: {x:e}"
        );
        if !x.is_nan() && !y.is_nan() {
            assert!(kx >= ky || x < y, "{x:e} keyed {kx} below {y:e} keyed {ky}");
            assert!(ky >= kx || y < x, "{y:e} keyed {ky} below {x:e} keyed {kx}");
        }
    }

    #[test]
    fn order_key_never_orders_what_the_values_do_not() {
        let edges = key_edge_cases();
        for &x in &edges {
            for &y in &edges {
                assert_key_order_is_sound(x, y);
            }
            // Its neighbours one ulp either way, across the sign change too.
            let bits = x.to_bits();
            for neighbour in [bits.wrapping_sub(1), bits + 1, bits ^ (1 << 63)] {
                assert_key_order_is_sound(x, f64::from_bits(neighbour));
            }
        }
        assert_eq!(order_key(-0.0), order_key(0.0));
        assert_eq!(order_key(0.0), 0);
        assert_eq!(order_key(-1e-300), -1, "rounds to -0.0f32, below +0.0");
        // And it does separate what is a key step apart.
        assert!(order_key(1.0) < order_key(1.0 + 2f64.powi(-7)));
        assert_eq!(order_key(1.0), order_key(1.0 + 2f64.powi(-10)));
        assert!(order_key(f64::NEG_INFINITY) > NO_ORDER);
        assert!(order_key(f64::NEG_INFINITY) < order_key(f64::from(f32::MIN)));
        assert_eq!(order_key(1e300), order_key(f64::INFINITY));
    }

    #[test]
    fn order_key_is_injective_on_box_coordinates_up_to_256() {
        let keys: Vec<i16> = (-256..=256).map(|k| order_key(f64::from(k))).collect();
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "{keys:?}");
        // Beyond that, coarser but still ordered the right way round.
        assert_eq!(order_key(256.0), order_key(257.0));
        assert!(order_key(257.0) < order_key(258.0));
        assert_eq!(order_key(-256.0), order_key(-257.0));
    }

    mod order_key_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// Pairs drawn as raw bit patterns, so every exponent — hence
            /// subnormals, values past `f32`'s range, NaN payloads — is as
            /// likely as any other, plus each value's near neighbours.
            #[test]
            fn key_order_is_sound_on_raw_bit_patterns(
                a in 0u64..=u64::MAX,
                b in 0u64..=u64::MAX,
                step in 0u64..1 << 40,
            ) {
                let (x, y) = (f64::from_bits(a), f64::from_bits(b));
                assert_key_order_is_sound(x, y);
                assert_key_order_is_sound(x, f64::from_bits(a.wrapping_add(step)));
                assert_key_order_is_sound(x, -x);
            }
        }
    }

    /// A scan of one block: what the filter a scan is handed says about it.
    struct Ask<'a>(&'a [KeyLanes]);

    impl KeyedScan for Ask<'_> {
        type Output = bool;

        fn run(self, apart: impl Fn(&[KeyLanes]) -> bool) -> bool {
            apart(self.0)
        }
    }

    /// The reference filter: the row keyed into a fresh vector and asked of
    /// the loop over its columns; silent if any value of the row is NaN.
    fn apart_by_loop(row: &[f64], keys: &[KeyLanes]) -> bool {
        let row_keys: Vec<KeyLanes> = row
            .iter()
            .map(|&value| [order_key(value); BLOCK_LANES])
            .collect();
        !row.iter().any(|value| value.is_nan()) && keys_apart_block_dyn(&row_keys, keys)
    }

    /// Block and pair filters against the exact kernels over a palette that
    /// mixes values the keys separate, values inside one key step, NaN and
    /// infinities, in blocks with and without padding: whenever the keys say
    /// "apart", the exact kernels decide nothing; the filter a scan is
    /// handed, compiled or not, says what the loop over the columns says;
    /// and the keys do say it when the values are far apart.
    #[test]
    fn keys_apart_only_where_the_exact_kernels_decide_nothing() {
        use rand::{Rng, SeedableRng};
        let palette = [
            -0.0,
            0.0,
            0.25,
            0.5,
            1.0,
            1.0 + 2f64.powi(-10),
            1.0 + f64::EPSILON,
            2.0,
            1e300,
            1e-42,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (mut skipped, mut skipped_pairs, mut padded) = (0, 0, 0);
        // Reused across widths, as a scan's owner reuses it across offers.
        let mut spill = Vec::new();
        for _ in 0..40_000 {
            let m = rng.gen_range(1..=10);
            // One block in eight is short of members: padding lanes.
            let occupied = if rng.gen_range(0..8) == 0 {
                rng.gen_range(1..BLOCK_LANES)
            } else {
                BLOCK_LANES
            };
            let mut draw = |_| palette[rng.gen_range(0..palette.len())];
            let row: Vec<f64> = (0..m).map(&mut draw).collect();
            let members: Vec<Vec<f64>> = (0..occupied)
                .map(|_| (0..m).map(&mut draw).collect())
                .collect();
            let mut rows = crate::matrix::BlockedRows::default();
            for member in &members {
                rows.push(member.iter().copied().chain([0.0]));
            }
            let (keys, block) = rows.blocks().next().expect("one block");
            let apart = apart_by_loop(&row, &keys[..m]);
            // Handed the population's block, violation lanes and all.
            assert_eq!(
                filter_by_order_keys(&row, &mut spill, Ask(keys)),
                apart,
                "{row:?} against {members:?}"
            );
            padded += usize::from(occupied < BLOCK_LANES);
            if apart {
                assert_eq!(occupied, BLOCK_LANES, "padding is never apart");
                skipped += 1;
                assert_eq!(constrained_dominance_block(&row, 0.0, block), None);
                assert_eq!(box_key_block(&row, &block[..m]), None);
            }
            for (i, member) in members.iter().enumerate().skip(1) {
                if keys_apart_pair(rows.packed_keys(0), rows.packed_keys(i)) {
                    skipped_pairs += 1;
                    assert_eq!(
                        constrained_dominance_rows(&members[0], 0.0, member, 0.0),
                        Dominance::NonDominated
                    );
                }
            }
        }
        assert!(
            skipped > 100 && skipped_pairs > 10_000 && padded > 1_000,
            "{skipped} blocks, {skipped_pairs} pairs, {padded} padded"
        );
        // Far apart along a front: the keys see it.
        let front = [[0.1, 0.9], [0.9, 0.1]];
        let mut row_keys = [[NO_ORDER; BLOCK_LANES]; 2];
        assert!(splat_order_keys(&[0.5, 0.5], &mut row_keys));
        let mut rows = crate::matrix::BlockedRows::default();
        for l in 0..BLOCK_LANES {
            rows.push(front[l % 2]);
        }
        let (keys, _) = rows.blocks().next().expect("one block");
        assert!(keys_apart_block(&row_keys, keys));
        assert!(keys_apart_block_dyn(&row_keys, keys));
        assert!(filter_by_order_keys(&[0.5, 0.5], &mut spill, Ask(keys)));
        assert!(!filter_by_order_keys(
            &[0.5, f64::NAN],
            &mut spill,
            Ask(keys)
        ));
        assert!(
            !keys_apart_block::<3>(&[[0; BLOCK_LANES]; 3], keys),
            "short"
        );
        assert!(keys_apart_pair(rows.packed_keys(0), rows.packed_keys(1)));
        assert!(!keys_apart_pair(rows.packed_keys(0), rows.packed_keys(2)));
        // One lane of padding and the block must be looked at exactly.
        rows.swap_remove(7);
        let (keys, _) = rows.blocks().next().expect("one block");
        assert!(!keys_apart_block(&row_keys, keys));
        assert!(!filter_by_order_keys(&[0.5, 0.5], &mut spill, Ask(keys)));
    }

    #[test]
    fn epsilon_box_lanes_are_the_integer_keys() {
        let objs = [0.25, -0.05, -0.0, f64::NAN, f64::INFINITY, -1e300];
        let eps = [0.1, 0.1, 0.1, 0.5, 0.5, 2.0];
        let lanes: Vec<f64> = epsilon_box_lanes(&objs, &eps).collect();
        let keys: Vec<f64> = epsilon_box(&objs, &eps).iter().map(|&k| k as f64).collect();
        assert_eq!(lanes, keys);
        assert_eq!(
            lanes,
            [2.0, -1.0, 0.0, 0.0, 2f64.powi(63), -(2f64.powi(63))]
        );
        assert!(lanes[2].is_sign_positive(), "-0.0 lands in box 0, not -0");
    }

    #[test]
    fn epsilon_box_indexing() {
        assert_eq!(epsilon_box(&[0.25, 0.75], &[0.1, 0.5]), vec![2, 1]);
        assert_eq!(epsilon_box(&[-0.05], &[0.1]), vec![-1]);
        assert_eq!(epsilon_box(&[0.0], &[0.1]), vec![0]);
    }

    #[test]
    fn epsilon_box_into_matches_allocating_form() {
        let objs = [0.25, 0.75, -0.05, 0.0];
        let eps = [0.1, 0.5, 0.1, 0.1];
        let mut out = [0i64; 4];
        epsilon_box_into(&objs, &eps, &mut out);
        assert_eq!(out.to_vec(), epsilon_box(&objs, &eps));
        for i in 0..objs.len() {
            assert_eq!(out[i], epsilon_box_coord(objs[i], eps[i]));
        }
    }

    #[test]
    fn nondominated_filter() {
        let pts = vec![
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![1.0, 1.0], // dominated
            vec![0.0, 1.0], // duplicate
        ];
        let idx = nondominated_indices(&pts);
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn nondominated_filter_empty_and_single() {
        assert!(nondominated_indices(&[]).is_empty());
        assert_eq!(nondominated_indices(&[vec![1.0]]), vec![0]);
    }
}
