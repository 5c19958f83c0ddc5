//! The steady-state population with tournament selection.
//!
//! Borg maintains a fixed-size population evolved one offspring at a time.
//! Replacement follows Hadka & Reed (2012): an offspring that dominates one
//! or more population members replaces one of them at random; an offspring
//! dominated by no member but dominating none replaces a random member; an
//! offspring dominated by any member is rejected.
//!
//! At paper scale the two loops over the population are most of `T_A`. On
//! the benchmark's `serial-dtlz2-5` workload (DTLZ2-5, ε = 0.06, 50 000
//! evaluations: a 3 825-member archive under a 12 372-member population)
//! every offspring that reaches a full population is compared with every
//! member, and each of the ~2.6 parents an evaluation needs is the winner
//! of a 248-way tournament: 13.7 M blocks of eight and 21.9 M pairs over
//! the run. On a converged 5-D front nearly all of those comparisons are
//! between mutually nondominated rows — 99.76 % of the blocks and 99.93 %
//! of the pairs decide nothing — and 16 bits a value are enough to see it.
//!
//! So the population keeps its members as rows of two stores and nowhere
//! else:
//! each member's decision variables as a row of a [`FlatMatrix`], which
//! variation reads parents out of, and its objective vector and aggregate
//! constraint violation as a row of a [`BlockedRows`] (the type the archive
//! keeps its box keys in), which holds every value three ways:
//!
//! * **exact lanes**: members in blocks of [`BLOCK_LANES`], each block one
//!   `[f64; 8]` lane array per objective plus one of violations, unoccupied
//!   lanes NaN. [`constrained_dominance_block`] compares the offspring with
//!   a whole block without a data-dependent branch; this is the only code
//!   that decides a replacement;
//! * **key lanes**: the 16-bit `order_key`
//!   of each lane, in the same layout. The order-key filter
//!   ([`filter_by_order_keys`], at two and five objectives compiled for
//!   the count with the offspring's keys in registers) reads them first
//!   and proves most blocks mutually nondominated with the offspring at a
//!   quarter of the bytes and a quarter of the packed compares, and the
//!   scan in `Population::offer` skips those blocks;
//! * **packed keys**: each member's keys again, row-major, 16 bytes a
//!   member, for `Population::tournament_select`, which reads random
//!   members — one load where the member's lanes are spread over `m + 1`
//!   cache lines. `keys_apart_pair` proves most pairs apart; the few it
//!   cannot are compared exactly, out of the lanes.
//!
//! No member is a [`Solution`](crate::solution::Solution): an offspring's
//! rows are copied in over the member it displaces, and its constraints are
//! kept only as the aggregate the comparisons read. A member's objectives
//! are transposed across its block's lanes, so
//! [`Population::objectives`] yields them rather than lending a slice.
//!
//! The keys speak only while no violation can decide anything (no member
//! and not the offspring has a positive one), never about a row that holds
//! a NaN, and in the scan only when there are at least two full blocks to
//! ask about (`MIN_KEYED_BLOCKS`); otherwise every block and pair goes
//! to the exact code, as it did before there were keys. On
//! `serial-dtlz2-5` the keys took the replacement scan from 4.7 to 1.6 µs
//! an evaluation and the tournaments from 5.9 to 1.4 µs, and compiling the
//! filter for five objectives took the scan from 1.44 to 0.94 µs
//! (DESIGN.md §16); a
//! population of 100 in two objectives in which every block holds a decided
//! lane pays about 4 ns for each block the keys looked at in vain, and every
//! member written pays about 8 ns for its keys.
//!
//! Neither path allocates per offspring (the dominated-index list and, at
//! a count without a compiled filter, the offspring's keys are reused
//! scratch buffers; a compiled filter keeps them on the stack), and neither
//! changes a decision: a `Vec<Solution>` population with the scalar scan
//! and tournament survives under `#[cfg(test)]` as the oracle of a
//! differential property test.

use crate::dominance::{
    constrained_dominance_block, constrained_dominance_columns, filter_by_order_keys,
    keys_apart_pair, unfiltered, Dominance, KeyLanes, KeyedScan, BLOCK_LANES, MIN_KEYED_BLOCKS,
};
use crate::matrix::{BlockedRows, FlatMatrix};
use crate::solution::Member;
use rand::seq::SliceRandom;
use rand::Rng;

/// Outcome of offering an offspring to the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PopulationInsert {
    /// Replaced a member it dominated.
    ReplacedDominated,
    /// Nondominated with the whole population; replaced a random member.
    ReplacedRandom,
    /// Dominated by at least one member; rejected.
    Rejected,
}

/// A bounded steady-state population.
#[derive(Debug, Clone)]
pub struct Population {
    /// Member `i`'s decision variables, row `i`. Its row count is the
    /// population's length.
    variables: FlatMatrix<f64>,
    /// Each member's objectives followed by its aggregate constraint
    /// violation (computed once at insertion instead of per comparison),
    /// row-parallel with `variables`: exact lanes and key lanes for the
    /// replacement scan, packed keys for the tournament.
    blocked: BlockedRows,
    /// Members whose violation is positive. The order keys speak only while
    /// this is zero: between two members that violate nothing, no violation
    /// can decide a comparison.
    violating: usize,
    capacity: usize,
    /// Reused dominated-member index list for `offer`.
    scratch_dominated: Vec<usize>,
    /// Reused broadcast order keys of the offspring being scanned, for an
    /// objective count the filter is not compiled for.
    scratch_keys: Vec<KeyLanes>,
}

impl Population {
    /// Creates an empty population with the given capacity.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "population capacity must be positive");
        Self {
            variables: FlatMatrix::new(0),
            blocked: BlockedRows::default(),
            violating: 0,
            capacity,
            scratch_dominated: Vec::new(),
            scratch_keys: Vec::new(),
        }
    }

    /// Member `i`'s decision variables.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn variables(&self, i: usize) -> &[f64] {
        self.variables.row(i)
    }

    /// Member `i`'s objectives, read out of its block's lanes.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn objectives(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        self.blocked.row(i).take(self.violation_column())
    }

    /// Member `i`'s aggregate constraint violation (0.0 when it violates
    /// nothing).
    ///
    /// # Panics
    /// If `i` is out of range.
    pub(crate) fn violation(&self, i: usize) -> f64 {
        self.blocked.value(i, self.violation_column())
    }

    /// Number of members currently held.
    pub fn len(&self) -> usize {
        self.variables.rows()
    }

    /// Whether the population holds no members.
    pub fn is_empty(&self) -> bool {
        self.variables.is_empty()
    }

    /// Capacity (target size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the population is at capacity.
    pub(crate) fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Adds a member unconditionally while below capacity (initialization /
    /// restart refill). Returns `false` (and copies nothing) when full.
    pub(crate) fn fill(&mut self, member: Member<'_>) -> bool {
        if self.is_full() {
            return false;
        }
        self.push_member(member, member.constraint_violation());
        true
    }

    /// Empties the population, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.variables.clear();
        self.blocked.clear();
        self.violating = 0;
    }

    /// Empties the population and gives it a new capacity (a restart),
    /// without permuting rows only to drop them. A shrinking population
    /// still draws the shuffle that picking the members to keep would draw,
    /// so the RNG stream is that of shuffling, truncating and clearing.
    pub(crate) fn reset<R: Rng>(&mut self, capacity: usize, rng: &mut R) {
        assert!(capacity > 0, "population capacity must be positive");
        if self.len() > capacity {
            // A shuffle draws as many values, from as wide ranges, whatever
            // the slice holds; a slice of `()` is one without storage.
            vec![(); self.len()].shuffle(rng);
        }
        self.capacity = capacity;
        self.clear();
        self.variables.reserve_rows(capacity);
        self.blocked.reserve(capacity);
    }

    /// Changes the capacity; excess members (if shrinking) are dropped from
    /// the tail after a shuffle so no positional bias survives (tests: the
    /// oracle of [`reset`](Self::reset)'s draws).
    #[cfg(test)]
    pub(crate) fn resize<R: Rng>(&mut self, capacity: usize, rng: &mut R) {
        assert!(capacity > 0, "population capacity must be positive");
        self.capacity = capacity;
        let n = self.len();
        if n > capacity {
            // Row `k` of the result is the member the shuffle of a
            // `Vec` of members would have moved to slot `k`.
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            let variables = std::mem::replace(&mut self.variables, FlatMatrix::new(0));
            let blocked = std::mem::take(&mut self.blocked);
            let violations = blocked.stride() - 1;
            self.violating = 0;
            for &i in &order[..capacity] {
                self.variables.push_row(variables.row(i));
                self.violating += usize::from(blocked.value(i, violations) > 0.0);
                self.blocked.push(blocked.row(i));
            }
        }
    }

    /// Offers an offspring to a full population using Borg's steady-state
    /// replacement rule; below capacity it is added. The offspring's rows
    /// are copied in over the member it replaces.
    // borg-lint: hot-path
    pub(crate) fn offer<R: Rng>(&mut self, offspring: Member<'_>, rng: &mut R) -> PopulationInsert {
        let violation = offspring.constraint_violation();
        if !self.is_full() {
            self.push_member(offspring, violation);
            return PopulationInsert::ReplacedRandom;
        }
        if self.scan(offspring.objectives(), violation) {
            return PopulationInsert::Rejected;
        }
        self.replace_after_scan(offspring, violation, rng)
    }

    /// Seats an offspring no member dominates: in place of a random one of
    /// the members the scan left in `scratch_dominated`, or of a random
    /// member when there are none.
    // borg-lint: hot-path
    fn replace_after_scan<R: Rng>(
        &mut self,
        offspring: Member<'_>,
        violation: f64,
        rng: &mut R,
    ) -> PopulationInsert {
        let (verdict, i) = if self.scratch_dominated.is_empty() {
            let i = rng.gen_range(0..self.len());
            (PopulationInsert::ReplacedRandom, i)
        } else {
            let pick = rng.gen_range(0..self.scratch_dominated.len());
            (
                PopulationInsert::ReplacedDominated,
                self.scratch_dominated[pick],
            )
        };
        self.replace_member(i, offspring, violation);
        verdict
    }

    /// The replacement scan: compares an offspring (given as a row) with
    /// every member, a block at a time. Returns `true` as soon as a block
    /// holds a member that dominates it; otherwise leaves the indices of
    /// the members it dominates, ascending, in `scratch_dominated`.
    ///
    /// A block whose order keys prove all eight members mutually
    /// nondominated with the offspring is skipped — the exact kernel would
    /// return `None` for it. The keys are asked only while no violation can
    /// decide (no member and not the offspring has `violation > 0.0`; the
    /// aggregate is a sum of positive terms, never negative or NaN) and the
    /// offspring has no NaN objective, and only about blocks without
    /// padding, which they can never call apart — when there are at least
    /// [`MIN_KEYED_BLOCKS`] of those.
    // borg-lint: hot-path
    fn scan(&mut self, objectives: &[f64], violation: f64) -> bool {
        self.scratch_dominated.clear();
        let full = self.len() / BLOCK_LANES;
        let none_violates = self.violating + usize::from(violation > 0.0) == 0;
        let scan = ReplacementScan {
            blocked: &self.blocked,
            dominated: &mut self.scratch_dominated,
            objectives,
            violation,
            keyed_blocks: full,
        };
        if full >= MIN_KEYED_BLOCKS && none_violates {
            filter_by_order_keys(objectives, &mut self.scratch_keys, scan)
        } else {
            unfiltered(scan)
        }
    }

    /// Tournament selection of one parent with tournament size `k`.
    ///
    /// Draws `k` members uniformly with replacement and returns the index of
    /// the best under constrained Pareto dominance (ties keep the earlier
    /// draw, which is an unbiased choice because draws are random).
    ///
    /// A pair whose packed order keys prove the two members mutually
    /// nondominated is not a win and is not compared further (one 16-byte
    /// load a member); like the scan, the keys are asked only while no
    /// member has a positive violation.
    // borg-lint: hot-path
    pub(crate) fn tournament_select<R: Rng>(&self, k: usize, rng: &mut R) -> usize {
        assert!(!self.is_empty(), "cannot select from empty population");
        let keyed = self.violating == 0;
        let mut best = rng.gen_range(0..self.len());
        for _ in 1..k.max(1) {
            let challenger = rng.gen_range(0..self.len());
            let (a, b) = (
                self.blocked.packed_keys(challenger),
                self.blocked.packed_keys(best),
            );
            if keyed && keys_apart_pair(a, b) {
                continue;
            }
            let wins = self.dominance(challenger, best) == Dominance::Dominates;
            // Branchless pick: a win is a coin flip early in a run and rare
            // on a converged front, and the mask costs the same either way.
            // All-ones moves `best` to the challenger.
            best ^= (best ^ challenger) & usize::from(wins).wrapping_neg();
        }
        best
    }

    /// Exact constrained dominance of member `a` over member `b`, read out
    /// of the blocked lanes.
    // borg-lint: hot-path
    #[inline]
    fn dominance(&self, a: usize, b: usize) -> Dominance {
        let m = self.violation_column();
        let columns = self.blocked.row(a).zip(self.blocked.row(b)).take(m);
        constrained_dominance_columns(columns, self.blocked.value(a, m), self.blocked.value(b, m))
    }

    /// The blocked column that holds the violation: the one after the
    /// objectives. Meaningful only while the population has members.
    fn violation_column(&self) -> usize {
        self.blocked.stride() - 1
    }

    /// Appends a member's rows.
    fn push_member(&mut self, member: Member<'_>, violation: f64) {
        self.violating += usize::from(violation > 0.0);
        self.blocked
            .push(blocked_row(member.objectives(), violation));
        self.variables.push_row(member.variables());
    }

    /// Overwrites member `i`'s rows.
    // borg-lint: hot-path
    fn replace_member(&mut self, i: usize, member: Member<'_>, violation: f64) {
        let old = self.violation(i);
        self.violating -= usize::from(old > 0.0);
        self.violating += usize::from(violation > 0.0);
        self.blocked
            .set(i, blocked_row(member.objectives(), violation));
        self.variables.set_row(i, member.variables());
    }

    /// Verifies that both stores hold one row per member, that every
    /// unoccupied lane is padding and every order key the key of its exact
    /// lane ([`BlockedRows::check`]), and the count of violating members
    /// (tests).
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        // Without members the blocked rows may keep the width of an earlier
        // epoch; with them, the first row's width is the stride.
        self.blocked.check(n, self.blocked.stride())?;
        let violating = (0..n).filter(|&i| self.violation(i) > 0.0).count();
        if self.violating != violating {
            return Err(format!(
                "{} members counted as violating, {violating} are",
                self.violating
            ));
        }
        Ok(())
    }
}

/// [`Population::scan`]'s loop, over the blocks of the mirror.
struct ReplacementScan<'a> {
    blocked: &'a BlockedRows,
    /// Where the indices of the members the offspring dominates go.
    dominated: &'a mut Vec<usize>,
    objectives: &'a [f64],
    violation: f64,
    /// The blocks the filter is asked about: the full ones.
    keyed_blocks: usize,
}

impl KeyedScan for ReplacementScan<'_> {
    /// Whether a member dominates the offspring.
    type Output = bool;

    // borg-lint: hot-path
    fn run(self, apart: impl Fn(&[KeyLanes]) -> bool) -> bool {
        let (objectives, violation) = (self.objectives, self.violation);
        for (b, (keys, block)) in self.blocked.blocks().enumerate() {
            if b < self.keyed_blocks && apart(keys) {
                continue;
            }
            let Some(lanes) = constrained_dominance_block(objectives, violation, block) else {
                continue;
            };
            if lanes.contains(&Dominance::DominatedBy) {
                return true;
            }
            for (l, &lane) in lanes.iter().enumerate() {
                if lane == Dominance::Dominates {
                    self.dominated.push(b * BLOCK_LANES + l);
                }
            }
        }
        false
    }
}

/// A member's row of the blocked mirror: its objectives, then its aggregate
/// constraint violation.
fn blocked_row(objectives: &[f64], violation: f64) -> impl Iterator<Item = f64> + '_ {
    objectives.iter().copied().chain([violation])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::order_key;
    use crate::solution::Solution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sol(objs: &[f64]) -> Solution {
        Solution::from_parts(vec![], objs.to_vec(), vec![])
    }

    fn objectives(p: &Population, i: usize) -> Vec<f64> {
        p.objectives(i).collect()
    }

    #[test]
    fn fill_until_capacity() {
        let mut p = Population::new(2);
        assert!(p.fill(sol(&[1.0, 1.0]).as_member()));
        assert!(!p.is_full());
        assert!(p.fill(sol(&[2.0, 2.0]).as_member()));
        assert!(p.is_full());
        assert!(!p.fill(sol(&[3.0, 3.0]).as_member()));
        assert_eq!(p.len(), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn offer_replaces_dominated_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[5.0, 5.0]).as_member());
        p.fill(sol(&[0.0, 9.0]).as_member());
        let r = p.offer(sol(&[1.0, 1.0]).as_member(), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert!((0..2).any(|i| objectives(&p, i) == [1.0, 1.0]));
        assert!((0..2).any(|i| objectives(&p, i) == [0.0, 9.0]));
        p.check_invariants().unwrap();
    }

    #[test]
    fn offer_rejects_dominated_offspring() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(1);
        p.fill(sol(&[0.0, 0.0]).as_member());
        assert_eq!(
            p.offer(sol(&[1.0, 1.0]).as_member(), &mut rng),
            PopulationInsert::Rejected
        );
        assert_eq!(objectives(&p, 0), [0.0, 0.0]);
        p.check_invariants().unwrap();
    }

    #[test]
    fn offer_nondominated_replaces_random() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[0.0, 1.0]).as_member());
        p.fill(sol(&[1.0, 0.0]).as_member());
        let r = p.offer(sol(&[0.5, 0.5]).as_member(), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedRandom);
        assert_eq!(p.len(), 2);
        p.check_invariants().unwrap();
    }

    /// The offspring's variables, objectives and violation land in the
    /// displaced member's slot; a rejected offspring writes nothing.
    #[test]
    fn offer_overwrites_the_displaced_members_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        let member = |x: f64, objs: &[f64], c: f64| {
            Solution::from_parts(vec![x, -x], objs.to_vec(), vec![c])
        };
        p.fill(member(1.0, &[5.0, 5.0], 0.0).as_member());
        p.fill(member(2.0, &[0.0, 9.0], 0.0).as_member());
        let offspring = member(3.0, &[1.0, 1.0], -4.0);
        let r = p.offer(offspring.as_member(), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert_eq!(p.variables(0), &[3.0, -3.0]);
        assert_eq!(objectives(&p, 0), [1.0, 1.0]);
        assert_eq!(p.variables(1), &[2.0, -2.0]);
        let r = p.offer(member(4.0, &[9.0, 9.0], 0.0).as_member(), &mut rng);
        assert_eq!(r, PopulationInsert::Rejected);
        assert_eq!(
            (p.variables(0), p.variables(1)),
            (&[3.0, -3.0][..], &[2.0, -2.0][..])
        );
        // Below capacity the offspring is added.
        let mut q = Population::new(2);
        let r = q.offer(member(5.0, &[1.0, 2.0], 0.5).as_member(), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedRandom);
        assert_eq!((q.len(), q.violation(0)), (1, 0.5));
        q.check_invariants().unwrap();
    }

    #[test]
    fn constrained_offspring_uses_cached_violations() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = Population::new(2);
        p.fill(Solution::from_parts(vec![], vec![0.0, 0.0], vec![2.0]).as_member());
        p.fill(Solution::from_parts(vec![], vec![1.0, 9.0], vec![0.0]).as_member());
        // Feasible offspring dominates the violating member regardless of
        // objectives.
        let off = Solution::from_parts(vec![], vec![5.0, 5.0], vec![0.0]);
        let r = p.offer(off.as_member(), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert!((0..p.len()).all(|i| p.violation(i) <= 0.0));
        p.check_invariants().unwrap();
    }

    /// A violating offspring loses to every feasible member even when its
    /// objectives sit in a gap of the front, where the order keys alone
    /// would call every block apart: its own violation silences them.
    #[test]
    fn violating_offspring_is_rejected_from_a_gap_in_a_feasible_front() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = Population::new(16);
        for i in 0..16 {
            p.fill(sol(&[f64::from(i), f64::from(16 - i)]).as_member());
        }
        let in_gap = |constraint| Solution::from_parts(vec![], vec![7.5, 8.75], vec![constraint]);
        assert_eq!(
            p.offer(in_gap(0.5).as_member(), &mut rng),
            PopulationInsert::Rejected
        );
        assert_eq!(
            p.offer(in_gap(0.0).as_member(), &mut rng),
            PopulationInsert::ReplacedRandom
        );
        p.check_invariants().unwrap();
    }

    #[test]
    fn tournament_prefers_dominating_member() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Population::new(10);
        for _ in 0..9 {
            p.fill(sol(&[9.0, 9.0]).as_member());
        }
        p.fill(sol(&[0.0, 0.0]).as_member());
        // With replacement, the dominant member enters a 10-way tournament
        // with probability 1 − 0.9^10 ≈ 0.65 and then always wins. Uniform
        // (broken) selection would win ~10% of the time; demand well above
        // that with enough trials to be insensitive to the RNG stream.
        let mut wins = 0;
        for _ in 0..400 {
            if p.tournament_select(10, &mut rng) == 9 {
                wins += 1;
            }
        }
        assert!(
            wins > 200,
            "dominant member won only {wins}/400 tournaments"
        );
    }

    #[test]
    fn tournament_size_one_is_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = Population::new(4);
        for i in 0..4 {
            p.fill(sol(&[i as f64, 4.0 - i as f64]).as_member());
        }
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[p.tournament_select(1, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 800, "selection badly skewed: {counts:?}");
        }
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Population::new(4);
        for i in 0..4 {
            p.fill(sol(&[i as f64, -(i as f64)]).as_member());
        }
        p.resize(2, &mut rng);
        assert_eq!(p.len(), 2);
        assert_eq!(p.capacity(), 2);
        p.check_invariants().unwrap();
        p.resize(8, &mut rng);
        assert_eq!(p.len(), 2);
        assert!(!p.is_full());
        p.check_invariants().unwrap();
    }

    #[test]
    fn mirrors_survive_clear_and_refill_at_another_width() {
        let mut p = Population::new(20);
        p.check_invariants().unwrap();
        for i in 0..11 {
            p.fill(sol(&[i as f64, -(i as f64)]).as_member());
            p.check_invariants().unwrap();
        }
        p.clear();
        p.check_invariants().unwrap();
        // The blocked rows adopt the width of the first row of each epoch:
        // three objectives and the violation.
        for i in 0..9 {
            p.fill(sol(&[i as f64, 0.5, -(i as f64)]).as_member());
        }
        p.check_invariants().unwrap();
        assert_eq!(p.blocked.stride(), 4);
    }

    #[test]
    fn check_mirrors_sees_a_stale_lane_and_dirty_padding() {
        let mut p = Population::new(4);
        for i in 0..3 {
            p.fill(sol(&[i as f64, -(i as f64)]).as_member());
        }
        // Member 2's second objective, -2.0, read as 7.0 with the key it
        // had: the lane no longer backs its key.
        let mut stale = p.clone();
        stale.blocked.lanes_mut()[1][2] = 7.0;
        assert!(stale
            .check_invariants()
            .unwrap_err()
            .contains("key lane of row 2"));
        let mut dirty = p.clone();
        dirty.blocked.lanes_mut()[2][3] = 0.0;
        assert!(dirty.check_invariants().unwrap_err().contains("padding"));
        // A key that orders what its lane does not: member 1's first
        // objective, 1.0, keyed as 1.5, would put it strictly above an
        // offspring at 1.25.
        let mut decisive = p.clone();
        decisive.blocked.keys_mut()[0][1] = order_key(1.5);
        assert!(decisive.check_invariants().unwrap_err().contains("row 1"));
        let mut packed = p.clone();
        packed.blocked.packed_mut()[1][0] = order_key(1.5);
        assert!(packed.check_invariants().unwrap_err().contains("packed"));
        let mut miscounted = p.clone();
        miscounted.violating = 1;
        assert!(miscounted
            .check_invariants()
            .unwrap_err()
            .contains("violating"));
        // The two stores hold one row per member.
        let mut short = p.clone();
        short.variables.swap_remove_row(2);
        assert!(short
            .check_invariants()
            .unwrap_err()
            .contains("expected 2 rows"));
        p.check_invariants().unwrap();
    }

    #[test]
    fn reset_draws_what_resize_then_clear_draws() {
        use rand::Rng;
        for (len, capacity) in [(6usize, 3usize), (6, 6), (6, 9), (0, 4)] {
            let mut a = Population::new(8);
            for i in 0..len {
                a.fill(sol(&[i as f64, -(i as f64)]).as_member());
            }
            let mut b = a.clone();
            let mut rng_a = StdRng::seed_from_u64(11);
            let mut rng_b = StdRng::seed_from_u64(11);
            a.resize(capacity, &mut rng_a);
            a.clear();
            b.reset(capacity, &mut rng_b);
            assert_eq!(
                rng_a.gen::<u64>(),
                rng_b.gen::<u64>(),
                "{len} -> {capacity}"
            );
            assert_eq!((b.len(), b.capacity()), (0, capacity));
            assert_eq!((a.len(), a.capacity()), (0, capacity));
            b.check_invariants().unwrap();
            // And the emptied population refills like a new one.
            b.fill(sol(&[1.0, 2.0]).as_member());
            b.check_invariants().unwrap();
        }
    }

    mod differential {
        //! The row stores, the keyed blocked scan and the keyed tournament
        //! against the `Vec<Solution>` population with the scalar code they
        //! replaced: same seeded RNG in, same verdict, same rows in the same
        //! slots, same selection and same next draw out.

        use super::*;
        use crate::dominance::pareto_dominance_objectives;
        use proptest::prelude::*;
        use rand::Rng;

        /// The population as it was: whole solutions, a member-by-member
        /// scan, a scalar tournament, and shuffles of the members.
        #[derive(Debug, Clone)]
        struct ScalarPopulation {
            members: Vec<Solution>,
            capacity: usize,
        }

        impl ScalarPopulation {
            fn dominance(objectives: &[f64], violation: f64, member: &Solution) -> Dominance {
                let vi = member.constraint_violation();
                if violation < vi {
                    Dominance::Dominates
                } else if vi < violation {
                    Dominance::DominatedBy
                } else {
                    pareto_dominance_objectives(objectives, member.objectives())
                }
            }

            fn fill(&mut self, solution: Solution) -> bool {
                let room = self.members.len() < self.capacity;
                if room {
                    self.members.push(solution);
                }
                room
            }

            fn offer<R: Rng>(&mut self, offspring: Solution, rng: &mut R) -> PopulationInsert {
                if self.members.len() < self.capacity {
                    self.members.push(offspring);
                    return PopulationInsert::ReplacedRandom;
                }
                let violation = offspring.constraint_violation();
                let mut dominated = Vec::new();
                for (i, member) in self.members.iter().enumerate() {
                    match Self::dominance(offspring.objectives(), violation, member) {
                        Dominance::Dominates => dominated.push(i),
                        Dominance::DominatedBy => return PopulationInsert::Rejected,
                        Dominance::NonDominated => {}
                    }
                }
                let (verdict, i) = if dominated.is_empty() {
                    let i = rng.gen_range(0..self.members.len());
                    (PopulationInsert::ReplacedRandom, i)
                } else {
                    let pick = rng.gen_range(0..dominated.len());
                    (PopulationInsert::ReplacedDominated, dominated[pick])
                };
                self.members[i] = offspring;
                verdict
            }

            fn tournament_select<R: Rng>(&self, k: usize, rng: &mut R) -> usize {
                let mut best = rng.gen_range(0..self.members.len());
                for _ in 1..k.max(1) {
                    let challenger = rng.gen_range(0..self.members.len());
                    let c = &self.members[challenger];
                    let v = c.constraint_violation();
                    if Self::dominance(c.objectives(), v, &self.members[best])
                        == Dominance::Dominates
                    {
                        best = challenger;
                    }
                }
                best
            }

            fn resize<R: Rng>(&mut self, capacity: usize, rng: &mut R) {
                self.capacity = capacity;
                if self.members.len() > capacity {
                    self.members.shuffle(rng);
                    self.members.truncate(capacity);
                }
            }
        }

        /// Coarse values, so rows tie, repeat and dominate each other;
        /// everything an objective function can return that is not a
        /// number to order by; and what an order key cannot tell apart, so
        /// the exact kernels must: 1.0 with its neighbour one ulp up and
        /// one inside the same key step (2⁻¹⁰ < 2⁻⁷), 0.25 likewise one ulp
        /// down, and magnitudes `f32` rounds to ∞ and to a subnormal.
        const OBJECTIVES: [f64; 18] = [
            -0.0,
            0.0,
            0.25,
            0.25,
            0.25 - f64::EPSILON / 8.0,
            0.5,
            0.5,
            0.75,
            1.0,
            1.0 + f64::EPSILON,
            1.0 + 1.0 / 1024.0,
            2.0,
            1e300,
            1e-42,
            -1e-42,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        /// Mostly feasible; NaN and negative constraints count as
        /// satisfied, an infinite one as infinitely violated.
        const CONSTRAINTS: [f64; 8] = [0.0, 0.0, 0.0, -1.0, f64::NAN, 0.25, 1.5, f64::INFINITY];
        /// The leading entries of `CONSTRAINTS` that violate nothing.
        const SATISFIED: usize = 5;

        /// A random solution with two variables; `feasible` restricts its
        /// constraint to values that violate nothing, the regime in which
        /// the order keys speak.
        fn random_solution(m: usize, feasible: bool, rng: &mut StdRng) -> Solution {
            let variables = vec![rng.gen(), rng.gen()];
            let objectives = (0..m)
                .map(|_| OBJECTIVES[rng.gen_range(0..OBJECTIVES.len())])
                .collect();
            let choices = if feasible {
                SATISFIED
            } else {
                CONSTRAINTS.len()
            };
            let constraint = CONSTRAINTS[rng.gen_range(0..choices)];
            Solution::from_parts(variables, objectives, vec![constraint])
        }

        fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
            values.into_iter().map(f64::to_bits).collect()
        }

        /// The production population and the oracle in lockstep, each with
        /// its own copy of one RNG stream.
        struct Pair {
            fast: Population,
            slow: ScalarPopulation,
            rng_fast: StdRng,
            rng_slow: StdRng,
        }

        impl Pair {
            fn new(capacity: usize, seed: u64) -> Self {
                let rng_fast = StdRng::seed_from_u64(seed ^ 0x5EED);
                Self {
                    fast: Population::new(capacity),
                    slow: ScalarPopulation {
                        members: Vec::new(),
                        capacity,
                    },
                    rng_slow: rng_fast.clone(),
                    rng_fast,
                }
            }

            fn fill(&mut self, solution: Solution) -> bool {
                let seated = self.fast.fill(solution.as_member());
                assert_eq!(seated, self.slow.fill(solution));
                seated
            }

            fn offer(&mut self, offspring: Solution, step: usize) -> Result<(), TestCaseError> {
                let fast = self.fast.offer(offspring.as_member(), &mut self.rng_fast);
                let slow = self.slow.offer(offspring, &mut self.rng_slow);
                prop_assert_eq!(fast, slow, "verdict at step {}", step);
                Ok(())
            }

            fn reset(&mut self, capacity: usize) {
                self.fast.reset(capacity, &mut self.rng_fast);
                self.slow.resize(capacity, &mut self.rng_slow);
                self.slow.members.clear();
            }

            fn resize(&mut self, capacity: usize) {
                self.fast.resize(capacity, &mut self.rng_fast);
                self.slow.resize(capacity, &mut self.rng_slow);
            }

            /// Stores intact; each member's variables, objectives and
            /// violation in the oracle's slot, bit for bit; same tournament
            /// winner, same next draw.
            fn agree(&mut self, k: usize, step: usize) -> Result<(), TestCaseError> {
                let (fast, slow) = (&self.fast, &self.slow);
                fast.check_invariants().map_err(TestCaseError::fail)?;
                prop_assert_eq!(fast.len(), slow.members.len(), "length at step {}", step);
                prop_assert_eq!(fast.capacity(), slow.capacity);
                for (i, s) in slow.members.iter().enumerate() {
                    prop_assert_eq!(
                        bits(fast.variables(i).iter().copied()),
                        bits(s.variables().iter().copied()),
                        "variables of member {} at step {}",
                        i,
                        step
                    );
                    let rows = fast.objectives(i).chain([fast.violation(i)]);
                    let truth = s.objectives().iter().copied();
                    prop_assert_eq!(
                        bits(rows),
                        bits(truth.chain([s.constraint_violation()])),
                        "lane row of member {} at step {}",
                        i,
                        step
                    );
                }
                if !fast.is_empty() {
                    prop_assert_eq!(
                        self.fast.tournament_select(k, &mut self.rng_fast),
                        self.slow.tournament_select(k, &mut self.rng_slow),
                        "tournament of {} at step {}",
                        k,
                        step
                    );
                }
                prop_assert_eq!(self.rng_fast.gen::<u64>(), self.rng_slow.gen::<u64>());
                Ok(())
            }
        }

        fn drive(size: usize, m: usize, seed: u64) -> Result<(), TestCaseError> {
            let mut gen = StdRng::seed_from_u64(seed);
            // Phases in which nothing drawn violates a constraint (once the
            // violating members are displaced the keys are consulted) and
            // phases in which three draws in eight do (they are not).
            let mut feasible = seed.is_multiple_of(2);
            let mut pair = Pair::new(size, seed);
            while pair.fill(random_solution(m, feasible, &mut gen)) {}
            for step in 0..48 {
                match gen.gen_range(0..16) {
                    // A restart: empty, new capacity, refill part-way.
                    0 => {
                        let capacity = gen.gen_range(1..=size + 9);
                        pair.reset(capacity);
                        feasible = gen.gen();
                        for _ in 0..gen.gen_range(0..=capacity) {
                            pair.fill(random_solution(m, feasible, &mut gen));
                        }
                    }
                    // A shrink: shuffle, truncate, rebuild the rows.
                    1 if pair.fast.len() > 1 => {
                        let capacity = gen.gen_range(1..pair.fast.len());
                        pair.resize(capacity);
                    }
                    2 => feasible = !feasible,
                    _ => {
                        // One offspring in eight beats everything finite,
                        // so large populations see long dominated lists.
                        let offspring = if gen.gen_range(0..8) == 0 {
                            Solution::from_parts(vec![-1.0, 2.0], vec![-1.0; m], vec![0.0])
                        } else {
                            random_solution(m, feasible, &mut gen)
                        };
                        pair.offer(offspring, step)?;
                    }
                }
                pair.agree([1, 2, 5, 31][step % 4], step)?;
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            /// Sizes on both sides of one block and of eight; widths from
            /// the single-objective degenerate case to ten: both sides of
            /// each count in `COMPILED_COLUMNS`, where the scan's filter
            /// switches between the compiled one and the loop, and of
            /// eight columns, past which a tournament's packed keys hold a
            /// prefix of the row.
            #[test]
            fn blocked_kernels_match_the_scalar_oracle(
                size in prop::sample::select(vec![1usize, 7, 8, 9, 63, 64, 65, 1_000]),
                m in prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 8, 9, 10]),
                seed in 0u64..u64::MAX,
            ) {
                drive(size, m, seed)?;
            }
        }

        /// The count of violating members goes 0 → 3 → 0 under a stream of
        /// feasible offspring, so the keys are consulted, then not, then
        /// again — and with rows half a key step apart, where they are of
        /// no use — without a decision moving.
        #[test]
        fn keys_fall_silent_while_any_member_violates_a_constraint() {
            let mut gen = StdRng::seed_from_u64(77);
            // A 3-D front on a grid fine enough that neighbours share keys.
            let front_point = |gen: &mut StdRng| {
                let (a, b) = (gen.gen_range(0..64), gen.gen_range(0..64));
                let objectives = [a, b, 128 - a - b].map(|v| 1.0 + f64::from(v) / 256.0);
                Solution::from_parts(vec![f64::from(a)], objectives.to_vec(), vec![0.0])
            };
            let mut pair = Pair::new(40, 77);
            for _ in 0..37 {
                pair.fill(front_point(&mut gen));
            }
            assert_eq!(pair.fast.violating, 0);
            for violation in [0.5, f64::INFINITY, 2.0] {
                // Objectives that would dominate the whole front.
                pair.fill(Solution::from_parts(
                    vec![-1.0],
                    vec![0.0; 3],
                    vec![violation, -1.0],
                ));
            }
            assert_eq!(pair.fast.violating, 3);
            let mut counts = vec![pair.fast.violating];
            for step in 0..400 {
                // Violating offspring lose to every feasible member; a
                // feasible one displaces a violating member while any is
                // left, whatever its objectives.
                let offspring = if step % 5 == 4 {
                    Solution::from_parts(vec![-2.0], vec![0.0; 3], vec![1.0])
                } else {
                    front_point(&mut gen)
                };
                pair.offer(offspring, step).unwrap();
                pair.agree(2 + step % 7, step).unwrap();
                if counts.last() != Some(&pair.fast.violating) {
                    counts.push(pair.fast.violating);
                }
            }
            assert_eq!(counts, [3, 2, 1, 0]);
        }
    }
}
