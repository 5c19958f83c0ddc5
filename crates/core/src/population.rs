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
//! So the population keeps one mirror of its members' objective vectors and
//! aggregate constraint violations, a [`BlockedRows`] (the type the archive
//! keeps its box keys in), which holds every value three ways:
//!
//! * **exact lanes**: members in blocks of [`BLOCK_LANES`], each block one
//!   `[f64; 8]` lane array per objective plus one of violations, unoccupied
//!   lanes NaN. [`constrained_dominance_block`] compares the offspring with
//!   a whole block without a data-dependent branch; this is the only code
//!   that decides a replacement;
//! * **key lanes**: the 16-bit [`order_key`](crate::dominance::order_key)
//!   of each lane, in the same layout. The order-key filter
//!   ([`filter_by_order_keys`], at two and five objectives compiled for
//!   the count with the offspring's keys in registers) reads them first
//!   and proves most blocks mutually nondominated with the offspring at a
//!   quarter of the bytes and a quarter of the packed compares, and the
//!   scan in [`Population::offer_replacing`] skips those blocks;
//! * **packed keys**: each member's keys again, row-major, 16 bytes a
//!   member, for [`Population::tournament_select`], which reads random
//!   members — one load where the member's lanes are spread over `m + 1`
//!   cache lines. [`keys_apart_pair`] proves most pairs apart; the few it
//!   cannot are compared exactly, out of the lanes.
//!
//! The keys speak only while no violation can decide anything (no member
//! and not the offspring has a positive one), never about a row that holds
//! a NaN, and in the scan only when there are at least two full blocks to
//! ask about ([`MIN_KEYED_BLOCKS`]); otherwise every block and pair goes
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
//! changes a decision: the scalar scan and tournament survive under
//! `#[cfg(test)]` as the oracle of a differential property test.

use crate::dominance::{
    constrained_dominance_block, constrained_dominance_columns, filter_by_order_keys,
    keys_apart_pair, unfiltered, Dominance, KeyLanes, KeyedScan, BLOCK_LANES, MIN_KEYED_BLOCKS,
};
use crate::matrix::BlockedRows;
use crate::solution::Solution;
use rand::seq::SliceRandom;
use rand::Rng;

/// Outcome of offering an offspring to the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationInsert {
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
    members: Vec<Solution>,
    /// Mirror of each member's objectives followed by its aggregate
    /// constraint violation (computed once at insertion instead of per
    /// comparison), row-parallel with `members`: exact lanes and key lanes
    /// for the replacement scan, packed keys for the tournament.
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
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "population capacity must be positive");
        Self {
            members: Vec::with_capacity(capacity),
            blocked: BlockedRows::default(),
            violating: 0,
            capacity,
            scratch_dominated: Vec::new(),
            scratch_keys: Vec::new(),
        }
    }

    /// Current members.
    pub fn members(&self) -> &[Solution] {
        &self.members
    }

    /// Number of members currently held.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the population holds no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Capacity (target size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the population is at capacity.
    pub fn is_full(&self) -> bool {
        self.members.len() >= self.capacity
    }

    /// Adds a member unconditionally while below capacity (initialization /
    /// restart refill). Returns `false` (and drops the solution) when full.
    pub fn fill(&mut self, solution: Solution) -> bool {
        if self.is_full() {
            return false;
        }
        self.push_member(solution);
        true
    }

    /// Empties the population, keeping capacity.
    pub fn clear(&mut self) {
        self.members.clear();
        self.blocked.clear();
        self.violating = 0;
    }

    /// Empties the population and gives it a new capacity (a restart): what
    /// [`resize`](Self::resize) followed by [`clear`](Self::clear) leaves
    /// behind, without rebuilding mirrors only to empty them. It draws what
    /// `resize` draws — the shuffle of a shrinking population — so callers'
    /// RNG streams do not depend on which form they use. The retired
    /// members are handed back, for their buffers to be recycled; dropping
    /// the iterator frees whatever it has not yielded.
    pub fn reset<R: Rng>(&mut self, capacity: usize, rng: &mut R) -> std::vec::Drain<'_, Solution> {
        assert!(capacity > 0, "population capacity must be positive");
        if self.members.len() > capacity {
            self.members.shuffle(rng);
        }
        self.capacity = capacity;
        self.blocked.clear();
        self.violating = 0;
        self.blocked.reserve(capacity);
        self.members.drain(..)
    }

    /// Changes the capacity; excess members (if shrinking) are dropped from
    /// the tail after a shuffle so no positional bias survives.
    pub fn resize<R: Rng>(&mut self, capacity: usize, rng: &mut R) {
        assert!(capacity > 0, "population capacity must be positive");
        self.capacity = capacity;
        if self.members.len() > capacity {
            self.members.shuffle(rng);
            self.members.truncate(capacity);
            self.rebuild_mirrors();
        }
    }

    /// Offers an offspring to a full population using Borg's steady-state
    /// replacement rule.
    // borg-lint: hot-path
    pub fn offer<R: Rng>(&mut self, offspring: Solution, rng: &mut R) -> PopulationInsert {
        self.offer_replacing(offspring, rng).0
    }

    /// [`offer`](Self::offer), additionally returning the member the
    /// offspring displaced (if any) so callers can recycle its buffers
    /// through a solution arena instead of freeing them.
    // borg-lint: hot-path
    pub fn offer_replacing<R: Rng>(
        &mut self,
        offspring: Solution,
        rng: &mut R,
    ) -> (PopulationInsert, Option<Solution>) {
        if !self.is_full() {
            self.push_member(offspring);
            return (PopulationInsert::ReplacedRandom, None);
        }
        let violation = offspring.constraint_violation();
        if self.scan(offspring.objectives(), violation) {
            return (PopulationInsert::Rejected, Some(offspring));
        }
        self.replace_after_scan(offspring, violation, rng)
    }

    /// Seats an offspring no member dominates: in place of a random one of
    /// the members the scan left in `scratch_dominated`, or of a random
    /// member when there are none.
    // borg-lint: hot-path
    fn replace_after_scan<R: Rng>(
        &mut self,
        offspring: Solution,
        violation: f64,
        rng: &mut R,
    ) -> (PopulationInsert, Option<Solution>) {
        let (verdict, i) = if self.scratch_dominated.is_empty() {
            let i = rng.gen_range(0..self.members.len());
            (PopulationInsert::ReplacedRandom, i)
        } else {
            let pick = rng.gen_range(0..self.scratch_dominated.len());
            (
                PopulationInsert::ReplacedDominated,
                self.scratch_dominated[pick],
            )
        };
        (verdict, Some(self.replace_member(i, offspring, violation)))
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
        let full = self.members.len() / BLOCK_LANES;
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
    pub fn tournament_select<R: Rng>(&self, k: usize, rng: &mut R) -> usize {
        assert!(
            !self.members.is_empty(),
            "cannot select from empty population"
        );
        let keyed = self.violating == 0;
        let mut best = rng.gen_range(0..self.members.len());
        for _ in 1..k.max(1) {
            let challenger = rng.gen_range(0..self.members.len());
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
    /// of the blocked mirror's lanes.
    // borg-lint: hot-path
    #[inline]
    fn dominance(&self, a: usize, b: usize) -> Dominance {
        let m = self.violation_column();
        let columns = self.blocked.row(a).zip(self.blocked.row(b)).take(m);
        constrained_dominance_columns(columns, self.blocked.value(a, m), self.blocked.value(b, m))
    }

    /// The mirror column that holds the violation: the one after the
    /// objectives. Meaningful only while the population has members.
    fn violation_column(&self) -> usize {
        self.blocked.stride() - 1
    }

    /// Member accessor.
    pub fn get(&self, i: usize) -> &Solution {
        &self.members[i]
    }

    /// Appends a member and its mirror row.
    fn push_member(&mut self, solution: Solution) {
        let violation = solution.constraint_violation();
        self.violating += usize::from(violation > 0.0);
        self.blocked
            .push(blocked_row(solution.objectives(), violation));
        self.members.push(solution);
    }

    /// Replaces member `i`, refreshing its mirror row; returns the old one.
    // borg-lint: hot-path
    fn replace_member(&mut self, i: usize, solution: Solution, violation: f64) -> Solution {
        let old = self.blocked.value(i, self.violation_column());
        self.violating -= usize::from(old > 0.0);
        self.violating += usize::from(violation > 0.0);
        self.blocked
            .set(i, blocked_row(solution.objectives(), violation));
        std::mem::replace(&mut self.members[i], solution)
    }

    /// Recomputes the mirror from `members` (after a shuffle/truncate).
    fn rebuild_mirrors(&mut self) {
        let members = std::mem::take(&mut self.members);
        self.clear();
        self.members.reserve(self.capacity);
        for m in members {
            self.push_member(m);
        }
    }

    /// Verifies that the mirror agrees with the members, bit for bit, that
    /// every unoccupied lane is padding, every order key the key of its
    /// exact lane ([`BlockedRows::check`]), and the count of violating
    /// members (tests).
    pub fn check_mirrors(&self) -> Result<(), String> {
        let n = self.members.len();
        let width = self.members.first().map_or(0, Solution::num_objectives);
        self.blocked.check(n, width + 1)?;
        for (i, m) in self.members.iter().enumerate() {
            let truth = blocked_row(m.objectives(), m.constraint_violation()).map(f64::to_bits);
            if !self.blocked.row(i).map(f64::to_bits).eq(truth) {
                return Err(format!("blocked mirror lane of member {i} is stale"));
            }
        }
        let violates = |m: &&Solution| m.constraint_violation() > 0.0;
        let violating = self.members.iter().filter(violates).count();
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

/// The scalar scan and tournament the blocked kernels replaced, kept as the
/// oracle the differential property test below holds them to.
#[cfg(test)]
impl Population {
    fn row_dominance_scalar(&self, objectives: &[f64], violation: f64, i: usize) -> Dominance {
        let vi = self.members[i].constraint_violation();
        if violation < vi {
            Dominance::Dominates
        } else if vi < violation {
            Dominance::DominatedBy
        } else {
            crate::dominance::pareto_dominance_objectives(objectives, self.members[i].objectives())
        }
    }

    fn offer_replacing_scalar<R: Rng>(
        &mut self,
        offspring: Solution,
        rng: &mut R,
    ) -> (PopulationInsert, Option<Solution>) {
        if !self.is_full() {
            self.push_member(offspring);
            return (PopulationInsert::ReplacedRandom, None);
        }
        let violation = offspring.constraint_violation();
        self.scratch_dominated.clear();
        for i in 0..self.members.len() {
            match self.row_dominance_scalar(offspring.objectives(), violation, i) {
                Dominance::Dominates => self.scratch_dominated.push(i),
                Dominance::DominatedBy => return (PopulationInsert::Rejected, Some(offspring)),
                Dominance::NonDominated => {}
            }
        }
        self.replace_after_scan(offspring, violation, rng)
    }

    fn tournament_select_scalar<R: Rng>(&self, k: usize, rng: &mut R) -> usize {
        let mut best = rng.gen_range(0..self.members.len());
        for _ in 1..k.max(1) {
            let challenger = rng.gen_range(0..self.members.len());
            let c = &self.members[challenger];
            if self.row_dominance_scalar(c.objectives(), c.constraint_violation(), best)
                == Dominance::Dominates
            {
                best = challenger;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::order_key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sol(objs: &[f64]) -> Solution {
        Solution::from_parts(vec![], objs.to_vec(), vec![])
    }

    #[test]
    fn fill_until_capacity() {
        let mut p = Population::new(2);
        assert!(p.fill(sol(&[1.0, 1.0])));
        assert!(!p.is_full());
        assert!(p.fill(sol(&[2.0, 2.0])));
        assert!(p.is_full());
        assert!(!p.fill(sol(&[3.0, 3.0])));
        assert_eq!(p.len(), 2);
        p.check_mirrors().unwrap();
    }

    #[test]
    fn offer_replaces_dominated_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[5.0, 5.0]));
        p.fill(sol(&[0.0, 9.0]));
        let r = p.offer(sol(&[1.0, 1.0]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert!(p.members().iter().any(|m| m.objectives() == [1.0, 1.0]));
        assert!(p.members().iter().any(|m| m.objectives() == [0.0, 9.0]));
        p.check_mirrors().unwrap();
    }

    #[test]
    fn offer_rejects_dominated_offspring() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(1);
        p.fill(sol(&[0.0, 0.0]));
        assert_eq!(
            p.offer(sol(&[1.0, 1.0]), &mut rng),
            PopulationInsert::Rejected
        );
        assert_eq!(p.members()[0].objectives(), &[0.0, 0.0]);
        p.check_mirrors().unwrap();
    }

    #[test]
    fn offer_nondominated_replaces_random() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[0.0, 1.0]));
        p.fill(sol(&[1.0, 0.0]));
        let r = p.offer(sol(&[0.5, 0.5]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedRandom);
        assert_eq!(p.len(), 2);
        p.check_mirrors().unwrap();
    }

    #[test]
    fn offer_replacing_returns_the_displaced_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = Population::new(2);
        p.fill(sol(&[5.0, 5.0]));
        p.fill(sol(&[0.0, 9.0]));
        let (r, old) = p.offer_replacing(sol(&[1.0, 1.0]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert_eq!(old.expect("displaced").objectives(), &[5.0, 5.0]);
        // A rejected offspring comes back to the caller for recycling.
        let (r, back) = p.offer_replacing(sol(&[9.0, 9.0]), &mut rng);
        assert_eq!(r, PopulationInsert::Rejected);
        assert_eq!(back.expect("rejected offspring").objectives(), &[9.0, 9.0]);
        // Filling below capacity keeps the offspring: nothing to recycle.
        let mut q = Population::new(2);
        let (r, none) = q.offer_replacing(sol(&[1.0, 2.0]), &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedRandom);
        assert!(none.is_none());
    }

    #[test]
    fn constrained_offspring_uses_cached_violations() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = Population::new(2);
        p.fill(Solution::from_parts(vec![], vec![0.0, 0.0], vec![2.0]));
        p.fill(Solution::from_parts(vec![], vec![1.0, 9.0], vec![0.0]));
        // Feasible offspring dominates the violating member regardless of
        // objectives.
        let off = Solution::from_parts(vec![], vec![5.0, 5.0], vec![0.0]);
        let r = p.offer(off, &mut rng);
        assert_eq!(r, PopulationInsert::ReplacedDominated);
        assert!(p.members().iter().all(|m| m.is_feasible()));
        p.check_mirrors().unwrap();
    }

    /// A violating offspring loses to every feasible member even when its
    /// objectives sit in a gap of the front, where the order keys alone
    /// would call every block apart: its own violation silences them.
    #[test]
    fn violating_offspring_is_rejected_from_a_gap_in_a_feasible_front() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = Population::new(16);
        for i in 0..16 {
            p.fill(sol(&[f64::from(i), f64::from(16 - i)]));
        }
        let in_gap = |constraint| Solution::from_parts(vec![], vec![7.5, 8.75], vec![constraint]);
        assert_eq!(p.offer(in_gap(0.5), &mut rng), PopulationInsert::Rejected);
        assert_eq!(
            p.offer(in_gap(0.0), &mut rng),
            PopulationInsert::ReplacedRandom
        );
        p.check_mirrors().unwrap();
    }

    #[test]
    fn tournament_prefers_dominating_member() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Population::new(10);
        for _ in 0..9 {
            p.fill(sol(&[9.0, 9.0]));
        }
        p.fill(sol(&[0.0, 0.0]));
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
            p.fill(sol(&[i as f64, 4.0 - i as f64]));
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
            p.fill(sol(&[i as f64, -(i as f64)]));
        }
        p.resize(2, &mut rng);
        assert_eq!(p.len(), 2);
        assert_eq!(p.capacity(), 2);
        p.check_mirrors().unwrap();
        p.resize(8, &mut rng);
        assert_eq!(p.len(), 2);
        assert!(!p.is_full());
        p.check_mirrors().unwrap();
    }

    #[test]
    fn mirrors_survive_clear_and_refill_at_another_width() {
        let mut p = Population::new(20);
        p.check_mirrors().unwrap();
        for i in 0..11 {
            p.fill(sol(&[i as f64, -(i as f64)]));
            p.check_mirrors().unwrap();
        }
        p.clear();
        p.check_mirrors().unwrap();
        // The blocked mirror adopts the width of the first row of each
        // epoch: three objectives and the violation.
        for i in 0..9 {
            p.fill(sol(&[i as f64, 0.5, -(i as f64)]));
        }
        p.check_mirrors().unwrap();
        assert_eq!(p.blocked.stride(), 4);
    }

    #[test]
    fn check_mirrors_sees_a_stale_lane_and_dirty_padding() {
        let mut p = Population::new(4);
        for i in 0..3 {
            p.fill(sol(&[i as f64, -(i as f64)]));
        }
        // Member 2's second objective, -2.0, read as 7.0: first with the
        // key it had (the lane no longer backs its key), then rekeyed to
        // match (the lane no longer is the member's).
        let mut stale = p.clone();
        stale.blocked.lanes_mut()[1][2] = 7.0;
        assert!(stale
            .check_mirrors()
            .unwrap_err()
            .contains("key lane of row 2"));
        stale.blocked.keys_mut()[1][2] = order_key(7.0);
        stale.blocked.packed_mut()[2][1] = order_key(7.0);
        assert!(stale.check_mirrors().unwrap_err().contains("member 2"));
        let mut dirty = p.clone();
        dirty.blocked.lanes_mut()[2][3] = 0.0;
        assert!(dirty.check_mirrors().unwrap_err().contains("padding"));
        // A key that orders what its lane does not: member 1's first
        // objective, 1.0, keyed as 1.5, would put it strictly above an
        // offspring at 1.25.
        let mut decisive = p.clone();
        decisive.blocked.keys_mut()[0][1] = order_key(1.5);
        assert!(decisive.check_mirrors().unwrap_err().contains("row 1"));
        let mut packed = p.clone();
        packed.blocked.packed_mut()[1][0] = order_key(1.5);
        assert!(packed.check_mirrors().unwrap_err().contains("packed"));
        let mut miscounted = p.clone();
        miscounted.violating = 1;
        assert!(miscounted
            .check_mirrors()
            .unwrap_err()
            .contains("violating"));
        p.check_mirrors().unwrap();
    }

    #[test]
    fn reset_draws_what_resize_then_clear_draws() {
        use rand::Rng;
        for (len, capacity) in [(6usize, 3usize), (6, 6), (6, 9), (0, 4)] {
            let mut a = Population::new(8);
            for i in 0..len {
                a.fill(sol(&[i as f64, -(i as f64)]));
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
            b.check_mirrors().unwrap();
            // And the emptied population refills like a new one.
            b.fill(sol(&[1.0, 2.0]));
            b.check_mirrors().unwrap();
        }
    }

    mod differential {
        //! The keyed, blocked scan and the keyed tournament against the
        //! scalar code they replaced: same seeded RNG in, same verdict,
        //! same displaced member, same selection and same next draw out.

        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

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

        /// A random solution; `feasible` restricts its constraint to values
        /// that violate nothing, the regime in which the order keys speak.
        fn random_solution(m: usize, feasible: bool, rng: &mut StdRng) -> Solution {
            let objectives = (0..m)
                .map(|_| OBJECTIVES[rng.gen_range(0..OBJECTIVES.len())])
                .collect();
            let choices = if feasible {
                SATISFIED
            } else {
                CONSTRAINTS.len()
            };
            let constraint = CONSTRAINTS[rng.gen_range(0..choices)];
            Solution::from_parts(vec![], objectives, vec![constraint])
        }

        fn bits(s: &Solution) -> Vec<u64> {
            let values = s.objectives().iter().chain(s.constraints());
            values.map(|v| v.to_bits()).collect()
        }

        fn same_members(fast: &Population, slow: &Population) -> bool {
            fast.len() == slow.len()
                && fast
                    .members()
                    .iter()
                    .zip(slow.members())
                    .all(|(f, s)| bits(f) == bits(s))
        }

        /// The production population and the scalar oracle in lockstep,
        /// each with its own copy of one RNG stream.
        struct Pair {
            fast: Population,
            slow: Population,
            rng_fast: StdRng,
            rng_slow: StdRng,
        }

        impl Pair {
            fn new(fast: Population, seed: u64) -> Self {
                let rng_fast = StdRng::seed_from_u64(seed ^ 0x5EED);
                Self {
                    slow: fast.clone(),
                    fast,
                    rng_slow: rng_fast.clone(),
                    rng_fast,
                }
            }

            fn offer(&mut self, offspring: Solution, step: usize) -> Result<(), TestCaseError> {
                let (verdict_fast, out_fast) = self
                    .fast
                    .offer_replacing(offspring.clone(), &mut self.rng_fast);
                let (verdict_slow, out_slow) = self
                    .slow
                    .offer_replacing_scalar(offspring, &mut self.rng_slow);
                prop_assert_eq!(verdict_fast, verdict_slow, "verdict at step {}", step);
                prop_assert_eq!(
                    out_fast.as_ref().map(bits),
                    out_slow.as_ref().map(bits),
                    "displaced member at step {}",
                    step
                );
                Ok(())
            }

            /// Mirrors intact, same members, same tournament winner, same
            /// next draw.
            fn agree(&mut self, k: usize, step: usize) -> Result<(), TestCaseError> {
                self.fast.check_mirrors().map_err(TestCaseError::fail)?;
                prop_assert!(
                    same_members(&self.fast, &self.slow),
                    "members at step {}",
                    step
                );
                if !self.fast.is_empty() {
                    prop_assert_eq!(
                        self.fast.tournament_select(k, &mut self.rng_fast),
                        self.slow.tournament_select_scalar(k, &mut self.rng_slow),
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
            let mut start = Population::new(size);
            while start.fill(random_solution(m, feasible, &mut gen)) {}
            let mut pair = Pair::new(start, seed);
            for step in 0..48 {
                match gen.gen_range(0..16) {
                    // A restart: empty, new capacity, refill part-way.
                    0 => {
                        let capacity = gen.gen_range(1..=size + 9);
                        pair.fast.reset(capacity, &mut pair.rng_fast);
                        pair.slow.reset(capacity, &mut pair.rng_slow);
                        pair.fast.check_mirrors().map_err(TestCaseError::fail)?;
                        feasible = gen.gen();
                        for _ in 0..gen.gen_range(0..=capacity) {
                            let s = random_solution(m, feasible, &mut gen);
                            pair.slow.fill(s.clone());
                            pair.fast.fill(s);
                        }
                    }
                    // A shrink: shuffle, truncate, rebuild the mirrors.
                    1 if pair.fast.len() > 1 => {
                        let capacity = gen.gen_range(1..pair.fast.len());
                        pair.fast.resize(capacity, &mut pair.rng_fast);
                        pair.slow.resize(capacity, &mut pair.rng_slow);
                    }
                    2 => feasible = !feasible,
                    _ => {
                        // One offspring in eight beats everything finite,
                        // so large populations see long dominated lists.
                        let offspring = if gen.gen_range(0..8) == 0 {
                            Solution::from_parts(vec![], vec![-1.0; m], vec![0.0])
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
                Solution::from_parts(vec![], objectives.to_vec(), vec![0.0])
            };
            let mut start = Population::new(40);
            for _ in 0..37 {
                start.fill(front_point(&mut gen));
            }
            assert_eq!(start.violating, 0);
            for violation in [0.5, f64::INFINITY, 2.0] {
                // Objectives that would dominate the whole front.
                start.fill(Solution::from_parts(
                    vec![],
                    vec![0.0; 3],
                    vec![violation, -1.0],
                ));
            }
            assert_eq!(start.violating, 3);
            let mut pair = Pair::new(start, 77);
            let mut counts = vec![pair.fast.violating];
            for step in 0..400 {
                // Violating offspring lose to every feasible member; a
                // feasible one displaces a violating member while any is
                // left, whatever its objectives.
                let offspring = if step % 5 == 4 {
                    Solution::from_parts(vec![], vec![0.0; 3], vec![1.0])
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
