//! The steady-state population with tournament selection.
//!
//! Borg maintains a fixed-size population evolved one offspring at a time.
//! Replacement follows Hadka & Reed (2012): an offspring that dominates one
//! or more population members replaces one of them at random; an offspring
//! dominated by no member but dominating none replaces a random member; an
//! offspring dominated by any member is rejected.
//!
//! At paper scale the replacement scan is the largest `T_A` term. On the
//! benchmark's `serial-dtlz2-5` workload (DTLZ2-5, ε = 0.06, 50 000
//! evaluations: a 3 825-member archive under a 12 372-member population)
//! the scalar scan cost 29.99 µs of a ~50 µs evaluation, against 12.36 µs
//! for the archive and 8.50 µs for the tournaments: every offspring that
//! reaches a full population is compared with every member, and on a
//! converged 5-D front nearly all of those comparisons are between mutually
//! nondominated rows, where a comparator that branches per objective
//! mispredicts most of its branches.
//!
//! So the population keeps two mirrors of its members' objective vectors
//! and aggregate constraint violations, each serving one access pattern:
//!
//! * a **blocked** mirror ([`BlockedRows`], the type the archive keeps its
//!   box keys in) for the scan in [`Population::offer_replacing`]: members
//!   in blocks of [`BLOCK_LANES`], each block one lane array per objective
//!   plus one of violations, unoccupied lanes NaN.
//!   [`constrained_dominance_block`] compares the offspring with a whole
//!   block without a data-dependent branch and answers "nothing decided"
//!   with one test, so the scan streams through `m + 1` cache lines per
//!   eight members at a few cycles a member;
//! * a **row-major** [`ObjectiveMatrix`] plus a violation vector for
//!   [`Population::tournament_select`], which reads random members: one
//!   row is one cache line, where the same member's lanes in the blocked
//!   mirror are spread over `m + 1` of them.
//!
//! Neither path allocates per offspring (the dominated-index list is a
//! reused scratch buffer), and neither changes a decision: the scalar scan
//! they replaced survives under `#[cfg(test)]` as the oracle of a
//! differential property test.

use crate::dominance::{
    constrained_dominance_block, constrained_dominance_rows, Dominance, BLOCK_LANES,
};
use crate::matrix::{BlockedRows, ObjectiveMatrix};
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
    /// Row-major mirror of member objective vectors, row-parallel with
    /// `members`: the tournament's view.
    objectives: ObjectiveMatrix,
    /// Cached aggregate constraint violation per member, row-parallel with
    /// `members` (computed once at insertion instead of per comparison).
    violations: Vec<f64>,
    /// Blocked mirror of objectives followed by the violation: the
    /// replacement scan's view.
    blocked: BlockedRows,
    capacity: usize,
    /// Reused dominated-member index list for `offer`.
    scratch_dominated: Vec<usize>,
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
            objectives: ObjectiveMatrix::new(0),
            violations: Vec::with_capacity(capacity),
            blocked: BlockedRows::default(),
            capacity,
            scratch_dominated: Vec::new(),
        }
    }

    /// Current members.
    pub fn members(&self) -> &[Solution] {
        &self.members
    }

    /// Flat row-major view of member objective vectors: row `i` holds
    /// member `i`'s objectives.
    pub fn objective_rows(&self) -> &ObjectiveMatrix {
        &self.objectives
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
        self.objectives.clear();
        self.violations.clear();
        self.blocked.clear();
    }

    /// Empties the population and gives it a new capacity (a restart): what
    /// [`resize`](Self::resize) followed by [`clear`](Self::clear) leaves
    /// behind, without rebuilding mirrors only to empty them. It draws what
    /// `resize` draws — the shuffle of a shrinking population — so callers'
    /// RNG streams do not depend on which form they use.
    pub fn reset<R: Rng>(&mut self, capacity: usize, rng: &mut R) {
        assert!(capacity > 0, "population capacity must be positive");
        if self.members.len() > capacity {
            self.members.shuffle(rng);
        }
        self.capacity = capacity;
        self.clear();
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
    // borg-lint: hot-path
    fn scan(&mut self, objectives: &[f64], violation: f64) -> bool {
        self.scratch_dominated.clear();
        for (b, block) in self.blocked.blocks().enumerate() {
            let Some(lanes) = constrained_dominance_block(objectives, violation, block) else {
                continue;
            };
            if lanes.contains(&Dominance::DominatedBy) {
                return true;
            }
            for (l, &lane) in lanes.iter().enumerate() {
                if lane == Dominance::Dominates {
                    self.scratch_dominated.push(b * BLOCK_LANES + l);
                }
            }
        }
        false
    }

    /// Tournament selection of one parent with tournament size `k`.
    ///
    /// Draws `k` members uniformly with replacement and returns the index of
    /// the best under constrained Pareto dominance (ties keep the earlier
    /// draw, which is an unbiased choice because draws are random).
    // borg-lint: hot-path
    pub fn tournament_select<R: Rng>(&self, k: usize, rng: &mut R) -> usize {
        assert!(
            !self.members.is_empty(),
            "cannot select from empty population"
        );
        let mut best = rng.gen_range(0..self.members.len());
        for _ in 1..k.max(1) {
            let challenger = rng.gen_range(0..self.members.len());
            let wins = constrained_dominance_rows(
                self.objectives.row(challenger),
                self.violations[challenger],
                self.objectives.row(best),
                self.violations[best],
            ) == Dominance::Dominates;
            // Branchless pick: a win is a coin flip early in a run and rare
            // on a converged front, and the mask costs the same either way.
            // All-ones moves `best` to the challenger.
            best ^= (best ^ challenger) & usize::from(wins).wrapping_neg();
        }
        best
    }

    /// Selects `n` distinct member indices uniformly at random (used to build
    /// multiparent operator inputs around a tournament-selected pivot).
    ///
    /// If fewer than `n` members exist, indices repeat (sampling with
    /// replacement) so multiparent operators still receive full arity.
    pub fn sample_indices<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        assert!(!self.members.is_empty(), "cannot sample empty population");
        if self.members.len() >= n {
            rand::seq::index::sample(rng, self.members.len(), n).into_vec()
        } else {
            (0..n)
                .map(|_| rng.gen_range(0..self.members.len()))
                .collect()
        }
    }

    /// As [`sample_indices`](Self::sample_indices), writing into a reused
    /// buffer so the steady-state loop allocates nothing per candidate.
    ///
    /// Draws the **same RNG stream** as the allocating form: it simulates
    /// `rand::seq::index::sample`'s partial Fisher–Yates over a *virtual*
    /// `0..len` pool, tracking only the (≤ arity) slots a swap touched in a
    /// fixed stack array instead of materializing the whole pool.
    // borg-lint: hot-path
    pub fn sample_indices_into<R: Rng>(&self, n: usize, rng: &mut R, out: &mut Vec<usize>) {
        assert!(!self.members.is_empty(), "cannot sample empty population");
        out.clear();
        let len = self.members.len();
        if len < n {
            for _ in 0..n {
                out.push(rng.gen_range(0..len));
            }
            return;
        }
        // One touched slot per draw; operator arities are ≤ 10, so 32 gives
        // ample headroom. (A larger request falls back to the allocating
        // sampler, which draws the identical stream.)
        const MAX_STACK: usize = 32;
        if n > MAX_STACK {
            out.extend_from_slice(&rand::seq::index::sample(rng, len, n).into_vec());
            return;
        }
        let mut touched = [(usize::MAX, 0usize); MAX_STACK];
        let lookup = |touched: &[(usize, usize)], x: usize| -> usize {
            // Latest write wins; untouched slots hold their identity value.
            for &(slot, value) in touched.iter().rev() {
                if slot == x {
                    return value;
                }
            }
            x
        };
        for i in 0..n {
            let j = rng.gen_range(i..len);
            let vj = lookup(&touched[..i], j);
            let vi = lookup(&touched[..i], i);
            // `pool.swap(i, j)`: slot i is final after iteration i (future
            // draws satisfy j ≥ i+1), so its value goes straight to `out`;
            // slot j keeps the displaced value for future lookups.
            out.push(vj);
            touched[i] = (j, vi);
        }
    }

    /// Member accessor.
    pub fn get(&self, i: usize) -> &Solution {
        &self.members[i]
    }

    /// Appends a member and its mirror rows.
    fn push_member(&mut self, solution: Solution) {
        let violation = solution.constraint_violation();
        self.violations.push(violation);
        self.objectives.push_row(solution.objectives());
        self.blocked
            .push(blocked_row(solution.objectives(), violation));
        self.members.push(solution);
    }

    /// Replaces member `i`, refreshing its mirror rows; returns the old one.
    // borg-lint: hot-path
    fn replace_member(&mut self, i: usize, solution: Solution, violation: f64) -> Solution {
        self.violations[i] = violation;
        self.objectives.set_row(i, solution.objectives());
        self.blocked
            .set(i, blocked_row(solution.objectives(), violation));
        std::mem::replace(&mut self.members[i], solution)
    }

    /// Recomputes the mirrors from `members` (after a shuffle/truncate).
    fn rebuild_mirrors(&mut self) {
        let members = std::mem::take(&mut self.members);
        self.clear();
        self.members.reserve(self.capacity);
        for m in members {
            self.push_member(m);
        }
    }

    /// Verifies that both mirrors agree with the members, bit for bit, and
    /// that every unoccupied lane of the blocked mirror is NaN (tests).
    pub fn check_mirrors(&self) -> Result<(), String> {
        let n = self.members.len();
        let mirrored = [self.objectives.rows(), self.violations.len()];
        if mirrored != [n, n] {
            return Err(format!(
                "row-major mirrors hold {mirrored:?} rows for {n} members"
            ));
        }
        let width = self.members.first().map_or(0, Solution::num_objectives);
        self.blocked.check(n, width + 1)?;
        for (i, m) in self.members.iter().enumerate() {
            let truth = || blocked_row(m.objectives(), m.constraint_violation()).map(f64::to_bits);
            let row = blocked_row(self.objectives.row(i), self.violations[i]);
            if !row.map(f64::to_bits).eq(truth()) {
                return Err(format!("row-major mirror of member {i} is stale"));
            }
            if !self.blocked.row(i).map(f64::to_bits).eq(truth()) {
                return Err(format!("blocked mirror lane of member {i} is stale"));
            }
        }
        Ok(())
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
        let vi = self.violations[i];
        if violation < vi {
            Dominance::Dominates
        } else if vi < violation {
            Dominance::DominatedBy
        } else {
            crate::dominance::pareto_dominance_objectives(objectives, self.objectives.row(i))
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
            let row = self.objectives.row(challenger);
            if self.row_dominance_scalar(row, self.violations[challenger], best)
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
    fn sample_indices_distinct_when_possible() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = Population::new(10);
        for i in 0..10 {
            p.fill(sol(&[i as f64, -(i as f64)]));
        }
        let idx = p.sample_indices(5, &mut rng);
        let mut dedup = idx.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    fn sample_indices_with_replacement_when_small() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = Population::new(2);
        p.fill(sol(&[0.0, 1.0]));
        p.fill(sol(&[1.0, 0.0]));
        let idx = p.sample_indices(6, &mut rng);
        assert_eq!(idx.len(), 6);
        assert!(idx.iter().all(|&i| i < 2));
    }

    #[test]
    fn sample_indices_into_matches_allocating_form() {
        // Same seed → the reused-buffer form must draw the same RNG stream
        // and produce the same indices as `sample_indices` (this is what
        // keeps the engine's candidate streams bit-identical).
        for n in [1usize, 2, 5, 9, 10] {
            let mut p = Population::new(10);
            for i in 0..10 {
                p.fill(sol(&[i as f64, -(i as f64)]));
            }
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            let alloc = p.sample_indices(n, &mut a);
            let mut reused = Vec::new();
            p.sample_indices_into(n, &mut b, &mut reused);
            assert_eq!(alloc, reused, "divergence at arity {n}");
            // And the RNG cursors must agree afterwards.
            use rand::Rng;
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        // Small-population with-replacement path.
        let mut p = Population::new(2);
        p.fill(sol(&[0.0, 1.0]));
        p.fill(sol(&[1.0, 0.0]));
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let alloc = p.sample_indices(6, &mut a);
        let mut reused = Vec::new();
        p.sample_indices_into(6, &mut b, &mut reused);
        assert_eq!(alloc, reused);
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
        // Like the row-major matrix, the blocked mirror adopts the width of
        // the first row of each epoch.
        for i in 0..9 {
            p.fill(sol(&[i as f64, 0.5, -(i as f64)]));
        }
        p.check_mirrors().unwrap();
        assert_eq!(p.objective_rows().stride(), 3);
    }

    #[test]
    fn check_mirrors_sees_a_stale_lane_and_dirty_padding() {
        let mut p = Population::new(4);
        for i in 0..3 {
            p.fill(sol(&[i as f64, -(i as f64)]));
        }
        let mut stale = p.clone();
        stale.blocked.lanes_mut()[1][2] = 7.0;
        assert!(stale.check_mirrors().unwrap_err().contains("member 2"));
        let mut dirty = p.clone();
        dirty.blocked.lanes_mut()[2][3] = 0.0;
        assert!(dirty.check_mirrors().unwrap_err().contains("padding"));
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
        //! The blocked scan and the branch-free tournament against the
        //! scalar code they replaced: same seeded RNG in, same verdict,
        //! same displaced member, same selection and same next draw out.

        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// Coarse values, so rows tie, repeat and dominate each other, plus
        /// everything an objective function can return that is not a
        /// number to order by.
        const OBJECTIVES: [f64; 12] = [
            -0.0,
            0.0,
            0.25,
            0.25,
            0.5,
            0.5,
            0.75,
            1.0,
            2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        /// Mostly feasible; NaN and negative constraints count as
        /// satisfied, an infinite one as infinitely violated.
        const CONSTRAINTS: [f64; 8] = [0.0, 0.0, 0.0, -1.0, 0.25, 1.5, f64::NAN, f64::INFINITY];

        fn random_solution(m: usize, rng: &mut StdRng) -> Solution {
            let objectives = (0..m)
                .map(|_| OBJECTIVES[rng.gen_range(0..OBJECTIVES.len())])
                .collect();
            let constraint = CONSTRAINTS[rng.gen_range(0..CONSTRAINTS.len())];
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

        fn drive(size: usize, m: usize, seed: u64) -> Result<(), TestCaseError> {
            let mut gen = StdRng::seed_from_u64(seed);
            let mut fast = Population::new(size);
            while fast.fill(random_solution(m, &mut gen)) {}
            let mut slow = fast.clone();
            let mut rng_fast = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut rng_slow = rng_fast.clone();
            for step in 0..48 {
                match gen.gen_range(0..16) {
                    // A restart: empty, new capacity, refill part-way.
                    0 => {
                        let capacity = gen.gen_range(1..=size + 9);
                        fast.reset(capacity, &mut rng_fast);
                        slow.reset(capacity, &mut rng_slow);
                        fast.check_mirrors().map_err(TestCaseError::fail)?;
                        for _ in 0..gen.gen_range(0..=capacity) {
                            let s = random_solution(m, &mut gen);
                            slow.fill(s.clone());
                            fast.fill(s);
                        }
                    }
                    // A shrink: shuffle, truncate, rebuild the mirrors.
                    1 if fast.len() > 1 => {
                        let capacity = gen.gen_range(1..fast.len());
                        fast.resize(capacity, &mut rng_fast);
                        slow.resize(capacity, &mut rng_slow);
                    }
                    _ => {
                        // One offspring in eight beats everything finite,
                        // so large populations see long dominated lists.
                        let offspring = if gen.gen_range(0..8) == 0 {
                            Solution::from_parts(vec![], vec![-1.0; m], vec![0.0])
                        } else {
                            random_solution(m, &mut gen)
                        };
                        let (verdict_fast, out_fast) =
                            fast.offer_replacing(offspring.clone(), &mut rng_fast);
                        let (verdict_slow, out_slow) =
                            slow.offer_replacing_scalar(offspring, &mut rng_slow);
                        prop_assert_eq!(verdict_fast, verdict_slow, "verdict at step {}", step);
                        prop_assert_eq!(
                            out_fast.as_ref().map(bits),
                            out_slow.as_ref().map(bits),
                            "displaced member at step {}",
                            step
                        );
                    }
                }
                fast.check_mirrors().map_err(TestCaseError::fail)?;
                prop_assert!(same_members(&fast, &slow), "members at step {}", step);
                if !fast.is_empty() {
                    let k = [1, 2, 5, 31][step % 4];
                    prop_assert_eq!(
                        fast.tournament_select(k, &mut rng_fast),
                        slow.tournament_select_scalar(k, &mut rng_slow),
                        "tournament of {} at step {}",
                        k,
                        step
                    );
                }
                prop_assert_eq!(rng_fast.gen::<u64>(), rng_slow.gen::<u64>());
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            /// Sizes on both sides of one block and of eight; widths from
            /// the single-objective degenerate case to ten.
            #[test]
            fn blocked_kernels_match_the_scalar_oracle(
                size in prop::sample::select(vec![1usize, 7, 8, 9, 63, 64, 65, 1_000]),
                m in prop::sample::select(vec![1usize, 2, 3, 5, 10]),
                seed in 0u64..u64::MAX,
            ) {
                drive(size, m, seed)?;
            }
        }
    }
}
