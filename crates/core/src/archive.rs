//! The ε-dominance archive (Laumanns et al. 2002) with ε-progress tracking.
//!
//! The archive is the heart of the Borg MOEA: it stores the best solutions
//! found so far with guaranteed diversity (at most one solution per ε-box),
//! credits archive contributions back to variation operators (driving the
//! auto-adaptive ensemble), and tracks **ε-progress** — the number of
//! insertions that opened a *new* ε-box — which Borg uses to detect search
//! stagnation and trigger restarts.
//!
//! # Insertion: one blocked scan, no index
//!
//! A candidate's fate is decided by its ε-box key against every resident's:
//! a resident in the same box (the two are compared as solutions), a
//! resident whose box dominates the candidate's (reject), or residents in
//! boxes the candidate's dominates (evict them, then insert). The archive
//! keeps each member's key in a [`BlockedRows`] mirror — eight members a
//! block, one `[f64; 8]` lane array per objective, NaN padding — and
//! [`EpsilonArchive::offer`] makes a single forward pass over the blocks
//! with the branch-free kernel `box_key_block`, which answers "all eight
//! boxes are mutually nondominated with the candidate's" with one test and
//! otherwise hands back the eight lanes' comparison bits as two masks. The
//! pass stops at the first block holding a dominating or same-box resident.
//!
//! Because the residents form an antichain under box dominance (invariant 2
//! below), at most one of the three outcomes exists, so the decision does
//! not depend on scan order and is *bit-identical* to a member-by-member
//! scan over integer keys: the differential tests in
//! `tests/archive_differential.rs` hold the archive to that oracle's
//! decisions, eviction order and final member ordering. Member boxes
//! compared — eight per block visited — are counted in
//! [`EpsilonArchive::box_probes`] (exported as `archive.box_probes`).
//!
//! ## The lanes are exact
//!
//! A key coordinate is `floor(o / ε) as i64`. `floor` returns an
//! integer-valued double, NaN or ±∞, and the cast maps
//!
//! * an integer-valued double in [−2⁶³, 2⁶³) to that integer, exactly;
//! * anything at or above 2⁶³ (and +∞) to `i64::MAX`, anything below −2⁶³
//!   (and −∞) to `i64::MIN`;
//! * NaN to 0.
//!
//! So every key that can occur is either an integer that *is* a double, or
//! `i64::MAX`. Casting back, `k as f64` returns the first kind unchanged and
//! sends `i64::MAX` to 2⁶³, which no key of the first kind reaches. On the
//! reachable keys the cast is therefore injective and strictly increasing:
//! `a < b` as integers exactly when `a as f64 < b as f64`, and comparing
//! lanes is comparing keys. (It would not be for arbitrary `i64`s — 2⁵³ and
//! 2⁵³ + 1 share a double — but 2⁵³ + 1 is not the floor of any double.) A
//! lane is never NaN, so NaN is free to mean "no member here".
//!
//! ## Order keys in front of the exact lanes
//!
//! On a large front the answer for nearly every block is "all eight boxes
//! mutually nondominated with the candidate's", and that rarely takes 64
//! bits a coordinate to see. The mirror keeps a 16-bit
//! `order_key` beside every lane — the same
//! monotone key the population uses on objectives, here applied to box
//! coordinates, which it tells apart exactly up to ±256 and in steps of 2,
//! 4, 8 … beyond — and `decide` asks the order-key filter
//! ([`filter_by_order_keys`], at two and five objectives compiled for the
//! count with the candidate's keys in registers) first: `true` proves that
//! `box_key_block` would return `None`, so the block is skipped (and
//! still counted in `box_probes`); anything else — a tie between coarse
//! keys, a block with padding — goes to the exact lanes as before. The scan
//! already runs only between feasible solutions and a box coordinate is
//! never NaN, so the keys need no guard here beyond the one of size: an
//! archive with fewer than two full blocks (`MIN_KEYED_BLOCKS`) does not
//! ask them. On `serial-dtlz2-5` they settle 99.1 % of the blocks and took
//! an offer to the 3 825-member archive from 1.9 to 0.9 µs; compiling the
//! filter for five objectives took it from 0.81 to 0.54 µs (DESIGN.md §16).
//!
//! ## Why no index
//!
//! Until PR 16 an ordered map from integer key to slot resolved a
//! candidate with "staircase" range walks that re-seek past failing
//! subtrees. On a curve that is sublinear; on the paper's 5-objective
//! problems it prunes little — 88 re-seeks at ~130 ns each against 3 825
//! boxes on `serial-dtlz2-5` — while the blocked compare costs under 2 ns a
//! member. Measured per `offer`, tree → scan: 5-D, 3 825 members 11.9 →
//! 2.0 µs; 2-D with ε = 10⁻⁴, 633 members 0.28–0.42 → 0.29–0.33 µs, 5 482
//! members 0.46–0.62 → 2.0–2.1 µs, 7 833 members 0.39–0.44 → 2.8 µs; 2-D,
//! 11 members 62 → 48 ns. The loss on a long curve is bounded by design: a
//! steady-state `consume` already runs the same kind of scan over a
//! population of γ = 4 × the archive with `m + 1` lane arrays a block, so
//! this pass cannot exceed about a quarter of the one beside it. Dropping
//! the tree also dropped a heap-allocated key per accepted member and one
//! of four copies of the archive's state (DESIGN.md §16 has the tables).
//!
//! # One store: rows, not solutions
//!
//! A member is three rows — variables, objectives, constraints — of three
//! flat row-major matrices, row `i` of each being member `i`, beside the key
//! mirror row-parallel with them. That is the only copy: no member is a
//! [`Solution`]. A candidate is copied in row by row on accept, a displaced
//! or evicted member is overwritten or swap-removed in place, metrics borrow
//! the [`ObjectiveMatrix`] as it is, and every other reader gets a
//! [`Member`] view of three slices. Nothing reads a member's operator tag
//! (credits are taken from the incoming candidate), so none is kept.

use crate::dominance::{
    box_key_block, constrained_dominance_rows, epsilon_box_lanes, filter_by_order_keys, unfiltered,
    Dominance, KeyLanes, KeyedScan, BLOCK_LANES, MIN_KEYED_BLOCKS,
};
use crate::matrix::{BlockedRows, FlatMatrix, ObjectiveMatrix};
use crate::solution::{violation, Member, Solution};

/// Outcome of attempting to add a solution to the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveInsert {
    /// The solution entered a previously unoccupied ε-box (possibly evicting
    /// dominated boxes). This counts as ε-progress.
    AddedNewBox,
    /// The solution replaced the occupant of its own ε-box (closer to the
    /// box's ideal corner, or dominating within the box). Not ε-progress.
    ReplacedInBox,
    /// The solution was ε-box dominated (or same-box worse) and rejected.
    Rejected,
}

/// What `decide` concluded about a candidate; `commit` applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Rejected (feasibility, domination, or same-box loss).
    Reject,
    /// First feasible solution: evict all infeasible content, then insert.
    FirstFeasibleReset,
    /// Empty archive accepts a best-so-far infeasible placeholder.
    AddInfeasiblePlaceholder,
    /// Less-violating infeasible candidate replaces the placeholder (slot 0).
    ReplaceInfeasiblePlaceholder,
    /// Candidate wins its own box; replaces the member in this slot.
    ReplaceInBox(usize),
    /// Candidate opens a new box; `scratch_dominated` holds the slots to
    /// evict, sorted descending.
    AddNewBox,
}

/// An ε-box dominance archive.
///
/// Invariants (checked by [`EpsilonArchive::check_invariants`] and the
/// property tests):
///
/// 1. No two members share an ε-box.
/// 2. No member's ε-box Pareto-dominates another member's ε-box.
/// 3. All members are mutually Pareto-nondominated... *per box*; exact
///    Pareto-nondominance of representatives follows from 1 + 2 only up to
///    the box discretization, which is the ε-dominance guarantee.
#[derive(Debug, Clone)]
pub struct EpsilonArchive {
    epsilons: Vec<f64>,
    /// Member objective vectors, one row each: the store, and what metrics
    /// borrow. Its row count is the archive's length.
    objectives: ObjectiveMatrix,
    /// Member decision variables, row-parallel with `objectives`.
    variables: FlatMatrix<f64>,
    /// Member constraint values, row-parallel with `objectives`.
    constraints: FlatMatrix<f64>,
    /// ε-box key per member as exact `f64` lanes, row-parallel with
    /// `objectives`: the insertion scan's view.
    keys: BlockedRows,
    /// Number of insertions that opened a new ε-box (ε-progress counter).
    improvements: u64,
    /// Total accepted insertions (new box + same-box replacements).
    accepts: u64,
    /// Total rejected insertions.
    rejects: u64,
    /// Member boxes compared while deciding insertions
    /// (`archive.box_probes`).
    box_probes: u64,
    /// Archive contributions per operator index (drives operator adaptation).
    operator_credits: Vec<u64>,
    /// Reusable candidate box key, as lane values.
    scratch_key: Vec<f64>,
    /// The candidate key's order keys, broadcast for the block filter of an
    /// objective count it is not compiled for.
    scratch_order: Vec<KeyLanes>,
    /// Reusable eviction slot list.
    scratch_dominated: Vec<usize>,
}

impl EpsilonArchive {
    /// Creates an empty archive with per-objective ε values.
    ///
    /// # Panics
    /// If `epsilons` is empty or any ε is not strictly positive.
    pub fn new(epsilons: Vec<f64>) -> Self {
        assert!(!epsilons.is_empty(), "need at least one epsilon");
        assert!(
            epsilons.iter().all(|&e| e > 0.0 && e.is_finite()),
            "epsilons must be positive and finite"
        );
        let m = epsilons.len();
        Self {
            epsilons,
            objectives: ObjectiveMatrix::new(m),
            variables: FlatMatrix::new(0),
            constraints: FlatMatrix::new(0),
            keys: BlockedRows::default(),
            improvements: 0,
            accepts: 0,
            rejects: 0,
            box_probes: 0,
            operator_credits: Vec::new(),
            scratch_key: Vec::with_capacity(m),
            scratch_order: Vec::new(),
            scratch_dominated: Vec::new(),
        }
    }

    /// Creates an archive with a uniform ε for `m` objectives.
    pub fn uniform(m: usize, epsilon: f64) -> Self {
        Self::new(vec![epsilon; m])
    }

    /// The ε vector.
    pub fn epsilons(&self) -> &[f64] {
        &self.epsilons
    }

    /// Member `i`: its three rows.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub(crate) fn member(&self, i: usize) -> Member<'_> {
        Member::new(
            self.variables.row(i),
            self.objectives.row(i),
            self.constraints.row(i),
        )
    }

    /// The members in storage order.
    pub fn members(&self) -> impl ExactSizeIterator<Item = Member<'_>> + '_ {
        (0..self.len()).map(|i| self.member(i))
    }

    /// Number of archive members.
    pub fn len(&self) -> usize {
        self.objectives.rows()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// ε-progress counter: insertions that opened a new ε-box.
    pub fn improvements(&self) -> u64 {
        self.improvements
    }

    /// Total accepted insertions.
    pub fn accepts(&self) -> u64 {
        self.accepts
    }

    /// Total rejected insertions.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Member boxes compared while deciding insertions: eight per block of
    /// the key mirror visited, so at most `len()` rounded up to a block per
    /// candidate and less when a dominating or same-box resident ends the
    /// scan early. `box_probes / (accepts + rejects)` is the measured
    /// per-candidate scan length (exported in the metric catalogue as
    /// `archive.box_probes`).
    pub fn box_probes(&self) -> u64 {
        self.box_probes
    }

    /// Archive contributions per operator (index = operator id).
    pub(crate) fn operator_credits(&self) -> &[u64] {
        &self.operator_credits
    }

    /// Flat row-major view of member objective vectors: row `i` holds
    /// member `i`'s objectives. Borrow this instead of
    /// [`objective_vectors`](Self::objective_vectors) on hot paths.
    pub fn objective_rows(&self) -> &ObjectiveMatrix {
        &self.objectives
    }

    /// Objective vectors of all members, copied row by row.
    ///
    /// Compatibility / test convenience: metrics hot paths use the borrowed
    /// [`objective_rows`](Self::objective_rows) accessor instead.
    pub fn objective_vectors(&self) -> Vec<Vec<f64>> {
        self.objectives.iter_rows().map(|r| r.to_vec()).collect()
    }

    fn credit(&mut self, op: Option<usize>) {
        if let Some(i) = op {
            if i >= self.operator_credits.len() {
                self.operator_credits.resize(i + 1, 0);
            }
            self.operator_credits[i] += 1;
        }
    }

    /// Attempts to insert a solution: [`offer`](Self::offer) for a
    /// candidate the caller no longer needs.
    pub fn add(&mut self, solution: Solution) -> ArchiveInsert {
        self.offer(&solution)
    }

    /// Attempts to insert a borrowed candidate, copying its rows in **only
    /// on accept** and crediting its operator tag.
    ///
    /// Constrained solutions: an infeasible solution is accepted only while
    /// the archive holds no feasible solution, mirroring Borg's behaviour
    /// (the archive switches to feasible-only as soon as one exists).
    // borg-lint: hot-path
    pub fn offer(&mut self, solution: &Solution) -> ArchiveInsert {
        let candidate = solution.as_member();
        let decision = self.decide(candidate);
        self.commit(decision, candidate, solution.operator)
    }

    /// Classifies `candidate` against the archive without mutating members.
    /// Mutates only scratch buffers and the probe counter; `commit` must
    /// follow immediately (it consumes `scratch_dominated` for `AddNewBox`).
    // borg-lint: hot-path
    fn decide(&mut self, candidate: Member<'_>) -> Decision {
        debug_assert_eq!(candidate.objectives().len(), self.epsilons.len());

        // Constraint handling: compare feasibility against the archive state.
        if !self.is_empty() {
            let incumbent = self.member(0);
            match (incumbent.is_feasible(), candidate.is_feasible()) {
                (true, false) => return Decision::Reject,
                (false, true) => return Decision::FirstFeasibleReset,
                (false, false) => {
                    // Among infeasible solutions keep the single least
                    // violating one (Borg keeps a best-infeasible
                    // placeholder).
                    let cur = incumbent.constraint_violation();
                    let new = candidate.constraint_violation();
                    return if new < cur {
                        Decision::ReplaceInfeasiblePlaceholder
                    } else {
                        Decision::Reject
                    };
                }
                (true, true) => {}
            }
        } else if !candidate.is_feasible() {
            // Empty archive accepts a best-so-far infeasible placeholder.
            return Decision::AddInfeasiblePlaceholder;
        }

        self.scratch_key.clear();
        self.scratch_key
            .extend(epsilon_box_lanes(candidate.objectives(), &self.epsilons));
        self.scratch_dominated.clear();
        // A box coordinate is never NaN, so the candidate always has order
        // keys; they can call apart only blocks without padding, and are not
        // worth computing for fewer than `MIN_KEYED_BLOCKS` of those.
        let full = self.len() / BLOCK_LANES;
        let scan = BoxScan {
            candidate,
            key: &self.scratch_key,
            epsilons: &self.epsilons,
            objectives: &self.objectives,
            constraints: &self.constraints,
            keys: &self.keys,
            box_probes: &mut self.box_probes,
            dominated: &mut self.scratch_dominated,
            keyed_blocks: full,
        };
        if full >= MIN_KEYED_BLOCKS {
            filter_by_order_keys(&self.scratch_key, &mut self.scratch_order, scan)
        } else {
            unfiltered(scan)
        }
    }

    /// Applies a [`Decision`]: copies the accepted candidate's rows into
    /// the store, over the member it displaces or after the ones it evicts,
    /// and keeps the key mirror in step.
    // borg-lint: hot-path
    fn commit(
        &mut self,
        decision: Decision,
        candidate: Member<'_>,
        op: Option<usize>,
    ) -> ArchiveInsert {
        match decision {
            Decision::Reject => {
                self.rejects += 1;
                ArchiveInsert::Rejected
            }
            Decision::FirstFeasibleReset => {
                // First feasible solution evicts all infeasible content.
                self.clear_rows();
                self.push_member(candidate);
                self.improvements += 1;
                self.accepts += 1;
                self.credit(op);
                ArchiveInsert::AddedNewBox
            }
            Decision::AddInfeasiblePlaceholder => {
                self.push_member(candidate);
                self.accepts += 1;
                self.credit(op);
                ArchiveInsert::AddedNewBox
            }
            Decision::ReplaceInfeasiblePlaceholder => {
                // Slot 0 is the only member; its box key may move.
                self.keys
                    .set(0, epsilon_box_lanes(candidate.objectives(), &self.epsilons));
                self.set_rows(0, candidate);
                self.accepts += 1;
                ArchiveInsert::ReplacedInBox
            }
            Decision::ReplaceInBox(slot) => {
                // Same box: the key lanes are already correct.
                self.set_rows(slot, candidate);
                self.accepts += 1;
                self.credit(op);
                ArchiveInsert::ReplacedInBox
            }
            Decision::AddNewBox => {
                // Evict members in dominated boxes (slots pre-sorted
                // descending by `decide`), then insert.
                for &slot in &self.scratch_dominated {
                    self.objectives.swap_remove_row(slot);
                    self.variables.swap_remove_row(slot);
                    self.constraints.swap_remove_row(slot);
                    self.keys.swap_remove(slot);
                }
                self.scratch_dominated.clear();
                self.push_member(candidate);
                self.improvements += 1;
                self.accepts += 1;
                self.credit(op);
                ArchiveInsert::AddedNewBox
            }
        }
    }

    /// Appends a member's rows and its box key.
    // borg-lint: hot-path
    fn push_member(&mut self, member: Member<'_>) {
        self.keys
            .push(epsilon_box_lanes(member.objectives(), &self.epsilons));
        self.objectives.push_row(member.objectives());
        self.variables.push_row(member.variables());
        self.constraints.push_row(member.constraints());
    }

    /// Overwrites slot `i`'s rows (its box key is the caller's).
    // borg-lint: hot-path
    fn set_rows(&mut self, i: usize, member: Member<'_>) {
        self.objectives.set_row(i, member.objectives());
        self.variables.set_row(i, member.variables());
        self.constraints.set_row(i, member.constraints());
    }

    /// Drops every member's rows and key, keeping the allocations.
    fn clear_rows(&mut self) {
        self.objectives.clear();
        self.variables.clear();
        self.constraints.clear();
        self.keys.clear();
    }

    /// Verifies the archive invariants: the store's matrices hold one row
    /// per member, the key mirror's shape, padding and order keys are sound
    /// ([`BlockedRows::check`]), and every key lane is the box of the
    /// member's objectives, bit for bit. Invariants 1–2 are then read off
    /// the verified lanes pair by pair.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        self.keys.check(n, self.epsilons.len())?;
        for (name, rows) in [
            ("variable", &self.variables),
            ("constraint", &self.constraints),
        ] {
            if rows.rows() != n {
                return Err(format!("{} {name} rows for {n} members", rows.rows()));
            }
        }
        for i in 0..n {
            let expect = epsilon_box_lanes(self.objectives.row(i), &self.epsilons);
            if !self
                .keys
                .row(i)
                .map(f64::to_bits)
                .eq(expect.map(f64::to_bits))
            {
                return Err(format!("key lanes of member {i} are stale"));
            }
        }
        let mut a = Vec::with_capacity(self.epsilons.len());
        for i in 0..n {
            a.clear();
            a.extend(self.keys.row(i));
            for j in (i + 1)..n {
                let mut a_better = false;
                let mut b_better = false;
                for (&x, y) in a.iter().zip(self.keys.row(j)) {
                    a_better |= x < y;
                    b_better |= y < x;
                }
                if !a_better && !b_better {
                    return Err(format!("members {i} and {j} share box {a:?}"));
                }
                if a_better != b_better {
                    return Err(format!(
                        "boxes of members {i} and {j} are not mutually nondominating"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The insertion scan of [`EpsilonArchive::decide`], over the blocks of the
/// key mirror: stops at the first block holding a dominating or same-box
/// member, and otherwise leaves the members to evict in `dominated`,
/// descending.
struct BoxScan<'a> {
    candidate: Member<'a>,
    /// The candidate's box key, as lane values.
    key: &'a [f64],
    epsilons: &'a [f64],
    /// The members' objective and constraint rows, for a same-box contest.
    objectives: &'a ObjectiveMatrix,
    constraints: &'a FlatMatrix<f64>,
    keys: &'a BlockedRows,
    box_probes: &'a mut u64,
    dominated: &'a mut Vec<usize>,
    /// The blocks the filter is asked about: the full ones.
    keyed_blocks: usize,
}

impl KeyedScan for BoxScan<'_> {
    type Output = Decision;

    // borg-lint: hot-path
    fn run(self, apart: impl Fn(&[KeyLanes]) -> bool) -> Decision {
        let (key, len) = (self.key, self.objectives.rows());
        for (b, (order, block)) in self.keys.blocks().enumerate() {
            // A block the order keys skip still counts as visited.
            *self.box_probes += BLOCK_LANES as u64;
            if b < self.keyed_blocks && apart(order) {
                continue;
            }
            let Some((lt, gt)) = box_key_block(key, block) else {
                continue;
            };
            if !lt & gt != 0 {
                return Decision::Reject;
            }
            let first = b * BLOCK_LANES;
            // Padding lanes compare false both ways, like a shared box.
            let occupied = u8::MAX >> (BLOCK_LANES - (len - first).min(BLOCK_LANES));
            let same_box = !(lt | gt) & occupied;
            if same_box != 0 {
                let slot = first + same_box.trailing_zeros() as usize;
                let incumbent = (self.objectives.row(slot), self.constraints.row(slot));
                return if wins_box(self.candidate, incumbent, key, self.epsilons) {
                    Decision::ReplaceInBox(slot)
                } else {
                    Decision::Reject
                };
            }
            let mut dominated = lt & !gt;
            while dominated != 0 {
                self.dominated
                    .push(first + dominated.trailing_zeros() as usize);
                dominated &= dominated - 1;
            }
        }
        // Evict in descending slot order so `swap_remove` leaves the same
        // final member ordering as the member-by-member reference.
        self.dominated.reverse();
        Decision::AddNewBox
    }
}

/// Whether a candidate takes its box from the incumbent, given as its
/// `(objectives, constraints)` rows: the constrained-dominating solution
/// wins; if nondominated, the one closer to the box's ideal corner (`key`,
/// the box both share, scaled by ε).
// borg-lint: hot-path
fn wins_box(
    candidate: Member<'_>,
    (objectives, constraints): (&[f64], &[f64]),
    key: &[f64],
    epsilons: &[f64],
) -> bool {
    let verdict = constrained_dominance_rows(
        candidate.objectives(),
        candidate.constraint_violation(),
        objectives,
        violation(constraints),
    );
    match verdict {
        Dominance::Dominates => true,
        Dominance::DominatedBy => false,
        Dominance::NonDominated => {
            let corner_dist = |objs: &[f64]| {
                let mut d = 0.0;
                for (j, &o) in objs.iter().enumerate() {
                    let corner = key[j] * epsilons[j];
                    d += (o - corner) * (o - corner);
                }
                d
            };
            corner_dist(candidate.objectives()) < corner_dist(objectives)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::order_key;

    fn sol(objs: &[f64]) -> Solution {
        Solution::from_parts(vec![], objs.to_vec(), vec![])
    }

    fn op_sol(objs: &[f64], op: usize) -> Solution {
        let mut s = sol(objs);
        s.operator = Some(op);
        s
    }

    fn csol(objs: &[f64], cons: &[f64]) -> Solution {
        Solution::from_parts(vec![], objs.to_vec(), cons.to_vec())
    }

    #[test]
    fn first_solution_is_progress() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        assert_eq!(a.add(sol(&[0.5, 0.5])), ArchiveInsert::AddedNewBox);
        assert_eq!(a.len(), 1);
        assert_eq!(a.improvements(), 1);
    }

    #[test]
    fn dominated_box_is_evicted() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(sol(&[0.55, 0.55]));
        assert_eq!(a.add(sol(&[0.15, 0.15])), ArchiveInsert::AddedNewBox);
        assert_eq!(a.len(), 1);
        assert_eq!(a.member(0).objectives(), &[0.15, 0.15]);
        a.check_invariants().unwrap();
    }

    #[test]
    fn dominated_candidate_is_rejected() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(sol(&[0.15, 0.15]));
        assert_eq!(a.add(sol(&[0.55, 0.55])), ArchiveInsert::Rejected);
        assert_eq!(a.len(), 1);
        assert_eq!(a.rejects(), 1);
    }

    #[test]
    fn same_box_keeps_closer_to_corner() {
        let mut a = EpsilonArchive::uniform(2, 1.0);
        a.add(sol(&[0.9, 0.2]));
        // Same box (0,0); Pareto-nondominated with incumbent; closer to corner.
        assert_eq!(a.add(sol(&[0.3, 0.4])), ArchiveInsert::ReplacedInBox);
        assert_eq!(a.len(), 1);
        assert_eq!(a.member(0).objectives(), &[0.3, 0.4]);
        // Same box, farther from corner: rejected.
        assert_eq!(a.add(sol(&[0.6, 0.7])), ArchiveInsert::Rejected);
        // ε-progress only counted once (the initial insertion).
        assert_eq!(a.improvements(), 1);
    }

    #[test]
    fn same_box_dominating_solution_replaces() {
        let mut a = EpsilonArchive::uniform(2, 1.0);
        a.add(sol(&[0.5, 0.5]));
        assert_eq!(a.add(sol(&[0.4, 0.4])), ArchiveInsert::ReplacedInBox);
        assert_eq!(a.member(0).objectives(), &[0.4, 0.4]);
    }

    #[test]
    fn nondominated_boxes_coexist() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(sol(&[0.05, 0.95]));
        a.add(sol(&[0.95, 0.05]));
        a.add(sol(&[0.45, 0.45]));
        assert_eq!(a.len(), 3);
        assert_eq!(a.improvements(), 3);
        a.check_invariants().unwrap();
    }

    #[test]
    fn operator_credit_tracking() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(op_sol(&[0.05, 0.95], 2));
        a.add(op_sol(&[0.95, 0.05], 0));
        a.add(op_sol(&[0.96, 0.06], 0)); // rejected, no credit
        assert_eq!(a.operator_credits(), &[1, 0, 1]);
    }

    #[test]
    fn infeasible_placeholder_until_feasible_arrives() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        assert_eq!(a.add(csol(&[0.1, 0.1], &[5.0])), ArchiveInsert::AddedNewBox);
        // Less-violating infeasible replaces.
        assert_eq!(
            a.add(csol(&[0.9, 0.9], &[2.0])),
            ArchiveInsert::ReplacedInBox
        );
        assert_eq!(a.len(), 1);
        // More-violating infeasible rejected.
        assert_eq!(a.add(csol(&[0.0, 0.0], &[3.0])), ArchiveInsert::Rejected);
        // Feasible solution evicts the placeholder even if Pareto-worse.
        assert_eq!(a.add(csol(&[1.5, 1.5], &[0.0])), ArchiveInsert::AddedNewBox);
        assert_eq!(a.len(), 1);
        assert!(a.member(0).is_feasible());
        // Infeasible solutions now rejected outright.
        assert_eq!(a.add(csol(&[0.0, 0.0], &[0.1])), ArchiveInsert::Rejected);
        a.check_invariants().unwrap();
    }

    #[test]
    fn five_objective_inserts_hold_invariants() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut a = EpsilonArchive::uniform(5, 0.1);
        for _ in 0..500 {
            let objs: Vec<f64> = (0..5).map(|_| rng.gen::<f64>()).collect();
            a.add(Solution::from_parts(vec![], objs, vec![]));
        }
        a.check_invariants().unwrap();
        assert!(a.len() > 1);
        assert_eq!(a.accepts() + a.rejects(), 500);
    }

    #[test]
    #[should_panic(expected = "epsilons must be positive")]
    fn zero_epsilon_panics() {
        EpsilonArchive::new(vec![0.0]);
    }

    #[test]
    fn offer_matches_add_and_clones_only_on_accept() {
        let mut by_add = EpsilonArchive::uniform(2, 0.1);
        let mut by_offer = EpsilonArchive::uniform(2, 0.1);
        let stream = [
            [0.55, 0.55],
            [0.15, 0.15],
            [0.16, 0.14],
            [0.95, 0.05],
            [0.96, 0.06],
        ];
        for (i, objs) in stream.into_iter().enumerate() {
            let s = Solution::from_parts(vec![i as f64, -1.0], objs.to_vec(), vec![-0.5]);
            let verdict = by_offer.offer(&s);
            assert_eq!(verdict, by_add.add(s.clone()));
            assert!(by_add.members().eq(by_offer.members()));
        }
        assert_eq!(by_add.len(), by_offer.len());
        assert_eq!(by_add.box_probes(), by_offer.box_probes());
        by_offer.check_invariants().unwrap();
    }

    #[test]
    fn box_probes_count_whole_blocks_and_stop_at_the_first_dominator() {
        // 20 mutually nondominated boxes along a 2-D front, member `i` in
        // box (2i, 2(n - i)): three blocks.
        let n = 20usize;
        let at = |x: usize, y: usize, offset: f64| {
            sol(&[(x as f64 + offset) / 100.0, (y as f64 + offset) / 100.0])
        };
        let mut a = EpsilonArchive::uniform(2, 0.01);
        for i in 0..n {
            let before = (a.box_probes(), a.len());
            assert_eq!(
                a.add(at(2 * i, 2 * (n - i), 0.5)),
                ArchiveInsert::AddedNewBox
            );
            // A candidate no member decides is compared with every block.
            let blocks = before.1.div_ceil(BLOCK_LANES) as u64;
            assert_eq!(a.box_probes() - before.0, blocks * BLOCK_LANES as u64);
        }
        // Members sit in insertion order, so a candidate in box
        // (2i + 1, 2(n - i) + 1), which member `i` alone dominates, is
        // rejected in block `i / 8` and the scan goes no further.
        for i in [0, 7, 8, 15, 16, 19] {
            let before = a.box_probes();
            let dominated = at(2 * i, 2 * (n - i), 1.5);
            assert_eq!(a.add(dominated), ArchiveInsert::Rejected);
            let visited = (i / BLOCK_LANES + 1) as u64;
            assert_eq!(a.box_probes() - before, visited * BLOCK_LANES as u64);
        }
        // An empty archive compares nothing.
        let mut empty = EpsilonArchive::uniform(2, 0.01);
        empty.add(sol(&[0.5, 0.5]));
        assert_eq!(empty.box_probes(), 0);
    }

    #[test]
    fn check_invariants_sees_stale_lanes_dirty_padding_and_broken_antichains() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(sol(&[0.05, 0.95]));
        a.add(sol(&[0.95, 0.05]));
        a.add(sol(&[0.45, 0.45]));
        a.check_invariants().unwrap();
        // Member 2, objective 1, box 4 read as 5: with the order key it had,
        // then rekeyed to match.
        let mut stale = a.clone();
        stale.keys.lanes_mut()[1][2] = 5.0;
        let err = stale.check_invariants().unwrap_err();
        assert!(err.contains("key lane of row 2"), "{err}");
        stale.keys.keys_mut()[1][2] = order_key(5.0);
        stale.keys.packed_mut()[2][1] = order_key(5.0);
        assert!(stale.check_invariants().unwrap_err().contains("member 2"));
        let mut dirty = a.clone();
        dirty.keys.lanes_mut()[0][3] = 0.0;
        assert!(dirty.check_invariants().unwrap_err().contains("padding"));
        // An order key above its box coordinate (member 0, objective 0: box
        // 0 keyed as box 3) would let the filter call a dominated candidate
        // in box (2, 9) apart from it.
        let mut decisive = a.clone();
        decisive.keys.keys_mut()[0][0] = order_key(3.0);
        assert!(decisive.check_invariants().unwrap_err().contains("row 0"));
        // Members whose lanes are right but which should not coexist.
        let mut shared = a.clone();
        shared.push_member(sol(&[0.47, 0.48]).as_member());
        assert!(shared.check_invariants().unwrap_err().contains("share box"));
        let mut chain = a.clone();
        chain.push_member(sol(&[0.55, 0.55]).as_member());
        let err = chain.check_invariants().unwrap_err();
        assert!(err.contains("not mutually nondominating"), "{err}");
    }

    #[test]
    fn objective_rows_mirror_solutions() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(Solution::from_parts(
            vec![3.0],
            vec![0.05, 0.95],
            vec![-1.0],
        ));
        a.add(Solution::from_parts(vec![7.0], vec![0.95, 0.05], vec![0.0]));
        let rows = a.objective_rows();
        assert_eq!(rows.rows(), 2);
        for (i, m) in a.members().enumerate() {
            assert_eq!(rows.row(i), m.objectives());
        }
        assert_eq!(a.member(1).variables(), &[7.0]);
        assert_eq!(a.member(0).constraints(), &[-1.0]);
        assert_eq!(a.member(1).objectives(), &[0.95, 0.05]);
        assert_eq!(a.objective_vectors().len(), 2);
    }
}
