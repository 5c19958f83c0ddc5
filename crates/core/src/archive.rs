//! The ε-dominance archive (Laumanns et al. 2002) with ε-progress tracking.
//!
//! The archive is the heart of the Borg MOEA: it stores the best solutions
//! found so far with guaranteed diversity (at most one solution per ε-box),
//! credits archive contributions back to variation operators (driving the
//! auto-adaptive ensemble), and tracks **ε-progress** — the number of
//! insertions that opened a *new* ε-box — which Borg uses to detect search
//! stagnation and trigger restarts.
//!
//! # The ε-grid index
//!
//! Insertion used to scan every resident's cached box key (O(n) per
//! candidate, the dominant term of the paper's `T_A`). The archive now keeps
//! a `BTreeMap<Vec<i64>, usize>` from ε-box key to member slot (a `BTreeMap`
//! rather than a `HashMap` so iteration order is deterministic, per
//! BORG-L010) and resolves a candidate in three steps:
//!
//! 1. **Same box** — one O(log n) lookup of the candidate's own key.
//! 2. **Dominating member** — a member box dominating the candidate's box is
//!    componentwise ≤ and therefore lexicographically *smaller*, so the
//!    search walks `range(..sbox)` backwards. When a visited key fails at
//!    coordinate `j` (its `j`-th index exceeds the candidate's), every key
//!    sharing that prefix also fails, and the walk re-seeks to
//!    `prefix ++ sbox[j] ++ [i64::MAX…]` — a "staircase" skip that jumps the
//!    whole failing subtree in one O(log n) seek.
//! 3. **Dominated members** — symmetric forward walk over `range(sbox..)`
//!    with `[i64::MIN…]` padding, collecting every member to evict.
//!
//! Because the residents form an antichain under box dominance (invariant 2
//! below), at most one of steps 1–3 can produce a result, so the decision is
//! independent of scan order and *bit-identical* to the linear scan — the
//! retained [`LinearScanArchive`] oracle and the differential property tests
//! hold the two implementations to the same decisions, eviction order, and
//! final member ordering. Keys visited by the walks are counted in
//! [`EpsilonArchive::box_probes`] (exported as `archive.box_probes`).
//!
//! Member objectives additionally mirror into a flat row-major
//! [`ObjectiveMatrix`] so metrics consume contiguous rows without per-call
//! `Vec<Vec<f64>>` re-materialization.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::dominance::{constrained_dominance, epsilon_box, epsilon_box_into, Dominance};
use crate::matrix::{FlatMatrix, ObjectiveMatrix};
use crate::solution::Solution;

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

impl ArchiveInsert {
    /// Whether the archive accepted the solution in any form.
    pub fn accepted(self) -> bool {
        !matches!(self, ArchiveInsert::Rejected)
    }

    /// Whether the insertion counts as ε-progress.
    pub fn is_progress(self) -> bool {
        matches!(self, ArchiveInsert::AddedNewBox)
    }
}

/// What `decide` concluded about a candidate; `commit` applies it. Split so
/// [`EpsilonArchive::offer`] can reject borrowed candidates without cloning.
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

/// Snapshot of the archive's content-mutation counters.
///
/// Two stamps tell an incremental consumer (e.g. an incremental hypervolume
/// tracker) whether the interval between them consisted *only* of appended
/// new-box members — the case where an O(new members) update is exact — or
/// whether evictions/replacements/clears force a full recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArchiveStamp {
    /// Member count at snapshot time.
    pub len: usize,
    /// Accepted insertions so far.
    pub accepts: u64,
    /// ε-progress (new-box) insertions so far.
    pub improvements: u64,
    /// Members evicted by dominating insertions (and feasibility resets).
    pub evictions: u64,
    /// Same-box (and placeholder) replacements so far.
    pub replacements: u64,
    /// Archive clears so far.
    pub clears: u64,
}

impl ArchiveStamp {
    /// If every mutation between `self` and `newer` appended a new member to
    /// the end of the archive (new boxes, no evictions / replacements /
    /// clears), returns how many rows were appended. `None` means the
    /// interval included removals or in-place edits.
    pub fn pure_append_to(&self, newer: &ArchiveStamp) -> Option<usize> {
        let untouched = newer.evictions == self.evictions
            && newer.replacements == self.replacements
            && newer.clears == self.clears
            && newer.len >= self.len;
        if !untouched {
            return None;
        }
        let appended = newer.len - self.len;
        (newer.improvements - self.improvements == appended as u64
            && newer.accepts - self.accepts == appended as u64)
            .then_some(appended)
    }
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
/// 4. The ε-grid index maps every member's box key to its slot, and nothing
///    else.
#[derive(Debug, Clone)]
pub struct EpsilonArchive {
    epsilons: Vec<f64>,
    solutions: Vec<Solution>,
    /// Cached ε-box key per member, row-parallel with `solutions`.
    boxes: FlatMatrix<i64>,
    /// Flat row-major mirror of member objective vectors, row-parallel with
    /// `solutions` (borrowed by metrics instead of cloning `Vec<Vec<f64>>`).
    objectives: ObjectiveMatrix,
    /// ε-grid spatial index: box key → slot in `solutions`.
    index: BTreeMap<Vec<i64>, usize>,
    /// Number of insertions that opened a new ε-box (ε-progress counter).
    improvements: u64,
    /// Total accepted insertions (new box + same-box replacements).
    accepts: u64,
    /// Total rejected insertions.
    rejects: u64,
    /// Times the archive content was cleared (restart truncation).
    clears: u64,
    /// Members evicted by dominating insertions or feasibility resets.
    evictions: u64,
    /// In-place replacements (same-box wins and placeholder upgrades).
    replacements: u64,
    /// Index keys consulted while deciding insertions (`archive.box_probes`).
    box_probes: u64,
    /// Archive contributions per operator index (drives operator adaptation).
    operator_credits: Vec<u64>,
    /// Reusable candidate box key (no `Vec<i64>` born per insertion).
    scratch_box: Vec<i64>,
    /// Reusable skip-scan re-seek bound.
    scratch_bound: Vec<i64>,
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
            solutions: Vec::new(),
            boxes: FlatMatrix::new(m),
            objectives: ObjectiveMatrix::new(m),
            index: BTreeMap::new(),
            improvements: 0,
            accepts: 0,
            rejects: 0,
            clears: 0,
            evictions: 0,
            replacements: 0,
            box_probes: 0,
            operator_credits: Vec::new(),
            scratch_box: vec![0; m],
            scratch_bound: vec![0; m],
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

    /// Current archive members.
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Number of archive members.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
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

    /// Members evicted by dominating insertions or feasibility resets.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// In-place member replacements (same-box wins, placeholder upgrades).
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// ε-grid index keys consulted while deciding insertions. The linear
    /// scan this index replaced consulted every resident per candidate; the
    /// ratio `box_probes / (accepts + rejects)` is the measured per-candidate
    /// probe cost (exported in the metric catalogue as `archive.box_probes`).
    pub fn box_probes(&self) -> u64 {
        self.box_probes
    }

    /// Content generation counter: changes every time the archive's member
    /// set *may* have changed (any accepted insertion or a clear), and
    /// never changes otherwise. Callers computing expensive functions of
    /// the archive content (e.g. the hypervolume ratio in the experiment
    /// drivers) can cache keyed on this value and skip recomputation while
    /// the archive is unchanged.
    pub fn generation(&self) -> u64 {
        self.accepts + self.clears
    }

    /// Snapshot of the mutation counters, for incremental consumers (see
    /// [`ArchiveStamp::pure_append_to`]).
    pub fn stamp(&self) -> ArchiveStamp {
        ArchiveStamp {
            len: self.solutions.len(),
            accepts: self.accepts,
            improvements: self.improvements,
            evictions: self.evictions,
            replacements: self.replacements,
            clears: self.clears,
        }
    }

    /// Archive contributions per operator (index = operator id).
    pub fn operator_credits(&self) -> &[u64] {
        &self.operator_credits
    }

    /// Clears credit counters (Borg does this when recomputing operator
    /// probabilities from scratch after a restart, if configured).
    pub fn reset_operator_credits(&mut self) {
        self.operator_credits.iter_mut().for_each(|c| *c = 0);
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

    /// Attempts to insert a solution.
    ///
    /// Constrained solutions: an infeasible solution is accepted only while
    /// the archive holds no feasible solution, mirroring Borg's behaviour
    /// (the archive switches to feasible-only as soon as one exists).
    // borg-lint: hot-path
    pub fn add(&mut self, solution: Solution) -> ArchiveInsert {
        let decision = self.decide(&solution);
        self.commit(decision, solution)
    }

    /// Decides a borrowed candidate's fate, cloning it **only on accept**.
    ///
    /// Same decision procedure as [`add`](Self::add); the steady-state
    /// consume path offers every evaluated candidate, and most are rejected,
    /// so the borrow form removes three `Vec` clones per rejected candidate.
    // borg-lint: hot-path
    pub fn offer(&mut self, solution: &Solution) -> ArchiveInsert {
        match self.decide(solution) {
            Decision::Reject => {
                self.rejects += 1;
                ArchiveInsert::Rejected
            }
            decision => self.commit(decision, solution.clone()),
        }
    }

    /// Classifies `solution` against the archive without mutating members.
    /// Mutates only scratch buffers and the probe counter; `commit` must
    /// follow immediately (it consumes `scratch_dominated` for `AddNewBox`).
    // borg-lint: hot-path
    fn decide(&mut self, solution: &Solution) -> Decision {
        debug_assert_eq!(solution.num_objectives(), self.epsilons.len());

        // Constraint handling: compare feasibility against the archive state.
        if !self.solutions.is_empty() {
            let archive_feasible = self.solutions[0].is_feasible();
            let sol_feasible = solution.is_feasible();
            match (archive_feasible, sol_feasible) {
                (true, false) => return Decision::Reject,
                (false, true) => return Decision::FirstFeasibleReset,
                (false, false) => {
                    // Among infeasible solutions keep the single least
                    // violating one (Borg keeps a best-infeasible
                    // placeholder).
                    let cur = self.solutions[0].constraint_violation();
                    let new = solution.constraint_violation();
                    return if new < cur {
                        Decision::ReplaceInfeasiblePlaceholder
                    } else {
                        Decision::Reject
                    };
                }
                (true, true) => {}
            }
        } else if !solution.is_feasible() {
            // Empty archive accepts a best-so-far infeasible placeholder.
            return Decision::AddInfeasiblePlaceholder;
        }

        let Self {
            epsilons,
            solutions,
            index,
            box_probes,
            scratch_box,
            scratch_bound,
            scratch_dominated,
            ..
        } = self;
        epsilon_box_into(solution.objectives(), epsilons, scratch_box);
        let sbox: &[i64] = scratch_box;
        // In 2-D the resident antichain makes both staircase walks monotone:
        // keys sort by rising first coordinate, so the antichain invariant
        // (no resident box dominates another) forces the second coordinate
        // to fall strictly as the walk advances. The first key that fails a
        // walk therefore proves every remaining key fails the same way, and
        // the walk stops after one miss. In ≥3 dimensions no lex ordering
        // linearizes box dominance, so those walks re-seek instead.
        let biobjective = sbox.len() == 2;
        let mut probes = 1u64; // the same-box lookup below

        // Step 1: same box — one O(log n) lookup.
        if let Some(&slot) = index.get(sbox) {
            // Same box: prefer the dominating solution; if nondominated,
            // prefer the one closest to the box's ideal corner.
            let incumbent = &solutions[slot];
            let better = match constrained_dominance(solution, incumbent) {
                Dominance::Dominates => true,
                Dominance::DominatedBy => false,
                Dominance::NonDominated => {
                    let corner_dist = |objs: &[f64]| {
                        let mut d = 0.0;
                        for (j, &o) in objs.iter().enumerate() {
                            let corner = sbox[j] as f64 * epsilons[j];
                            d += (o - corner) * (o - corner);
                        }
                        d
                    };
                    corner_dist(solution.objectives()) < corner_dist(incumbent.objectives())
                }
            };
            *box_probes += probes;
            return if better {
                Decision::ReplaceInBox(slot)
            } else {
                Decision::Reject
            };
        }

        // Step 2: dominating member — backward staircase walk below `sbox`.
        // A dominating box is componentwise ≤ (and ≠), hence lex-smaller.
        let mut dominated_by_member = false;
        let mut down = index.range::<[i64], _>((Bound::Unbounded, Bound::Excluded(sbox)));
        while let Some((key, _)) = down.next_back() {
            probes += 1;
            match key.iter().zip(sbox).position(|(&k, &s)| k > s) {
                None => {
                    // Every coordinate ≤ and the key differs: dominator.
                    dominated_by_member = true;
                    break;
                }
                Some(j) => {
                    if biobjective {
                        // 2-D: this key has the smallest second coordinate
                        // of any resident at-or-left of the candidate (the
                        // antichain falls monotonically leftwards), and it
                        // is still too high — nothing below dominates.
                        break;
                    }
                    // All keys sharing `key[..j]` with j-th coordinate
                    // > sbox[j] fail the same way; re-seek past them to the
                    // greatest key ≤ prefix ++ sbox[j] ++ [MAX…].
                    scratch_bound[..j].copy_from_slice(&key[..j]);
                    scratch_bound[j] = sbox[j];
                    for b in &mut scratch_bound[j + 1..] {
                        *b = i64::MAX;
                    }
                    down = index
                        .range::<[i64], _>((Bound::Unbounded, Bound::Included(&scratch_bound[..])));
                }
            }
        }
        if dominated_by_member {
            *box_probes += probes;
            return Decision::Reject;
        }

        // Step 3: dominated members — forward staircase walk above `sbox`.
        // Dominated boxes are componentwise ≥ (and ≠), hence lex-greater.
        scratch_dominated.clear();
        let mut up = index.range::<[i64], _>((Bound::Excluded(sbox), Bound::Unbounded));
        while let Some((key, &slot)) = up.next() {
            probes += 1;
            match key.iter().zip(sbox).position(|(&k, &s)| k < s) {
                None => scratch_dominated.push(slot),
                Some(j) => {
                    if biobjective {
                        // 2-D: dominated residents form a contiguous lex
                        // run right after `sbox` (second coordinates fall
                        // strictly rightwards), so the first miss ends it.
                        break;
                    }
                    // Skip the failing subtree: smallest key ≥
                    // prefix ++ sbox[j] ++ [MIN…].
                    scratch_bound[..j].copy_from_slice(&key[..j]);
                    scratch_bound[j] = sbox[j];
                    for b in &mut scratch_bound[j + 1..] {
                        *b = i64::MIN;
                    }
                    up = index
                        .range::<[i64], _>((Bound::Included(&scratch_bound[..]), Bound::Unbounded));
                }
            }
        }
        // Evict in descending slot order so `swap_remove` leaves the same
        // final member ordering as the linear-scan reference.
        scratch_dominated.sort_unstable_by(|a, b| b.cmp(a));
        *box_probes += probes;
        Decision::AddNewBox
    }

    /// Applies a [`Decision`], taking ownership of the (possibly cloned)
    /// accepted solution and keeping all mirrors and the index in sync.
    // borg-lint: hot-path
    fn commit(&mut self, decision: Decision, solution: Solution) -> ArchiveInsert {
        match decision {
            Decision::Reject => {
                self.rejects += 1;
                ArchiveInsert::Rejected
            }
            Decision::FirstFeasibleReset => {
                // First feasible solution evicts all infeasible content.
                self.evictions += self.solutions.len() as u64;
                self.solutions.clear();
                self.boxes.clear();
                self.objectives.clear();
                self.index.clear();
                let op = solution.operator;
                self.push_member(solution);
                self.improvements += 1;
                self.accepts += 1;
                self.credit(op);
                ArchiveInsert::AddedNewBox
            }
            Decision::AddInfeasiblePlaceholder => {
                let op = solution.operator;
                self.push_member(solution);
                self.accepts += 1;
                self.credit(op);
                ArchiveInsert::AddedNewBox
            }
            Decision::ReplaceInfeasiblePlaceholder => {
                // Slot 0 is the only member; its box key may move.
                epsilon_box_into(solution.objectives(), &self.epsilons, &mut self.scratch_box);
                self.index.remove(self.boxes.row(0));
                self.index.insert(self.scratch_box.clone(), 0);
                self.boxes.set_row(0, &self.scratch_box);
                self.objectives.set_row(0, solution.objectives());
                self.solutions[0] = solution;
                self.accepts += 1;
                self.replacements += 1;
                ArchiveInsert::ReplacedInBox
            }
            Decision::ReplaceInBox(slot) => {
                // Same box key: the index and box row are already correct.
                let op = solution.operator;
                self.objectives.set_row(slot, solution.objectives());
                self.solutions[slot] = solution;
                self.accepts += 1;
                self.replacements += 1;
                self.credit(op);
                ArchiveInsert::ReplacedInBox
            }
            Decision::AddNewBox => {
                // Evict members in dominated boxes (slots pre-sorted
                // descending by `decide`), then insert.
                let dominated = std::mem::take(&mut self.scratch_dominated);
                self.evictions += dominated.len() as u64;
                for &slot in &dominated {
                    self.index.remove(self.boxes.row(slot));
                    let last = self.solutions.len() - 1;
                    self.solutions.swap_remove(slot);
                    self.boxes.swap_remove_row(slot);
                    self.objectives.swap_remove_row(slot);
                    if slot != last {
                        // The former tail member moved into `slot`; its key
                        // is indexed by invariant (every member's is).
                        let moved = self.index.get_mut(self.boxes.row(slot));
                        // borg-lint: allow(BORG-L001)
                        *moved.expect("moved member's box key must be indexed") = slot;
                    }
                }
                self.scratch_dominated = dominated;
                self.scratch_dominated.clear();
                let op = solution.operator;
                self.push_member(solution);
                self.improvements += 1;
                self.accepts += 1;
                self.credit(op);
                ArchiveInsert::AddedNewBox
            }
        }
    }

    /// Appends a member, refreshing every mirror and the index.
    // borg-lint: hot-path
    fn push_member(&mut self, solution: Solution) {
        epsilon_box_into(solution.objectives(), &self.epsilons, &mut self.scratch_box);
        let slot = self.solutions.len();
        self.boxes.push_row(&self.scratch_box);
        self.objectives.push_row(solution.objectives());
        self.index.insert(self.scratch_box.clone(), slot);
        self.solutions.push(solution);
    }

    /// Empties the archive content but keeps statistics and credits.
    pub fn clear_solutions(&mut self) {
        self.solutions.clear();
        self.boxes.clear();
        self.objectives.clear();
        self.index.clear();
        self.clears += 1;
    }

    /// Verifies the archive invariants; used in tests and `debug_assert!`s.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.boxes.rows() {
            for j in (i + 1)..self.boxes.rows() {
                let a = self.boxes.row(i);
                let b = self.boxes.row(j);
                if a == b {
                    return Err(format!("members {i} and {j} share box {a:?}"));
                }
                let mut a_better = false;
                let mut b_better = false;
                for (&x, &y) in a.iter().zip(b) {
                    if x < y {
                        a_better = true;
                    } else if y < x {
                        b_better = true;
                    }
                }
                if a_better != b_better {
                    return Err(format!(
                        "member boxes {i} ({a:?}) and {j} ({b:?}) are not mutually nondominating"
                    ));
                }
            }
        }
        for (i, s) in self.solutions.iter().enumerate() {
            let expect = epsilon_box(s.objectives(), &self.epsilons);
            if expect != self.boxes.row(i) {
                return Err(format!("cached box of member {i} is stale"));
            }
            // Mirror integrity is exact copy equality, not dominance.
            // borg-lint: allow(BORG-L005)
            if self.objectives.row(i) != s.objectives() {
                return Err(format!("objective mirror row {i} is stale"));
            }
        }
        if self.index.len() != self.solutions.len() {
            return Err(format!(
                "index holds {} keys for {} members",
                self.index.len(),
                self.solutions.len()
            ));
        }
        for (key, &slot) in &self.index {
            if slot >= self.solutions.len() {
                return Err(format!("index key {key:?} points past the members"));
            }
            if key.as_slice() != self.boxes.row(slot) {
                return Err(format!(
                    "index key {key:?} disagrees with member {slot}'s box"
                ));
            }
        }
        Ok(())
    }
}

/// The pre-index linear-scan ε-archive, retained as a reference oracle.
///
/// Byte-for-byte the decision procedure [`EpsilonArchive`] used before the
/// ε-grid index: every candidate compares against every resident's cached
/// box. The differential property tests drive both implementations with the
/// same insertion streams and require identical decisions, counters, and
/// final member ordering; the `core` bench group and the layout ablation use
/// it as the "before" arm.
#[derive(Debug, Clone)]
pub struct LinearScanArchive {
    epsilons: Vec<f64>,
    solutions: Vec<Solution>,
    boxes: Vec<Vec<i64>>,
    improvements: u64,
    accepts: u64,
    rejects: u64,
}

impl LinearScanArchive {
    /// Creates an empty linear-scan archive with per-objective ε values.
    pub fn new(epsilons: Vec<f64>) -> Self {
        assert!(!epsilons.is_empty(), "need at least one epsilon");
        assert!(
            epsilons.iter().all(|&e| e > 0.0 && e.is_finite()),
            "epsilons must be positive and finite"
        );
        Self {
            epsilons,
            solutions: Vec::new(),
            boxes: Vec::new(),
            improvements: 0,
            accepts: 0,
            rejects: 0,
        }
    }

    /// Creates an archive with a uniform ε for `m` objectives.
    pub fn uniform(m: usize, epsilon: f64) -> Self {
        Self::new(vec![epsilon; m])
    }

    /// Current archive members.
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Number of archive members.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    /// ε-progress counter.
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

    /// Attempts to insert a solution (the original O(n)-scan procedure).
    pub fn add(&mut self, solution: Solution) -> ArchiveInsert {
        debug_assert_eq!(solution.num_objectives(), self.epsilons.len());

        if !self.solutions.is_empty() {
            let archive_feasible = self.solutions[0].is_feasible();
            let sol_feasible = solution.is_feasible();
            match (archive_feasible, sol_feasible) {
                (true, false) => {
                    self.rejects += 1;
                    return ArchiveInsert::Rejected;
                }
                (false, true) => {
                    self.solutions.clear();
                    self.boxes.clear();
                    self.boxes
                        .push(epsilon_box(solution.objectives(), &self.epsilons));
                    self.solutions.push(solution);
                    self.improvements += 1;
                    self.accepts += 1;
                    return ArchiveInsert::AddedNewBox;
                }
                (false, false) => {
                    let cur = self.solutions[0].constraint_violation();
                    let new = solution.constraint_violation();
                    if new < cur {
                        self.boxes[0] = epsilon_box(solution.objectives(), &self.epsilons);
                        self.solutions[0] = solution;
                        self.accepts += 1;
                        return ArchiveInsert::ReplacedInBox;
                    }
                    self.rejects += 1;
                    return ArchiveInsert::Rejected;
                }
                (true, true) => {}
            }
        } else if !solution.is_feasible() {
            self.boxes
                .push(epsilon_box(solution.objectives(), &self.epsilons));
            self.solutions.push(solution);
            self.accepts += 1;
            return ArchiveInsert::AddedNewBox;
        }

        let sbox = epsilon_box(solution.objectives(), &self.epsilons);

        // Pass 1: determine the solution's fate against every member.
        let mut same_box: Option<usize> = None;
        let mut dominated_members: Vec<usize> = Vec::new();
        for (i, mbox) in self.boxes.iter().enumerate() {
            let mut s_better = false;
            let mut m_better = false;
            for (&sb, &mb) in sbox.iter().zip(mbox) {
                if sb < mb {
                    s_better = true;
                } else if mb < sb {
                    m_better = true;
                }
            }
            match (s_better, m_better) {
                (false, false) => {
                    same_box = Some(i);
                    break;
                }
                (true, false) => dominated_members.push(i),
                (false, true) => {
                    self.rejects += 1;
                    return ArchiveInsert::Rejected;
                }
                (true, true) => {}
            }
        }

        if let Some(i) = same_box {
            let incumbent = &self.solutions[i];
            let better = match constrained_dominance(&solution, incumbent) {
                Dominance::Dominates => true,
                Dominance::DominatedBy => false,
                Dominance::NonDominated => {
                    let corner: Vec<f64> = sbox
                        .iter()
                        .zip(&self.epsilons)
                        .map(|(&b, &e)| b as f64 * e)
                        .collect();
                    let d = |s: &Solution| {
                        s.objectives()
                            .iter()
                            .zip(&corner)
                            .map(|(o, c)| (o - c) * (o - c))
                            .sum::<f64>()
                    };
                    d(&solution) < d(incumbent)
                }
            };
            if better {
                self.solutions[i] = solution;
                self.accepts += 1;
                ArchiveInsert::ReplacedInBox
            } else {
                self.rejects += 1;
                ArchiveInsert::Rejected
            }
        } else {
            for &i in dominated_members.iter().rev() {
                self.solutions.swap_remove(i);
                self.boxes.swap_remove(i);
            }
            self.solutions.push(solution);
            self.boxes.push(sbox);
            self.improvements += 1;
            self.accepts += 1;
            ArchiveInsert::AddedNewBox
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.solutions()[0].objectives(), &[0.15, 0.15]);
        assert_eq!(a.evictions(), 1);
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
        assert_eq!(a.solutions()[0].objectives(), &[0.3, 0.4]);
        // Same box, farther from corner: rejected.
        assert_eq!(a.add(sol(&[0.6, 0.7])), ArchiveInsert::Rejected);
        // ε-progress only counted once (the initial insertion).
        assert_eq!(a.improvements(), 1);
        assert_eq!(a.replacements(), 1);
    }

    #[test]
    fn same_box_dominating_solution_replaces() {
        let mut a = EpsilonArchive::uniform(2, 1.0);
        a.add(sol(&[0.5, 0.5]));
        assert_eq!(a.add(sol(&[0.4, 0.4])), ArchiveInsert::ReplacedInBox);
        assert_eq!(a.solutions()[0].objectives(), &[0.4, 0.4]);
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
        a.reset_operator_credits();
        assert_eq!(a.operator_credits(), &[0, 0, 0]);
    }

    #[test]
    fn infeasible_placeholder_until_feasible_arrives() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        assert!(a.add(csol(&[0.1, 0.1], &[5.0])).accepted());
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
        assert!(a.solutions()[0].is_feasible());
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
    fn generation_changes_iff_content_may_have_changed() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        let g0 = a.generation();
        a.add(sol(&[0.05, 0.95]));
        let g1 = a.generation();
        assert_ne!(g0, g1, "accepted insertion must bump the generation");
        // A rejected insertion leaves the content — and the generation —
        // untouched.
        a.add(sol(&[0.55, 0.95]));
        assert_eq!(a.generation(), g1);
        // Clearing empties the content, so the generation must move even
        // though nothing was accepted.
        a.clear_solutions();
        assert_ne!(a.generation(), g1);
    }

    #[test]
    #[should_panic(expected = "epsilons must be positive")]
    fn zero_epsilon_panics() {
        EpsilonArchive::new(vec![0.0]);
    }

    #[test]
    fn indexed_archive_matches_linear_scan_on_random_streams() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = 2 + (seed as usize % 3);
            let mut fast = EpsilonArchive::uniform(m, 0.07);
            let mut slow = LinearScanArchive::uniform(m, 0.07);
            for step in 0..600 {
                let objs: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
                let s = Solution::from_parts(vec![], objs, vec![]);
                let a = fast.offer(&s);
                let b = slow.add(s);
                assert_eq!(a, b, "decision diverged at step {step} (seed {seed})");
            }
            assert_eq!(fast.len(), slow.len());
            assert_eq!(fast.improvements(), slow.improvements());
            assert_eq!(fast.accepts(), slow.accepts());
            assert_eq!(fast.rejects(), slow.rejects());
            for (f, s) in fast.solutions().iter().zip(slow.solutions()) {
                assert_eq!(f.objectives(), s.objectives(), "member order diverged");
            }
            fast.check_invariants().unwrap();
        }
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
        for objs in stream {
            let s = sol(&objs);
            assert_eq!(by_offer.offer(&s), by_add.add(s.clone()));
        }
        assert_eq!(by_add.len(), by_offer.len());
        assert_eq!(by_add.box_probes(), by_offer.box_probes());
        by_offer.check_invariants().unwrap();
    }

    #[test]
    fn box_probes_stay_sublinear_on_a_spread_front() {
        // 1 000 candidates along a 2-D front: the index should consult far
        // fewer keys than the ~n/2 per candidate a linear scan averages.
        let n = 1_000usize;
        let mut a = EpsilonArchive::uniform(2, 1e-4);
        for i in 0..n {
            let t = i as f64 / n as f64;
            a.add(sol(&[t, 1.0 - t]));
        }
        let per_candidate = a.box_probes() as f64 / n as f64;
        assert!(
            per_candidate < 16.0,
            "expected a handful of probes per candidate, got {per_candidate:.1}"
        );
    }

    #[test]
    fn stamp_detects_pure_appends() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(sol(&[0.05, 0.95]));
        let s0 = a.stamp();
        a.add(sol(&[0.95, 0.05]));
        a.add(sol(&[0.45, 0.45]));
        assert_eq!(s0.pure_append_to(&a.stamp()), Some(2));
        // A same-box replacement breaks pure-append.
        let s1 = a.stamp();
        assert_eq!(a.add(sol(&[0.44, 0.44])), ArchiveInsert::ReplacedInBox);
        assert_eq!(s1.pure_append_to(&a.stamp()), None);
        // An eviction breaks pure-append.
        let s2 = a.stamp();
        assert_eq!(a.add(sol(&[0.01, 0.01])), ArchiveInsert::AddedNewBox);
        assert!(a.evictions() > 0);
        assert_eq!(s2.pure_append_to(&a.stamp()), None);
        // A clear breaks pure-append even though len could line up.
        let s3 = a.stamp();
        a.clear_solutions();
        a.add(sol(&[0.5, 0.5]));
        assert_eq!(s3.pure_append_to(&a.stamp()), None);
    }

    #[test]
    fn objective_rows_mirror_solutions() {
        let mut a = EpsilonArchive::uniform(2, 0.1);
        a.add(sol(&[0.05, 0.95]));
        a.add(sol(&[0.95, 0.05]));
        let rows = a.objective_rows();
        assert_eq!(rows.rows(), 2);
        for (i, s) in a.solutions().iter().enumerate() {
            assert_eq!(rows.row(i), s.objectives());
        }
        assert_eq!(a.objective_vectors().len(), 2);
    }
}
