//! Differential tests: [`EpsilonArchive`]'s blocked scan over `f64` key
//! lanes must make *bit-identical* decisions to the [`LinearScanArchive`]
//! oracle (`support/`), which compares integer keys one member at a time,
//! on arbitrary insertion streams — same per-candidate verdicts, same
//! counters, same final member ordering — and its row matrices must hold
//! what the oracle's `Solution`s hold: every member's variables, objectives
//! and constraints, bit for bit.
//!
//! The generators stress what the scan could get wrong: random
//! per-objective ε values, heavy ties (objectives drawn from a small
//! palette so many candidates share ε-boxes or box coordinates), signed
//! zeros, the single-objective degenerate case, infeasible candidates
//! exercising the constraint arms, archives that grow and shrink across
//! block boundaries, objectives whose keys saturate or sit where doubles
//! are sparse, and box coordinates beyond ±256, where the 16-bit order keys
//! the scan consults first no longer tell neighbouring boxes apart.

mod support;

use borg_core::archive::{ArchiveInsert, EpsilonArchive};
use borg_core::dominance::epsilon_box_coord;
use borg_core::solution::Solution;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::LinearScanArchive;

/// Objective palette: coarse values produce frequent exact ties and shared
/// ε-boxes; `-0.0` checks that signed zeros cannot split a box key.
fn objective_value() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![
        -0.0, 0.0, 0.05, 0.1, 0.15, 0.2, 0.35, 0.5, 0.55, 0.7, 0.85, 0.99,
    ])
}

/// A constraint drawn from {feasible, mildly violated, badly violated}.
fn constraint_value() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.0, 0.0, 0.0, 0.25, 1.5])
}

fn drive_both(
    m: usize,
    epsilons: &[f64],
    stream: &[(Vec<f64>, Vec<f64>)],
) -> Result<(), TestCaseError> {
    let mut pair = Pair::new(epsilons);
    for (step, (objs, cons)) in stream.iter().enumerate() {
        prop_assert_eq!(objs.len(), m);
        let variables = vec![step as f64, -(step as f64)];
        let s = Solution::from_parts(variables, objs.clone(), cons.clone());
        pair.offer(&s)
            .map_err(|e| TestCaseError::fail(format!("step {step} of {stream:?}: {e}")))?;
    }
    pair.agree().map_err(TestCaseError::fail)
}

/// The archive and its oracle, driven in lockstep.
#[derive(Clone)]
struct Pair {
    fast: EpsilonArchive,
    slow: LinearScanArchive,
}

impl Pair {
    fn new(epsilons: &[f64]) -> Self {
        Self {
            fast: EpsilonArchive::new(epsilons.to_vec()),
            slow: LinearScanArchive::new(epsilons.to_vec()),
        }
    }

    /// Offers one candidate to both; the verdicts must be equal.
    fn offer(&mut self, s: &Solution) -> Result<ArchiveInsert, String> {
        let fast = self.fast.offer(s);
        let slow = self.slow.add(s.clone());
        if fast != slow {
            return Err(format!(
                "decision diverged on {:?}: {fast:?} vs oracle {slow:?}",
                s.objectives()
            ));
        }
        Ok(fast)
    }

    fn clear(&mut self) {
        self.fast.clear_solutions();
        self.slow.clear_solutions();
    }

    /// Same counters, same members in the same order with the same three
    /// rows (bit for bit), and the archive's own invariants.
    fn agree(&self) -> Result<(), String> {
        let (fast, slow) = (&self.fast, &self.slow);
        let f = [
            fast.len() as u64,
            fast.improvements(),
            fast.accepts(),
            fast.rejects(),
        ];
        let s = [
            slow.len() as u64,
            slow.improvements(),
            slow.accepts(),
            slow.rejects(),
        ];
        if f != s {
            return Err(format!(
                "len/improvements/accepts/rejects {f:?} vs oracle {s:?}"
            ));
        }
        let bits = |row: &[f64]| -> Vec<u64> { row.iter().map(|v| v.to_bits()).collect() };
        for (i, (f, s)) in fast.members().zip(slow.solutions()).enumerate() {
            for (name, row, truth) in [
                ("variables", f.variables(), s.variables()),
                ("objectives", f.objectives(), s.objectives()),
                ("constraints", f.constraints(), s.constraints()),
            ] {
                if bits(row) != bits(truth) {
                    return Err(format!("{name} diverged at slot {i}"));
                }
            }
        }
        fast.check_invariants()
            .map_err(|e| format!("invariant violation: {e}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Multi-objective streams over random ε vectors, with ties and
    /// occasional infeasibility.
    #[test]
    fn indexed_matches_linear_on_random_streams(
        m in 2usize..=4,
        eps_seed in prop::collection::vec(0.02f64..0.4, 4),
        stream in prop::collection::vec(
            (prop::collection::vec(objective_value(), 4), constraint_value()),
            1..120,
        ),
    ) {
        let epsilons: Vec<f64> = eps_seed[..m].to_vec();
        let stream: Vec<(Vec<f64>, Vec<f64>)> = stream
            .into_iter()
            .map(|(objs, c)| (objs[..m].to_vec(), vec![c]))
            .collect();
        drive_both(m, &epsilons, &stream)?;
    }

    /// The 1-D degenerate case: every box key is a single coordinate, so
    /// the archive never holds more than one member.
    #[test]
    fn indexed_matches_linear_single_objective(
        epsilon in 0.02f64..0.3,
        stream in prop::collection::vec(objective_value(), 1..80),
    ) {
        let stream: Vec<(Vec<f64>, Vec<f64>)> = stream
            .into_iter()
            .map(|v| (vec![v], vec![]))
            .collect();
        drive_both(1, &[epsilon], &stream)?;
    }

    /// Re-ordering a fixed candidate pool: both implementations must agree
    /// under *every* order, not just the one the generator happened to
    /// produce first.
    #[test]
    fn indexed_matches_linear_under_shuffles(
        stream in Just((0..30u32).collect::<Vec<u32>>()).prop_shuffle(),
    ) {
        // A deterministic pool mixing front points, dominated points, and
        // exact duplicates; the shuffle chooses the insertion order.
        let pool: Vec<(Vec<f64>, Vec<f64>)> = stream
            .into_iter()
            .map(|i| {
                let t = f64::from(i % 10) / 10.0;
                let lift = f64::from(i / 10) * 0.15;
                (vec![t + lift, 1.0 - t + lift], vec![])
            })
            .collect();
        drive_both(2, &[0.07, 0.11], &pool)?;
    }
}

/// Seeded uniform streams at one ε, two to four objectives (the unit test
/// that sat beside the archive before the oracle moved here).
#[test]
fn indexed_archive_matches_linear_scan_on_random_streams() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = 2 + (seed as usize % 3);
        let mut pair = Pair::new(&vec![0.07; m]);
        for step in 0..600 {
            let objs: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
            let s = Solution::from_parts(vec![step as f64], objs, vec![]);
            pair.offer(&s)
                .unwrap_or_else(|e| panic!("step {step} (seed {seed}): {e}"));
        }
        pair.agree().unwrap();
    }
}

/// A solution in the middle of ε-box `key` at ε = 0.01, its key as its
/// variables.
fn in_box(key: &[i64]) -> Solution {
    let objs = key.iter().map(|&k| (k as f64 + 0.5) * 0.01).collect();
    Solution::from_parts(key.iter().map(|&k| k as f64).collect(), objs, vec![])
}

/// Archives of exactly 7, 8, 9, 63, 64 and 65 members — a 2-D staircase,
/// member `i` in box (2i, 2(size − i)) at slot `i` — and, for every slot
/// range, the candidate whose box dominates exactly that range: evictions
/// from the middle of a block, across blocks, of the whole last block and
/// of everything, each followed by a refill that grows back over the
/// boundary.
#[test]
fn evictions_and_refills_across_block_boundaries_match_linear() {
    for size in [7i64, 8, 9, 63, 64, 65] {
        let mut base = Pair::new(&[0.01, 0.01]);
        for i in 0..size {
            let verdict = base.offer(&in_box(&[2 * i, 2 * (size - i)])).unwrap();
            assert_eq!(verdict, ArchiveInsert::AddedNewBox);
        }
        base.agree().unwrap();
        for lo in 0..size {
            for hi in lo..size {
                let mut pair = base.clone();
                let candidate = in_box(&[2 * lo - 1, 2 * (size - hi) - 1]);
                let verdict = pair.offer(&candidate).unwrap();
                assert_eq!(verdict, ArchiveInsert::AddedNewBox, "{size}: {lo}..={hi}");
                assert_eq!(pair.fast.len() as i64, size - (hi - lo + 1) + 1);
                pair.agree()
                    .unwrap_or_else(|e| panic!("{size}: evicting {lo}..={hi}: {e}"));
                // Further down the staircase (negative keys): all new boxes.
                for i in size..size + 10 {
                    pair.offer(&in_box(&[2 * i, 2 * (size - i)])).unwrap();
                }
                pair.agree()
                    .unwrap_or_else(|e| panic!("{size}: refill after {lo}..={hi}: {e}"));
            }
        }
    }
}

/// Box coordinates beyond ±256, where an order key covers 2, 4 or 8
/// neighbouring boxes: a staircase around (1000, 1000[, −1000]) with a few
/// boxes of jitter, so candidates meet residents that dominate them, that
/// they dominate and whose box they share while the order keys of the two
/// tie in every coordinate — the filter must say nothing and the exact
/// kernel decide — next to residents far enough along the stairs for the
/// keys to separate.
#[test]
fn blocked_verdicts_match_integer_keys_where_order_keys_tie() {
    let mut verdicts = [0usize; 3];
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = 2 + (seed as usize % 2);
        let mut pair = Pair::new(&vec![0.01; m]);
        for step in 0..400 {
            let a = rng.gen_range(-60i64..=60);
            let mut key = vec![1000 + a, 1000 - a];
            if m == 3 {
                key[1] = 300 - a / 2;
                key.push(-1000 - a / 2);
            }
            // Somewhere inside the box, so same-box candidates win and lose.
            let inside = rng.gen_range(0.1..0.9);
            let objs = key
                .iter()
                .map(|&k| ((k + rng.gen_range(-2i64..=2)) as f64 + inside) * 0.01)
                .collect();
            let verdict = pair
                .offer(&Solution::from_parts(
                    vec![step as f64, inside],
                    objs,
                    vec![],
                ))
                .unwrap_or_else(|e| panic!("step {step} (seed {seed}): {e}"));
            verdicts[match verdict {
                ArchiveInsert::AddedNewBox => 0,
                ArchiveInsert::ReplacedInBox => 1,
                ArchiveInsert::Rejected => 2,
            }] += 1;
        }
        pair.agree().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(pair.fast.len() > 16, "seed {seed}: {}", pair.fast.len());
    }
    assert!(verdicts.iter().all(|&n| n > 100), "{verdicts:?}");
}

/// A point of the plane `Σ x = scale`: points at one scale are mutually
/// nondominated, so the archive grows; a point at a smaller scale dominates
/// the neighbourhood it shrinks into, one at a larger scale is dominated.
/// Its weights are its variables.
fn plane_point(m: usize, scale: f64, constraint: f64, rng: &mut StdRng) -> Solution {
    let weights: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() + 0.01).collect();
    let sum: f64 = weights.iter().sum();
    let objs = weights.iter().map(|w| w / sum * scale).collect();
    Solution::from_parts(weights, objs, vec![constraint])
}

/// Long mixed streams: growth well past 65 members, then a front that
/// keeps moving inwards so new members evict old ones a few at a time,
/// rejections, and `clear_solutions` followed by the infeasible-placeholder
/// arms and a refill.
fn drive_mixed(m: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Fine enough that a 2-D line still holds many more than 65 boxes.
    let epsilon = if m <= 2 { 0.001 } else { 0.02 };
    let mut pair = Pair::new(&vec![epsilon; m]);
    let mut level = 1.0;
    let mut longest = 0;
    for step in 0..1_200 {
        let at = |e: String| format!("step {step}: {e}");
        let (scale, constraint) = match rng.gen_range(0..200) {
            0 if step > 150 => {
                pair.clear();
                // Placeholder, a less violating one, a more violating one;
                // the next feasible candidate evicts whichever is left.
                for violation in [5.0, 2.0, 3.0] {
                    pair.offer(&plane_point(m, level, violation, &mut rng))
                        .map_err(at)?;
                }
                continue;
            }
            1..=2 if step > 150 => {
                level *= 0.8;
                continue;
            }
            3..=12 => (0.95, 0.0),
            13..=32 => (1.2, 0.0),
            33..=36 => (0.5, 1.0),
            _ => (1.0, 0.0),
        };
        pair.offer(&plane_point(m, level * scale, constraint, &mut rng))
            .map_err(at)?;
        longest = longest.max(pair.fast.len());
        if step % 32 == 0 {
            pair.agree().map_err(at)?;
        }
    }
    if m > 1 && longest <= 65 {
        return Err(format!("stream never grew past 65 members ({longest})"));
    }
    pair.agree()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Widths from the single-objective degenerate case to ten.
    #[test]
    fn blocked_scan_matches_linear_on_long_mixed_streams(
        m in prop::sample::select(vec![1usize, 2, 3, 5, 10]),
        seed in 0u64..u64::MAX,
    ) {
        drive_mixed(m, seed).map_err(TestCaseError::fail)?;
    }
}

/// The same streams, once at each of four widths the proptest above does
/// not draw and the order-key filter reads only a prefix of
/// (`COMPILED_COLUMNS`): four columns, filtered on three, and six, eight
/// and nine, filtered on five. Each archive grows past 65 members, so the
/// filter is asked about full blocks.
#[test]
fn blocked_scan_matches_linear_around_the_compiled_filter() {
    for m in [4usize, 6, 8, 9] {
        drive_mixed(m, 0x5EED + m as u64).unwrap_or_else(|e| panic!("m = {m}: {e}"));
    }
}

/// Objectives whose keys are where the `f64` lanes could go wrong if the
/// exactness argument in `archive.rs` did not hold: not a number, infinite,
/// saturating the `i64` cast on either side, signed zeros, and around 2⁵³
/// and 2⁶³, where doubles are sparser than integers.
fn extreme_objectives() -> Vec<f64> {
    let p53 = 2f64.powi(53);
    let p63 = 2f64.powi(63);
    let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
    for magnitude in [0.4, 1.0, p53 - 1.0, p53, p53 + 2.0, p63, 1e19, 1e300] {
        for neighbour in [-1i64, 0, 1] {
            let bits = (f64::to_bits(magnitude) as i64 + neighbour) as u64;
            values.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
        }
    }
    values
}

const EXTREME_EPSILONS: [f64; 5] = [1.0, 0.5, 3.0, 0.06, 1e-4];

#[test]
fn key_lanes_are_exact_and_strictly_increasing_on_reachable_keys() {
    let mut keys: Vec<i64> = extreme_objectives()
        .iter()
        .flat_map(|&o| EXTREME_EPSILONS.map(|e| epsilon_box_coord(o, e)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert!(keys.contains(&i64::MIN) && keys.contains(&i64::MAX) && keys.contains(&0));
    assert!(keys.iter().any(|k| k.unsigned_abs() > 1 << 53));
    for pair in keys.windows(2) {
        let (a, b) = (pair[0] as f64, pair[1] as f64);
        assert!(a < b, "{} and {} share or swap lanes", pair[0], pair[1]);
    }
    for &k in &keys {
        assert_eq!((k as f64) as i64, k, "key {k} does not survive its lane");
    }
}

#[test]
fn blocked_verdicts_match_integer_keys_on_extreme_objectives() {
    let palette = extreme_objectives();
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = 1 + (seed as usize % 3);
        let epsilons: Vec<f64> = (0..m)
            .map(|_| EXTREME_EPSILONS[rng.gen_range(0..EXTREME_EPSILONS.len())])
            .collect();
        let mut pair = Pair::new(&epsilons);
        for step in 0..200 {
            let objs = (0..m)
                .map(|_| palette[rng.gen_range(0..palette.len())])
                .collect();
            pair.offer(&Solution::from_parts(vec![f64::from(step)], objs, vec![]))
                .unwrap_or_else(|e| panic!("step {step} (seed {seed}, ε {epsilons:?}): {e}"));
        }
        pair.agree()
            .unwrap_or_else(|e| panic!("seed {seed}, ε {epsilons:?}: {e}"));
    }
}
