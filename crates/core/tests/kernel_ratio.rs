//! One-process ratio test (ROADMAP item 4a): the order-key filter the
//! scans are handed against the exact kernel it stands in front of, and
//! against the loop it replaced, over the same blocks, timed in the same
//! process so the host's speed cancels. Timing needs an optimised build and
//! a quiet moment, so the test is ignored by default; `ci.sh` runs it with
//! `cargo test --release -p borg-core --test kernel_ratio -- --ignored`.

use borg_core::dominance::{
    constrained_dominance_block, filter_by_order_keys, keys_apart_block_dyn, splat_order_keys,
    KeyLanes, KeyedScan, BLOCK_LANES, COMPILED_COLUMNS,
};
use borg_core::matrix::BlockedRows;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MEMBERS: usize = 12_288;
const BLOCKS: usize = MEMBERS / BLOCK_LANES;

/// A point of the positive unit sphere in `m` dimensions, DTLZ2's front:
/// any two are mutually nondominated, almost always by more than a key
/// step.
fn sphere_point(m: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut objs: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..1.0)).collect();
    let norm = objs.iter().map(|x| x * x).sum::<f64>().sqrt();
    objs.iter_mut().for_each(|x| *x /= norm);
    objs
}

/// A population's mirror of `MEMBERS` sphere points (objectives, then a
/// zero violation) and an offspring on the same sphere.
fn population(m: usize, seed: u64) -> (BlockedRows, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = BlockedRows::default();
    for _ in 0..MEMBERS {
        rows.push(sphere_point(m, &mut rng).into_iter().chain([0.0]));
    }
    (rows, sphere_point(m, &mut rng))
}

/// A scan that counts the blocks the filter it is handed settles.
struct CountApart<'a>(&'a BlockedRows);

impl KeyedScan for CountApart<'_> {
    type Output = usize;

    fn run(self, apart: impl Fn(&[KeyLanes]) -> bool) -> usize {
        self.0.blocks().filter(|(keys, _)| apart(keys)).count()
    }
}

/// The filter the population's scan is handed for `offspring`: the entry
/// point, dispatch included (a compiled count never touches the spill
/// buffer, so an empty one allocates nothing).
fn dispatched(rows: &BlockedRows, offspring: &[f64]) -> usize {
    filter_by_order_keys(offspring, &mut Vec::new(), CountApart(rows))
}

/// The loop over the columns, on keys broadcast beforehand.
fn by_loop(rows: &BlockedRows, keys: &[KeyLanes]) -> usize {
    rows.blocks()
        .filter(|(order, _)| keys_apart_block_dyn(keys, order))
        .count()
}

/// One pass of 64 scans: its time and what the last scan counted.
fn pass(scan: &mut impl FnMut() -> usize) -> (Duration, usize) {
    let start = Instant::now();
    let mut counted = 0;
    for _ in 0..64 {
        counted = black_box(scan());
    }
    (start.elapsed(), counted)
}

/// The fastest of seven passes of each scan, the two alternated pass by
/// pass so that a slow stretch of the host hits both.
fn best_of_7_alternated(
    mut a: impl FnMut() -> usize,
    mut b: impl FnMut() -> usize,
) -> ((Duration, usize), (Duration, usize)) {
    let (mut best_a, mut best_b) = ((Duration::MAX, 0), (Duration::MAX, 0));
    for _ in 0..7 {
        best_a = best_a.min(pass(&mut a));
        best_b = best_b.min(pass(&mut b));
    }
    (best_a, best_b)
}

fn per_block_ns(scans: Duration) -> f64 {
    scans.as_secs_f64() * 1e9 / (64 * BLOCKS) as f64
}

#[test]
#[ignore = "wall-clock ratio; ci.sh runs it in release"]
fn keyed_scan_outruns_the_exact_kernel_five_times_and_the_loop_at_every_count() {
    let (rows, offspring) = population(5, 17);
    let ((exact, undecided), (keyed, apart)) = best_of_7_alternated(
        || {
            rows.blocks()
                .filter(|(_, block)| constrained_dominance_block(&offspring, 0.0, block).is_none())
                .count()
        },
        || dispatched(&rows, &offspring),
    );
    // The comparison is fair only if the keys settle what the exact kernel
    // would have: nearly every block, and none it would have decided.
    assert!(apart <= undecided && undecided <= BLOCKS);
    assert!(
        apart * 100 >= BLOCKS * 99,
        "{apart} of {BLOCKS} blocks apart"
    );
    let ratio = exact.as_secs_f64() / keyed.as_secs_f64();
    println!(
        "exact {:.2} ns, keyed {:.2} ns a block of a {MEMBERS}-member scan: x{ratio:.2}",
        per_block_ns(exact),
        per_block_ns(keyed),
    );
    assert!(ratio >= 5.0, "keyed scan only x{ratio:.2} the exact kernel");

    // Every column count with a compiled filter, handed to a scan through
    // the dispatch, against the loop it replaced: a count that silently
    // fell back to the loop, or whose instantiation LLVM compiled worse
    // than the loop, reads about x1.
    for m in COMPILED_COLUMNS {
        let (rows, offspring) = population(m, 17 + m as u64);
        let mut keys = vec![[0; BLOCK_LANES]; m];
        assert!(splat_order_keys(&offspring, &mut keys));
        let ((looped, expected), (compiled, apart)) =
            best_of_7_alternated(|| by_loop(&rows, &keys), || dispatched(&rows, &offspring));
        assert_eq!(apart, expected, "m = {m}");
        let ratio = looped.as_secs_f64() / compiled.as_secs_f64();
        println!(
            "m = {m:2}: loop {:.2} ns, compiled {:.2} ns a block: x{ratio:.2}",
            per_block_ns(looped),
            per_block_ns(compiled),
        );
        assert!(ratio >= 1.25, "m = {m}: compiled filter only x{ratio:.2}");
    }
}
