//! One-process ratio test (ROADMAP item 4a): the order-key filter against
//! the exact kernel it stands in front of, over the same blocks, timed in
//! the same process so the host's speed cancels. Timing needs an optimised
//! build and a quiet moment, so the test is ignored by default; `ci.sh`
//! runs it with `cargo test --release -p borg-core --test kernel_ratio --
//! --ignored`.

use borg_core::dominance::{
    constrained_dominance_block, keys_apart_block, splat_order_keys, BLOCK_LANES,
};
use borg_core::matrix::BlockedRows;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MEMBERS: usize = 12_288;
const OBJECTIVES: usize = 5;

/// A point of the positive unit sphere, DTLZ2's front: any two are mutually
/// nondominated, almost always by more than a key step.
fn sphere_point(rng: &mut StdRng) -> Vec<f64> {
    let mut objs: Vec<f64> = (0..OBJECTIVES).map(|_| rng.gen_range(0.05..1.0)).collect();
    let norm = objs.iter().map(|x| x * x).sum::<f64>().sqrt();
    objs.iter_mut().for_each(|x| *x /= norm);
    objs
}

/// The fastest of five passes of 64 scans each.
fn best_of_5(mut scan: impl FnMut() -> usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut skipped = 0;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..64 {
            skipped = black_box(scan());
        }
        best = best.min(start.elapsed());
    }
    (best, skipped)
}

#[test]
#[ignore = "wall-clock ratio; ci.sh runs it in release"]
fn keyed_scan_is_at_least_twice_as_fast_as_the_exact_kernel() {
    let mut rng = StdRng::seed_from_u64(17);
    // The population's mirror: objectives, then a zero violation.
    let mut rows = BlockedRows::default();
    for _ in 0..MEMBERS {
        rows.push(sphere_point(&mut rng).into_iter().chain([0.0]));
    }
    let offspring = sphere_point(&mut rng);
    let mut keys = Vec::new();
    assert!(splat_order_keys(offspring.iter().copied(), &mut keys));

    let blocks = MEMBERS / BLOCK_LANES;
    let (exact, undecided) = best_of_5(|| {
        rows.blocks()
            .filter(|(_, block)| constrained_dominance_block(&offspring, 0.0, block).is_none())
            .count()
    });
    let (keyed, apart) = best_of_5(|| {
        rows.blocks()
            .filter(|(order, _)| keys_apart_block(&keys, &order[..OBJECTIVES]))
            .count()
    });
    // The comparison is fair only if the keys settle what the exact kernel
    // would have: nearly every block, and none it would have decided.
    assert!(apart <= undecided && undecided <= blocks);
    assert!(
        apart * 100 >= blocks * 99,
        "{apart} of {blocks} blocks apart"
    );
    let ratio = exact.as_secs_f64() / keyed.as_secs_f64();
    println!(
        "exact {:.2} µs, keyed {:.2} µs a scan of {MEMBERS} members: x{ratio:.2}",
        exact.as_secs_f64() * 1e6 / 64.0,
        keyed.as_secs_f64() * 1e6 / 64.0,
    );
    assert!(ratio >= 2.0, "keyed scan only x{ratio:.2} the exact kernel");
}
